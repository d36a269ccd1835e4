//! The telemetry JSON-lines export touches the file system. It lives here,
//! not in `src/`, because the library never reads the process environment
//! (CI greps for it) and a scratch directory has to come from somewhere.
//! (`FileDevice` is a row of `device_contract.rs`.)

use aether_core::telemetry::TelemetryConfig;
use aether_core::{DeviceKind, LogConfig, LogManager};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `export_path` is where the shutdown snapshot goes, and `append_to`
/// appends: two managers over one path leave two documents.
#[test]
fn shutdown_snapshot_appends_to_export_path() {
    let path = scratch("telemetry_export").join("telemetry.jsonl");
    for _ in 0..2 {
        let log = LogManager::builder()
            .device(DeviceKind::Ram)
            .config(LogConfig::default().with_telemetry(TelemetryConfig {
                enabled: true,
                export_path: Some(path.clone()),
                ..TelemetryConfig::default()
            }))
            .build();
        log.shutdown();
    }
    let body = std::fs::read_to_string(&path).unwrap();
    let snapshots = body
        .lines()
        .filter(|l| l.contains("\"telemetry\":\"snapshot\""))
        .count();
    assert_eq!(snapshots, 2, "append, not truncate");
}
