//! The tests that touch the file system: `FileDevice` and the telemetry
//! JSON-lines export. They live here, not in `src/`, because the library
//! never reads the process environment (CI greps for it) and a scratch
//! directory has to come from somewhere.

use aether_core::device::{FileDevice, LogDevice};
use aether_core::telemetry::TelemetryConfig;
use aether_core::{DeviceKind, LogConfig, LogManager};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn file_device_roundtrip() {
    let path = scratch("file_device_roundtrip").join("log.bin");
    let d = FileDevice::create(&path).unwrap();
    d.append(b"abcdef").unwrap();
    d.sync().unwrap();
    assert_eq!(d.len(), 6);
    let mut buf = vec![0u8; 6];
    assert_eq!(d.read_at(0, &mut buf).unwrap(), 6);
    assert_eq!(&buf, b"abcdef");
    drop(d);
    let d2 = FileDevice::open(&path).unwrap();
    assert_eq!(d2.len(), 6);
    assert_eq!(d2.path(), path.as_path());
}

#[test]
fn file_device_write_vectored_is_one_gathered_run() {
    let runs: [&[u8]; 3] = [b"alpha-", b"beta-", b"gamma"];
    let f = FileDevice::create(scratch("file_device_vectored").join("log.bin")).unwrap();
    f.append(b"pre-").unwrap();
    f.write_vectored(&runs).unwrap();
    f.sync().unwrap();
    assert_eq!(f.len(), 20);
    let mut out = vec![0u8; 20];
    assert_eq!(f.read_at(0, &mut out).unwrap(), 20);
    assert_eq!(&out, b"pre-alpha-beta-gamma");
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
