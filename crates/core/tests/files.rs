//! The telemetry JSON-lines export touches the file system. It lives here,
//! not in `src/`, because the library never reads the process environment
//! (CI greps for it) and a scratch directory has to come from somewhere.
//! (`FileDevice` is a row of `device_contract.rs`.)

use aether_core::device::{FileDevice, LogDevice};
use aether_core::reader::LogReader;
use aether_core::record::RecordKind;
use aether_core::telemetry::TelemetryConfig;
use aether_core::{DeviceKind, LogConfig, LogManager, Lsn};
use std::path::PathBuf;
use std::sync::Arc;

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

/// A log over a file that already holds bytes starts at the file's end: a
/// record's LSN is its offset in the file, and a reader finds it there.
#[test]
fn a_log_starts_at_its_devices_end() {
    let path = scratch("log_at_device_end").join("log");
    std::fs::write(&path, [0u8; 1000]).unwrap();
    let device: Arc<dyn LogDevice> = Arc::new(FileDevice::open(&path).unwrap());
    let log = LogManager::builder()
        .device_instance(Arc::clone(&device))
        .build();
    let lsn = log.insert(RecordKind::Filler, 7, b"after the old bytes");
    log.flush_all().unwrap();
    log.shutdown();
    assert_eq!(lsn, Lsn(1000));
    let rec = LogReader::from_lsn(device, lsn)
        .next_record()
        .unwrap()
        .expect("the record at its LSN");
    assert_eq!((rec.lsn, rec.header.txn), (lsn, 7));
    assert_eq!(&rec.payload[..], b"after the old bytes");
}
