//! Quickstart: the Aether log manager in five minutes.
//!
//! Builds a log manager with the hybrid (CD) buffer, inserts records from
//! several threads, commits with a durability wait, and scans the log back —
//! the minimal end-to-end tour of the public API.
//!
//! Run with: `cargo run --release --example quickstart`

use aether::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. Build: hybrid consolidation-array buffer over a simulated
    //    flash-class device (100µs sync latency).
    let log = Arc::new(
        LogManager::builder()
            .buffer(BufferKind::Hybrid)
            .device(DeviceKind::Flash)
            .build(),
    );
    println!("log manager up: buffer={:?}", log.buffer_kind());

    // 2. Insert records concurrently: the consolidation array absorbs
    //    contention, the decoupled fill pipelines the copies.
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let log = Arc::clone(&log);
            s.spawn(move || {
                for i in 0..1_000u64 {
                    let payload = format!("thread {t} record {i}");
                    log.insert(RecordKind::Filler, t, payload.as_bytes());
                }
            });
        }
    });
    let stats = log.stats();
    println!(
        "inserted {} records ({} bytes), {} consolidated into {} groups",
        stats.inserts, stats.bytes, stats.consolidations, stats.group_acquires
    );

    // 3. Commit: insert a record, register it as a commit with the
    //    group-commit flush daemon, and wait for it to be durable.
    let (_, end) = log.insert_payload::<[u8]>(RecordKind::Filler, 42, Lsn::ZERO, &[]);
    log.note_commit(end);
    let handle = log.handle(end);
    assert!(handle.wait());
    println!(
        "commit durable at LSN {} after {} device syncs",
        log.durable_lsn(),
        log.flush_count()
    );

    // 4. Recovery scan: read the whole durable prefix back.
    log.flush_all().unwrap();
    let records = log.reader().read_all().expect("clean log scans cleanly");
    println!(
        "scan found {} records; first = {:?}",
        records.len(),
        records[0].header.kind
    );
    assert_eq!(records.len() as u64, log.stats().inserts);
    println!("quickstart OK");
}
