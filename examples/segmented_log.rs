//! Segmented log + truncation: operating the log like a production system.
//!
//! Runs update traffic through a [`SegmentedDevice`] (fixed-size log
//! partitions), takes checkpoints, flushes pages, computes the ARIES
//! truncation point and recycles sealed segments behind it — the lifecycle
//! §A.3 alludes to when it mentions log-file wraparounds.
//!
//! Run with: `cargo run --release --example segmented_log`

use aether::log::partition::{MemSegmentFactory, SegmentedDevice};
use aether::prelude::*;
use std::sync::Arc;

fn main() {
    let segments =
        Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 64 * 1024).expect("segments"));
    let opts = DbOptions {
        protocol: CommitProtocol::Elr,
        ..DbOptions::default()
    };
    let db = aether::storage::Db::open_with_device(opts, Arc::clone(&segments) as _);
    db.create_table(64, 1000);
    for k in 0..1000u64 {
        let mut r = vec![0u8; 64];
        r[..8].copy_from_slice(&k.to_le_bytes());
        db.load(0, k, &r).unwrap();
    }
    db.setup_complete();

    for round in 0..5 {
        // A burst of committed updates...
        for i in 0..2_000u64 {
            let mut txn = db.begin();
            let key = (round * 2000 + i) % 1000;
            db.update_with(&mut txn, 0, key, |r| r[8] = r[8].wrapping_add(1))
                .unwrap();
            db.commit(txn).unwrap();
        }
        // ...then housekeeping: flush pages, checkpoint, and retire
        // the log below the published redo low-water mark (one call — the
        // checkpoint daemon runs exactly this cycle on a timer).
        let out = db.checkpoint_and_truncate();
        println!(
            "round {round}: log end {}, low-water {}, retained {:>6} B, live segments {:>3}, recycled {}",
            db.log().durable_lsn(),
            out.applied,
            db.log().retained_bytes(),
            segments.live_segments(),
            out.segments_recycled,
        );
    }
    let stats = db.log().truncation_stats();
    println!(
        "total recycled segments: {} over {} truncations — the log never grows without bound",
        stats.segments_recycled, stats.truncations
    );
    assert!(stats.segments_recycled > 0);
}
