//! Crash and recover: WAL + ELR safety, demonstrated.
//!
//! Commits some transactions, leaves one in flight, pulls the plug, and runs
//! ARIES recovery — committed work survives, the in-flight transaction rolls
//! back via compensation records. Then does the same under asynchronous
//! commit to show exactly the durability loss the paper refuses to accept.
//!
//! Run with: `cargo run --release --example crash_recovery`

use aether::log::device::{DeviceFault, FaultDevice, LogDevice, SimDevice};
use aether::prelude::*;
use aether::storage::recovery::recover_with_stats;
use std::sync::Arc;
use std::time::Duration;

fn record(key: u64, tag: u8) -> Vec<u8> {
    let mut r = vec![tag; 64];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r
}

fn main() {
    // ---- Part 1: safe protocols keep committed work -------------------
    let opts = DbOptions {
        protocol: CommitProtocol::Elr,
        ..DbOptions::default()
    };
    let db = Db::open(opts.clone());
    db.create_table(64, 100);
    for k in 0..100 {
        db.load(0, k, &record(k, 1)).unwrap();
    }
    db.setup_complete();

    for k in 0..10u64 {
        let mut txn = db.begin();
        db.update_with(&mut txn, 0, k, |r| r[8] = 200).unwrap();
        db.commit(txn).unwrap(); // ELR: durable before returning
    }
    // One transaction is mid-flight when the power goes out.
    let mut in_flight = db.begin();
    db.update_with(&mut in_flight, 0, 50, |r| r[8] = 123)
        .unwrap();
    db.log().flush_all().unwrap(); // its update record reaches the disk...
    let image = db.crash(); // ...but no commit record does
    std::mem::forget(in_flight);

    println!(
        "crash image: {} log bytes, {} stored pages",
        image.log_bytes.len(),
        image.store.len()
    );
    let (db2, stats) = recover_with_stats(image, opts).unwrap();
    println!(
        "recovery: {} records scanned, {} winners, {} losers, {} redone, {} CLRs",
        stats.scanned, stats.winners, stats.losers, stats.redone, stats.clrs_written
    );
    let mut txn = db2.begin();
    for k in 0..10u64 {
        assert_eq!(
            db2.read(&mut txn, 0, k).unwrap()[8],
            200,
            "committed work survived"
        );
    }
    assert_eq!(
        db2.read(&mut txn, 0, 50).unwrap()[8],
        1,
        "in-flight work rolled back"
    );
    db2.commit(txn).unwrap();
    println!("ELR: all 10 commits survived; the in-flight transaction was undone\n");

    // ---- Part 2: async commit loses work -------------------------------
    let unsafe_opts = DbOptions {
        protocol: CommitProtocol::AsyncCommit,
        ..DbOptions::default()
    };
    // The flush daemon starts on a commit at once, so "the crash came before
    // the flush finished" needs a device whose sync can be held.
    let device = Arc::new(FaultDevice::new(
        Arc::new(SimDevice::new(Duration::ZERO)),
        &[],
    ));
    let db = Db::open_with_device(unsafe_opts.clone(), device.clone() as Arc<dyn LogDevice>);
    db.create_table(64, 10);
    for k in 0..10 {
        db.load(0, k, &record(k, 1)).unwrap();
    }
    db.setup_complete();
    device.arm(DeviceFault::HoldSync(None));
    let mut txn = db.begin();
    db.update_with(&mut txn, 0, 3, |r| r[8] = 99).unwrap();
    let outcome = db.commit(txn).unwrap();
    println!("async commit returned {outcome:?} — the client saw success");
    device.wait_blocked(1); // the commit record is written but not yet synced
    let image = db.crash();
    device.release();
    let (db2, stats) = recover_with_stats(image, unsafe_opts).unwrap();
    let mut txn = db2.begin();
    let v = db2.read(&mut txn, 0, 3).unwrap()[8];
    db2.commit(txn).unwrap();
    assert_eq!(stats.winners, 0);
    assert_eq!(v, 1);
    println!("after crash the 'committed' update is GONE (value back to {v})");
    println!(
        "asynchronous commit trades durability for speed — Aether's point is you can have both"
    );
}
