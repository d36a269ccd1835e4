//! A crash with every flusher's group written and none of them synced.
//!
//! The flushers write their groups in LSN order and sync them side by side,
//! so a crash can keep the synced prefix plus any prefix of the groups
//! written after it — a torn in-flight group. Recovery from each such prefix
//! must stop at the first record it cannot read whole, keep every acked
//! commit, and be a fixed point: crashed again and recovered again, it lands
//! on the same state.

use aether_core::device::{DeviceFault, FaultDevice, LogDevice, SimDevice};
use aether_core::flush::FLUSH_DEPTH;
use aether_storage::recovery::recover_with_stats;
use aether_storage::replay::state_fingerprint;
use aether_storage::{CommitOutcome, CommitProtocol, Db, DbOptions};
use std::sync::Arc;
use std::time::Duration;

const KEYS: u64 = 8;

fn record(key: u64, value: u8) -> Vec<u8> {
    let mut r = vec![value; 40];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r
}

fn set(db: &Db, key: u64, value: u8) -> CommitOutcome {
    let mut txn = db.begin();
    db.update(&mut txn, 0, key, &record(key, value)).unwrap();
    db.commit(txn).unwrap()
}

fn value(db: &Db, key: u64) -> u8 {
    db.snapshot_read(0, key).unwrap().unwrap()[8]
}

/// Releases the device's held syncs when dropped. Made after the `Db`, it
/// drops first, so a failed assertion unwinds past the flushers the hold
/// keeps waiting and the test fails instead of hanging.
struct ReleaseOnDrop(Arc<FaultDevice>);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        self.0.release();
    }
}

#[test]
fn every_prefix_of_the_in_flight_groups_recovers() {
    let device = Arc::new(FaultDevice::new(
        Arc::new(SimDevice::new(Duration::ZERO)),
        &[],
    ));
    let opts = DbOptions {
        protocol: CommitProtocol::Pipelined,
        ..DbOptions::default()
    };
    let db = Db::open_with_device(opts.clone(), device.clone() as Arc<dyn LogDevice>);
    db.create_table(40, KEYS);
    for k in 0..KEYS {
        db.load(0, k, &record(k, 0)).unwrap();
    }
    db.setup_complete();
    // Every key is set to 1 and acked.
    for k in 0..KEYS {
        if let CommitOutcome::Pipelined(h) = set(&db, k, 1) {
            assert!(h.wait());
        }
    }
    assert_eq!(device.unsynced_len(), 0, "an acked commit is synced");
    // One commit per flusher, each group written and its sync held.
    let _release = ReleaseOnDrop(device.clone());
    device.arm(DeviceFault::HoldSync(None));
    let synced = device.len();
    let mut ends = vec![synced];
    for g in 0..FLUSH_DEPTH {
        let _pending = set(&db, g as u64, 2);
        device.wait_blocked(g + 1);
        ends.push(device.len());
    }
    assert_eq!(device.unsynced_len(), ends[FLUSH_DEPTH] - synced);

    // Each group boundary, and every byte of the last group.
    let keeps = ends[..FLUSH_DEPTH]
        .iter()
        .copied()
        .chain(ends[FLUSH_DEPTH - 1] + 1..=ends[FLUSH_DEPTH]);
    for end in keeps {
        device.arm(DeviceFault::CrashKeeps(end - synced));
        let image = db.crash();
        assert_eq!(image.log_start.raw() + image.log_bytes.len() as u64, end);
        let (r1, stats) = recover_with_stats(image, opts.clone()).unwrap();
        // A group is a winner iff the crash kept all of it.
        let whole = ends[1..].iter().filter(|&&e| e <= end).count();
        assert_eq!(stats.winners, KEYS as usize + whole, "crash at {end}");
        for k in 0..KEYS {
            let want = if (k as usize) < whole { 2 } else { 1 };
            assert_eq!(value(&r1, k), want, "key {k}, crash at {end}");
        }
        let (r2, _) = recover_with_stats(r1.crash(), opts.clone()).unwrap();
        assert_eq!(
            state_fingerprint(&r2).unwrap(),
            state_fingerprint(&r1).unwrap(),
            "crash at {end}: recovery is not a fixed point"
        );
    }
}
