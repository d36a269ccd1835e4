//! Crash-during-checkpoint torture tests (ISSUE 3 satellite).
//!
//! The checkpoint → truncate cycle has a window between "checkpoint written
//! and redo low-water mark published" and "segments recycled". A crash
//! anywhere in (or after) that window must recover to a consistent state,
//! and recovery must never need a byte from a recycled segment — the
//! truncation safety rule (DESIGN.md invariant 7) is exactly what makes
//! that true. These tests crash at every stage of the cycle, with live
//! transactions in flight, and also re-crash the recovered database. An
//! open transaction has logged nothing and written no page, so it pins no
//! part of the log and recovers as if it never ran.

use aether::bench::env_or;
use aether::log::partition::{MemSegmentFactory, SegmentedDevice};
use aether::prelude::*;
use aether::storage::recovery::recover_with_stats;
use std::sync::Arc;

fn record(key: u64, v: u64) -> Vec<u8> {
    let mut r = vec![0u8; 48];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&v.to_le_bytes());
    r
}

fn value_of(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[8..16].try_into().unwrap())
}

fn opts() -> DbOptions {
    DbOptions {
        protocol: CommitProtocol::Baseline,
        buffer: BufferKind::Hybrid,
        log_config: LogConfig::default().with_buffer_size(1 << 20),
        ..DbOptions::default()
    }
}

/// A loaded database over 4 KiB segments, the smallest: three rounds of
/// commits over 16 keys (one ~100 B record each) span a segment, so
/// housekeeping recycles some.
fn segmented_db(keys: u64) -> (Arc<Db>, Arc<SegmentedDevice>) {
    let segments = Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 4 * 1024).unwrap());
    let db = aether::storage::Db::open_with_device(opts(), Arc::clone(&segments) as _);
    db.create_table(48, keys);
    for k in 0..keys {
        db.load(0, k, &record(k, 0)).unwrap();
    }
    db.setup_complete();
    (db, segments)
}

/// Crash at every stage of the checkpoint→truncate cycle — after the page
/// flush, after the checkpoint (mark published), after the truncation — each with an
/// uncommitted transaction in flight. Recovery must (a) keep every
/// committed value, (b) show none of the open transaction's writes, and
/// (c) start its scan at the low-water mark, never touching a recycled
/// byte.
#[test]
fn crash_between_checkpoint_and_truncation_recovers_consistently() {
    let keys = 16u64;
    let rounds = env_or("AETHER_TEST_ROUNDS", 3u64).max(3);
    // Stage 0: crash right after flush_pages; 1: after checkpoint (mark
    // published, nothing recycled yet — the torture window this test is
    // named for); 2: after truncate_to.
    for stage in 0..3 {
        let (db, segments) = segmented_db(keys);
        let mut committed = vec![0u64; keys as usize];
        for round in 1..=rounds {
            for k in 0..keys {
                let mut txn = db.begin();
                db.update(&mut txn, 0, k, &record(k, round)).unwrap();
                db.commit(txn).unwrap();
                committed[k as usize] = round;
            }
            // Full housekeeping between rounds keeps the log bounded and
            // sets up real recycling before the final tortured cycle.
            db.checkpoint_and_truncate();
        }
        // One more committed batch, then a loser in flight.
        for k in 0..keys / 2 {
            let mut txn = db.begin();
            db.update(&mut txn, 0, k, &record(k, 99)).unwrap();
            db.commit(txn).unwrap();
            committed[k as usize] = 99;
        }
        let mut loser = db.begin();
        db.update_with(&mut loser, 0, 3, |r| {
            r[8..16].copy_from_slice(&7777u64.to_le_bytes())
        })
        .unwrap();
        db.log().flush_all().unwrap();

        // The tortured cycle, cut at `stage`.
        db.flush_pages();
        if stage >= 1 {
            db.checkpoint();
        }
        if stage >= 2 {
            db.log().truncate_to(db.redo_low_water());
        }
        let image = db.crash();
        std::mem::forget(loser); // the crash takes it
        assert!(
            segments.recycled_segments() > 0,
            "stage {stage}: rounds must have recycled log"
        );
        assert_eq!(
            image.log_start,
            db.log().low_water(),
            "stage {stage}: image starts at the low-water mark"
        );
        drop(db);

        let (db2, stats) = recover_with_stats(image, opts()).unwrap();
        assert!(
            stage < 2 || stats.scan_start > Lsn::ZERO,
            "stage {stage}: after truncation the scan must not start at 0"
        );
        assert_eq!(
            value_of(&db2.snapshot_read(0, 3).unwrap().unwrap()),
            committed[3],
            "stage {stage}: the in-flight txn's key holds its old value"
        );
        let mut txn = db2.begin();
        for k in 0..keys {
            assert_eq!(
                value_of(&db2.read(&mut txn, 0, k).unwrap()),
                committed[k as usize],
                "stage {stage}: key {k} must hold its last committed value"
            );
        }
        db2.commit(txn).unwrap();

        // Re-crash immediately: recovery logged nothing, so recovery over
        // the recovered log is the same scan.
        let image2 = db2.crash();
        let (db3, stats2) = recover_with_stats(image2, opts()).unwrap();
        assert_eq!(stats2, stats, "stage {stage}: second recovery is the same");
        let mut txn = db3.begin();
        assert_eq!(value_of(&db3.read(&mut txn, 0, 3).unwrap()), committed[3]);
        db3.commit(txn).unwrap();
    }
}

/// An open transaction has logged nothing, so it pins nothing: a
/// checkpoint+truncate storm while it is open recycles the log past the
/// point where it began, and a crash with it still open recovers its key's
/// committed value from the retained log.
#[test]
fn an_open_transaction_does_not_pin_truncation() {
    let keys = 8u64;
    let (db, _segments) = segmented_db(keys);
    // The open transaction writes early, then stays open.
    let begun_at = db.log().released_lsn();
    let mut open = db.begin();
    db.update_with(&mut open, 0, 0, |r| {
        r[8..16].copy_from_slice(&4242u64.to_le_bytes())
    })
    .unwrap();
    assert_eq!(db.log().released_lsn(), begun_at, "an open txn logged");

    // Checkpoint storm under committed traffic.
    for i in 0..200u64 {
        let k = 1 + i % (keys - 1);
        let mut txn = db.begin();
        db.update(&mut txn, 0, k, &record(k, i + 1)).unwrap();
        db.commit(txn).unwrap();
        if i % 20 == 19 {
            db.checkpoint_and_truncate();
        }
    }
    let out = db.checkpoint_and_truncate();
    assert!(
        out.applied > begun_at,
        "truncation held back by an open txn"
    );
    assert!(db.log().low_water() > begun_at);

    // Crash with the transaction still open: its key keeps its committed
    // value, recovered from the retained log and the stored pages alone.
    db.log().flush_all().unwrap();
    let image = db.crash();
    std::mem::forget(open);
    drop(db);
    let (db2, stats) = recover_with_stats(image, opts()).unwrap();
    assert!(stats.scan_start > begun_at, "scan starts past the open txn");
    let mut txn = db2.begin();
    assert_eq!(value_of(&db2.read(&mut txn, 0, 0).unwrap()), 0);
    db2.commit(txn).unwrap();
}

/// The torture cycle under the seeded sim scheduler: checkpoint daemon,
/// flush daemon and the crashing workload all run as sim actors, so the
/// whole crash/recover interleaving is a pure function of the seed —
/// `(history hash, events)` and the recovered state replay identically.
/// `AETHER_SIM_SEED=<n>` replays one specific interleaving.
#[test]
fn sim_seeded_torture_replays_byte_identically() {
    use aether::log::runtime::Runtime;

    fn run(seed: u64) -> ((u64, u64), u64) {
        let rt = Runtime::sim(seed);
        let guard = rt.enter();
        let opts = DbOptions {
            log_config: LogConfig::default()
                .with_buffer_size(1 << 20)
                .with_runtime(rt.clone()),
            ..opts()
        };
        let keys = 8u64;
        let segments =
            Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 8 * 1024).unwrap());
        let db = aether::storage::Db::open_with_device(opts.clone(), Arc::clone(&segments) as _);
        db.create_table(48, keys);
        for k in 0..keys {
            db.load(0, k, &record(k, 0)).unwrap();
        }
        db.setup_complete();

        // Seeded bounded torture with *real* concurrency: a second sim
        // actor commits to the upper half of the keyspace while the main
        // actor works the lower half and runs housekeeping — so the
        // scheduler has genuine choices for the seed to steer (group
        // commit batch cuts, checkpoint position in the stream). Then a
        // loser in flight and a crash mid-cycle (after the checkpoint,
        // before the truncate — the named torture window).
        let mut committed = vec![0u64; keys as usize];
        let half = keys / 2;
        let side = {
            let db = Arc::clone(&db);
            rt.spawn("torture-side", move || {
                let mut vals = vec![0u64; half as usize];
                for round in 1..=3u64 {
                    for k in half..keys {
                        let mut txn = db.begin();
                        let v = round * 1000 + (seed ^ k) % 997;
                        db.update(&mut txn, 0, k, &record(k, v)).unwrap();
                        db.commit(txn).unwrap();
                        vals[(k - half) as usize] = v;
                    }
                }
                vals
            })
        };
        for round in 1..=3u64 {
            for k in 0..half {
                let mut txn = db.begin();
                let v = round * 1000 + (seed ^ k) % 997;
                db.update(&mut txn, 0, k, &record(k, v)).unwrap();
                db.commit(txn).unwrap();
                committed[k as usize] = v;
            }
            db.checkpoint_and_truncate();
        }
        for (i, v) in side.join().unwrap().into_iter().enumerate() {
            committed[half as usize + i] = v;
        }
        let mut loser = db.begin();
        db.update_with(&mut loser, 0, 3, |r| {
            r[8..16].copy_from_slice(&7777u64.to_le_bytes())
        })
        .unwrap();
        db.log().flush_all().unwrap();
        db.flush_pages();
        db.checkpoint();
        let image = db.crash();
        std::mem::forget(loser);
        drop(db);

        let (db2, _) = recover_with_stats(image, opts).unwrap();
        assert_eq!(
            value_of(&db2.snapshot_read(0, 3).unwrap().unwrap()),
            committed[3],
            "the in-flight txn's key holds its old value"
        );
        // FNV over the recovered values: the replayable state witness.
        let mut state = 0xcbf2_9ce4_8422_2325u64;
        let mut txn = db2.begin();
        for k in 0..keys {
            let rec = db2.read(&mut txn, 0, k).unwrap();
            assert_eq!(
                value_of(&rec),
                committed[k as usize],
                "key {k} holds its last committed value"
            );
            for b in &rec {
                state ^= u64::from(*b);
                state = state.wrapping_mul(0x100_0000_01b3);
            }
        }
        db2.commit(txn).unwrap();
        db2.log().flush_all().unwrap();
        db2.log().shutdown();
        let history = rt.history();
        drop(guard);
        (history, state)
    }

    let seed = env_or("AETHER_SIM_SEED", 0x70D7u64);
    let (h1, s1) = run(seed);
    let (h2, s2) = run(seed);
    assert_eq!(h1, h2, "same seed must replay the same scheduler history");
    assert_eq!(s1, s2, "same history, same recovered state");
    let (h3, _) = run(seed ^ 1);
    assert_ne!(h1, h3, "different seed must steer the interleaving");
}
