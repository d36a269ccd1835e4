//! End-to-end durability tests: concurrent workloads crashed at arbitrary
//! moments must recover to a state where (1) every acknowledged commit
//! survives and (2) every surviving value was actually written by some
//! committed transaction — across buffer variants and safe commit protocols.

use aether::bench::env_or;
use aether::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn record(key: u64, counter: u64) -> Vec<u8> {
    let mut r = vec![0u8; 40];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&counter.to_le_bytes());
    r
}

fn counter_of(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[8..16].try_into().unwrap())
}

fn opts(protocol: CommitProtocol, buffer: BufferKind) -> DbOptions {
    DbOptions {
        protocol,
        buffer,
        device: DeviceKind::Ram,
        log_config: LogConfig::default().with_buffer_size(1 << 20),
        ..DbOptions::default()
    }
}

/// Each worker owns one key and commits monotonically increasing counters.
/// After a mid-flight crash, each key must hold a value v with
/// `acked(key) <= v <= submitted(key)`.
fn crash_mid_flight(protocol: CommitProtocol, buffer: BufferKind) {
    let o = opts(protocol, buffer);
    let db = Db::open(o.clone());
    let workers = 4u64;
    db.create_table(40, workers);
    for k in 0..workers {
        db.load(0, k, &record(k, 0)).unwrap();
    }
    db.setup_complete();

    let stop = Arc::new(AtomicBool::new(false));
    let acked: Arc<Vec<AtomicU64>> = Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());
    let submitted: Arc<Vec<AtomicU64>> =
        Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());

    let image = std::thread::scope(|s| {
        for k in 0..workers {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let acked = Arc::clone(&acked);
            let submitted = Arc::clone(&submitted);
            s.spawn(move || {
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    v += 1;
                    let mut txn = db.begin();
                    db.update(&mut txn, 0, k, &record(k, v)).unwrap();
                    submitted[k as usize].store(v, Ordering::SeqCst);
                    let a = Arc::clone(&acked);
                    let _ = db
                        .commit_tokened_with(
                            txn,
                            Box::new(move |durable| {
                                if durable.is_ok() {
                                    a[k as usize].fetch_max(v, Ordering::SeqCst);
                                }
                            }),
                        )
                        .unwrap();
                }
            });
        }
        // Let the workers race, then pull the plug mid-flight. Any ack that
        // happened before this point must survive the crash; acks racing
        // with the snapshot are indeterminate, so capture the floor first.
        // `AETHER_TEST_CRASH_MS` bounds the racing window for CI.
        std::thread::sleep(std::time::Duration::from_millis(env_or(
            "AETHER_TEST_CRASH_MS",
            150,
        )));
        let acked_floor: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
        let image = db.crash();
        stop.store(true, Ordering::Relaxed);
        (image, acked_floor)
    });
    let (image, acked_floor) = image;

    let db2 = Db::recover(image, o).unwrap();
    let mut txn = db2.begin();
    for k in 0..workers {
        let v = counter_of(&db2.read(&mut txn, 0, k).unwrap());
        let a = acked_floor[k as usize];
        let s = submitted[k as usize].load(Ordering::SeqCst);
        assert!(
            v >= a,
            "{protocol:?}/{buffer:?} key {k}: durable value {v} lost acked commit {a}"
        );
        assert!(
            v <= s,
            "{protocol:?}/{buffer:?} key {k}: durable value {v} exceeds submitted {s}"
        );
    }
    db2.commit(txn).unwrap();
}

#[test]
fn crash_mid_flight_baseline_hybrid() {
    crash_mid_flight(CommitProtocol::Baseline, BufferKind::Hybrid);
}

#[test]
fn crash_mid_flight_elr_baseline_buffer() {
    crash_mid_flight(CommitProtocol::Elr, BufferKind::Baseline);
}

#[test]
fn crash_mid_flight_elr_delegated_buffer() {
    crash_mid_flight(CommitProtocol::Elr, BufferKind::Delegated);
}

#[test]
fn crash_mid_flight_pipelined_hybrid() {
    crash_mid_flight(CommitProtocol::Pipelined, BufferKind::Hybrid);
}

#[test]
fn crash_mid_flight_pipelined_consolidation() {
    crash_mid_flight(CommitProtocol::Pipelined, BufferKind::Consolidation);
}

#[test]
fn randomized_crash_points_converge() {
    // Random single-threaded workload with aborts mixed in; crash after a
    // random prefix; recover; every committed value must match the model.
    let mut rng = StdRng::seed_from_u64(0xC4A5);
    let rounds = env_or("AETHER_TEST_ROUNDS", 5).max(1);
    for round in 0..rounds {
        let o = opts(CommitProtocol::Elr, BufferKind::Hybrid);
        let db = Db::open(o.clone());
        let keys = 16u64;
        db.create_table(40, keys);
        for k in 0..keys {
            db.load(0, k, &record(k, 0)).unwrap();
        }
        db.setup_complete();
        let mut model: Vec<u64> = vec![0; keys as usize];
        let ops = rng.gen_range(10..60);
        for _ in 0..ops {
            let k = rng.gen_range(0..keys);
            let v = rng.gen_range(1..1000u64);
            let mut txn = db.begin();
            db.update(&mut txn, 0, k, &record(k, v)).unwrap();
            if rng.gen_bool(0.3) {
                db.abort(txn).unwrap();
            } else {
                db.commit(txn).unwrap();
                model[k as usize] = v;
            }
        }
        let image = db.crash();
        let db2 = Db::recover(image, o).unwrap();
        let mut txn = db2.begin();
        for k in 0..keys {
            let v = counter_of(&db2.read(&mut txn, 0, k).unwrap());
            assert_eq!(
                v, model[k as usize],
                "round {round}: key {k} diverged from model"
            );
        }
        db2.commit(txn).unwrap();
    }
}

#[test]
fn recovered_db_accepts_new_work_and_can_crash_again() {
    let o = opts(CommitProtocol::Elr, BufferKind::Hybrid);
    let db = Db::open(o.clone());
    db.create_table(40, 8);
    for k in 0..8 {
        db.load(0, k, &record(k, 0)).unwrap();
    }
    db.setup_complete();
    let mut txn = db.begin();
    db.update(&mut txn, 0, 1, &record(1, 11)).unwrap();
    db.commit(txn).unwrap();

    let db2 = Db::recover(db.crash(), o.clone()).unwrap();
    let mut txn = db2.begin();
    db2.update(&mut txn, 0, 2, &record(2, 22)).unwrap();
    db2.commit(txn).unwrap();

    let db3 = Db::recover(db2.crash(), o).unwrap();
    let mut txn = db3.begin();
    assert_eq!(counter_of(&db3.read(&mut txn, 0, 1).unwrap()), 11);
    assert_eq!(counter_of(&db3.read(&mut txn, 0, 2).unwrap()), 22);
    db3.commit(txn).unwrap();
}
