//! Cross-crate integration tests: every log-buffer variant must produce the
//! same *observable log* — a dense, gap-free, checksummed record stream —
//! under concurrency, back-pressure and mixed record sizes.

use aether::bench::env_or;
use aether::prelude::*;
use aether_core::commit::{CommitHandle, Tally};
use aether_core::device::{DeviceFault, FaultDevice, LogDevice, SimDevice};
use aether_core::flush::FLUSH_DEPTH;
use aether_core::record::RecordKind;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stress-size knobs so CI can bound suite runtime (defaults reproduce the
/// full local run): `AETHER_TEST_THREADS` scales worker counts,
/// `AETHER_TEST_ITERS` scales per-thread iteration counts.
/// A tally the log's flushers resolve.
fn subscribed(log: &LogManager) -> Arc<Tally> {
    let tally = Arc::new(Tally::default());
    log.pipeline().subscribe(tally.clone());
    tally
}

/// An empty record registered as `txn`'s commit and watched by `tally`,
/// and a handle on it.
fn commit(log: &LogManager, tally: &Arc<Tally>, txn: u64) -> CommitHandle {
    let (_, end) = log.insert_payload::<[u8]>(RecordKind::Filler, txn, Lsn::ZERO, &[]);
    log.note_commit(end);
    tally.add(end);
    log.pipeline().watch(&**tally, end);
    log.handle(end)
}

fn test_threads(default: usize) -> usize {
    env_or("AETHER_TEST_THREADS", default).max(2)
}

fn test_iters(default: usize) -> usize {
    env_or("AETHER_TEST_ITERS", default).max(10)
}

fn stress_one(kind: BufferKind, threads: usize, per: usize) {
    let device = Arc::new(SimDevice::new(Duration::ZERO));
    let log = Arc::new(
        LogManager::builder()
            .buffer(kind)
            .config(LogConfig::default().with_buffer_size(1 << 18)) // small: force wraps
            .device_instance(device.clone())
            .build(),
    );
    std::thread::scope(|s| {
        for t in 0..threads {
            let log = Arc::clone(&log);
            s.spawn(move || {
                for i in 0..per {
                    // Sizes cycle through the paper's two peaks and more.
                    let size = [8usize, 32, 88, 232, 1000][i % 5];
                    let payload = vec![(t * 31 + i) as u8; size];
                    log.insert(RecordKind::Filler, (t * per + i) as u64, &payload);
                }
            });
        }
    });
    log.flush_all().unwrap();
    let records = log.reader().read_all().expect("valid log");
    assert_eq!(records.len(), threads * per, "{kind:?}: lost records");
    // Dense stream: each record starts where the previous ended.
    let mut expected = Lsn::ZERO;
    let mut txns = HashSet::new();
    for r in &records {
        assert_eq!(r.lsn, expected, "{kind:?}: gap in stream");
        expected = r.next_lsn();
        txns.insert(r.header.txn);
    }
    assert_eq!(txns.len(), threads * per, "{kind:?}: duplicated txn tags");
    assert_eq!(log.durable_lsn(), expected);
}

#[test]
fn all_variants_produce_dense_valid_logs() {
    for kind in BufferKind::ALL {
        stress_one(kind, test_threads(8), test_iters(300));
    }
}

#[test]
fn variants_agree_on_total_bytes_for_same_workload() {
    // The on-log footprint of a fixed workload is identical across variants
    // (consolidation changes *who* allocates, never *what*).
    let mut totals = Vec::new();
    for kind in BufferKind::ALL {
        let log = LogManager::builder()
            .buffer(kind)
            .device(DeviceKind::Ram)
            .build();
        for i in 0..500usize {
            let payload = vec![0u8; 8 + (i % 7) * 40];
            log.insert(RecordKind::Filler, i as u64, &payload);
        }
        log.flush_all().unwrap();
        totals.push(log.durable_lsn());
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "variants disagree on stream size: {totals:?}"
    );
}

#[test]
fn group_commit_batches_many_commits_into_few_syncs() {
    let log = Arc::new(
        LogManager::builder()
            .device(DeviceKind::CustomUs(200))
            .build(),
    );
    let n = 200u64;
    let tally = subscribed(&log);
    let mut handles = Vec::new();
    for t in 0..n {
        log.insert(RecordKind::Filler, t, &[1u8; 80]);
        handles.push(commit(&log, &tally, t));
    }
    for h in handles {
        assert!(h.wait());
    }
    let flushes = log.flush_count();
    assert!(
        flushes < n,
        "group commit must batch: {flushes} syncs for {n} commits"
    );
    assert_eq!(log.pipeline().completed(), n);
}

#[test]
fn concurrent_committers_share_flushes() {
    // Regression guard: commit waits must be fully concurrent. While every
    // flusher is held in a device sync, N threads each log a commit and block
    // in `flush_until`; once the device lets go, one flush hardens them all.
    // A manager-level lock held across the wait would keep the others from
    // logging theirs, and each would take a flush of its own.
    let device = Arc::new(FaultDevice::new(
        Arc::new(SimDevice::new(Duration::ZERO)),
        &[],
    ));
    let log = Arc::new(
        LogManager::builder()
            .device_instance(device.clone())
            .build(),
    );
    device.arm(DeviceFault::HoldSync(None));
    let tally = subscribed(&log);
    let in_flight: Vec<_> = (0..FLUSH_DEPTH)
        .map(|n| {
            let h = commit(&log, &tally, n as u64);
            device.wait_blocked(n + 1);
            h
        })
        .collect();
    let threads = test_threads(8) as u64;
    let logged = log.stats().inserts + threads;
    std::thread::scope(|s| {
        for t in 0..threads {
            let log = Arc::clone(&log);
            s.spawn(move || {
                let (_, end) = log.insert_payload(RecordKind::Filler, t, Lsn::ZERO, &[0u8; 80]);
                log.flush_until(end).unwrap();
            });
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while log.stats().inserts < logged && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        device.release();
    });
    for h in in_flight {
        assert!(h.wait());
    }
    let flushes = log.flush_count() - FLUSH_DEPTH as u64;
    let per_flush = threads as f64 / flushes as f64;
    assert!(
        per_flush >= 2.0,
        "group commit degraded: {per_flush:.1} commits/flush for {threads} concurrent committers"
    );
}

#[test]
fn back_pressure_with_slow_device_never_deadlocks() {
    // Ring much smaller than the data pushed through it, on a slow device.
    let log = Arc::new(
        LogManager::builder()
            .config(LogConfig::default().with_buffer_size(1 << 16))
            .device(DeviceKind::CustomUs(500))
            .build(),
    );
    let threads = test_threads(4) as u64;
    let per = test_iters(100) as u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let log = Arc::clone(&log);
            s.spawn(move || {
                for _ in 0..per {
                    log.insert(RecordKind::Filler, t, &[7u8; 2000]);
                }
            });
        }
    });
    log.flush_all().unwrap();
    assert_eq!(log.stats().inserts, threads * per);
    assert_eq!(log.durable_lsn(), Lsn(log.stats().bytes));
}

#[test]
fn torn_tail_is_clipped_by_reader() {
    let device = Arc::new(SimDevice::new(Duration::ZERO));
    let log = LogManager::builder()
        .device_instance(device.clone())
        .build();
    for i in 0..50u64 {
        log.insert(RecordKind::Filler, i, &[3u8; 100]);
    }
    log.flush_all().unwrap();
    let full = device.len();
    log.shutdown();
    // Tear the tail mid-record.
    device.clip_tail(full - 37).unwrap();
    let records = aether_core::reader::LogReader::new(device)
        .read_all()
        .unwrap();
    assert_eq!(records.len(), 49, "exactly the torn record is dropped");
}

#[test]
fn commit_handles_complete_across_protocol_paths() {
    // Pipelined completion arrives via the daemon thread; wait from several
    // client threads simultaneously.
    let log = Arc::new(LogManager::builder().device(DeviceKind::Flash).build());
    let threads = test_threads(8) as u64;
    let per = test_iters(20) as u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let log = Arc::clone(&log);
            s.spawn(move || {
                let tally = subscribed(&log);
                for _ in 0..per {
                    log.insert(RecordKind::Filler, t, &[9u8; 64]);
                    assert!(commit(&log, &tally, t).wait());
                }
            });
        }
    });
    assert_eq!(log.pipeline().completed(), threads * per);
}
