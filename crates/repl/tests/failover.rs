//! Kill-primary → promote-replica integration tests.
//!
//! The headline guarantee: under `SemiSync`, **zero committed-transaction
//! loss** — every commit acknowledged to a client before the primary died
//! is present on the promoted replica. Bounded by the `AETHER_TEST_*` env
//! knobs so CI wall time stays flat (same pattern as the crash tests).

use aether_core::runtime::{self, rt_channel};
use aether_core::{BufferKind, DeviceKind, LogConfig, Lsn};
use aether_repl::frame::Frame;
use aether_repl::prelude::*;
use aether_repl::transport::link;
use aether_storage::{CommitOutcome, CommitProtocol, Db, DbOptions};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn opts(protocol: CommitProtocol) -> DbOptions {
    DbOptions {
        protocol,
        buffer: BufferKind::Hybrid,
        device: DeviceKind::Ram,
        log_config: LogConfig::default().with_buffer_size(1 << 20),
        ..DbOptions::default()
    }
}

fn record(key: u64, counter: u64) -> Vec<u8> {
    let mut r = vec![0u8; 40];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&counter.to_le_bytes());
    r
}

fn counter_of(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[8..16].try_into().unwrap())
}

/// Workers commit monotonically increasing counters under `SemiSync(1)`;
/// the primary "dies" mid-flight (network cut); the most-caught-up replica
/// is promoted. Every counter acknowledged before the kill must be on the
/// promoted database — zero committed-transaction loss.
#[test]
fn semisync_failover_loses_no_acked_commit() {
    let workers = env_or("AETHER_TEST_THREADS", 4u64).max(2);
    let min_acks = env_or("AETHER_TEST_MIN_ACKS", 5u64);

    let primary = Db::open(opts(CommitProtocol::Baseline));
    primary.create_table(40, workers);
    for k in 0..workers {
        primary.load(0, k, &record(k, 0)).unwrap();
    }
    primary.setup_complete();

    let mut cluster = ReplicatedDb::attach(
        Arc::clone(&primary),
        ReplicationConfig {
            replicas: 2,
            policy: DurabilityPolicy::SemiSync(1),
            link: LinkConfig::with_latency_us(200),
            ..ReplicationConfig::default()
        },
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let acked: Arc<Vec<AtomicU64>> = Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());
    let submitted: Arc<Vec<AtomicU64>> =
        Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());

    let acked_floor = std::thread::scope(|s| {
        for k in 0..workers {
            let db = Arc::clone(&primary);
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
                    // Blocking SemiSync commit: `Durable` only once a
                    // replica durably holds the commit record. Commits
                    // released by the kill report `Unreplicated`
                    // (replication indeterminate) and are not counted as
                    // acked.
                    match db.commit(txn).unwrap() {
                        CommitOutcome::Durable(_) => acked[k as usize].store(v, Ordering::SeqCst),
                        CommitOutcome::Unreplicated(_) => {}
                        other => panic!("a blocking commit reported {other:?}"),
                    }
                }
            });
        }
        // Let them race until every worker has a meaningful number of
        // SemiSync-acked commits — an ack-count trigger rather than a
        // wall-clock window, so the kill always lands mid-flight with a
        // non-trivial floor — then snapshot the floor and pull the plug.
        while acked.iter().any(|a| a.load(Ordering::SeqCst) < min_acks) {
            aether_core::runtime::sleep(Duration::from_micros(100));
        }
        let floor: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
        cluster.kill_primary();
        stop.store(true, Ordering::Relaxed);
        floor
    });

    // Failover: promote the most-caught-up replica.
    let candidate = cluster.most_caught_up();
    let (promoted, stats) = cluster.promote(candidate).unwrap();
    assert!(stats.winners > 0, "promoted replica saw committed work");

    let mut txn = promoted.begin();
    for k in 0..workers {
        let v = counter_of(&promoted.read(&mut txn, 0, k).unwrap());
        let a = acked_floor[k as usize];
        let s = submitted[k as usize].load(Ordering::SeqCst);
        assert!(
            v >= a,
            "key {k}: promoted value {v} lost acked commit {a} — SemiSync must not lose acked work"
        );
        assert!(
            v <= s,
            "key {k}: promoted value {v} exceeds anything submitted ({s})"
        );
    }
    promoted.commit(txn).unwrap();

    // The promoted replica is a full primary: accepts new committed work.
    let mut txn = promoted.begin();
    promoted
        .update(&mut txn, 0, 0, &record(0, 999_999))
        .unwrap();
    promoted.commit(txn).unwrap();
    let mut txn = promoted.begin();
    assert_eq!(counter_of(&promoted.read(&mut txn, 0, 0).unwrap()), 999_999);
    promoted.commit(txn).unwrap();
}

/// A replica served a corrupted frame drops it and stops advancing at the
/// gap — and promotion still succeeds with the clean prefix (truncate, not
/// error).
/// A standby serves only committed data. An open transaction updates key
/// 0; a second transaction commits key 1, and its flush ships everything
/// logged before it. The open transaction's write is in no record, so once
/// the standby has applied the commit, it reads key 1's new value and key
/// 0's old one; the writer then rolls back.
#[test]
fn a_standby_never_serves_an_open_transactions_write() {
    let primary = Db::open(opts(CommitProtocol::Baseline));
    primary.create_table(40, 4);
    for k in 0..4 {
        primary.load(0, k, &record(k, 0)).unwrap();
    }
    primary.setup_complete();
    let mut cluster = ReplicatedDb::attach(
        Arc::clone(&primary),
        ReplicationConfig {
            replicas: 1,
            policy: DurabilityPolicy::Async,
            link: LinkConfig::with_latency_us(50),
            ..ReplicationConfig::default()
        },
    )
    .unwrap();

    let mut writer = primary.begin();
    primary.update(&mut writer, 0, 0, &record(0, 9)).unwrap();
    let mut other = primary.begin();
    primary.update(&mut other, 0, 1, &record(1, 1)).unwrap();
    let token = primary.commit(other).unwrap().token();
    let reader = cluster.replica(0).reader();
    let applied = reader.wait_applied(token.lsn(), Duration::from_secs(10));
    assert!(
        applied >= token.lsn(),
        "the standby never applied the commit"
    );
    let read = |k| counter_of(&reader.read(0, k).unwrap().unwrap());
    assert_eq!(read(1), 1, "the commit is not on the standby");
    assert_eq!(read(0), 0, "the standby serves an open transaction's write");
    primary.abort(writer).unwrap();
    cluster.shutdown();
}

#[test]
fn corrupt_frame_truncates_cleanly_on_promote() {
    let primary = Db::open(opts(CommitProtocol::Baseline));
    primary.create_table(40, 8);
    for k in 0..8u64 {
        primary.load(0, k, &record(k, 0)).unwrap();
    }
    primary.setup_complete();
    // Three committed batches; remember the log length after each.
    let mut marks = Vec::new();
    for batch in 1..=3u64 {
        for k in 0..8u64 {
            let mut txn = primary.begin();
            primary.update(&mut txn, 0, k, &record(k, batch)).unwrap();
            primary.commit(txn).unwrap();
        }
        primary.log().flush_all().unwrap();
        marks.push(primary.log().device().len());
    }
    let (_, bytes) = primary.log().device().snapshot().unwrap();

    // Hand-feed the replica three frames, corrupting the middle one.
    let (acks, ack_rx) = rt_channel::<aether_core::Lsn>();
    let ack_tx = link(LinkConfig::default(), move |lsn| acks.send(lsn));
    let (replica, tx) = Replica::spawn(
        opts(CommitProtocol::Baseline),
        primary.store().deep_clone(),
        &primary.schema(),
        LinkConfig::default(),
        ack_tx,
    )
    .unwrap();
    let cuts = [0, marks[0] as usize, marks[1] as usize, bytes.len()];
    for i in 0..3 {
        let mut enc = Frame {
            seq: i as u64,
            start_lsn: aether_core::Lsn(cuts[i] as u64),
            bytes: bytes[cuts[i]..cuts[i + 1]].to_vec(),
        }
        .encode();
        if i == 1 {
            let at = enc.len() / 2;
            enc[at] ^= 0xFF; // corrupt the middle frame in transit
        }
        assert!(tx.send(enc));
    }
    // The replica applies only the first batch, then stalls at the gap.
    assert!(replica.wait_replay(aether_core::Lsn(marks[0]), Duration::from_secs(5)));
    // The corrupt frame may still be in flight when replay catches up: the
    // link delivers in order, so wait on the drop counter itself (the
    // replica's "ack" that it saw and rejected the frame) instead of
    // sleeping a wall-clock deadline away.
    while replica.status().corrupt_frames == 0 {
        aether_core::runtime::sleep(Duration::from_micros(100));
    }
    let st = replica.status();
    assert_eq!(st.corrupt_frames, 1, "corrupt frame detected and dropped");
    assert_eq!(st.received_lsn, aether_core::Lsn(marks[0]));
    while ack_rx.try_recv().is_some() {}

    // Promotion succeeds on the clean prefix: batch-1 values, no error.
    let (promoted, _) = replica.promote().unwrap();
    let mut txn = promoted.begin();
    for k in 0..8u64 {
        assert_eq!(counter_of(&promoted.read(&mut txn, 0, k).unwrap()), 1);
    }
    promoted.commit(txn).unwrap();
}

/// A stopped replica ingests nothing, even while its frame sender lives and
/// frames keep arriving: its status stays where `stop` left it, and
/// promotion recovers exactly the prefix it had received.
#[test]
fn a_stopped_replica_ingests_nothing() {
    let primary = Db::open(opts(CommitProtocol::Baseline));
    primary.create_table(40, 8);
    for k in 0..8u64 {
        primary.load(0, k, &record(k, 0)).unwrap();
    }
    primary.setup_complete();
    let base = primary.store().deep_clone();
    // Six committed batches, one frame each: cuts[b] is the log length
    // after batch b.
    let mut cuts = vec![0u64];
    for batch in 1..=6u64 {
        for k in 0..8u64 {
            let mut txn = primary.begin();
            primary.update(&mut txn, 0, k, &record(k, batch)).unwrap();
            primary.commit(txn).unwrap();
        }
        primary.log().flush_all().unwrap();
        cuts.push(primary.log().device().len());
    }
    let (_, bytes) = primary.log().device().snapshot().unwrap();
    let frame = |i: usize| {
        Frame {
            seq: i as u64,
            start_lsn: Lsn(cuts[i]),
            bytes: bytes[cuts[i] as usize..cuts[i + 1] as usize].to_vec(),
        }
        .encode()
    };

    let ack_tx = link(LinkConfig::default(), |_: Lsn| true);
    let (mut replica, tx) = Replica::spawn(
        opts(CommitProtocol::Baseline),
        base,
        &primary.schema(),
        LinkConfig::default(),
        ack_tx,
    )
    .unwrap();
    for i in 0..3 {
        assert!(tx.send(frame(i)));
    }
    assert!(replica.wait_replay(Lsn(cuts[3]), Duration::from_secs(5)));
    // The fourth frame races the stop: it lands whole before it or not at
    // all.
    assert!(tx.send(frame(3)));
    replica.stop();
    let stopped = replica.status();
    let batch = cuts
        .iter()
        .position(|&c| Lsn(c) == stopped.received_lsn)
        .expect("the stop falls between frames");
    assert!(batch == 3 || batch == 4, "stopped at batch {batch}");

    // The rest of the stream arrives. The link hands it to the stopped
    // replica, which refuses it, and the link closes.
    for i in 4..6 {
        tx.send(frame(i));
    }
    let deadline = runtime::monotonic_ns() + 5_000_000_000;
    while tx.send(frame(5)) {
        assert!(
            runtime::monotonic_ns() < deadline,
            "a stopped replica's link never refused a frame"
        );
        runtime::sleep(Duration::from_millis(1));
    }
    assert_eq!(replica.status(), stopped, "nothing ingested after stop");

    let (promoted, _) = replica.promote().unwrap();
    let mut txn = promoted.begin();
    for k in 0..8u64 {
        assert_eq!(
            counter_of(&promoted.read(&mut txn, 0, k).unwrap()),
            batch as u64,
            "promotion recovers exactly the pre-stop prefix"
        );
    }
    promoted.commit(txn).unwrap();
}
