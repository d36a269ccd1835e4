//! Replica bootstrap × log truncation integration tests.
//!
//! The point of PR 3: a long-running primary recycles its log behind fuzzy
//! checkpoints, so (a) a freshly attached replica can no longer receive the
//! full historical log — it must seed from a checkpoint snapshot — and (b)
//! a shipper stranded below the low-water mark (forced truncation) must
//! re-seed its replica over the wire instead of reading recycled bytes.

use aether_core::partition::{MemSegmentFactory, SegmentedDevice};
use aether_core::{BufferKind, Lsn};
use aether_repl::prelude::*;
use aether_repl::{ack_link, Shipper};
use aether_storage::replay::state_fingerprint;
use aether_storage::store::PageStore;
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::Arc;
use std::time::Duration;

fn record(key: u64, v: u64) -> Vec<u8> {
    let mut r = vec![0u8; 40];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&v.to_le_bytes());
    r
}

fn value_of(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[8..16].try_into().unwrap())
}

/// A primary on a small-segment log, with `rounds` of committed updates and
/// a checkpoint+truncation after each round.
fn truncated_primary(keys: u64, rounds: u64) -> (Arc<Db>, Arc<SegmentedDevice>) {
    let segments = Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 8 * 1024).unwrap());
    let db = Db::open_with_device(
        DbOptions {
            protocol: CommitProtocol::Baseline,
            buffer: BufferKind::Hybrid,
            log_config: aether_core::LogConfig::default().with_buffer_size(1 << 20),
            ..DbOptions::default()
        },
        Arc::clone(&segments) as _,
    );
    db.create_table(40, keys);
    for k in 0..keys {
        db.load(0, k, &record(k, 0)).unwrap();
    }
    db.setup_complete();
    for round in 1..=rounds {
        for k in 0..keys {
            let mut txn = db.begin();
            db.update(&mut txn, 0, k, &record(k, round)).unwrap();
            db.commit(txn).unwrap();
        }
        db.checkpoint_and_truncate();
    }
    (db, segments)
}

/// A replica attached *after* the log prefix was recycled seeds itself from
/// a checkpoint snapshot, keeps up with new traffic, and a further
/// `add_replica` joins the running cluster the same way. Failover from the
/// snapshot-seeded replica loses no acknowledged commit.
#[test]
fn late_attached_replica_bootstraps_from_snapshot() {
    let keys = 16u64;
    let (primary, segments) = truncated_primary(keys, 5);
    assert!(
        segments.recycled_segments() > 0,
        "precondition: history is gone"
    );
    assert!(primary.log().low_water() > Lsn::ZERO);

    // Attach: impossible from LSN 0 (those bytes no longer exist), fine
    // from a snapshot.
    let mut cluster = ReplicatedDb::attach(
        Arc::clone(&primary),
        ReplicationConfig {
            replicas: 1,
            policy: DurabilityPolicy::SemiSync(1),
            link: LinkConfig::with_latency_us(100),
            ..ReplicationConfig::default()
        },
    )
    .unwrap();
    assert_eq!(cluster.replica(0).status().bootstraps, 1);

    // Acked commits flow; the replica serves them.
    for k in 0..keys {
        let mut txn = primary.begin();
        primary.update(&mut txn, 0, k, &record(k, 100)).unwrap();
        assert!(primary.commit(txn).unwrap().is_durable_now());
    }
    assert!(cluster.wait_catchup(Duration::from_secs(10)));
    assert_eq!(
        value_of(&cluster.replica(0).read(0, 3).unwrap().unwrap()),
        100
    );

    // A second replica joins the *running* cluster from a fresh snapshot.
    let idx = cluster.add_replica().unwrap();
    for k in 0..keys {
        let mut txn = primary.begin();
        primary.update(&mut txn, 0, k, &record(k, 200)).unwrap();
        assert!(primary.commit(txn).unwrap().is_durable_now());
    }
    assert!(cluster.wait_catchup(Duration::from_secs(10)));
    assert_eq!(
        value_of(&cluster.replica(idx).read(0, 7).unwrap().unwrap()),
        200
    );

    // More checkpoints while replicated: truncation never outruns the
    // replicas' acks (safe entry point), and keeps recycling.
    let out = primary.checkpoint_and_truncate();
    assert!(out.applied <= primary.log().durable_lsn());

    // Failover: promotion over the snapshot-seeded prefix is lossless.
    cluster.kill_primary();
    let candidate = cluster.most_caught_up();
    let (promoted, _) = cluster.promote(candidate).unwrap();
    let mut txn = promoted.begin();
    for k in 0..keys {
        assert_eq!(
            value_of(&promoted.read(&mut txn, 0, k).unwrap()),
            200,
            "acked commit for key {k} must survive failover"
        );
    }
    promoted.commit(txn).unwrap();
}

/// A shipper whose read cursor lies below the log's low-water mark (here: a
/// stale start position against an already-truncated primary — the same
/// state a forced truncation leaves behind) ships a snapshot frame instead
/// of the unreadable bytes; the replica re-seeds itself and converges to
/// the primary's exact state.
#[test]
fn stranded_shipper_reseeds_replica_over_the_wire() {
    let keys = 8u64;
    let (primary, _segments) = truncated_primary(keys, 4);
    let low_water = primary.log().low_water();
    assert!(low_water > Lsn::ZERO);

    // A replica with no useful seed (empty store, no schema) and a shipper
    // starting at LSN 0 — below the low-water mark.
    let ack = primary.log().commit_gate().register_replica();
    let ack_tx = ack_link(primary.log(), ack, LinkConfig::default());
    let (replica, frame_tx) = Replica::spawn(
        primary.options().clone(),
        PageStore::new(),
        &[],
        LinkConfig::default(),
        ack_tx,
    )
    .unwrap();
    let mut shipper = Shipper::spawn(
        Arc::clone(&primary),
        frame_tx,
        Lsn::ZERO,
        ShipperConfig::default(),
    );

    // New committed traffic after the strand.
    for k in 0..keys {
        let mut txn = primary.begin();
        primary.update(&mut txn, 0, k, &record(k, 777)).unwrap();
        primary.commit(txn).unwrap();
    }
    primary.log().flush_all().unwrap();
    assert!(
        replica.wait_replay(primary.log().durable_lsn(), Duration::from_secs(10)),
        "re-seeded replica must catch up to the durable frontier"
    );
    assert!(
        primary
            .telemetry_snapshot("primary")
            .counter("ship.snapshots")
            .unwrap_or(0)
            >= 1,
        "bootstrap went over the wire"
    );
    let st = replica.status();
    assert!(st.bootstraps >= 1);
    assert_eq!(st.corrupt_frames, 0);
    assert!(
        st.received_lsn >= low_water,
        "replica stream begins at/above the snapshot LSN"
    );
    assert_eq!(
        state_fingerprint(&replica.db()).unwrap(),
        state_fingerprint(&primary).unwrap(),
        "snapshot + shipped suffix reproduce the primary exactly"
    );
    shipper.stop();
}
