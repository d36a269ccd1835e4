//! Replicated: log-shipping replication end to end — now with a log that
//! doesn't grow forever.
//!
//! A primary bank on a *segmented* log ships its WAL to two replicas over a
//! simulated 200µs link under `SemiSync(1)`: every acknowledged commit is
//! durably on at least one replica before the client hears "committed".
//! Under sustained load, checkpoints retire the log prefix and
//! recycle its segments — the on-disk footprint stays bounded while the
//! log end races ahead. A **newly attached** third replica then joins from
//! a checkpoint snapshot (pages + DPT): the historical log it never
//! saw has been recycled, and it doesn't need it. When the primary "dies",
//! the most-caught-up replica is promoted via ordinary ARIES recovery over
//! its bootstrap-relative log suffix and loses none of the acknowledged
//! work.
//!
//! Run with: `cargo run --release --example replicated`

use aether::log::partition::{MemSegmentFactory, SegmentedDevice};
use aether::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn record(key: u64, balance: u64) -> Vec<u8> {
    let mut r = vec![0u8; 32];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&balance.to_le_bytes());
    r
}

fn balance(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[8..16].try_into().unwrap())
}

fn main() {
    // 1. A primary with 100 accounts on a segmented log, prepared and
    //    checkpointed.
    let accounts = 100u64;
    let segments =
        Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 16 * 1024).expect("segments"));
    let primary = Db::open_with_device(DbOptions::default(), Arc::clone(&segments) as _);
    primary.create_table(32, accounts);
    for k in 0..accounts {
        primary.load(0, k, &record(k, 1000)).unwrap();
    }
    primary.setup_complete();

    // 2. Attach two replicas over a 200µs link, semi-synchronous commits.
    //    Each seeds from a checkpoint base snapshot.
    let mut cluster = ReplicatedDb::attach(
        Arc::clone(&primary),
        ReplicationConfig {
            replicas: 2,
            policy: DurabilityPolicy::SemiSync(1),
            link: LinkConfig::with_latency_us(200),
            ..ReplicationConfig::default()
        },
    )
    .expect("attach replication");
    println!("primary + 2 replicas, SemiSync(1), 200us link, 16 KiB log segments");

    // 3. Sustained load with periodic checkpoints: 5 rounds x 100 deposits,
    //    truncating the log after each round. Every commit returns only
    //    once a replica durably holds it.
    let mut deposits = 0u64;
    for round in 0..5 {
        for i in 0..100u64 {
            let k = (round * 100 + i) % accounts;
            let mut txn = primary.begin();
            primary
                .update_with(&mut txn, 0, k, |r| {
                    let b = balance(r) + 10;
                    r[8..16].copy_from_slice(&b.to_le_bytes());
                })
                .unwrap();
            primary.commit(txn).unwrap();
            deposits += 1;
        }
        assert!(cluster.wait_catchup(Duration::from_secs(10)));
        let out = primary.checkpoint_and_truncate();
        println!(
            "round {round}: log end {:>7}, low-water {:>7}, retained {:>6} B, live segments {:>2}, recycled {}",
            primary.log().durable_lsn(),
            out.applied,
            primary.log().retained_bytes(),
            segments.live_segments(),
            out.segments_recycled,
        );
    }
    let stats = primary.log().truncation_stats();
    assert!(
        stats.segments_recycled > 0,
        "sustained load + checkpoints must shrink the on-disk log"
    );
    println!(
        "committed {deposits} deposits; {} segments recycled — footprint bounded by checkpoint distance",
        stats.segments_recycled
    );

    // 4. Snapshot reads on a replica, with its measured staleness bound.
    let st = cluster.replica(0).status();
    println!(
        "replica 0: received={} replayed={} applied_records={} staleness={:?}",
        st.received_lsn, st.replay_lsn, st.applied, st.staleness
    );
    let v = cluster.replica(0).read(0, 0).unwrap().unwrap();
    println!(
        "replica 0 snapshot read: account 0 balance = {}",
        balance(&v)
    );

    // 5. A *new* replica joins the running cluster. The log prefix it never
    //    received has been recycled — it bootstraps from a checkpoint
    //    snapshot (pages + DPT) and tails the stream from there.
    let newcomer = cluster.add_replica().expect("attach third replica");
    for i in 0..50u64 {
        let k = i % accounts;
        let mut txn = primary.begin();
        primary
            .update_with(&mut txn, 0, k, |r| {
                let b = balance(r) + 10;
                r[8..16].copy_from_slice(&b.to_le_bytes());
            })
            .unwrap();
        primary.commit(txn).unwrap();
        deposits += 1;
    }
    assert!(cluster.wait_catchup(Duration::from_secs(10)));
    let st = cluster.replica(newcomer).status();
    assert_eq!(st.bootstraps, 1, "newcomer seeded from snapshot");
    println!(
        "replica {newcomer} (late joiner): bootstrapped at LSN {}, replayed to {} — no historical log needed",
        primary.log().low_water(),
        st.replay_lsn,
    );

    // 6. The primary dies. Promote the most-caught-up replica — possibly
    //    the snapshot-bootstrapped newcomer; the lossless guarantee is the
    //    same either way.
    cluster.kill_primary();
    let candidate = cluster.most_caught_up();
    let (promoted, stats) = cluster.promote(candidate).expect("promote replica");
    println!(
        "promoted replica {candidate}: {} commits replayed, {} redone (scan started at {})",
        stats.winners, stats.redone, stats.scan_start
    );

    // 7. Every acknowledged deposit survived; the new primary takes writes.
    let mut txn = promoted.begin();
    let mut total = 0u64;
    for k in 0..accounts {
        total += balance(&promoted.read(&mut txn, 0, k).unwrap());
    }
    promoted.commit(txn).unwrap();
    assert_eq!(
        total,
        accounts * 1000 + deposits * 10,
        "no acked deposit lost"
    );
    println!("post-failover balance sum checks out: {total}");

    let mut txn = promoted.begin();
    promoted
        .update_with(&mut txn, 0, 7, |r| {
            let b = balance(r) + 1;
            r[8..16].copy_from_slice(&b.to_le_bytes());
        })
        .unwrap();
    promoted.commit(txn).unwrap();
    println!("new primary accepts fresh commits — failover complete");
}
