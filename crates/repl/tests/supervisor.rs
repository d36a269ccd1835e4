//! Supervisor integration: replica healing and automatic failover.

use aether_core::runtime;
use aether_repl::prelude::*;
use aether_storage::{Db, DbOptions};
use std::sync::Arc;
use std::time::Duration;

const VAL: usize = 64;

fn primary_db() -> Arc<Db> {
    let db = Db::open(DbOptions {
        log_config: aether_core::LogConfig::default().with_buffer_size(1 << 20),
        ..DbOptions::default()
    });
    db.create_table(VAL, 32);
    for k in 0..32u64 {
        db.load(0, k, &[0u8; VAL]).unwrap();
    }
    db.setup_complete();
    db
}

/// The supervisor's counter `name`, read from its registry's snapshot.
fn count(sup: &Supervisor, name: &str) -> u64 {
    sup.telemetry_snapshot("sup").counter(name).unwrap()
}

fn commit_mark(db: &Arc<Db>, key: u64, mark: u8) {
    let mut t = db.begin();
    db.update_with(&mut t, 0, key, |r| r[0] = mark).unwrap();
    db.commit(t).unwrap();
}

/// `stop` ends the watch loop's wait for its next probe: with a 10 s probe
/// it returns at once, not up to 10 s later.
#[test]
fn stop_does_not_wait_out_the_probe() {
    let cluster = ReplicatedDb::attach(
        primary_db(),
        ReplicationConfig {
            replicas: 1,
            policy: DurabilityPolicy::Async,
            ..ReplicationConfig::default()
        },
    )
    .unwrap();
    let mut sup = Supervisor::start(
        cluster,
        SupervisorConfig {
            probe: Duration::from_secs(10),
            ..SupervisorConfig::default()
        },
    );
    while count(&sup, "sup.probes") == 0 {
        runtime::sleep(Duration::from_millis(1));
    }
    let t0 = runtime::monotonic_ns();
    sup.stop();
    let took = runtime::monotonic_ns() - t0;
    assert!(took < 100_000_000, "stop took {took} ns with a 10 s probe");
    assert_eq!(count(&sup, "sup.probes"), 1);
}

#[test]
fn stalled_replica_is_quarantined_and_healed() {
    let primary = primary_db();
    let mut cluster = ReplicatedDb::attach(
        Arc::clone(&primary),
        ReplicationConfig {
            replicas: 1,
            policy: DurabilityPolicy::Async,
            ..ReplicationConfig::default()
        },
    )
    .unwrap();
    // A second replica behind a 2-second link: its acks stall immediately.
    let laggard = cluster
        .add_replica_with_link(LinkConfig::with_latency_us(2_000_000))
        .unwrap();
    let sup = Supervisor::start(
        cluster,
        SupervisorConfig {
            probe: Duration::from_millis(2),
            lag_bytes: 1024,
            lag_grace: Duration::from_millis(10),
        },
    );
    // Push the durable frontier well past the lag budget.
    for i in 0..100u64 {
        commit_mark(&primary, i % 32, 7);
    }
    let deadline = runtime::monotonic_ns() + 5_000_000_000;
    while count(&sup, "sup.heals") == 0 {
        assert!(
            runtime::monotonic_ns() < deadline,
            "supervisor never healed the stalled replica: {:?}",
            sup.report()
        );
        runtime::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        count(&sup, "sup.promotions"),
        0,
        "healthy primary: no failover"
    );
    // The healed pipeline (fresh snapshot + default fast link) catches up.
    let cluster = sup.release().expect("no failover consumed the cluster");
    assert!(
        cluster.wait_catchup(Duration::from_secs(10)),
        "healed replica must catch up: {:?}",
        cluster.status()
    );
    assert_eq!(
        cluster.replica(laggard).read(0, 5).unwrap().unwrap()[0],
        7,
        "replacement replica serves the post-heal state"
    );
}

#[test]
fn poisoned_gate_triggers_auto_promotion_with_zero_committed_loss() {
    let primary = primary_db();
    let cluster = ReplicatedDb::attach(
        Arc::clone(&primary),
        ReplicationConfig {
            replicas: 2,
            policy: DurabilityPolicy::SemiSync(1),
            ..ReplicationConfig::default()
        },
    )
    .unwrap();
    let sup = Supervisor::start(cluster, SupervisorConfig::default());
    // Every one of these was acked under SemiSync(1): at least one replica
    // durably holds each before commit() returns.
    for k in 0..32u64 {
        commit_mark(&primary, k, 42);
    }
    // Primary dies: replication is declared dead via the commit gate.
    primary.log().commit_gate().poison();

    let (promoted, stats) = sup
        .wait_promoted(Duration::from_secs(10))
        .expect("supervisor must fail over");
    assert_eq!(count(&sup, "sup.promotions"), 1);
    assert!(stats.winners > 0, "promotion replayed committed work");
    for k in 0..32u64 {
        let v = promoted.snapshot_read(0, k).unwrap().unwrap();
        assert_eq!(v[0], 42, "committed key {k} lost in failover");
    }
    // The supervisor now serves the promoted primary as *the* primary.
    let cur = sup.primary().expect("a primary must exist after failover");
    assert!(Arc::ptr_eq(&cur, &promoted));
}
