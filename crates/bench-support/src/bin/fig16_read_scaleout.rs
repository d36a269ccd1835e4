//! Fig. 16 (extension): read throughput scale-out across replicas.
//!
//! The paper scales the *write* path up within one node; this experiment
//! shows the serving tier scaling *out* — aggregate snapshot-read
//! throughput as replicas are added behind a `ReadRouter`, while a writer
//! keeps committing and every read carries the session's read-your-writes
//! floor. Each replica (and the primary fallback) is modeled as having
//! bounded serving capacity: one read at a time, `AETHER_SERVICE_US` each
//! — the in-process stand-in for a remote replica's worker, without which
//! every "replica" would be the same memory bus and nothing would scale.
//!
//! One row per replica count: reads served in the window, reads/s, and the
//! router's decision counters (blocked/fallback/quarantine) so a scaling
//! anomaly is attributable from the artifact alone.
//!
//! Env: `AETHER_MS` (measure window per point), `AETHER_REPLICA_LIST`
//! (comma-separated replica counts), `AETHER_READERS` (client threads),
//! `AETHER_SERVICE_US` (modeled per-read service time),
//! `AETHER_BUDGET_US` (staleness budget), `AETHER_LINK_US` (one-way ship
//! link latency), `AETHER_READ_POLICY` (round_robin | least_lagged |
//! freshness_weighted); `AETHER_JSON=<path>` appends machine-readable rows.

use aether_bench::env::list;
use aether_bench::env_or;
use aether_bench::json::JsonSink;
use aether_core::commit::DurabilityPolicy;
use aether_core::{BufferKind, DeviceKind, LogConfig, TelemetryConfig};
use aether_repl::{LinkConfig, ReplicatedDb, ReplicationConfig, RouterConfig, Session};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: u64 = 64;

fn record(key: u64, v: u64) -> Vec<u8> {
    let mut r = vec![0u8; 64];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&v.to_le_bytes());
    r
}

fn main() {
    let ms = env_or("AETHER_MS", 400u64);
    let readers = env_or("AETHER_READERS", 8u64).max(1);
    let service_us = env_or("AETHER_SERVICE_US", 250u64);
    let budget_us = env_or("AETHER_BUDGET_US", 5_000u64);
    let link_us = env_or("AETHER_LINK_US", 50u64);
    let policy = aether_bench::env::read_policy();
    let mut replica_list = list("AETHER_REPLICA_LIST", &[1usize, 2, 4]);
    replica_list.retain(|&n| n > 0);

    println!(
        "# Read scale-out via ReadRouter ({}): {ms}ms window, {readers} readers, \
         {service_us}us modeled service, {budget_us}us staleness budget, {link_us}us link",
        policy.label()
    );
    println!("replicas\treads\treads_per_s\tblocked\tfallback_primary\tquarantines");
    let mut json = JsonSink::from_env();

    for &replicas in &replica_list {
        let primary = Db::open(DbOptions {
            protocol: CommitProtocol::Baseline,
            buffer: BufferKind::Hybrid,
            device: DeviceKind::Ram,
            log_config: LogConfig::default()
                .with_buffer_size(1 << 22)
                .with_telemetry(TelemetryConfig {
                    enabled: true,
                    ..aether_bench::env::telemetry()
                }),
            ..DbOptions::default()
        });
        primary.create_table(64, KEYS);
        for k in 0..KEYS {
            primary.load(0, k, &record(k, 0)).unwrap();
        }
        primary.setup_complete();
        let cluster = ReplicatedDb::attach(
            Arc::clone(&primary),
            ReplicationConfig {
                replicas,
                policy: DurabilityPolicy::SemiSync(1),
                link: LinkConfig::with_latency_us(link_us),
                ..ReplicationConfig::default()
            },
        )
        .expect("attach replication");
        assert!(
            cluster.wait_catchup(Duration::from_secs(10)),
            "replicas must catch up before the measured window"
        );
        let router = cluster.router(RouterConfig {
            policy,
            budget: Duration::from_micros(budget_us),
            service: Duration::from_micros(service_us),
            ..RouterConfig::default()
        });

        let stop = AtomicBool::new(false);
        let session = Session::new();
        let reads = AtomicU64::new(0);
        let elapsed = std::thread::scope(|s| {
            // One writer keeps the log moving and the session watermark
            // advancing, so reads exercise the staleness machinery instead
            // of a frozen snapshot.
            s.spawn(|| {
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    v += 1;
                    let k = v % KEYS;
                    let mut txn = primary.begin();
                    primary.update(&mut txn, 0, k, &record(k, v)).unwrap();
                    let (_, token) = cluster.commit(txn).unwrap();
                    session.observe(token);
                    std::thread::sleep(Duration::from_micros(1_000));
                }
            });
            for r in 0..readers {
                let router = &router;
                let session = &session;
                let stop = &stop;
                let reads = &reads;
                s.spawn(move || {
                    let mut k = r;
                    while !stop.load(Ordering::Relaxed) {
                        k = (k + 1) % KEYS;
                        // The staleness contract itself is asserted by the
                        // router tests; here the read just has to be real.
                        let out = router.read_session(session, 0, k).unwrap();
                        assert!(out.value.is_some(), "loaded key {k} must exist");
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_millis(ms));
            stop.store(true, Ordering::Relaxed);
            t0.elapsed()
        });

        let total = reads.load(Ordering::Relaxed);
        let per_s = total as f64 / elapsed.as_secs_f64();
        let st = router.stats();
        println!(
            "{replicas}\t{total}\t{per_s:.0}\t{}\t{}\t{}",
            st.blocked, st.fallback_primary, st.quarantines
        );
        json.row(&[
            ("bench", "fig16".into()),
            ("policy", policy.label().into()),
            ("replicas", (replicas as u64).into()),
            ("readers", readers.into()),
            ("service_us", service_us.into()),
            ("budget_us", budget_us.into()),
            ("reads", total.into()),
            ("reads_per_s", per_s.into()),
            ("blocked", st.blocked.into()),
            ("fallback_primary", st.fallback_primary.into()),
            ("quarantines", st.quarantines.into()),
        ]);
        drop(router);
        drop(cluster);
    }
}
