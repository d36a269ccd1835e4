//! The replication figures: shipping the serial log to replicas (Fig. 14)
//! and serving reads from them (Fig. 16).

use super::record;
use aether_bench::env::{env_or, list};
use aether_bench::table::Table;
use aether_core::commit::DurabilityPolicy;
use aether_core::{BufferKind, DeviceKind, LogConfig, TelemetryConfig};
use aether_repl::{LinkConfig, ReplicatedDb, ReplicationConfig, RouterConfig, Session};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: u64 = 64;

/// A Baseline/Hybrid RAM primary with `KEYS` 64-byte rows, shipping its
/// log to `replicas` replicas under `policy` over a `link_us` one-way link.
fn replicated(
    telemetry: TelemetryConfig,
    replicas: usize,
    policy: DurabilityPolicy,
    link_us: u64,
) -> (Arc<Db>, ReplicatedDb) {
    let log_config = LogConfig::default().with_buffer_size(1 << 22);
    let db = Db::open(DbOptions {
        protocol: CommitProtocol::Baseline,
        buffer: BufferKind::Hybrid,
        device: DeviceKind::Ram,
        log_config: log_config.with_telemetry(telemetry),
        ..DbOptions::default()
    });
    db.create_table(64, KEYS);
    for k in 0..KEYS {
        db.load(0, k, &record(k, 0)).unwrap();
    }
    db.setup_complete();
    let link = LinkConfig::with_latency_us(link_us);
    let config = ReplicationConfig {
        replicas,
        policy,
        link,
        ..ReplicationConfig::default()
    };
    let cluster = ReplicatedDb::attach(Arc::clone(&db), config).expect("attach replication");
    (db, cluster)
}

/// Figure 14: log-shipping replication instead of a partitioned log (the
/// counterpart to Fig. 13). Clients commit against a primary with replicas
/// under `{Async, SemiSync(1), SemiSync(2)}` over links of `AETHER_LINK_US`
/// one-way latency: client commit latency, the replicas' byte lag as the
/// workload ends, and their catch-up time.
pub fn fig14_replication() {
    let links = list("AETHER_LINK_US", &[0u64, 100, 1000]);
    let txns = env_or("AETHER_TXNS", 300u64);
    let replicas = env_or("AETHER_REPLICAS", 3usize).max(1);
    let clients = env_or("AETHER_CLIENTS", 4u64).max(1);
    let policies = [
        DurabilityPolicy::Async,
        DurabilityPolicy::SemiSync(1),
        // Clamped to the replica count: 2 acks of 1 replica never gather.
        DurabilityPolicy::SemiSync(2.min(replicas)),
    ];
    let mut t = Table::new(
        "fig14_replication",
        &format!("Figure 14: log-shipping replication, {txns} txns x {clients} clients, {replicas} replicas, 64B records"),
        "policy\tlink_us\tcommits\tmean_commit_us\tp95_commit_us\tend_lag_bytes\tcatchup_ms\tflushes",
    );
    for policy in policies {
        for &link_us in &links {
            let telemetry = aether_bench::env::telemetry();
            let (primary, cluster) = replicated(telemetry, replicas, policy, link_us);

            // Closed-loop clients, each timing its own blocking commits.
            let next = AtomicU64::new(0);
            let mut lat_us: Vec<u64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let (db, next) = (&primary, &next);
                        s.spawn(move || {
                            let mut lats = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= txns {
                                    return lats;
                                }
                                let k = (i * clients + c) % KEYS;
                                let mut txn = db.begin();
                                db.update(&mut txn, 0, k, &record(k, i + 1)).unwrap();
                                let start = Instant::now();
                                db.commit(txn).unwrap();
                                lats.push(start.elapsed().as_micros() as u64);
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });

            // Lag the moment the workload stops, then time the catch-up.
            let durable = primary.log().durable_lsn();
            let end_lag = cluster
                .status()
                .iter()
                .map(|st| durable.raw().saturating_sub(st.replay_lsn.raw()))
                .max()
                .unwrap_or(0);
            let start = Instant::now();
            let catchup_ms = if cluster.wait_catchup(Duration::from_secs(30)) {
                start.elapsed().as_secs_f64() * 1e3
            } else {
                f64::NAN
            };

            lat_us.sort_unstable();
            let n = lat_us.len();
            let mean = lat_us.iter().sum::<u64>() as f64 / n.max(1) as f64;
            let p95 = lat_us
                .get((n * 95 / 100).min(n.saturating_sub(1)))
                .copied()
                .unwrap_or(0);
            t.row(&format!(
                "{}\t{link_us}\t{n}\t{mean:.1}\t{p95}\t{end_lag}\t{catchup_ms:.2}\t{}",
                policy.label(),
                primary.log().flush_count(),
            ));
        }
    }
}

/// Figure 16: aggregate snapshot-read throughput as replicas are added
/// behind a `ReadRouter`, while a writer keeps committing and every read
/// carries the session's read-your-writes floor. Each replica (and the
/// primary fallback) serves one read at a time, `AETHER_SERVICE_US` each:
/// the in-process stand-in for a remote replica's worker. The router's
/// blocked/fallback/quarantine counters make an anomaly attributable.
pub fn fig16_read_scaleout() {
    let ms = super::ms(400);
    let readers = env_or("AETHER_READERS", 8u64).max(1);
    let service_us = env_or("AETHER_SERVICE_US", 250u64);
    let budget_us = env_or("AETHER_BUDGET_US", 5_000u64);
    let link_us = env_or("AETHER_LINK_US", 50u64);
    let mut replica_list = list("AETHER_REPLICAS", &[1usize, 2, 4]);
    replica_list.retain(|&n| n > 0);

    let mut t = Table::new(
        "fig16_read_scaleout",
        &format!(
            "Read scale-out via ReadRouter: {}ms window, {readers} readers, \
             {service_us}us modeled service, {budget_us}us staleness budget, {link_us}us link",
            ms.as_millis()
        ),
        "replicas\treads\treads_per_s\tblocked\tfallback_primary\tquarantines",
    );
    for &replicas in &replica_list {
        let mut telemetry = aether_bench::env::telemetry();
        telemetry.enabled = true;
        let (primary, cluster) =
            replicated(telemetry, replicas, DurabilityPolicy::SemiSync(1), link_us);
        assert!(
            cluster.wait_catchup(Duration::from_secs(10)),
            "replicas must catch up before the measured window"
        );
        let router = cluster.router(RouterConfig {
            budget: Duration::from_micros(budget_us),
            service: Duration::from_micros(service_us),
            ..RouterConfig::default()
        });

        let stop = AtomicBool::new(false);
        let session = Session::new();
        let reads = AtomicU64::new(0);
        let elapsed = std::thread::scope(|s| {
            // One writer keeps the log and the session watermark moving, so
            // reads exercise the staleness machinery, not a frozen snapshot.
            s.spawn(|| {
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    v += 1;
                    let k = v % KEYS;
                    let mut txn = primary.begin();
                    primary.update(&mut txn, 0, k, &record(k, v)).unwrap();
                    let token = cluster.commit(txn).unwrap().token();
                    session.observe(token);
                    std::thread::sleep(Duration::from_micros(1_000));
                }
            });
            for r in 0..readers {
                let (router, session, stop, reads) = (&router, &session, &stop, &reads);
                s.spawn(move || {
                    let mut k = r;
                    while !stop.load(Ordering::Relaxed) {
                        k = (k + 1) % KEYS;
                        // The router tests assert the staleness contract;
                        // here the read just has to be real.
                        let out = router.read_session(session, 0, k).unwrap();
                        assert!(out.value.is_some(), "loaded key {k} must exist");
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let start = Instant::now();
            std::thread::sleep(ms);
            stop.store(true, Ordering::Relaxed);
            start.elapsed()
        });

        let total = reads.load(Ordering::Relaxed);
        let per_s = total as f64 / elapsed.as_secs_f64();
        let st = router.stats();
        t.row(&format!(
            "{replicas}\t{total}\t{per_s:.0}\t{}\t{}\t{}",
            st.blocked, st.fallback_primary, st.quarantines
        ));
    }
}
