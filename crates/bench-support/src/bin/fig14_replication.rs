//! Figure 14 (extension): log-shipping replication — commit latency and
//! replica replay lag across durability policies and link latencies.
//!
//! The counterpart to Figure 13: instead of partitioning the log (whose
//! cross-log dependencies §A.5 shows to be intractable), keep it serial and
//! ship it. Clients commit against a primary with three replicas under
//! `{Async, SemiSync(1), Quorum(2/3)}` while the simulated link carries
//! `AETHER_LINK_LIST` microseconds of one-way latency. We report client-side
//! commit latency (mean/p95), the replicas' byte lag right as the workload
//! ends, and how long they take to fully catch up — `Async` acks early and
//! lets lag grow with link latency; quorum policies buy zero-loss failover
//! at the price of ack round-trips, amortized by group commit.
//!
//! Env: `AETHER_TXNS`, `AETHER_LINK_LIST` (µs, comma-separated),
//! `AETHER_REPLICAS`, `AETHER_CLIENTS`.

use aether_bench::env::list;
use aether_bench::env_or;
use aether_core::commit::DurabilityPolicy;
use aether_core::{BufferKind, DeviceKind, LogConfig};
use aether_repl::{LinkConfig, ReplicatedDb, ReplicationConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn record(key: u64, v: u64) -> Vec<u8> {
    let mut r = vec![0u8; 64];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&v.to_le_bytes());
    r
}

fn main() {
    let links = list("AETHER_LINK_LIST", &[0u64, 100, 1000]);
    let txns = env_or("AETHER_TXNS", 300u64);
    let replicas = env_or("AETHER_REPLICAS", 3usize).max(1);
    let clients = env_or("AETHER_CLIENTS", 4u64).max(1);
    let keys = 64u64;
    let policies = [
        DurabilityPolicy::Async,
        DurabilityPolicy::SemiSync(1),
        // Clamp the quorum to the replica count so AETHER_REPLICAS=1 still
        // terminates (2-of-1 could never gather its acks).
        DurabilityPolicy::Quorum {
            acks: 2.min(replicas),
            replicas,
        },
    ];
    println!(
        "# Figure 14: log-shipping replication, {txns} txns x {clients} clients, {replicas} replicas, 64B records"
    );
    println!(
        "policy\tlink_us\tcommits\tmean_commit_us\tp95_commit_us\tend_lag_bytes\tcatchup_ms\tflushes"
    );
    for policy in policies {
        for &link_us in &links {
            let primary = Db::open(DbOptions {
                protocol: CommitProtocol::Baseline,
                buffer: BufferKind::Hybrid,
                device: DeviceKind::Ram,
                log_config: LogConfig::default().with_buffer_size(1 << 22),
                ..DbOptions::default()
            });
            primary.create_table(64, keys);
            for k in 0..keys {
                primary.load(0, k, &record(k, 0)).unwrap();
            }
            primary.setup_complete();
            let cluster = ReplicatedDb::attach(
                Arc::clone(&primary),
                ReplicationConfig {
                    replicas,
                    policy,
                    link: LinkConfig::with_latency_us(link_us),
                    ..ReplicationConfig::default()
                },
            )
            .expect("attach replication");

            // Closed-loop clients, each timing its own blocking commits.
            let next = AtomicU64::new(0);
            let lat_us: Vec<u64> = std::thread::scope(|s| {
                let mut handles = Vec::new();
                for c in 0..clients {
                    let db = Arc::clone(&primary);
                    let next = &next;
                    handles.push(s.spawn(move || {
                        let mut lats = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= txns {
                                break;
                            }
                            let k = (i * clients + c) % keys;
                            let mut txn = db.begin();
                            db.update(&mut txn, 0, k, &record(k, i + 1)).unwrap();
                            let t = Instant::now();
                            db.commit(txn).unwrap();
                            lats.push(t.elapsed().as_micros() as u64);
                        }
                        lats
                    }));
                }
                let mut all = Vec::new();
                for h in handles {
                    all.extend(h.join().unwrap());
                }
                all
            });

            // Lag the moment the workload stops, then time the catch-up.
            let durable = primary.log().durable_lsn();
            let end_lag = cluster
                .status()
                .iter()
                .map(|st| durable.raw().saturating_sub(st.replay_lsn.raw()))
                .max()
                .unwrap_or(0);
            let t = Instant::now();
            let caught_up = cluster.wait_catchup(Duration::from_secs(30));
            let catchup_ms = if caught_up {
                t.elapsed().as_secs_f64() * 1e3
            } else {
                f64::NAN
            };

            let mut sorted = lat_us.clone();
            sorted.sort_unstable();
            let mean = sorted.iter().sum::<u64>() as f64 / sorted.len().max(1) as f64;
            let p95 = sorted
                .get((sorted.len() * 95 / 100).min(sorted.len().saturating_sub(1)))
                .copied()
                .unwrap_or(0);
            println!(
                "{}\t{link_us}\t{}\t{mean:.1}\t{p95}\t{end_lag}\t{catchup_ms:.2}\t{}",
                policy.label(),
                sorted.len(),
                primary.log().flush_count(),
            );
        }
    }
}
