//! Commit-latency percentiles per durability policy, read off the
//! telemetry histogram.
//!
//! The replication counterpart of fig14's mean/p95 table, but sourced from
//! `db.commit_latency_ns` — the same HDR-style histogram the exporter
//! publishes — so the numbers in CI's `BENCH_latency.json` artifact are
//! exactly what an operator would scrape in production. One row per policy:
//! `Async` acks at local durability, `SemiSync(1)` waits for the first
//! replica, `Quorum` for a majority; the p999 column is where the ack
//! round-trip and group-commit amortization actually show.
//!
//! Commits are `Pipelined` and each client waits for its own before the
//! next, so a row is the unloaded wakeup chain: commit record → flush daemon
//! → device sync → (replica ack →) completion. On a device that costs
//! `AETHER_DEV_US` the `async` p50 is that sync plus the chain; CI fails the
//! run when it exceeds five syncs, which is what a group-commit timer on the
//! path looks like.
//!
//! Env: `AETHER_TXNS`, `AETHER_CLIENTS`, `AETHER_REPLICAS`,
//! `AETHER_LINK_US` (one-way link latency, µs), `AETHER_DEV_US` (device
//! sync latency, µs; 0 = ramdisk); `AETHER_JSON=<path>` appends
//! machine-readable rows.

use aether_bench::env_or;
use aether_bench::json::JsonSink;
use aether_core::commit::DurabilityPolicy;
use aether_core::{BufferKind, DeviceKind, LogConfig, TelemetryConfig};
use aether_repl::{LinkConfig, ReplicatedDb, ReplicationConfig};
use aether_storage::{CommitOutcome, CommitProtocol, Db, DbOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn record(key: u64, v: u64) -> Vec<u8> {
    let mut r = vec![0u8; 64];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&v.to_le_bytes());
    r
}

fn main() {
    let txns = env_or("AETHER_TXNS", 400u64);
    let replicas = env_or("AETHER_REPLICAS", 3usize).max(1);
    let clients = env_or("AETHER_CLIENTS", 4u64).max(1);
    let link_us = env_or("AETHER_LINK_US", 100u64);
    let dev_us = env_or("AETHER_DEV_US", 0u64);
    let keys = 64u64;
    let policies = [
        DurabilityPolicy::Async,
        DurabilityPolicy::SemiSync(1),
        DurabilityPolicy::Quorum {
            acks: 2.min(replicas),
            replicas,
        },
    ];
    println!(
        "# Commit latency from db.commit_latency_ns: {txns} txns x {clients} clients, \
         {replicas} replicas, {link_us}us link, {dev_us}us device"
    );
    println!("policy\tcount\tp50_us\tp99_us\tp999_us\tmax_us");
    let mut json = JsonSink::from_env();
    for policy in policies {
        let primary = Db::open(DbOptions {
            protocol: CommitProtocol::Pipelined,
            buffer: BufferKind::Hybrid,
            device: DeviceKind::CustomUs(dev_us),
            log_config: LogConfig::default()
                .with_buffer_size(1 << 22)
                .with_telemetry(
                    // The histogram IS the measurement here, so force it on
                    // (env can still widen sampling / add an output file).
                    TelemetryConfig {
                        enabled: true,
                        ..TelemetryConfig::from_env()
                    },
                ),
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

        let next = AtomicU64::new(0);
        std::thread::scope(|s| {
            for c in 0..clients {
                let db = Arc::clone(&primary);
                let next = &next;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= txns {
                        break;
                    }
                    let k = (i * clients + c) % keys;
                    let mut txn = db.begin();
                    db.update(&mut txn, 0, k, &record(k, i + 1)).unwrap();
                    if let CommitOutcome::Pipelined(done) = db.commit(txn).unwrap() {
                        assert!(done.wait(), "commit failed");
                    }
                });
            }
        });

        let label = policy.label();
        let snap = primary.telemetry_snapshot(&format!("latency {label}"));
        let h = snap
            .hist("db.commit_latency_ns")
            .expect("db.commit_latency_ns is registered at Db::open");
        println!(
            "{label}\t{}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
            h.count,
            h.p50 as f64 / 1e3,
            h.p99 as f64 / 1e3,
            h.p999 as f64 / 1e3,
            h.max as f64 / 1e3,
        );
        json.row(&[
            ("bench", "latency".into()),
            ("policy", label.as_str().into()),
            ("dev_us", dev_us.into()),
            ("count", h.count.into()),
            ("p50_us", (h.p50 as f64 / 1e3).into()),
            ("p99_us", (h.p99 as f64 / 1e3).into()),
            ("p999_us", (h.p999 as f64 / 1e3).into()),
        ]);
        drop(cluster);
    }
}
