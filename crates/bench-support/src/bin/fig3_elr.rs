//! Figure 3: speedup due to ELR vs. zipfian skew and log-device latency.
//!
//! "The y-axis shows speedup due to ELR as the skew of zipfian-distributed
//! data accesses increases along the x-axis. Different log device latencies
//! are given as data series ranging from 0 to 10ms."
//!
//! For each (skew, latency) cell we run TPC-B twice — Baseline vs. ELR —
//! and report tps(ELR)/tps(Baseline).
//!
//! Env overrides: `AETHER_CLIENTS`, `AETHER_MS`, `AETHER_ACCOUNTS`,
//! `AETHER_SKEWS` (comma list), `AETHER_LATENCIES_US` (comma list).

use aether_bench::driver::{run_closed_loop, DriverConfig};
use aether_bench::env::list;
use aether_bench::env_or;
use aether_bench::tpcb::{Tpcb, TpcbConfig};
use aether_core::{DeviceKind, LogConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::Arc;
use std::time::Duration;

fn tps(
    protocol: CommitProtocol,
    latency_us: u64,
    skew: f64,
    clients: usize,
    ms: u64,
    accounts: u64,
) -> f64 {
    let device = if latency_us == 0 {
        DeviceKind::Ram
    } else {
        DeviceKind::CustomUs(latency_us)
    };
    let db = Db::open(DbOptions {
        protocol,
        device,
        log_config: LogConfig::default(),
        ..DbOptions::default()
    });
    let tpcb = Arc::new(Tpcb::setup(
        &db,
        TpcbConfig {
            accounts,
            skew,
            ..TpcbConfig::default()
        },
    ));
    let t = Arc::clone(&tpcb);
    let body = move |db: &Db,
                     txn: &mut aether_storage::Transaction,
                     rng: &mut rand::rngs::StdRng,
                     _c: usize| t.account_update(db, txn, rng);
    run_closed_loop(
        &db,
        &DriverConfig {
            clients,
            duration: Duration::from_millis(ms),
            seed: 0xF163,
        },
        &body,
    )
    .tps
}

fn main() {
    let clients = env_or("AETHER_CLIENTS", 16usize);
    let ms = env_or("AETHER_MS", 1000u64);
    let accounts = env_or("AETHER_ACCOUNTS", 10_000u64);
    let skews = list("AETHER_SKEWS", &[0.0, 0.5, 0.85, 1.25, 2.0, 3.0]);
    let lats = list("AETHER_LATENCIES_US", &[0.0, 100.0, 1000.0, 10000.0]);
    println!(
        "# Figure 3: ELR speedup vs skew x latency; TPC-B, {clients} clients, {accounts} accounts"
    );
    println!("skew\tlatency_us\ttps_baseline\ttps_elr\tspeedup");
    for &lat in &lats {
        for &skew in &skews {
            let base = tps(
                CommitProtocol::Baseline,
                lat as u64,
                skew,
                clients,
                ms,
                accounts,
            );
            let elr = tps(CommitProtocol::Elr, lat as u64, skew, clients, ms, accounts);
            println!(
                "{skew}\t{}\t{:.0}\t{:.0}\t{:.2}",
                lat as u64,
                base,
                elr,
                elr / base.max(1e-9)
            );
        }
    }
}
