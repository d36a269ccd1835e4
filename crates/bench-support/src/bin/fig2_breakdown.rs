//! Figure 2: CPU-time breakdown of TPC-B as log bottlenecks are removed.
//!
//! The paper shows three bars — the baseline losing 75% to log-induced lock
//! contention ("Log I/O latency"), ELR exposing scheduler overload ("OS
//! scheduler"), and flush pipelining exposing log-buffer contention ("Log
//! buffer contention") — plus the fully-optimized system. We print one TSV
//! row per configuration with the same stacked categories.
//!
//! Env overrides: `AETHER_CLIENTS` (default 60 per the paper),
//! `AETHER_MS` (run length per bar), `AETHER_ACCOUNTS`.

use aether_bench::driver::{run_closed_loop, DriverConfig};
use aether_bench::env_or;
use aether_bench::measure::Breakdown;
use aether_bench::tpcb::{Tpcb, TpcbConfig};
use aether_core::{BufferKind, DeviceKind, LogConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::Arc;
use std::time::Duration;

fn run_bar(
    label: &str,
    protocol: CommitProtocol,
    buffer: BufferKind,
    device: DeviceKind,
    clients: usize,
    ms: u64,
    accounts: u64,
) {
    let db = Db::open(DbOptions {
        protocol,
        buffer,
        device,
        log_config: LogConfig::default(),
        ..DbOptions::default()
    });
    let tpcb = Arc::new(Tpcb::setup(
        &db,
        TpcbConfig {
            accounts,
            skew: 0.8, // contention regime where Figure 2 lives
            ..TpcbConfig::default()
        },
    ));
    let t = Arc::clone(&tpcb);
    let body = move |db: &Db,
                     txn: &mut aether_storage::Transaction,
                     rng: &mut rand::rngs::StdRng,
                     _c: usize| t.account_update(db, txn, rng);
    let r = run_closed_loop(
        &db,
        &DriverConfig {
            clients,
            duration: Duration::from_millis(ms),
            seed: 0xF162,
        },
        &body,
    );
    println!(
        "{label}\t{}\t{:.0}\t{}",
        r.breakdown.tsv_row(),
        r.tps,
        r.ctx_switches
    );
}

fn main() {
    let clients = env_or("AETHER_CLIENTS", 60usize);
    let ms = env_or("AETHER_MS", 2000u64);
    let accounts = env_or("AETHER_ACCOUNTS", 20_000u64);
    println!("# Figure 2: time breakdown, TPC-B, {clients} clients, {ms} ms/bar");
    println!("config\t{}\ttps\tctx_switches", Breakdown::tsv_header());
    // Bar 1: traditional WAL on a flash-latency log: lock contention (B)
    // dominates because locks are held across the commit flush.
    run_bar(
        "log_io_latency(baseline)",
        CommitProtocol::Baseline,
        BufferKind::Baseline,
        DeviceKind::Flash,
        clients,
        ms,
        accounts,
    );
    // Bar 2: ELR on a ramdisk: lock contention gone, the commit waits
    // (scheduling) remain.
    run_bar(
        "os_scheduler(+ELR,ram)",
        CommitProtocol::Elr,
        BufferKind::Baseline,
        DeviceKind::Ram,
        clients,
        ms,
        accounts,
    );
    // Bar 3: flush pipelining: no commit waits; the log buffer is what's
    // left.
    run_bar(
        "log_buffer(+pipelining)",
        CommitProtocol::Pipelined,
        BufferKind::Baseline,
        DeviceKind::Ram,
        clients,
        ms,
        accounts,
    );
    // Bar 4: full Aether (hybrid buffer) for reference.
    run_bar(
        "aether(+hybrid)",
        CommitProtocol::Pipelined,
        BufferKind::Hybrid,
        DeviceKind::Ram,
        clients,
        ms,
        accounts,
    );
}
