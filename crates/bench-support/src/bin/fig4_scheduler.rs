//! Figure 4: context switches and CPU demand, without/with flush pipelining.
//!
//! The paper plots context-switch rate and utilization vs. client count for
//! baseline Shore-MT (left) and with flush pipelining (right): baseline
//! switch rate grows with clients; pipelined stays flat because "only one
//! thread issues I/O requests regardless of thread counts".
//!
//! We print, per (mode, clients): voluntary context switches per second,
//! context switches per transaction, throughput, and the flush count.
//!
//! Env: `AETHER_MS`, `AETHER_ACCOUNTS`, `AETHER_CLIENT_LIST`.

use aether_bench::driver::{run_closed_loop, DriverConfig};
use aether_bench::env::list;
use aether_bench::env_or;
use aether_bench::tpcb::{Tpcb, TpcbConfig};
use aether_core::{DeviceKind, LogConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let client_counts = list("AETHER_CLIENT_LIST", &[1usize, 2, 4, 8, 16, 32, 64]);
    let ms = env_or("AETHER_MS", 1000u64);
    let accounts = env_or("AETHER_ACCOUNTS", 10_000u64);
    println!("# Figure 4: scheduler activity vs clients, TPC-B on flash-class log (100us)");
    if !aether_bench::measure::ctx_switches_supported() {
        println!("# note: /proc ctx-switch counters unavailable on this host; ctx columns read 0");
    }
    println!("mode\tclients\ttps\tctx_per_s\tctx_per_txn\tflushes\tflushes_per_txn");
    for (label, protocol) in [
        ("baseline", CommitProtocol::Baseline),
        ("flush_pipelining", CommitProtocol::Pipelined),
    ] {
        for &clients in &client_counts {
            let db = Db::open(DbOptions {
                protocol,
                device: DeviceKind::Flash,
                log_config: LogConfig::default(),
                ..DbOptions::default()
            });
            let tpcb = Arc::new(Tpcb::setup(
                &db,
                TpcbConfig {
                    accounts,
                    skew: 0.0,
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
                    seed: 0xF164,
                },
                &body,
            );
            println!(
                "{label}\t{clients}\t{:.0}\t{:.0}\t{:.2}\t{}\t{:.3}",
                r.tps,
                r.ctx_switches as f64 / r.wall_s,
                r.ctx_switches as f64 / r.committed.max(1) as f64,
                r.flushes,
                r.flushes as f64 / r.committed.max(1) as f64,
            );
        }
    }
}
