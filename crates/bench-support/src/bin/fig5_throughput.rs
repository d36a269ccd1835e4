//! Figure 5: TPC-B throughput — baseline vs. asynchronous commit vs. flush
//! pipelining.
//!
//! "Even with a fast log disk, the baseline system begins to lag almost
//! immediately as scheduling overheads increase... the other two scale
//! better achieving up to 22% higher performance", with flush pipelining
//! matching async commit's throughput *without* sacrificing durability.
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
    println!("# Figure 5: TPC-B throughput vs clients (flash-class log device)");
    println!("protocol\tclients\ttps\tcommitted\taborts");
    for (label, protocol) in [
        ("baseline", CommitProtocol::Baseline),
        ("async_commit", CommitProtocol::AsyncCommit),
        ("flush_pipelining", CommitProtocol::Pipelined),
    ] {
        for &clients in &client_counts {
            let db = Db::open(DbOptions {
                protocol,
                device: DeviceKind::Flash,
                // AETHER_TELEMETRY=1 snapshots every run: JSON-lines to
                // AETHER_TELEMETRY_OUT on drop, text to stderr below.
                log_config: LogConfig::default().with_telemetry(aether_bench::env::telemetry()),
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
                    seed: 0xF165,
                },
                &body,
            );
            println!(
                "{label}\t{clients}\t{:.0}\t{}\t{}",
                r.tps, r.committed, r.aborts
            );
            if db.log().telemetry().on() {
                eprint!(
                    "{}",
                    db.telemetry_snapshot(&format!("fig5 {label} clients={clients}"))
                        .render_text()
                );
            }
        }
    }
}
