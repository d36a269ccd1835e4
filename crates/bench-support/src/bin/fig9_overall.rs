//! Figure 9: overall impact of Aether's components on TATP UpdateLocation.
//!
//! Three configurations, cumulative: baseline; +ELR+flush pipelining (the
//! paper's biggest win, +68%); +hybrid log buffer (full Aether, a further
//! +7% on 2010 hardware but the piece that matters as cores multiply).
//!
//! Env: `AETHER_MS`, `AETHER_SUBSCRIBERS`, `AETHER_CLIENT_LIST`.

use aether_bench::driver::{run_closed_loop, DriverConfig};
use aether_bench::env::list;
use aether_bench::env_or;
use aether_bench::tatp::{Tatp, TatpConfig, TatpTxn};
use aether_core::{BufferKind, DeviceKind, LogConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let client_counts = list("AETHER_CLIENT_LIST", &[1usize, 2, 4, 8, 16, 32, 64]);
    let ms = env_or("AETHER_MS", 1000u64);
    let subscribers = env_or("AETHER_SUBSCRIBERS", 100_000u64);
    println!("# Figure 9: TATP UpdateLocation throughput vs clients");
    println!("config\tclients\ttps\tcommitted");
    for (label, protocol, buffer) in [
        ("baseline", CommitProtocol::Baseline, BufferKind::Baseline),
        (
            "elr+pipelining",
            CommitProtocol::Pipelined,
            BufferKind::Baseline,
        ),
        ("aether", CommitProtocol::Pipelined, BufferKind::Hybrid),
    ] {
        for &clients in &client_counts {
            let db = Db::open(DbOptions {
                protocol,
                buffer,
                device: DeviceKind::Flash,
                log_config: LogConfig::default(),
                ..DbOptions::default()
            });
            let tatp = Arc::new(Tatp::setup(&db, TatpConfig { subscribers }));
            let t = Arc::clone(&tatp);
            let body =
                move |db: &Db,
                      txn: &mut aether_storage::Transaction,
                      rng: &mut rand::rngs::StdRng,
                      _c: usize| { t.run(TatpTxn::UpdateLocation, db, txn, rng) };
            let r = run_closed_loop(
                &db,
                &DriverConfig {
                    clients,
                    duration: Duration::from_millis(ms),
                    seed: 0xF169,
                },
                &body,
            );
            println!("{label}\t{clients}\t{:.0}\t{}", r.tps, r.committed);
        }
    }
}
