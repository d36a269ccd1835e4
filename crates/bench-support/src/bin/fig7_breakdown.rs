//! Figure 7: time breakdown of TATP UpdateLocation as load grows, with ELR
//! and flush pipelining already applied — showing log-buffer contention
//! growing to dominate ("taking more than 35% of the execution time").
//!
//! Env: `AETHER_MS`, `AETHER_SUBSCRIBERS`, `AETHER_CLIENT_LIST`.

use aether_bench::driver::{run_closed_loop, DriverConfig};
use aether_bench::env::list;
use aether_bench::env_or;
use aether_bench::measure::Breakdown;
use aether_bench::tatp::{Tatp, TatpConfig, TatpTxn};
use aether_core::{BufferKind, DeviceKind, LogConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let client_counts = list("AETHER_CLIENT_LIST", &[1usize, 2, 4, 8, 16, 32, 64]);
    let ms = env_or("AETHER_MS", 1000u64);
    let subscribers = env_or("AETHER_SUBSCRIBERS", 100_000u64);
    println!(
        "# Figure 7: TATP UpdateLocation breakdown vs load (ELR + flush pipelining, baseline log buffer)"
    );
    println!("clients\t{}\ttps", Breakdown::tsv_header());
    for &clients in &client_counts {
        let db = Db::open(DbOptions {
            protocol: CommitProtocol::Pipelined,
            buffer: BufferKind::Baseline, // the buffer under indictment
            device: DeviceKind::Ram,
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
                seed: 0xF167,
            },
            &body,
        );
        println!("{clients}\t{}\t{:.0}", r.breakdown.tsv_row(), r.tps);
    }
}
