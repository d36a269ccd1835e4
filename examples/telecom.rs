//! Telecom: the full TATP mix against the complete Aether stack.
//!
//! Drives all seven TATP transactions (the standard 35/10/35/2/14/2/2 mix)
//! with flush pipelining + the hybrid log buffer — the paper's "Aether"
//! configuration — and prints the per-type success/failure profile (TATP
//! expects some probes to miss).
//!
//! Run with: `cargo run --release --example telecom`

use aether::bench::tatp::{Tatp, TatpConfig, TatpMix, TatpTxn};
use aether::log::runtime::lock;
use aether::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

fn main() {
    let db = Db::open(DbOptions {
        protocol: CommitProtocol::Pipelined,
        buffer: BufferKind::Hybrid,
        device: DeviceKind::Flash,
        ..DbOptions::default()
    });
    let tatp = Arc::new(Tatp::setup(
        &db,
        TatpConfig {
            subscribers: 20_000,
        },
    ));
    println!("TATP loaded: {} subscribers", tatp.config().subscribers);

    let per_type: std::sync::Mutex<HashMap<TatpTxn, (u64, u64)>> =
        std::sync::Mutex::new(HashMap::new());
    std::thread::scope(|s| {
        let results = &per_type;
        for c in 0..4u64 {
            let db = Arc::clone(&db);
            let tatp = Arc::clone(&tatp);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(c);
                let mut local: HashMap<TatpTxn, (u64, u64)> = HashMap::new();
                for _ in 0..2_000 {
                    let kind = tatp.pick(TatpMix::Standard, &mut rng);
                    let mut txn = db.begin();
                    match tatp.run(kind, &db, &mut txn, &mut rng) {
                        Ok(()) => {
                            db.commit(txn).expect("commit");
                            local.entry(kind).or_default().0 += 1;
                        }
                        Err(_) => {
                            db.abort(txn).expect("abort");
                            local.entry(kind).or_default().1 += 1;
                        }
                    }
                }
                let mut g = lock(results);
                for (k, (ok, fail)) in local {
                    let e = g.entry(k).or_default();
                    e.0 += ok;
                    e.1 += fail;
                }
            });
        }
    });

    db.log().flush_all().unwrap();
    println!("{:<24} {:>8} {:>8}", "transaction", "ok", "failed");
    let mut rows: Vec<_> = per_type.into_inner().unwrap().into_iter().collect();
    rows.sort_by_key(|(k, _)| format!("{k:?}"));
    for (kind, (ok, fail)) in rows {
        println!("{:<24} {:>8} {:>8}", format!("{kind:?}"), ok, fail);
    }
    let stats = db.log().stats();
    println!(
        "log: {} records, {} bytes, {} device syncs (group commit), durable LSN {}",
        stats.inserts,
        stats.bytes,
        db.log().flush_count(),
        db.log().durable_lsn()
    );
}
