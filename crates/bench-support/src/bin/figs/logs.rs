//! The figures about the log's shape: splitting it (Fig. 13) and bounding
//! it behind checkpoints (Fig. 15).

use aether_bench::env::{env_or, list};
use aether_bench::table::Table;
use aether_bench::tpcc::{analyze, generate_trace, Partitioning, TpccConfig};
use aether_core::partition::{MemSegmentFactory, SegmentedDevice};
use aether_core::{BufferKind, LogConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::Arc;
use std::time::Instant;

/// Figure 13: inter-log dependencies under distributed logging (§A.5) in a
/// TPC-C-lite trace: cross-log edges, tight edges (predecessor within its
/// log's last 5 records) and the share of transactions that would flush
/// several logs at commit, for round-robin and by-warehouse partitioning.
pub fn fig13_distributed() {
    let log_counts = list("AETHER_LOGS", &[1usize, 2, 4, 8, 16]);
    let txns = env_or("AETHER_TXNS", 5_000u64);
    let warehouses = env_or("AETHER_WAREHOUSES", 8u32);
    let cfg = TpccConfig {
        warehouses,
        ..TpccConfig::default()
    };
    let trace = generate_trace(&cfg, txns, 0xF1613);
    let mut t = Table::new(
        "fig13_distributed",
        &format!(
            "Figure 13: inter-log dependencies, TPC-C-lite trace, {txns} txns, {} records, {warehouses} warehouses",
            trace.len()
        ),
        "partitioning\tn_logs\tcross_edges\tedges_per_record\ttight_edges\tmulti_log_txn_frac",
    );
    for (label, partitioning) in [
        ("round_robin", Partitioning::RoundRobinTxn),
        ("by_warehouse", Partitioning::ByWarehouse),
    ] {
        for &n in &log_counts {
            let rep = analyze(&trace, n, partitioning);
            t.row(&format!(
                "{label}\t{n}\t{}\t{:.3}\t{}\t{:.3}",
                rep.cross_edges,
                rep.cross_edge_rate(),
                rep.tight_edges,
                rep.multi_log_frac()
            ));
        }
    }
}

/// Figure 15: log truncation behind fuzzy checkpoints. Update traffic over a
/// segmented log, a checkpoint-and-truncate every `ckpt_every` transactions
/// (`0` = never), then a crash and a timed recovery. Down a `ckpt_every`
/// column (uptime grows) footprint and recovery time stay flat; across
/// columns they grow with the interval, and without bound at `0`.
pub fn fig15_truncation() {
    let txns_list = list("AETHER_TXNS", &[2000, 4000, 8000]);
    let ckpt_list = list("AETHER_CKPTS", &[0, 250, 1000]);
    let keys = env_or("AETHER_KEYS", 64u64);
    let seg_kb = env_or("AETHER_SEG_KB", 32u64);
    let mut t = Table::new(
        "fig15_truncation",
        &format!("Figure 15: log truncation behind fuzzy checkpoints ({keys} keys, {seg_kb} KiB segments)"),
        "ckpt_every\ttxns\ttps\tlog_end_bytes\tretained_bytes\tlive_segments\trecycled_segments\tcheckpoints\trecovery_ms\trecovery_scanned\trecovery_redone",
    );
    let opts = |telemetry| DbOptions {
        protocol: CommitProtocol::Elr,
        buffer: BufferKind::Hybrid,
        log_config: LogConfig::default()
            .with_buffer_size(1 << 22)
            .with_telemetry(telemetry),
        ..DbOptions::default()
    };
    for &ckpt_every in &ckpt_list {
        for &txns in &txns_list {
            let segments = Arc::new(
                SegmentedDevice::new(Box::new(MemSegmentFactory), seg_kb * 1024)
                    .expect("segmented device"),
            );
            let db = Db::open_with_device(
                opts(aether_bench::env::telemetry()),
                Arc::clone(&segments) as _,
            );
            db.create_table(64, keys);
            for k in 0..keys {
                db.load(0, k, &super::record(k, 0)).unwrap();
            }
            db.setup_complete();

            // The crash lands half a checkpoint period after the last
            // checkpoint, so the retained log shows the steady-state bound
            // (checkpoint distance), not a fully quiesced zero.
            let total = txns + ckpt_every / 2;
            let mut checkpoints = 0u64;
            let start = Instant::now();
            for i in 0..total {
                let mut txn = db.begin();
                let k = i % keys;
                db.update(&mut txn, 0, k, &super::record(k, i + 1)).unwrap();
                db.commit(txn).unwrap();
                if ckpt_every > 0 && (i + 1) % ckpt_every == 0 && i < txns {
                    db.checkpoint_and_truncate();
                    checkpoints += 1;
                }
            }
            let _ = db.log().flush_all();
            let tps = total as f64 / start.elapsed().as_secs_f64();
            let log_end = db.log().durable_lsn().raw();
            let retained = db.log().retained_bytes();
            let live = segments.live_segments();
            let recycled = segments.recycled_segments();

            // Crash and time recovery over the retained suffix only.
            let image = db.crash();
            if db.log().telemetry().on() {
                let label = format!("fig15 ckpt={ckpt_every} txns={txns}");
                eprint!("{}", db.telemetry_snapshot(&label).render_text());
            }
            drop(db);
            let start = Instant::now();
            let (recovered, stats) =
                aether_storage::recovery::recover_with_stats(image, opts(Default::default()))
                    .expect("recovery");
            let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
            // Sanity: the last committed value per key survived.
            let mut txn = recovered.begin();
            for k in 0..keys.min(total) {
                let v = recovered.read(&mut txn, 0, k).unwrap();
                assert!(u64::from_le_bytes(v[8..16].try_into().unwrap()) <= total);
            }
            recovered.commit(txn).unwrap();

            t.row(&format!(
                "{ckpt_every}\t{txns}\t{tps:.0}\t{log_end}\t{retained}\t{live}\t{recycled}\t{checkpoints}\t{recovery_ms:.2}\t{}\t{}",
                stats.scanned, stats.redone
            ));
        }
    }
}
