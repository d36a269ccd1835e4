//! Figure 15 (extension): log truncation behind fuzzy checkpoints — on-disk
//! log footprint, recovery time and throughput vs. checkpoint interval.
//!
//! The paper's log manager assumes an ever-growing totally-ordered log;
//! production systems bound it by recycling segments behind checkpoints.
//! This experiment runs sustained update traffic over a segmented log
//! device, checkpointing (and truncating) every `ckpt_every` transactions,
//! then crashes and times ARIES recovery. Two readings:
//!
//! * scanning **down** a `ckpt_every` column as `txns` (uptime) grows:
//!   retained bytes and recovery time stay flat — recovery is bounded by
//!   checkpoint distance, not uptime;
//! * scanning **across** `ckpt_every` values at fixed `txns`: a larger
//!   interval retains proportionally more log and recovers proportionally
//!   slower; `0` (never checkpoint) grows without bound — the seed-state
//!   behavior this PR retires.
//!
//! Env: `AETHER_TXNS_LIST` (uptime axis, default `2000,4000,8000`),
//! `AETHER_CKPT_LIST` (txns per checkpoint, `0` = never, default
//! `0,250,1000`), `AETHER_KEYS` (working set, default 64), `AETHER_SEG_KB`
//! (segment size, default 32).

use aether_bench::env::list;
use aether_bench::env_or;
use aether_core::partition::{MemSegmentFactory, SegmentedDevice};
use aether_core::{BufferKind, LogConfig};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::sync::Arc;
use std::time::Instant;

fn record(key: u64, v: u64) -> Vec<u8> {
    let mut r = vec![0u8; 64];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&v.to_le_bytes());
    r
}

fn main() {
    let txns_list = list("AETHER_TXNS_LIST", &[2000, 4000, 8000]);
    let ckpt_list = list("AETHER_CKPT_LIST", &[0, 250, 1000]);
    let keys = env_or("AETHER_KEYS", 64u64);
    let seg_kb = env_or("AETHER_SEG_KB", 32u64);
    println!(
        "# Figure 15: log truncation behind fuzzy checkpoints ({keys} keys, {seg_kb} KiB segments)"
    );
    println!(
        "ckpt_every\ttxns\ttps\tlog_end_bytes\tretained_bytes\tlive_segments\trecycled_segments\tcheckpoints\trecovery_ms\trecovery_scanned\trecovery_redone"
    );
    for &ckpt_every in &ckpt_list {
        for &txns in &txns_list {
            let segments = Arc::new(
                SegmentedDevice::new(Box::new(MemSegmentFactory), seg_kb * 1024)
                    .expect("segmented device"),
            );
            let db = Db::open_with_device(
                DbOptions {
                    protocol: CommitProtocol::Elr,
                    buffer: BufferKind::Hybrid,
                    // AETHER_TELEMETRY=1: perf-smoke reads the truncation
                    // and checkpoint counters from the JSON-lines snapshot
                    // the manager emits on drop (AETHER_TELEMETRY_OUT).
                    log_config: LogConfig::default()
                        .with_buffer_size(1 << 22)
                        .with_telemetry(aether_bench::env::telemetry()),
                    ..DbOptions::default()
                },
                Arc::clone(&segments) as _,
            );
            db.create_table(64, keys);
            for k in 0..keys {
                db.load(0, k, &record(k, 0)).unwrap();
            }
            db.setup_complete();

            // The crash lands mid-interval (half a checkpoint period after
            // the last checkpoint), so the retained log reflects the
            // steady-state bound — checkpoint distance — rather than a
            // fully-quiesced zero.
            let total = txns + ckpt_every / 2;
            let mut checkpoints = 0u64;
            let t = Instant::now();
            for i in 0..total {
                let mut txn = db.begin();
                let k = i % keys;
                db.update(&mut txn, 0, k, &record(k, i + 1)).unwrap();
                db.commit(txn).unwrap();
                if ckpt_every > 0 && (i + 1) % ckpt_every == 0 && i < txns {
                    db.checkpoint_and_truncate();
                    checkpoints += 1;
                }
            }
            let _ = db.log().flush_all();
            let elapsed = t.elapsed().as_secs_f64();
            let tps = total as f64 / elapsed;
            let log_end = db.log().durable_lsn().raw();
            let retained = db.log().retained_bytes();
            let live = segments.live_segments();
            let recycled = segments.recycled_segments();

            // Crash and time recovery over the retained suffix only.
            let image = db.crash();
            if db.log().telemetry().on() {
                eprint!(
                    "{}",
                    db.telemetry_snapshot(&format!("fig15 ckpt={ckpt_every} txns={txns}"))
                        .render_text()
                );
            }
            drop(db);
            let t = Instant::now();
            let (recovered, stats) = aether_storage::recovery::recover_with_stats(
                image,
                DbOptions {
                    protocol: CommitProtocol::Elr,
                    buffer: BufferKind::Hybrid,
                    log_config: LogConfig::default().with_buffer_size(1 << 22),
                    ..DbOptions::default()
                },
            )
            .expect("recovery");
            let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
            // Sanity: the last committed value per key survived.
            let mut txn = recovered.begin();
            for k in 0..keys.min(total) {
                let v = recovered.read(&mut txn, 0, k).unwrap();
                assert!(u64::from_le_bytes(v[8..16].try_into().unwrap()) <= total);
            }
            recovered.commit(txn).unwrap();

            println!(
                "{ckpt_every}\t{txns}\t{tps:.0}\t{log_end}\t{retained}\t{live}\t{recycled}\t{checkpoints}\t{recovery_ms:.2}\t{}\t{}",
                stats.scanned, stats.redone
            );
        }
    }
}
