//! Figure 8 (right): log-buffer bandwidth vs. record size at fixed thread
//! count, plus the "CD in L1" thread-local upper bound.
//!
//! "As log records grow the baseline performs better, but there is always
//! enough contention that makes all other approaches more attractive...
//! once the record size is over 1kB contention becomes low and the
//! decoupled insert variant fares better... in the end all three become
//! bandwidth-limited."
//!
//! Env: `AETHER_MS`, `AETHER_THREADS`, `AETHER_SIZE_LIST` (on-log record
//! sizes in bytes); set `AETHER_JSON=<path>` to also append
//! machine-readable JSON-lines rows (CI's `BENCH_fig8.json` artifact).

use aether_bench::env::list;
use aether_bench::env_or;
use aether_bench::json::JsonSink;
use aether_bench::micro::{run_micro, run_thread_local, MicroConfig, SizeDist};
use aether_core::record::HEADER_SIZE;
use aether_core::BufferKind;
use std::time::Duration;

fn main() {
    let sizes = list(
        "AETHER_SIZE_LIST",
        &[48usize, 120, 264, 520, 1160, 4104, 12296],
    );
    let ms = env_or("AETHER_MS", 400u64);
    let threads = env_or("AETHER_THREADS", 8usize);
    println!("# Figure 8 (right): insert bandwidth vs record size, {threads} threads");
    println!("variant\trecord_bytes\tgb_per_s\tinserts_per_s");
    let mut json = JsonSink::from_env();
    for kind in BufferKind::ALL {
        for &size in &sizes {
            let payload = size.saturating_sub(HEADER_SIZE).max(8);
            let r = run_micro(&MicroConfig {
                kind,
                threads,
                dist: SizeDist::Fixed(payload),
                duration: Duration::from_millis(ms),
                backoff: true, // exercise consolidation regardless of host
                ..MicroConfig::default()
            });
            println!(
                "{}\t{size}\t{:.3}\t{:.0}",
                kind.label(),
                r.gbps(),
                r.inserts_per_s()
            );
            json.row(&[
                ("bench", "fig8_sizes".into()),
                ("variant", kind.label().into()),
                ("threads", threads.into()),
                ("record_bytes", size.into()),
                ("mb_per_s", (r.gbps() * 1000.0).into()),
                ("inserts_per_s", r.inserts_per_s().into()),
            ]);
        }
    }
    // The CD-in-L1 series: thread-local, cache-resident copies.
    for &size in &sizes {
        let payload = size.saturating_sub(HEADER_SIZE).max(8);
        let r = run_thread_local(threads, payload, Duration::from_millis(ms));
        println!(
            "CD_in_L1\t{size}\t{:.3}\t{:.0}",
            r.gbps(),
            r.inserts_per_s()
        );
        json.row(&[
            ("bench", "fig8_sizes".into()),
            ("variant", "CD_in_L1".into()),
            ("threads", threads.into()),
            ("record_bytes", size.into()),
            ("mb_per_s", (r.gbps() * 1000.0).into()),
            ("inserts_per_s", r.inserts_per_s().into()),
        ]);
    }
}
