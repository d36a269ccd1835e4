//! Figure 8 (left): log-buffer bandwidth vs. thread count, 120-byte records.
//!
//! The paper's baseline saturates near 140 MB/s and degrades; C starts slow
//! but scales once groups form; D is fast at low counts but degrades under
//! contention; CD combines both. We print every variant in both modes:
//! `direct` (inserts race for the lock — contention appears only if the
//! host has parallelism) and `backoff` (every insert consolidates —
//! exercises group formation regardless of core count; baseline/D are
//! unchanged in this mode).
//!
//! Env: `AETHER_MS`, `AETHER_THREAD_LIST`, `AETHER_PAYLOAD`; set
//! `AETHER_JSON=<path>` to also append machine-readable JSON-lines rows
//! (CI's `BENCH_fig8.json` perf-trajectory artifact).

use aether_bench::env::list;
use aether_bench::env_or;
use aether_bench::json::JsonSink;
use aether_bench::micro::{run_micro, MicroConfig, SizeDist};
use aether_core::record::HEADER_SIZE;
use aether_core::BufferKind;
use std::time::Duration;

fn main() {
    let thread_counts = list("AETHER_THREAD_LIST", &[1usize, 2, 4, 8, 16, 32, 64]);
    let ms = env_or("AETHER_MS", 400u64);
    let payload = env_or("AETHER_PAYLOAD", 120usize - HEADER_SIZE);
    println!(
        "# Figure 8 (left): insert bandwidth vs threads ({}B records)",
        payload + HEADER_SIZE
    );
    println!("mode\tvariant\tthreads\tmb_per_s\tinserts_per_s\tgroups\tconsolidated");
    let mut json = JsonSink::from_env();
    for backoff in [false, true] {
        let mode = if backoff { "backoff" } else { "direct" };
        for kind in BufferKind::ALL {
            for &threads in &thread_counts {
                let r = run_micro(&MicroConfig {
                    kind,
                    threads,
                    dist: SizeDist::Fixed(payload),
                    duration: Duration::from_millis(ms),
                    backoff,
                    ..MicroConfig::default()
                });
                println!(
                    "{mode}\t{}\t{threads}\t{:.1}\t{:.0}\t{}\t{}",
                    kind.label(),
                    r.mbps(),
                    r.inserts_per_s(),
                    r.group_acquires,
                    r.consolidations
                );
                json.row(&[
                    ("bench", "fig8_threads".into()),
                    ("mode", mode.into()),
                    ("variant", kind.label().into()),
                    ("threads", threads.into()),
                    ("record_bytes", (payload + HEADER_SIZE).into()),
                    ("mb_per_s", r.mbps().into()),
                    ("inserts_per_s", r.inserts_per_s().into()),
                ]);
            }
        }
    }
}
