//! Figure 12: sensitivity to the number of consolidation-array slots.
//!
//! The paper's contour map peaks at 3–4 slots: "lower thread counts peaking
//! with fewer and high thread counts requiring a somewhat larger array. The
//! optimal slot number corresponds closely with the number of threads
//! required to saturate the baseline log." We print the (slots × threads)
//! bandwidth matrix.
//!
//! Env: `AETHER_MS`, `AETHER_SLOT_LIST`, `AETHER_THREAD_LIST`.

use aether_bench::env::list;
use aether_bench::env_or;
use aether_bench::micro::{run_micro, MicroConfig, SizeDist};
use aether_core::record::HEADER_SIZE;
use aether_core::BufferKind;
use std::time::Duration;

fn main() {
    let ms = env_or("AETHER_MS", 300u64);
    let slots = list("AETHER_SLOT_LIST", &[1, 2, 3, 4, 6, 8, 10]);
    let threads = list("AETHER_THREAD_LIST", &[1, 2, 4, 8, 16, 32]);
    println!("# Figure 12: hybrid-buffer bandwidth vs consolidation-array slots (120B records, backoff mode)");
    println!("slots\tthreads\tmb_per_s\tgroups\tavg_group_size");
    for &s in &slots {
        for &t in &threads {
            let r = run_micro(&MicroConfig {
                kind: BufferKind::Hybrid,
                threads: t,
                dist: SizeDist::Fixed(120 - HEADER_SIZE),
                duration: Duration::from_millis(ms),
                backoff: true,
                slots: s,
                ..MicroConfig::default()
            });
            let avg_group = if r.group_acquires > 0 {
                r.inserts as f64 / r.group_acquires as f64
            } else {
                0.0
            };
            println!(
                "{s}\t{t}\t{:.1}\t{}\t{:.2}",
                r.mbps(),
                r.group_acquires,
                avg_group
            );
        }
    }
}
