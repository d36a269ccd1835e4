//! Figure 11: record-size skew — CD vs. CDME.
//!
//! "We fix one peak at 48 bytes... and we vary the second peak (called the
//! outlier). For every 60 small records a large record is inserted... CD and
//! CDME perform similarly until an outlier size of around 8kiB, when CD
//! stops scaling and its performance levels off. CDME, which is immune to
//! record size variability, achieves up to double the performance of the CD
//! for outlier records larger than 65kiB."
//!
//! Env: `AETHER_MS`, `AETHER_THREADS`, `AETHER_OUTLIER_LIST`.

use aether_bench::env::list;
use aether_bench::env_or;
use aether_bench::micro::{run_micro, MicroConfig, SizeDist};
use aether_core::record::HEADER_SIZE;
use aether_core::BufferKind;
use std::time::Duration;

fn main() {
    let outliers = list(
        "AETHER_OUTLIER_LIST",
        &[48usize, 512, 2048, 8192, 16384, 65536, 262144],
    );
    let ms = env_or("AETHER_MS", 400u64);
    let threads = env_or("AETHER_THREADS", 8usize);
    println!("# Figure 11: bimodal record sizes (48B + 1-in-60 outlier), {threads} threads");
    println!("variant\toutlier_bytes\tgb_per_s\tdelegated");
    for kind in [BufferKind::Hybrid, BufferKind::Delegated] {
        for &outlier in &outliers {
            let r = run_micro(&MicroConfig {
                kind,
                threads,
                dist: SizeDist::Bimodal {
                    small: 48 - HEADER_SIZE,
                    outlier: outlier.saturating_sub(HEADER_SIZE).max(8),
                    outlier_every: 60,
                },
                duration: Duration::from_millis(ms),
                backoff: true,
                buffer_size: 128 << 20,
                ..MicroConfig::default()
            });
            println!(
                "{}\t{outlier}\t{:.3}\t{}",
                kind.label(),
                r.gbps(),
                r.delegated
            );
        }
    }
}
