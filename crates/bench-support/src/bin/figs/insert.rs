//! The log-insert microbenchmark figures (§6.3): a bare log buffer, no
//! flushes, swept over threads, record sizes and consolidation slots.

use aether_bench::env::{env_or, list};
use aether_bench::micro::{run_micro, run_thread_local, MicroConfig, SizeDist};
use aether_bench::table::Table;
use aether_core::record::HEADER_SIZE;
use aether_core::BufferKind;

/// The payload of a `size`-byte on-log record (at least 8 bytes).
fn payload(size: usize) -> usize {
    size.saturating_sub(HEADER_SIZE).max(8)
}

/// Figure 8 (left): log-buffer bandwidth vs. threads. Every variant in
/// both modes: `direct` (inserts race for the lock, so contention appears
/// only if the host has parallelism) and `backoff` (every insert
/// consolidates, so groups form on any core count; B and D are unchanged).
pub fn fig8_threads() {
    let thread_counts = list("AETHER_THREADS", &[1usize, 2, 4, 8, 16, 32, 64]);
    let payload = payload(env_or("AETHER_SIZES", 120usize));
    let mut t = Table::new(
        "fig8_threads",
        &format!(
            "Figure 8 (left): insert bandwidth vs threads ({}B records)",
            payload + HEADER_SIZE
        ),
        "mode\tvariant\tthreads\tmb_per_s\tinserts_per_s\tgroups\tconsolidated",
    );
    for backoff in [false, true] {
        let mode = if backoff { "backoff" } else { "direct" };
        for kind in BufferKind::ALL {
            for &threads in &thread_counts {
                let r = run_micro(&MicroConfig {
                    kind,
                    threads,
                    dist: SizeDist::Fixed(payload),
                    duration: super::ms(400),
                    backoff,
                    ..MicroConfig::default()
                });
                t.row(&format!(
                    "{mode}\t{}\t{threads}\t{:.1}\t{:.0}\t{}\t{}",
                    kind.label(),
                    r.mbps(),
                    r.inserts_per_s(),
                    r.group_acquires,
                    r.consolidations
                ));
            }
        }
    }
}

/// Figure 8 (right): log-buffer bandwidth vs. record size at a fixed thread
/// count, plus the thread-local "CD in L1" upper bound: as records grow the
/// baseline catches up, and past ~1 kB every variant is bandwidth-bound.
pub fn fig8_sizes() {
    let sizes = list("AETHER_SIZES", &[48usize, 120, 264, 520, 1160, 4104, 12296]);
    let threads = env_or("AETHER_THREADS", 8usize);
    let mut t = Table::new(
        "fig8_sizes",
        &format!("Figure 8 (right): insert bandwidth vs record size, {threads} threads"),
        "variant\trecord_bytes\tgb_per_s\tinserts_per_s\tmb_per_s",
    );
    let mut row = |variant: &str, size, r: aether_bench::micro::MicroResult| {
        let (gb, ins, mb) = (r.gbps(), r.inserts_per_s(), r.mbps());
        t.row(&format!("{variant}\t{size}\t{gb:.3}\t{ins:.0}\t{mb:.1}"));
    };
    for kind in BufferKind::ALL {
        for &size in &sizes {
            let r = run_micro(&MicroConfig {
                kind,
                threads,
                dist: SizeDist::Fixed(payload(size)),
                duration: super::ms(400),
                backoff: true, // exercise consolidation regardless of host
                ..MicroConfig::default()
            });
            row(kind.label(), size, r);
        }
    }
    // The CD-in-L1 series: thread-local, cache-resident copies.
    for &size in &sizes {
        row(
            "CD_in_L1",
            size,
            run_thread_local(threads, payload(size), super::ms(400)),
        );
    }
}

/// Figure 11: record-size skew, CD vs. CDME. One peak at 48 B, one outlier
/// record in every 60; CD stops scaling once outliers pass ~8 KiB, while
/// CDME's delegated release is immune to size variability.
pub fn fig11_skew() {
    let outliers = list(
        "AETHER_OUTLIERS",
        &[48usize, 512, 2048, 8192, 16384, 65536, 262144],
    );
    let threads = env_or("AETHER_THREADS", 8usize);
    let mut t = Table::new(
        "fig11_skew",
        &format!("Figure 11: bimodal record sizes (48B + 1-in-60 outlier), {threads} threads"),
        "variant\toutlier_bytes\tgb_per_s\tdelegated",
    );
    for kind in [BufferKind::Hybrid, BufferKind::Delegated] {
        for &outlier in &outliers {
            let r = run_micro(&MicroConfig {
                kind,
                threads,
                dist: SizeDist::Bimodal {
                    small: 48 - HEADER_SIZE,
                    outlier: payload(outlier),
                    outlier_every: 60,
                },
                duration: super::ms(400),
                backoff: true,
                buffer_size: 128 << 20,
                ..MicroConfig::default()
            });
            let (label, gb, delegated) = (kind.label(), r.gbps(), r.delegated);
            t.row(&format!("{label}\t{outlier}\t{gb:.3}\t{delegated}"));
        }
    }
}

/// Figure 12: hybrid-buffer bandwidth over consolidation-array slots ×
/// threads. The paper's contour peaks at 3–4 slots, near the thread count
/// that saturates the baseline log.
pub fn fig12_slots() {
    let slots = list("AETHER_SLOTS", &[1, 2, 3, 4, 6, 8, 10]);
    let threads = list("AETHER_THREADS", &[1, 2, 4, 8, 16, 32]);
    let mut t = Table::new(
        "fig12_slots",
        "Figure 12: hybrid-buffer bandwidth vs consolidation-array slots (120B records, backoff mode)",
        "slots\tthreads\tmb_per_s\tgroups\tavg_group_size",
    );
    for &s in &slots {
        for &n in &threads {
            let r = run_micro(&MicroConfig {
                kind: BufferKind::Hybrid,
                threads: n,
                dist: SizeDist::Fixed(120 - HEADER_SIZE),
                duration: super::ms(300),
                backoff: true,
                slots: s,
                ..MicroConfig::default()
            });
            let avg_group = if r.group_acquires > 0 {
                r.inserts as f64 / r.group_acquires as f64
            } else {
                0.0
            };
            let (mb, groups) = (r.mbps(), r.group_acquires);
            t.row(&format!("{s}\t{n}\t{mb:.1}\t{groups}\t{avg_group:.2}"));
        }
    }
}
