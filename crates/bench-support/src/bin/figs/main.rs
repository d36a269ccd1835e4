//! `figs <name>`: one binary for every figure of the evaluation.
//!
//! Each figure sweeps some of the paper's axes (commit protocol, buffer
//! variant, device latency, clients or threads) and prints one
//! [`Table`](aether_bench::table::Table): a `#` title, a TSV header and one
//! row per point, also appended as JSON lines when `AETHER_JSON` names a
//! file. Run with no name to list the figures. The knobs are `AETHER_*`
//! environment variables read through [`aether_bench::env`]; README.md has
//! the table.

mod closed_loop;
mod insert;
mod logs;
mod replication;

use closed_loop::*;
use insert::*;
use logs::*;
use replication::*;

use std::time::Duration;

/// The figures: name, what it shows, how to run it.
#[rustfmt::skip]
const FIGURES: &[(&str, &str, fn())] = &[
    ("fig2_breakdown", "Fig. 2: TPC-B time breakdown as log bottlenecks are removed", fig2_breakdown),
    ("fig3_elr", "Fig. 3: ELR speedup vs. zipfian skew x log latency", fig3_elr),
    ("fig4_scheduler", "Fig. 4: context switches with and without flush pipelining", fig4_scheduler),
    ("fig5_throughput", "Fig. 5: TPC-B throughput, baseline / async / pipelined", fig5_throughput),
    ("fig7_breakdown", "Fig. 7: TATP UpdateLocation time breakdown vs. load", fig7_breakdown),
    ("fig8_threads", "Fig. 8 (left): log-buffer bandwidth vs. threads", fig8_threads),
    ("fig8_sizes", "Fig. 8 (right): log-buffer bandwidth vs. record size", fig8_sizes),
    ("fig9_overall", "Fig. 9: cumulative impact on TATP UpdateLocation", fig9_overall),
    ("fig11_skew", "Fig. 11: record-size skew, CD vs. CDME", fig11_skew),
    ("fig12_slots", "Fig. 12: sensitivity to consolidation-array slots", fig12_slots),
    ("fig13_distributed", "Fig. 13: inter-log dependencies of a distributed log", fig13_distributed),
    ("fig14_replication", "Fig. 14 (ext.): log-shipping commit latency, replica lag", fig14_replication),
    ("fig15_truncation", "Fig. 15 (ext.): log footprint, recovery vs. checkpoints", fig15_truncation),
    ("fig16_read_scaleout", "Fig. 16 (ext.): read throughput vs. replicas", fig16_read_scaleout),
    ("log_stats", "§5/§6.3.1: WAL record-kind and record-size distributions", log_stats),
];

fn main() {
    let args = aether_bench::env::args();
    match FIGURES.iter().find(|(name, ..)| args == [*name]) {
        Some((_, _, run)) => run(),
        None => {
            eprintln!("usage: figs <name>, one of:");
            for (name, about, _) in FIGURES {
                eprintln!("  {name:<20} {about}");
            }
            std::process::exit(2);
        }
    }
}

/// `AETHER_MS`: the measured window per point.
fn ms(default: u64) -> Duration {
    Duration::from_millis(aether_bench::env_or("AETHER_MS", default))
}

/// A 64-byte row: `key`, then `v`, then zeros.
fn record(key: u64, v: u64) -> Vec<u8> {
    let mut r = vec![0u8; 64];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&v.to_le_bytes());
    r
}
