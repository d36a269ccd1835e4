//! Figure 13: inter-log dependencies under distributed logging (§A.5).
//!
//! The paper draws 1 ms of TPC-C (~100 kB of log, ~30 commits) over an
//! 8-way distributed log and observes dependencies "so widespread and
//! frequent that it is almost infeasible to track them". We quantify the
//! same story: cross-log dependency edges, tight edges (predecessor within
//! the last 5 records of its log), and the fraction of transactions that
//! would have to flush multiple logs at commit — for both a dependency-blind
//! round-robin partitioning and the best-case by-warehouse partitioning.
//!
//! Env: `AETHER_TXNS`, `AETHER_WAREHOUSES`, `AETHER_LOG_LIST`.

use aether_bench::env::list;
use aether_bench::env_or;
use aether_bench::tpcc::{analyze, generate_trace, Partitioning, TpccConfig};

fn main() {
    let log_counts = list("AETHER_LOG_LIST", &[1usize, 2, 4, 8, 16]);
    let txns = env_or("AETHER_TXNS", 5_000u64);
    let warehouses = env_or("AETHER_WAREHOUSES", 8u32);
    let cfg = TpccConfig {
        warehouses,
        ..TpccConfig::default()
    };
    let trace = generate_trace(&cfg, txns, 0xF1613);
    println!(
        "# Figure 13: inter-log dependencies, TPC-C-lite trace, {txns} txns, {} records, {warehouses} warehouses",
        trace.len()
    );
    println!(
        "partitioning\tn_logs\tcross_edges\tedges_per_record\ttight_edges\tmulti_log_txn_frac"
    );
    for partitioning in [Partitioning::RoundRobinTxn, Partitioning::ByWarehouse] {
        let label = match partitioning {
            Partitioning::RoundRobinTxn => "round_robin",
            Partitioning::ByWarehouse => "by_warehouse",
        };
        for &n in &log_counts {
            let rep = analyze(&trace, n, partitioning);
            println!(
                "{label}\t{n}\t{}\t{:.3}\t{}\t{:.3}",
                rep.cross_edges,
                rep.cross_edge_rate(),
                rep.tight_edges,
                rep.multi_log_frac()
            );
        }
    }
}
