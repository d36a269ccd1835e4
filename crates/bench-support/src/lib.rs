//! # aether-bench — workloads, drivers and experiment harness
//!
//! Everything needed to regenerate the Aether paper's evaluation:
//!
//! * [`zipf`] — exact zipfian sampling over arbitrary `s` (Figure 3's x-axis
//!   runs 0..5, past the range where the usual YCSB approximation holds).
//! * [`tpcb`] — the TPC-B stress workload (Figures 2–5).
//! * [`tatp`] — the TATP/TM1 telecom workload, all seven transactions
//!   (Figures 7, 9).
//! * [`tpcc`] — a TPC-C-shaped page-access trace generator for the
//!   distributed-logging dependency analysis (Figure 13).
//! * [`driver`] — closed-loop multi-client driver with per-phase time
//!   breakdown and durable-completion counting, and [`driver::run_point`],
//!   which opens a `Db`, loads TPC-B or TATP and runs one figure point.
//! * [`measure`] — OS context-switch counters and breakdown assembly.
//! * [`micro`] — the log-insert microbenchmark (Figures 8, 11, 12).
//! * [`mod@env`] — the `AETHER_*` knobs (`list`, `env_or`, telemetry, read
//!   policy): the only place the environment is read, and a malformed value
//!   is an error, never the default.
//! * [`table`] — the figures' output: a TSV table on stdout, the same rows
//!   as JSON lines when `AETHER_JSON=<path>` (CI's perf artifacts).
//!
//! The one binary, `figs <name>`, prints one paper artifact per name; with
//! no name it lists them.

#![warn(missing_docs)]

pub mod driver;
pub mod env;
pub mod loganalysis;
pub mod measure;
pub mod micro;
pub mod table;
pub mod tatp;
pub mod tpcb;
pub mod tpcc;
pub mod zipf;

pub use env::env_or;
