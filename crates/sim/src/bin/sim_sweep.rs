//! Seed-sweep driver for the deterministic cluster simulation.
//!
//! ```text
//! sim_sweep [COUNT] [BASE_SEED]       # run COUNT seeds starting at BASE_SEED
//! AETHER_SIM_SEED=7213 sim_sweep      # rerun one seed, verbosely
//! AETHER_SIM_OUT=failing.txt sim_sweep 500
//! ```
//!
//! Environment:
//! * `AETHER_SIM_SEED` — run exactly this seed and print its full report.
//! * `AETHER_SIM_SEEDS` — seed count when no positional COUNT is given
//!   (default 200).
//! * `AETHER_SIM_BASE` — first seed when no positional BASE_SEED is given
//!   (default 1).
//! * `AETHER_SIM_SCENARIO` — `cluster` (default, the fault-injected
//!   replication scenario) or `server`: the wire tier under the seeded
//!   scheduler ([`aether_sim::run_server_seed`]) — connection loop,
//!   pipelined clients, read-your-writes checks, crossing two-key
//!   transactions (their deadlock victims are counted).
//! * `AETHER_SIM_OUT` — file to write failing seeds to (one per line);
//!   always written when set, even if empty, so CI can upload it as an
//!   artifact unconditionally.
//! * `AETHER_SIM_JSON` — file to write the machine-readable sweep report
//!   to: counts, a per-fault-kind histogram of runs vs failures, and every
//!   failing seed with its fault kind and violations. Like
//!   `AETHER_SIM_OUT`, always written when set.
//! * `AETHER_SIM_FAULT` — force every seed to decode to this fault kind
//!   (kebab-case, e.g. `partition-then-heal`); the seed still varies the
//!   cluster shape and schedule. This is how the chaos CI job runs N seeds
//!   of each fault instead of letting the menu dilute them.
//!
//! Exit code 0 iff every seed satisfied every invariant.

use aether_sim::{run_seed, run_server_seed, Fault, FaultPlan};
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A scenario-agnostic view of one seed's outcome, so the sweep loop and
/// failure bookkeeping don't care which tier ran.
struct Outcome {
    acked: u64,
    /// Deadlock victims (the server scenario's crossing transactions).
    deadlocks: u64,
    history: (u64, u64),
    violations: Vec<String>,
    telemetry: String,
}

impl Outcome {
    fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn run_scenario(server: bool, seed: u64) -> Outcome {
    if server {
        let r = run_server_seed(seed);
        Outcome {
            acked: r.acked,
            deadlocks: r.deadlocks,
            history: r.history,
            violations: r.violations,
            telemetry: String::new(),
        }
    } else {
        let r = run_seed(seed);
        Outcome {
            acked: r.acked,
            deadlocks: 0,
            history: r.history,
            violations: r.violations,
            telemetry: r.telemetry,
        }
    }
}

fn main() {
    let server = match std::env::var("AETHER_SIM_SCENARIO").as_deref() {
        Ok("server") => true,
        Ok("cluster") | Err(_) => false,
        Ok(other) => {
            eprintln!("AETHER_SIM_SCENARIO must be cluster|server, got {other:?}");
            std::process::exit(2);
        }
    };

    // Single-seed replay mode: the "reproduce this failure" entry point.
    if let Ok(v) = std::env::var("AETHER_SIM_SEED") {
        let seed: u64 = v.parse().unwrap_or_else(|_| {
            eprintln!("AETHER_SIM_SEED must be a u64, got {v:?}");
            std::process::exit(2);
        });
        println!("seed     : {seed}");
        if server {
            println!("scenario : server");
        } else {
            println!("plan     : {:?}", aether_sim::FaultPlan::decode(seed));
        }
        let report = run_scenario(server, seed);
        println!("acked    : {}", report.acked);
        println!("victims  : {}", report.deadlocks);
        println!(
            "history  : {:016x} over {} events",
            report.history.0, report.history.1
        );
        if report.ok() {
            println!("verdict  : PASS");
            print!("{}", report.telemetry);
        } else {
            println!("verdict  : FAIL");
            for v in &report.violations {
                println!("  - {v}");
            }
            // The structured snapshot is the "actor dump" for the log
            // pipeline: counters, latency histograms, and sampled spans at
            // the moment the invariant broke. Grep-stable (`telemetry>`).
            print!("{}", report.telemetry);
            std::process::exit(1);
        }
        return;
    }

    let args: Vec<String> = std::env::args().collect();
    let count = args
        .get(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| env_u64("AETHER_SIM_SEEDS", 200));
    let base = args
        .get(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| env_u64("AETHER_SIM_BASE", 1));

    let mut failing: Vec<(u64, &'static str, String)> = Vec::new();
    // fault-kind name -> (runs, failures); BTreeMap for stable JSON order.
    let mut by_fault: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut acked_total = 0u64;
    let mut deadlocks_total = 0u64;
    for i in 0..count {
        let seed = base + i;
        // The fault kind this seed decodes to (the histogram key). Server
        // sweeps have no fault menu; the scheduler is the only adversary.
        let kind = if server {
            "server"
        } else {
            FaultPlan::decode(seed).fault.name()
        };
        by_fault.entry(kind).or_insert((0, 0)).0 += 1;
        match catch_unwind(AssertUnwindSafe(|| run_scenario(server, seed))) {
            Ok(report) if report.ok() => {
                acked_total += report.acked;
                deadlocks_total += report.deadlocks;
            }
            Ok(report) => {
                eprintln!(
                    "seed {seed} [{kind}]: FAIL ({})",
                    report.violations.join("; ")
                );
                // Dump the end-of-run telemetry snapshot alongside the
                // verdict so a CI log alone is enough to see what the
                // pipeline was doing; every line is `telemetry>`-prefixed.
                eprint!("{}", report.telemetry);
                by_fault.get_mut(kind).unwrap().1 += 1;
                failing.push((seed, kind, report.violations.join("; ")));
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                eprintln!("seed {seed} [{kind}]: PANIC ({msg})");
                by_fault.get_mut(kind).unwrap().1 += 1;
                failing.push((seed, kind, format!("panic: {msg}")));
            }
        }
    }

    if let Ok(path) = std::env::var("AETHER_SIM_OUT") {
        let mut f =
            std::fs::File::create(&path).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        for (seed, _, why) in &failing {
            writeln!(f, "{seed}\t{why}").unwrap();
        }
    }
    if let Ok(path) = std::env::var("AETHER_SIM_JSON") {
        let json = render_json(count, base, acked_total, &by_fault, &failing);
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }

    if !failing.is_empty() {
        let mut hist: Vec<String> = by_fault
            .iter()
            .filter(|(_, (_, fails))| *fails > 0)
            .map(|(kind, (runs, fails))| format!("{kind}: {fails}/{runs}"))
            .collect();
        hist.sort();
        eprintln!("failures by fault kind: {}", hist.join(", "));
    }
    println!(
        "sim_sweep: {}/{count} seeds passed ({acked_total} commits acked, \
         {deadlocks_total} deadlock victims); rerun a failure with AETHER_SIM_SEED=<seed> sim_sweep",
        count - failing.len() as u64,
    );
    if !failing.is_empty() {
        eprintln!(
            "failing seeds: {:?}",
            failing.iter().map(|(s, _, _)| s).collect::<Vec<_>>()
        );
        std::process::exit(1);
    }
}

/// Minimal JSON string escape (quotes, backslashes, control bytes) —
/// violations embed arbitrary Debug output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The machine-readable sweep report (`AETHER_SIM_JSON`). Every fault kind
/// in the menu appears in the histogram even with zero runs, so a CI
/// dashboard can tell "never scheduled" from "always passed".
fn render_json(
    count: u64,
    base: u64,
    acked: u64,
    by_fault: &BTreeMap<&'static str, (u64, u64)>,
    failing: &[(u64, &'static str, String)],
) -> String {
    let forced = std::env::var("AETHER_SIM_FAULT").unwrap_or_default();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seeds\": {count},\n  \"base\": {base},\n"));
    out.push_str(&format!(
        "  \"passed\": {},\n  \"failed\": {},\n  \"acked_commits\": {acked},\n",
        count - failing.len() as u64,
        failing.len()
    ));
    out.push_str(&format!(
        "  \"forced_fault\": \"{}\",\n",
        json_escape(&forced)
    ));
    out.push_str("  \"fault_histogram\": {\n");
    let mut kinds: Vec<&'static str> = Fault::ALL.iter().map(|f| f.name()).collect();
    for k in by_fault.keys() {
        if !kinds.contains(k) {
            kinds.push(k);
        }
    }
    for (i, kind) in kinds.iter().enumerate() {
        let (runs, fails) = by_fault.get(kind).copied().unwrap_or((0, 0));
        out.push_str(&format!(
            "    \"{kind}\": {{\"runs\": {runs}, \"failures\": {fails}}}{}\n",
            if i + 1 < kinds.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n  \"failing_seeds\": [\n");
    for (i, (seed, kind, why)) in failing.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"seed\": {seed}, \"fault\": \"{kind}\", \"violations\": \"{}\"}}{}\n",
            json_escape(why),
            if i + 1 < failing.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
