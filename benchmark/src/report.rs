//! Printing: the fixed conditions, every metric by name with its unit, the
//! driver's one-line JSON result, and the `--repeat` comparison.

use crate::measure::{Metric, Shape, END_TO_END, LANES};
use crate::{wire, Outcome};
use aether_core::LogConfig;
use std::fmt::Write;

/// The conditions every number below was measured under, with the defaults
/// resolved so that a changed default shows in the output.
pub fn conditions() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let log = LogConfig::default();
    let db = wire::db_options(aether_core::DeviceKind::Ram);
    let server = wire::server_config();
    let gc = &log.group_commit;
    let mut s = String::new();
    let _ = writeln!(s, "# conditions");
    let _ = writeln!(
        s,
        "host cores {cores}; load threads/connections {LANES}, one process; server in-process, transport TCP loopback ({:?})",
        server.addr.expect("loopback listener")
    );
    let _ = writeln!(
        s,
        "DbOptions: buffer {:?}, protocol {:?} (set), device per workload (set), log_soft_bytes {:?}, log_hard_bytes {:?}",
        db.buffer, db.protocol, db.log_soft_bytes, db.log_hard_bytes
    );
    let _ = writeln!(
        s,
        "LogConfig: ring {} MiB, carray_slots {}, telemetry sample_every {}; group commit {} commits / {} KiB / {:?}: every ack is after the device sync",
        log.buffer_size >> 20,
        log.carray_slots,
        log.telemetry.sample_every,
        gc.max_pending_commits,
        gc.max_pending_bytes >> 10,
        gc.max_wait
    );
    let _ = writeln!(
        s,
        "ServerConfig: batch_window {:?}, accept_window {:?}",
        server.batch_window, server.accept_window
    );
    let _ = writeln!(
        s,
        "table: {} rows x {} B; the page store is in memory, the program has no cache of its own to exceed",
        crate::ops::ROWS,
        crate::ops::VALUE_LEN
    );
    let _ = writeln!(
        s,
        "devices are the repo's timer-injected models: latencies are this sandbox's, not a disk's; AETHER_* variables are never read"
    );
    s
}

fn metric_line(m: &Metric) -> String {
    let mut line = format!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    if let Some(a) = m.across {
        let _ = write!(
            line,
            "   (midmean of {} windows, min {:.4} max {:.4}, {} samples)",
            a.windows, a.min, a.max, a.samples
        );
    }
    line
}

/// One run's metrics, by name, with units.
pub fn outcome(o: &Outcome, shape: &Shape) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "## {} ({}, {} windows x {:?}, {} set-ups)",
        o.workload,
        if o.traced { "traced" } else { "untraced" },
        shape.windows,
        shape.window,
        shape.setups
    );
    let _ = writeln!(
        s,
        "  ops_attempted {}  ops_failed {}",
        o.attempted, o.failed
    );
    for m in &o.end_to_end {
        let _ = writeln!(s, "{}", metric_line(m));
    }
    for m in o.diagnostics.iter().chain(&o.per_layer) {
        let _ = writeln!(s, "{}", metric_line(m));
    }
    if o.traced {
        let _ = writeln!(s, "  {}", nesting(o));
    }
    let _ = writeln!(
        s,
        "  checks: {}",
        if o.correct() {
            "all passed"
        } else {
            "VIOLATED"
        }
    );
    for v in o.violations.iter().chain(&o.errors) {
        let _ = writeln!(s, "  ! {v}");
    }
    s
}

/// The layer means of a traced run must nest: per request, what the client
/// sees covers what the server sees, which covers the storage commit, which
/// covers the wait at the commit gate. `server.req_us` averages over reads
/// too, so the two commit-only means are weighted by the share of requests
/// that commit.
pub fn nesting(o: &Outcome) -> String {
    let value = |name| o.metric(name).unwrap_or(0.0);
    let share = value("server.commit_share");
    let chain = [
        ("client.mean_us", value("client.mean_us")),
        ("server.req_us", value("server.req_us")),
        (
            "storage.commit_us x share",
            value("storage.commit_us") * share,
        ),
        ("commit.wait_us x share", value("commit.wait_us") * share),
    ];
    let nests = chain.windows(2).all(|p| p[0].1 >= p[1].1);
    let words: Vec<String> = chain.iter().map(|(n, v)| format!("{n} {v:.1}")).collect();
    format!(
        "nesting per request (commit share {share:.3}): {} : {}",
        words.join(" >= "),
        if nests { "holds" } else { "BROKEN" }
    )
}

/// JSON number: all the digits of a finite value, 0 otherwise.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The driver's result line: end-to-end metrics of an untraced run,
/// per-layer metrics of a traced one.
pub fn result_json(o: &Outcome) -> String {
    let metrics = if o.traced {
        &o.per_layer
    } else {
        &o.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    )
}

/// Compare two sets of untraced runs: per workload and end-to-end metric,
/// both medians, their relative difference and the bound. Returns the table
/// and whether every difference is within its bound.
pub fn repeat_table(first: &[Outcome], second: &[Outcome]) -> (String, bool) {
    let mut s = String::new();
    let mut within = true;
    let _ = writeln!(
        s,
        "{:<20} {:<14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        for (ma, mb) in a.end_to_end.iter().zip(&b.end_to_end) {
            let bound = END_TO_END
                .iter()
                .find(|e| e.0 == ma.name)
                .map_or(0.0, |e| e.3);
            let diff = (mb.value - ma.value).abs() / ma.value;
            let ok = diff <= bound;
            within &= ok;
            let _ = writeln!(
                s,
                "{:<20} {:<14} {:>14.4} {:>14.4} {:>8.4} {:>6.2}{}",
                a.workload,
                ma.name,
                ma.value,
                mb.value,
                diff,
                bound,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
    }
    (s, within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with(value: f64) -> Outcome {
        Outcome {
            workload: "w",
            traced: false,
            attempted: 10,
            failed: 0,
            violations: Vec::new(),
            errors: Vec::new(),
            end_to_end: vec![Metric::plain("ops_per_s", "1/s", value)],
            diagnostics: Vec::new(),
            per_layer: Vec::new(),
            spans: Vec::new(),
            program_events: Vec::new(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(&outcome_with(1234.5678));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn repeat_flags_a_difference_beyond_the_bound() {
        let (_, ok) = repeat_table(&[outcome_with(100.0)], &[outcome_with(105.0)]);
        assert!(ok, "5 % is within ops_per_s's 10 %");
        let (table, ok) = repeat_table(&[outcome_with(100.0)], &[outcome_with(80.0)]);
        assert!(!ok);
        assert!(table.contains("EXCEEDED"));
    }

    #[test]
    fn conditions_state_the_resolved_defaults() {
        let c = conditions();
        for needle in [
            "Pipelined",
            "Hybrid",
            "64 commits",
            "127.0.0.1",
            "1048576 rows",
        ] {
            assert!(c.contains(needle), "conditions lack {needle:?}:\n{c}");
        }
    }
}
