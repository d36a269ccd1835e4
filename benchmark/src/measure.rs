//! The run shape every workload shares, what a load thread records per
//! window, and the reduction of those records to the end-to-end metrics.

use crate::spans::Span;
use crate::stats::{across_windows, mean, percentile, AcrossWindows};
use std::time::Duration;

/// Load threads / connections, fixed: the host has two cores.
pub const LANES: usize = 2;

/// Names, units, direction and regression bounds of the end-to-end metrics
/// — the same table `BENCHMARK.json` carries (a test compares the two).
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("ops_per_s", "1/s", "higher", 0.15),
    ("commit_p50_us", "us", "lower", 0.2),
    ("commit_p99_us", "us", "lower", 0.25),
    ("read_p50_us", "us", "lower", 0.2),
    ("read_p99_us", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// How long to measure and in how many pieces.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Measured windows.
    pub windows: usize,
    /// Length of each.
    pub window: Duration,
    /// Set the system up this many times; `setup_s` is the midmean.
    pub setups: usize,
    /// Traced run: the program's telemetry is switched on for the
    /// even-numbered windows and the harness keeps spans.
    pub traced: bool,
}

impl Shape {
    pub fn window_ns(&self) -> u64 {
        self.window.as_nanos() as u64
    }

    /// Whether window `w` runs with the program's telemetry on.
    pub fn window_traced(&self, w: usize) -> bool {
        self.traced && w.is_multiple_of(2)
    }
}

/// Maps a timestamp to its measured window.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    pub t_start: u64,
    pub window_ns: u64,
    pub windows: usize,
}

impl Clock {
    pub fn new(t_start: u64, shape: &Shape) -> Clock {
        Clock {
            t_start,
            window_ns: shape.window_ns(),
            windows: shape.windows,
        }
    }

    pub fn t_end(&self) -> u64 {
        self.t_start + self.window_ns * self.windows as u64
    }

    pub fn window_of(&self, t: u64) -> Option<usize> {
        let w = t.checked_sub(self.t_start)? / self.window_ns;
        (w < self.windows as u64).then_some(w as usize)
    }

    /// The traced run's timekeeper: sleep to each window boundary in turn
    /// (the start of every window, then the end of the last) and call `f`
    /// with whether the program's telemetry is to be on from there.
    pub fn at_each_boundary(&self, shape: &Shape, mut f: impl FnMut(bool)) {
        for boundary in 0..=self.windows {
            let at = self.t_start + boundary as u64 * self.window_ns;
            let now = aether_core::runtime::monotonic_ns();
            std::thread::sleep(Duration::from_nanos(at.saturating_sub(now)));
            f(boundary < self.windows && shape.window_traced(boundary));
        }
    }
}

/// What one lane saw in one window.
#[derive(Debug, Default, Clone)]
pub struct WindowLog {
    /// Successful ops: completed in this window (closed loop), or due in
    /// this window and answered in time (open loop).
    pub ok: u64,
    /// Latency of each timed write: send (open loop: intended send) to
    /// durable ack; on `log_insert_2t`, one sampled insert.
    pub commit_ns: Vec<u64>,
    /// Latency of each read.
    pub read_ns: Vec<u64>,
    /// Open loop: how long after its due time each op was actually sent.
    pub late_ns: Vec<u64>,
    /// Open loop: requests unanswered when the window closed.
    pub backlog: u64,
}

/// Everything one lane brings back from a run.
#[derive(Debug, Default)]
pub struct LaneLog {
    pub windows: Vec<WindowLog>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations, in words (each also counted in `failed`).
    pub violations: Vec<String>,
    /// What failed ops that broke no check said (error responses, timeouts).
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

impl LaneLog {
    pub fn new(windows: usize) -> LaneLog {
        LaneLog {
            windows: vec![WindowLog::default(); windows],
            ..LaneLog::default()
        }
    }

    /// A failed correctness check: counts as a failed op.
    pub fn violation(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    /// `n` ops failed without breaking a check.
    pub fn error(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How the value spread over the windows, where it came from windows.
    pub across: Option<AcrossWindows>,
}

impl Metric {
    pub fn plain(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            across: None,
        }
    }

    /// A metric reduced across windows (0 when no window had a value).
    pub fn windows(name: &str, unit: &'static str, across: Option<AcrossWindows>) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: across.map_or(0.0, |a| a.midmean),
            across,
        }
    }
}

/// The lanes' records of window `w`, merged and sorted.
struct Merged {
    ok: u64,
    commit_ns: Vec<u64>,
    read_ns: Vec<u64>,
    late_ns: Vec<u64>,
    backlog: u64,
}

fn merge_window(lanes: &[LaneLog], w: usize) -> Merged {
    let mut m = Merged {
        ok: 0,
        commit_ns: Vec::new(),
        read_ns: Vec::new(),
        late_ns: Vec::new(),
        backlog: 0,
    };
    for lane in lanes {
        let log = &lane.windows[w];
        m.ok += log.ok;
        m.commit_ns.extend_from_slice(&log.commit_ns);
        m.read_ns.extend_from_slice(&log.read_ns);
        m.late_ns.extend_from_slice(&log.late_ns);
        m.backlog += log.backlog;
    }
    m.commit_ns.sort_unstable();
    m.read_ns.sort_unstable();
    m.late_ns.sort_unstable();
    m
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The five measured end-to-end metrics (everything but `setup_s`), each
/// the midmean across the windows `keep` selects, plus diagnostics that are
/// printed but carry no bound.
pub fn reduce(
    lanes: &[LaneLog],
    shape: &Shape,
    keep: impl Fn(usize) -> bool,
) -> (Vec<Metric>, Vec<Metric>) {
    let secs = shape.window.as_secs_f64();
    let mut ops = Vec::new();
    let mut pct: [Vec<Option<(f64, u64)>>; 4] = Default::default();
    let mut client_mean = Vec::new();
    let mut late = Vec::new();
    let mut backlog = Vec::new();
    for w in (0..shape.windows).filter(|&w| keep(w)) {
        let m = merge_window(lanes, w);
        ops.push(Some((m.ok as f64 / secs, m.ok)));
        for (slot, (sorted, p)) in [
            (&m.commit_ns, 50.0),
            (&m.commit_ns, 99.0),
            (&m.read_ns, 50.0),
            (&m.read_ns, 99.0),
        ]
        .into_iter()
        .enumerate()
        {
            pct[slot].push(percentile(sorted, p).map(|v| (us(v), sorted.len() as u64)));
        }
        let all: Vec<u64> = m.commit_ns.iter().chain(&m.read_ns).copied().collect();
        client_mean.push(mean(&all).map(|v| (v / 1e3, all.len() as u64)));
        late.push(percentile(&m.late_ns, 99.0).map(|v| (us(v), m.late_ns.len() as u64)));
        backlog.push(Some((m.backlog as f64, 1)));
    }
    let [c50, c99, r50, r99] = pct;
    let end_to_end = vec![
        Metric::windows("ops_per_s", "1/s", across_windows(&ops)),
        Metric::windows("commit_p50_us", "us", across_windows(&c50)),
        Metric::windows("commit_p99_us", "us", across_windows(&c99)),
        Metric::windows("read_p50_us", "us", across_windows(&r50)),
        Metric::windows("read_p99_us", "us", across_windows(&r99)),
    ];
    let diagnostics = vec![
        Metric::windows("client.mean_us", "us", across_windows(&client_mean)),
        Metric::windows("client.gen_late_p99_us", "us", across_windows(&late)),
        Metric::windows("client.backlog", "count", across_windows(&backlog)),
    ];
    (end_to_end, diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(windows: usize) -> Shape {
        Shape {
            windows,
            window: Duration::from_secs(2),
            setups: 1,
            traced: false,
        }
    }

    #[test]
    fn clock_maps_times_to_windows() {
        let c = Clock::new(1_000, &shape(3));
        assert_eq!(c.window_of(999), None);
        assert_eq!(c.window_of(1_000), Some(0));
        assert_eq!(c.window_of(1_000 + 2_000_000_000), Some(1));
        assert_eq!(c.window_of(c.t_end() - 1), Some(2));
        assert_eq!(c.window_of(c.t_end()), None);
    }

    #[test]
    fn reduce_reports_the_middle_windows_not_the_mean() {
        let mut a = LaneLog::new(5);
        let mut b = LaneLog::new(5);
        for (w, ok) in [(0, 100u64), (1, 100), (2, 10_000), (3, 100), (4, 100)] {
            a.windows[w].ok = ok;
            b.windows[w].ok = ok;
            a.windows[w].commit_ns = (1..=50).map(|v| v * 1_000).collect();
            b.windows[w].commit_ns = (51..=100).map(|v| v * 1_000).collect();
        }
        let (e2e, diag) = reduce(&[a, b], &shape(5), |_| true);
        assert_eq!(e2e[0].name, "ops_per_s");
        assert_eq!(e2e[0].value, 100.0, "200 ops in a 2 s window");
        assert_eq!(e2e[0].across.unwrap().max, 10_000.0);
        assert_eq!(e2e[1].value, 50.0, "p50 over both lanes' samples, in us");
        assert_eq!(e2e[2].value, 99.0);
        assert_eq!(e2e[3].value, 0.0, "no reads: no value");
        assert!(e2e[3].across.is_none());
        assert_eq!(diag[0].value, 50.5);
    }

    #[test]
    fn reduce_can_keep_a_subset_of_windows() {
        let mut a = LaneLog::new(4);
        for w in 0..4 {
            a.windows[w].ok = if w % 2 == 0 { 10 } else { 20 };
        }
        let (even, _) = reduce(std::slice::from_ref(&a), &shape(4), |w| w % 2 == 0);
        let (odd, _) = reduce(std::slice::from_ref(&a), &shape(4), |w| w % 2 == 1);
        assert_eq!((even[0].value, odd[0].value), (5.0, 10.0));
    }
}
