//! The repo benchmark: five workloads from log insert to wire-to-durable-ack,
//! with a per-layer breakdown. See `benchmark/README.md` for why each
//! workload exists and which layer should move which number.
//!
//! Fixed conditions: two load threads / connections from this one process
//! (the host has two cores), the server in-process on TCP loopback, every
//! configuration from `::default()` with only the commit protocol
//! (`Pipelined`) and the log device set per workload. Nothing here reads
//! `AETHER_*` variables.

pub mod layers;
pub mod loginsert;
pub mod measure;
pub mod ops;
pub mod report;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod wire;

use aether_core::runtime::monotonic_ns;
use aether_core::telemetry::TraceEvent;
use aether_core::{BufferKind, DeviceKind};
use layers::Traced;
use measure::{reduce, LaneLog, Metric, Shape};
use spans::Span;
use std::time::{Duration, Instant};
use wire::{Pacing, WireSpec};

/// What a workload drives.
#[derive(Debug, Clone)]
pub enum Kind {
    /// In-process log inserts, no database and no wire.
    LogInsert,
    Wire(WireSpec),
}

/// A workload: its final name, why it exists, what it drives.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

/// The five workloads, in the order they are run and reported.
pub fn workloads() -> Vec<Workload> {
    let wire = |device, pacing, read_share, zipf, replicas| {
        Kind::Wire(WireSpec {
            device,
            pacing,
            read_share,
            zipf,
            replicas,
        })
    };
    vec![
        Workload {
            name: "log_insert_2t",
            why: "closed loop, 2 threads insert 120 B records into the default log buffer: only core::buffer works",
            kind: Kind::LogInsert,
        },
        Workload {
            name: "wire_pipelined_ram",
            why: "closed loop, 2 conns x 64 in flight, 0 us device: CPU-bound across server, storage and core::buffer",
            kind: wire(DeviceKind::Ram, Pacing::Closed, 1.0 / 16.0, false, 0),
        },
        Workload {
            name: "wire_pipelined_disk",
            why: "same load on a 1000 us device: the flush daemon's blocking write+sync sets the rate, a CPU gain changes nothing",
            kind: wire(DeviceKind::CustomUs(1000), Pacing::Closed, 1.0 / 16.0, false, 0),
        },
        Workload {
            name: "wire_mixed_open",
            why: "open loop, 2 conns x 4000 ops/s, 60% reads, zipf 0.99, 100 us device: reads beside commits, below saturation",
            kind: wire(
                DeviceKind::CustomUs(100),
                Pacing::Open {
                    per_conn_per_s: 4000,
                },
                0.6,
                true,
                0,
            ),
        },
        Workload {
            name: "wire_semisync_repl",
            why: "open loop, 2 conns x 4000 ops/s, half updates, 2 replicas SemiSync(1) over a 200 us link: only here is repl on the ack path",
            kind: wire(
                DeviceKind::Ram,
                Pacing::Open {
                    per_conn_per_s: 4000,
                },
                0.5,
                false,
                2,
            ),
        },
    ]
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check violations, in words. Empty means correct.
    pub violations: Vec<String>,
    /// What failed ops that broke no check said.
    pub errors: Vec<String>,
    /// The six end-to-end metrics. On a traced run they are measured over
    /// the windows that ran with telemetry off.
    pub end_to_end: Vec<Metric>,
    /// Client-side numbers without a bound: mean latency, and the open
    /// loop's generator lateness and backlog at window end.
    pub diagnostics: Vec<Metric>,
    /// Every per-layer metric (traced runs only).
    pub per_layer: Vec<Metric>,
    pub spans: Vec<Span>,
    /// The program's own trace events at the end of the run.
    pub program_events: Vec<TraceEvent>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record failed post-run checks; each counts as a failed op.
    fn add_violations(&mut self, violations: Vec<String>) {
        self.failed += violations.len() as u64;
        self.violations.extend(violations);
    }
}

type Res<T> = Result<T, String>;

/// Set up `shape.setups` times, keeping the last; returns it with the
/// `setup_s` metric (the midmean) and the kept set-up's span.
fn timed_set_ups<E>(
    shape: &Shape,
    set_up: impl Fn() -> Res<E>,
    tear_down: impl Fn(E),
) -> Res<(E, Metric, Span)> {
    let mut times = Vec::with_capacity(shape.setups);
    loop {
        let (t0, s0) = (Instant::now(), monotonic_ns());
        let env = set_up()?;
        times.push(Some((t0.elapsed().as_secs_f64(), 1)));
        if times.len() == shape.setups {
            let metric = Metric::windows("setup_s", "s", stats::across_windows(&times));
            let span = spans::phase(spans::SETUP, spans::RUN, "setup", s0, monotonic_ns());
            return Ok((env, metric, span));
        }
        tear_down(env);
    }
}

/// Fold the lanes' records into an [`Outcome`]: end-to-end metrics over the
/// untraced windows, and on a traced run the tracing overhead and the
/// client-side diagnostics over the traced ones.
fn summarize(
    workload: &Workload,
    shape: &Shape,
    mut lanes: Vec<LaneLog>,
    setup: Metric,
    mut spans: Vec<Span>,
    mut layer: Vec<Metric>,
) -> Outcome {
    let (mut end_to_end, diagnostics) = reduce(&lanes, shape, |w| !shape.window_traced(w));
    if shape.traced {
        let (traced, traced_diag) = reduce(&lanes, shape, |w| shape.window_traced(w));
        let open = matches!(
            &workload.kind,
            Kind::Wire(WireSpec {
                pacing: Pacing::Open { .. },
                ..
            })
        );
        // Throughput lost to tracing; on an open loop, where the rate is
        // fixed, commit latency gained.
        let overhead = if open {
            traced[1].value / end_to_end[1].value - 1.0
        } else {
            1.0 - traced[0].value / end_to_end[0].value
        };
        layer.push(Metric::plain("trace_overhead_frac", "ratio", overhead));
        layer.extend(traced_diag);
    }
    end_to_end.push(setup);
    let (mut violations, mut errors) = (Vec::new(), Vec::new());
    for lane in &mut lanes {
        violations.append(&mut lane.violations);
        errors.append(&mut lane.errors);
        spans.append(&mut lane.spans);
    }
    Outcome {
        workload: workload.name,
        traced: shape.traced,
        attempted: lanes.iter().map(|l| l.attempted).sum(),
        failed: lanes.iter().map(|l| l.failed).sum(),
        violations,
        errors,
        end_to_end,
        diagnostics: if shape.traced {
            Vec::new()
        } else {
            diagnostics
        },
        per_layer: if shape.traced {
            layers::complete(&layer)
        } else {
            Vec::new()
        },
        spans,
        program_events: Vec::new(),
    }
}

fn window_spans(clock: &measure::Clock) -> Vec<Span> {
    (0..clock.windows)
        .map(|w| {
            let start = clock.t_start + w as u64 * clock.window_ns;
            spans::phase(
                spans::window_id(w),
                spans::RUN,
                "window",
                start,
                start + clock.window_ns,
            )
        })
        .collect()
}

fn run_log_insert(workload: &Workload, seed: u64, shape: &Shape) -> Res<Outcome> {
    let (mut env, setup, setup_span) =
        timed_set_ups(shape, || loginsert::set_up(seed, shape.windows), drop)?;
    let clock = env.measure(shape);
    let mut spans = vec![setup_span];
    spans.extend(window_spans(&clock));
    let mut layer = Vec::new();
    if shape.traced {
        let [reserve, fill, release] = env.phase_means_ns();
        let stats = env.stats();
        layer.push(Metric::plain("buffer.reserve_ns", "ns", reserve));
        layer.push(Metric::plain("buffer.fill_ns", "ns", fill));
        layer.push(Metric::plain("buffer.release_ns", "ns", release));
        layer.push(Metric::plain(
            "buffer.consolidation_frac",
            "ratio",
            stats.consolidations as f64 / stats.inserts.max(1) as f64,
        ));
        // The Fig. 8 comparison: every variant at the same two threads, for
        // a tenth of the measured time each.
        let each = shape.window * shape.windows as u32 / 10;
        for kind in BufferKind::ALL {
            layer.push(Metric::plain(
                &format!("buffer.insert_mb_per_s.{}", kind.label()),
                "MB/s",
                loginsert::insert_mb_per_s(kind, each),
            ));
        }
    }
    let lanes = env.take_logs();
    let mut outcome = summarize(workload, shape, lanes, setup, spans, layer);
    outcome.add_violations(env.verify());
    outcome.program_events = env.core.telemetry().trace().snapshot();
    Ok(outcome)
}

fn run_wire(workload: &Workload, spec: &WireSpec, seed: u64, shape: &Shape) -> Res<Outcome> {
    let streams = wire::request_streams(seed, spec);
    let (mut env, setup, setup_span) = timed_set_ups(
        shape,
        || wire::set_up(spec, &streams, seed, shape.windows),
        wire::Env::tear_down,
    )?;
    let (clock, snaps) = env.measure(spec, shape)?;
    let mut spans = vec![setup_span];
    spans.extend(window_spans(&clock));
    let lanes = env.take_logs();

    let mut layer = Vec::new();
    let mut program_events = Vec::new();
    if shape.traced {
        let (_, diag) = reduce(&lanes, shape, |w| shape.window_traced(w));
        let traced = Traced::new(&snaps, shape);
        layer.extend(traced.metrics(diag[0].value));
        program_events = traced.events();
        layer.push(Metric::plain(
            "server.codec_ns_per_op",
            "ns",
            layers::codec_ns_per_op(),
        ));
        layer.push(Metric::plain(
            "storage.direct_txn_us",
            "us",
            layers::direct_txn_us(&env.db, seed)?,
        ));
        layer.push(Metric::plain(
            "device.sync_us",
            "us",
            layers::device_sync_us(&spec.device)?,
        ));
    }
    let (recovery, violations) = env.verify()?;
    if shape.traced {
        let wall = recovery.wall.as_secs_f64();
        layer.push(Metric::plain(
            "recovery.records_per_s",
            "1/s",
            recovery.stats.scanned as f64 / wall,
        ));
        layer.push(Metric::plain("recovery.wall_s", "s", wall));
    }
    let mut outcome = summarize(workload, shape, lanes, setup, spans, layer);
    outcome.add_violations(violations);
    outcome.program_events = program_events;
    Ok(outcome)
}

/// Run one workload once.
pub fn run(workload: &Workload, seed: u64, shape: &Shape) -> Res<Outcome> {
    let started = monotonic_ns();
    let mut outcome = match &workload.kind {
        Kind::LogInsert => run_log_insert(workload, seed, shape),
        Kind::Wire(spec) => run_wire(workload, spec, seed, shape),
    }?;
    outcome.spans.insert(
        0,
        spans::phase(spans::RUN, 0, "run", started, monotonic_ns()),
    );
    Ok(outcome)
}

/// Measured windows of a full-length run. Many short windows, not a few
/// long ones: a 10 ms hiccup (a log vector regrowing, a descheduled thread)
/// spoils the 99th percentile of whichever window it lands in, so the fewer
/// ops a window holds the fewer windows are spoilt and the steadier the
/// midmean across them.
pub const WINDOWS: usize = 32;

/// The shape of one driver-style run: [`WINDOWS`] windows over `seconds`,
/// five set-ups.
pub fn driver_shape(seconds: f64, traced: bool) -> Shape {
    Shape {
        windows: WINDOWS,
        window: Duration::from_secs_f64(seconds / WINDOWS as f64),
        setups: 5,
        traced,
    }
}
