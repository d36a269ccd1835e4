//! End-to-end telemetry: a lock-free metrics registry, log-bucketed latency
//! histograms, and LSN-correlated pipeline tracing.
//!
//! Design (see DESIGN.md § Telemetry):
//!
//! * **One registry per log instance.** [`Telemetry`] is owned by the
//!   buffer core and shared (via `Arc`) with the flush daemon, commit gate,
//!   storage layer, and replication shippers, so every metric about one log
//!   lands in one snapshot.
//! * **Wait-free record path, zero allocations after registration.**
//!   Counters and gauges are preallocated cache-padded atomics; histograms
//!   and the trace ring allocate their shards at registration/construction
//!   time. Recording is index-into-array + relaxed RMW. Registration (which
//!   may allocate) takes a mutex and is idempotent by name.
//! * **Single relaxed load when disabled.** Every record method begins with
//!   `if !self.on() { return; }`; with telemetry off, instrumented hot paths
//!   cost one relaxed bool load, the same discipline as
//!   [`crate::stats::BufferStats::timing`].
//! * **Deterministic under simulation.** All timestamps come from
//!   [`crate::runtime::monotonic_ns`], trace sampling is a pure function of
//!   the LSN, and histogram shard merges are commutative sums — so two runs
//!   of `Runtime::sim(seed)` with the same seed render byte-identical
//!   snapshots.

mod export;
pub mod histogram;
pub mod trace;

pub use export::{HistView, MetricValue, TelemetrySnapshot};
pub use histogram::{HistSnapshot, Histogram};
pub use trace::{assemble_spans, CommitSpan, Stage, TraceEvent, TraceRing};

use crate::lsn::Lsn;
use crate::padded::CachePadded;
use crate::runtime::lock;
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maximum registered counters per registry.
pub const MAX_COUNTERS: usize = 96;
/// Maximum registered gauges per registry.
pub const MAX_GAUGES: usize = 48;
/// Maximum registered histograms per registry.
pub const MAX_HISTS: usize = 32;
/// Shards per histogram: more shards = less cross-thread contention, more
/// memory per histogram.
const HIST_SHARDS: usize = 8;
/// Trace-ring shards.
const TRACE_SHARDS: usize = 4;
/// Trace-ring capacity per shard; the oldest events are overwritten.
const TRACE_CAPACITY: usize = 1024;

// Round-robin shard assignment for histograms and trace rings. A thread gets
// one index for its lifetime; shard arrays mask it down to their own width.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    // Reserve-entry timestamp, parked here between a buffer variant's
    // reserve entry (LSN not yet known) and `begin_fill` (LSN known).
    static RESERVE_MARK: Cell<u64> = const { Cell::new(0) };
}

#[inline]
pub(crate) fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
            s.set(v);
            v
        }
    })
}

/// Stash the current runtime-monotonic time as "reserve started" for this
/// thread. Called at the top of each buffer variant's reserve path; consumed
/// by `begin_fill` once the LSN is known.
#[inline]
pub(crate) fn mark_reserve_start() {
    let now = crate::runtime::monotonic_ns();
    RESERVE_MARK.with(|m| m.set(now));
}

/// Take (and clear) the stashed reserve-entry timestamp; 0 if none.
#[inline]
pub(crate) fn take_reserve_mark() -> u64 {
    RESERVE_MARK.with(|m| m.replace(0))
}

/// Unit of a metric's value, carried into both renderers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless event count.
    Count,
    /// Bytes.
    Bytes,
    /// Nanoseconds (runtime-monotonic; virtual under sim).
    Nanos,
    /// Log sequence numbers (byte offsets into the log stream).
    Lsns,
    /// Log records / commits.
    Records,
}

impl Unit {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Bytes => "bytes",
            Unit::Nanos => "ns",
            Unit::Lsns => "lsn",
            Unit::Records => "records",
        }
    }
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u16);
/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u16);
/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u16);

/// Telemetry configuration, part of [`crate::LogConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. Off = every record call is a single relaxed load.
    pub enabled: bool,
    /// Trace roughly one in `sample_every` records (power of two; 0 disables
    /// tracing while keeping metrics). The sampling decision is a pure
    /// function of the LSN, so all stages of one record agree across threads.
    pub sample_every: u64,
    /// File the log manager appends its final snapshot to, as JSON lines,
    /// at shutdown. `None` = shutdown emits nothing.
    pub export_path: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            sample_every: 64,
            export_path: None,
        }
    }
}

impl TelemetryConfig {
    /// Validate invariants; returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.sample_every != 0 && !self.sample_every.is_power_of_two() {
            return Err(format!(
                "telemetry.sample_every must be 0 or a power of two (got {})",
                self.sample_every
            ));
        }
        Ok(())
    }
}

/// Ids of the metrics the core registers for itself at construction, so hot
/// paths skip the by-name lookup entirely.
#[derive(Debug, Clone, Copy)]
pub struct CoreIds {
    /// `log.insert_ns` — fill + release time per record insert.
    pub log_insert_ns: HistId,
    /// `flush.write_bytes` — bytes per vectored device write.
    pub flush_write_bytes: HistId,
    /// `flush.drain_ns` — write + sync latency per flush batch.
    pub flush_drain_ns: HistId,
    /// `commit.group_size` — commits completed per flush batch.
    pub commit_group_size: HistId,
    /// `commit.wait_ns` — time a committer waits for its durability policy.
    pub commit_wait_ns: HistId,
    /// `flush.queue_depth` — commits pending at flush trigger.
    pub flush_queue_depth: GaugeId,
    /// `flush.pending_bytes` — unflushed bytes at flush trigger.
    pub flush_pending_bytes: GaugeId,
}

struct MetaEntry {
    name: &'static str,
    unit: Unit,
}

#[derive(Default)]
struct Meta {
    counters: Vec<MetaEntry>,
    gauges: Vec<MetaEntry>,
    hists: Vec<MetaEntry>,
}

/// The per-log metrics registry. See the module docs for the design.
pub struct Telemetry {
    enabled: AtomicBool,
    sample_every: u64,
    counters: Box<[CachePadded<AtomicU64>]>,
    gauges: Box<[CachePadded<AtomicI64>]>,
    hists: Box<[std::sync::OnceLock<Histogram>]>,
    trace: TraceRing,
    meta: Mutex<Meta>,
    ids: CoreIds,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Telemetry(enabled={})", self.on())
    }
}

impl Telemetry {
    /// Build a registry per `cfg` and pre-register the core metric set.
    /// The registry starts enabled iff `cfg.enabled`.
    pub fn new(cfg: &TelemetryConfig) -> Self {
        let counters = (0..MAX_COUNTERS)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let gauges = (0..MAX_GAUGES)
            .map(|_| CachePadded::new(AtomicI64::new(0)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let hists = (0..MAX_HISTS)
            .map(|_| std::sync::OnceLock::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let mut t = Telemetry {
            enabled: AtomicBool::new(cfg.enabled),
            sample_every: cfg.sample_every,
            counters,
            gauges,
            hists,
            trace: TraceRing::new(TRACE_SHARDS, TRACE_CAPACITY),
            meta: Mutex::new(Meta::default()),
            ids: CoreIds {
                log_insert_ns: HistId(0),
                flush_write_bytes: HistId(0),
                flush_drain_ns: HistId(0),
                commit_group_size: HistId(0),
                commit_wait_ns: HistId(0),
                flush_queue_depth: GaugeId(0),
                flush_pending_bytes: GaugeId(0),
            },
        };
        t.ids = CoreIds {
            log_insert_ns: t.histogram("log.insert_ns", Unit::Nanos),
            flush_write_bytes: t.histogram("flush.write_bytes", Unit::Bytes),
            flush_drain_ns: t.histogram("flush.drain_ns", Unit::Nanos),
            commit_group_size: t.histogram("commit.group_size", Unit::Records),
            commit_wait_ns: t.histogram("commit.wait_ns", Unit::Nanos),
            flush_queue_depth: t.gauge("flush.queue_depth", Unit::Records),
            flush_pending_bytes: t.gauge("flush.pending_bytes", Unit::Bytes),
        };
        t
    }

    /// Ids of the pre-registered core metrics.
    #[inline]
    pub fn ids(&self) -> &CoreIds {
        &self.ids
    }

    /// Whether recording is enabled — one relaxed load, the entire cost of
    /// every instrumented call site when telemetry is off.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Current runtime-monotonic time iff enabled, else `None`. Mirrors
    /// [`crate::stats::BufferStats::phase_start`].
    #[inline]
    pub fn ts(&self) -> Option<u64> {
        if self.on() {
            Some(crate::runtime::monotonic_ns())
        } else {
            None
        }
    }

    /// Register (or look up) a counter. Idempotent by name; panics when the
    /// registry is full. Allocation happens only here, never on record.
    pub fn counter(&self, name: &'static str, unit: Unit) -> CounterId {
        let mut meta = lock(&self.meta);
        if let Some(i) = meta.counters.iter().position(|e| e.name == name) {
            return CounterId(i as u16);
        }
        assert!(meta.counters.len() < MAX_COUNTERS, "counter registry full");
        meta.counters.push(MetaEntry { name, unit });
        CounterId((meta.counters.len() - 1) as u16)
    }

    /// Register (or look up) a gauge. Idempotent by name.
    pub fn gauge(&self, name: &'static str, unit: Unit) -> GaugeId {
        let mut meta = lock(&self.meta);
        if let Some(i) = meta.gauges.iter().position(|e| e.name == name) {
            return GaugeId(i as u16);
        }
        assert!(meta.gauges.len() < MAX_GAUGES, "gauge registry full");
        meta.gauges.push(MetaEntry { name, unit });
        GaugeId((meta.gauges.len() - 1) as u16)
    }

    /// Register (or look up) a histogram; shard memory is allocated on first
    /// registration. Idempotent by name.
    pub fn histogram(&self, name: &'static str, unit: Unit) -> HistId {
        let mut meta = lock(&self.meta);
        if let Some(i) = meta.hists.iter().position(|e| e.name == name) {
            return HistId(i as u16);
        }
        assert!(meta.hists.len() < MAX_HISTS, "histogram registry full");
        let id = meta.hists.len();
        self.hists[id].get_or_init(|| Histogram::new(HIST_SHARDS));
        meta.hists.push(MetaEntry { name, unit });
        HistId(id as u16)
    }

    /// Add `n` to a counter (no-op when disabled).
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if !self.on() {
            return;
        }
        self.counters[id.0 as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment a counter by one (no-op when disabled).
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Set a gauge (no-op when disabled).
    #[inline]
    pub fn gauge_set(&self, id: GaugeId, v: i64) {
        if !self.on() {
            return;
        }
        self.gauges[id.0 as usize].store(v, Ordering::Relaxed);
    }

    /// Adjust a gauge by a signed delta (no-op when disabled).
    #[inline]
    pub fn gauge_add(&self, id: GaugeId, d: i64) {
        if !self.on() {
            return;
        }
        self.gauges[id.0 as usize].fetch_add(d, Ordering::Relaxed);
    }

    /// Record one histogram observation (no-op when disabled).
    #[inline]
    pub fn record(&self, id: HistId, v: u64) {
        if !self.on() {
            return;
        }
        if let Some(h) = self.hists[id.0 as usize].get() {
            h.record(v);
        }
    }

    /// Whether the record at `lsn` is trace-sampled. Pure function of the
    /// LSN (records are 8-byte aligned, so the mask applies to `lsn >> 3`):
    /// every stage of one record agrees on the answer with no coordination,
    /// and the same seed samples the same records under `Runtime::sim`.
    #[inline]
    pub fn sampled(&self, lsn: Lsn) -> bool {
        self.on() && self.sample_every != 0 && ((lsn.0 >> 3) & (self.sample_every - 1)) == 0
    }

    /// Record a span for `stage` at `lsn`. Per-record stages are dropped
    /// unless [`Telemetry::sampled`] holds; batch-scoped stages are recorded
    /// whenever enabled (they are per flush batch, not per record).
    #[inline]
    pub fn span(&self, stage: Stage, lsn: Lsn, start_ns: u64, end_ns: u64) {
        if !self.on() {
            return;
        }
        if !stage.batch_scoped() && !self.sampled(lsn) {
            return;
        }
        self.trace.record(stage, lsn.0, start_ns, end_ns);
    }

    /// Record an instantaneous event (`start == end`).
    #[inline]
    pub fn event(&self, stage: Stage, lsn: Lsn, at_ns: u64) {
        self.span(stage, lsn, at_ns, at_ns);
    }

    /// Raw access to the trace ring (snapshotting, tests).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Point-in-time snapshot of every registered metric plus the live trace
    /// events, tagged with `scope`.
    pub fn snapshot(&self, scope: &str) -> TelemetrySnapshot {
        let meta = lock(&self.meta);
        let mut snap = TelemetrySnapshot::new(scope, crate::runtime::monotonic_ns());
        for (i, e) in meta.counters.iter().enumerate() {
            snap.push_counter(e.name, e.unit, self.counters[i].load(Ordering::Relaxed));
        }
        for (i, e) in meta.gauges.iter().enumerate() {
            snap.push_gauge(e.name, e.unit, self.gauges[i].load(Ordering::Relaxed));
        }
        for (i, e) in meta.hists.iter().enumerate() {
            if let Some(h) = self.hists[i].get() {
                snap.push_hist(e.name, e.unit, h.merged());
            }
        }
        drop(meta);
        snap.events = self.trace.snapshot();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled() -> Telemetry {
        Telemetry::new(&TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        })
    }

    #[test]
    fn registration_is_idempotent() {
        let t = enabled();
        let a = t.counter("x.events", Unit::Count);
        let b = t.counter("x.events", Unit::Count);
        assert_eq!(a, b);
        let h1 = t.histogram("x.lat", Unit::Nanos);
        let h2 = t.histogram("x.lat", Unit::Nanos);
        assert_eq!(h1, h2);
        // Core ids are pre-registered, so a re-registration maps onto them.
        assert_eq!(
            t.histogram("log.insert_ns", Unit::Nanos),
            t.ids().log_insert_ns
        );
    }

    #[test]
    fn disabled_is_a_no_op() {
        let t = Telemetry::new(&TelemetryConfig::default());
        assert!(!t.on());
        let c = t.counter("x.events", Unit::Count);
        t.add(c, 5);
        t.record(t.ids().log_insert_ns, 100);
        t.span(Stage::DeviceWrite, Lsn(0), 0, 1);
        assert!(t.ts().is_none());
        let snap = t.snapshot("test");
        assert_eq!(
            snap.counters
                .iter()
                .find(|m| m.name == "x.events")
                .unwrap()
                .value,
            0
        );
        assert!(snap.events.is_empty());
    }

    #[test]
    fn counters_gauges_hists_record_when_enabled() {
        let t = enabled();
        let c = t.counter("x.events", Unit::Count);
        let g = t.gauge("x.depth", Unit::Records);
        t.add(c, 2);
        t.inc(c);
        t.gauge_set(g, 7);
        t.gauge_add(g, -3);
        t.record(t.ids().log_insert_ns, 1000);
        let snap = t.snapshot("test");
        assert_eq!(
            snap.counters
                .iter()
                .find(|m| m.name == "x.events")
                .unwrap()
                .value,
            3
        );
        assert_eq!(
            snap.gauges
                .iter()
                .find(|m| m.name == "x.depth")
                .unwrap()
                .value,
            4
        );
        let h = snap
            .hists
            .iter()
            .find(|h| h.name == "log.insert_ns")
            .unwrap();
        assert_eq!(h.count, 1);
    }

    #[test]
    fn sampling_is_a_pure_lsn_function() {
        let t = Telemetry::new(&TelemetryConfig {
            enabled: true,
            sample_every: 4,
            ..TelemetryConfig::default()
        });
        // Records are 8-aligned; with sample_every=4 every 4th aligned LSN
        // (i.e. multiples of 32) samples.
        assert!(t.sampled(Lsn(0)));
        assert!(t.sampled(Lsn(32)));
        assert!(!t.sampled(Lsn(8)));
        assert!(!t.sampled(Lsn(16)));
        // Per-record stages honor sampling; batch stages do not.
        t.span(Stage::Fill, Lsn(8), 1, 2);
        assert_eq!(t.trace().snapshot().len(), 0);
        t.span(Stage::Fill, Lsn(32), 1, 2);
        t.span(Stage::DeviceWrite, Lsn(8), 1, 2);
        assert_eq!(t.trace().snapshot().len(), 2);
    }

    #[test]
    fn sample_every_zero_disables_tracing_only() {
        let t = Telemetry::new(&TelemetryConfig {
            enabled: true,
            sample_every: 0,
            ..TelemetryConfig::default()
        });
        assert!(!t.sampled(Lsn(0)));
        t.span(Stage::Fill, Lsn(0), 1, 2);
        assert!(t.trace().snapshot().is_empty());
        t.record(t.ids().log_insert_ns, 5);
        assert_eq!(t.snapshot("t").hists[0].count, 1);
    }

    #[test]
    fn config_validation() {
        let mut c = TelemetryConfig::default();
        assert!(c.validate().is_ok());
        c.sample_every = 3;
        assert!(c.validate().is_err());
        c.sample_every = 0;
        assert!(c.validate().is_ok());
    }
}
