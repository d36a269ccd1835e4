//! Snapshot assembly and export: human-readable text and JSON-lines.
//!
//! A [`TelemetrySnapshot`] holds a registry's own metrics
//! ([`super::Telemetry::snapshot`]); every counter lives in the registry.
//! Higher layers add gauges computed at read time (`push_gauge`) —
//! watermarks, pending commits, granted locks — so consumers read one
//! document instead of scraping per-bin output.
//!
//! Both renderers are deterministic: metrics appear in registration order,
//! trace events in `(lsn, stage)` order, and every timestamp is
//! runtime-monotonic — under `Runtime::sim(seed)` two runs of the same seed
//! render byte-identical output. Text lines all start with `telemetry>` so
//! logs stay grep-stable; JSON-lines go to the file named by
//! [`super::TelemetryConfig::export_path`].

use super::trace::{assemble_spans, TraceEvent};
use super::{HistSnapshot, Unit};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A named scalar metric inside a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricValue<T> {
    /// Metric name (`layer.metric` convention).
    pub name: &'static str,
    /// Value unit.
    pub unit: Unit,
    /// The value at snapshot time.
    pub value: T,
}

/// Rendered view of one histogram: summary stats plus fixed quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistView {
    /// Metric name.
    pub name: &'static str,
    /// Unit of recorded values.
    pub unit: Unit,
    /// Observation count.
    pub count: u64,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// A point-in-time, renderable view of one log instance's telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Which instance this describes (e.g. `primary`, `replica-1`, a bench
    /// config string).
    pub scope: String,
    /// Runtime-monotonic capture time.
    pub at_ns: u64,
    /// Counters, registry order.
    pub counters: Vec<MetricValue<u64>>,
    /// Gauges, registry order first, then pushed extras.
    pub gauges: Vec<MetricValue<i64>>,
    /// Histograms, registry order.
    pub hists: Vec<HistView>,
    /// Live trace events, sorted by `(lsn, stage, start)`.
    pub events: Vec<TraceEvent>,
}

impl TelemetrySnapshot {
    /// Empty snapshot for `scope` captured at `at_ns`.
    pub fn new(scope: &str, at_ns: u64) -> Self {
        TelemetrySnapshot {
            scope: scope.to_string(),
            at_ns,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Append a counter.
    pub(super) fn push_counter(&mut self, name: &'static str, unit: Unit, value: u64) {
        self.counters.push(MetricValue { name, unit, value });
    }

    /// Append a gauge (layers add the ones computed at read time).
    pub fn push_gauge(&mut self, name: &'static str, unit: Unit, value: i64) {
        self.gauges.push(MetricValue { name, unit, value });
    }

    /// Append a histogram view computed from a merged snapshot.
    pub fn push_hist(&mut self, name: &'static str, unit: Unit, h: HistSnapshot) {
        self.hists.push(HistView {
            name,
            unit,
            count: h.count,
            min: h.min,
            max: h.max,
            mean: h.mean(),
            p50: h.p50(),
            p90: h.value_at_quantile(0.90),
            p99: h.p99(),
            p999: h.p999(),
        });
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Look up a histogram view by name.
    pub fn hist(&self, name: &str) -> Option<&HistView> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Human-readable rendering. Every line starts with `telemetry>` so the
    /// output stays grep-stable when interleaved with other stderr traffic.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry> snapshot scope={} at_ns={}",
            self.scope, self.at_ns
        );
        for m in &self.counters {
            let _ = writeln!(
                out,
                "telemetry> counter {}={} unit={}",
                m.name,
                m.value,
                m.unit.as_str()
            );
        }
        for m in &self.gauges {
            let _ = writeln!(
                out,
                "telemetry> gauge {}={} unit={}",
                m.name,
                m.value,
                m.unit.as_str()
            );
        }
        for h in &self.hists {
            let _ = writeln!(
                out,
                "telemetry> hist {} count={} min={} p50={} p90={} p99={} p999={} max={} mean={} unit={}",
                h.name, h.count, h.min, h.p50, h.p90, h.p99, h.p999, h.max, h.mean,
                h.unit.as_str()
            );
        }
        for span in assemble_spans(&self.events) {
            let mut line = format!("telemetry> span lsn={}", span.lsn);
            for e in span.stages.iter().chain(span.batch.iter()) {
                if e.start_ns == e.end_ns {
                    let _ = write!(line, " {}@{}", e.stage.label(), e.start_ns);
                } else {
                    let _ = write!(line, " {}={}..{}", e.stage.label(), e.start_ns, e.end_ns);
                }
            }
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// JSON-lines rendering: one self-describing object per line, each
    /// tagged with `"telemetry"` (record kind) and the scope.
    pub fn render_jsonl(&self) -> String {
        let scope = json_escape(&self.scope);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"telemetry\":\"snapshot\",\"scope\":\"{}\",\"at_ns\":{}}}",
            scope, self.at_ns
        );
        for m in &self.counters {
            let _ = writeln!(
                out,
                "{{\"telemetry\":\"counter\",\"scope\":\"{}\",\"name\":\"{}\",\"unit\":\"{}\",\"value\":{}}}",
                scope, m.name, m.unit.as_str(), m.value
            );
        }
        for m in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"telemetry\":\"gauge\",\"scope\":\"{}\",\"name\":\"{}\",\"unit\":\"{}\",\"value\":{}}}",
                scope, m.name, m.unit.as_str(), m.value
            );
        }
        for h in &self.hists {
            let _ = writeln!(
                out,
                "{{\"telemetry\":\"hist\",\"scope\":\"{}\",\"name\":\"{}\",\"unit\":\"{}\",\"count\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"max\":{},\"mean\":{}}}",
                scope, h.name, h.unit.as_str(), h.count, h.min, h.p50, h.p90, h.p99, h.p999,
                h.max, h.mean
            );
        }
        for e in &self.events {
            let _ = writeln!(
                out,
                "{{\"telemetry\":\"span\",\"scope\":\"{}\",\"lsn\":{},\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                scope, e.lsn, e.stage.label(), e.start_ns, e.end_ns
            );
        }
        out
    }

    /// Append the JSON-lines rendering to `path` (created if absent).
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(self.render_jsonl().as_bytes())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::{Stage, Telemetry, TelemetryConfig, Unit};
    use crate::lsn::Lsn;

    fn sample() -> super::TelemetrySnapshot {
        let t = Telemetry::new(&TelemetryConfig {
            enabled: true,
            sample_every: 1,
            ..TelemetryConfig::default()
        });
        let c = t.counter("x.events", Unit::Count);
        t.add(c, 3);
        t.record(t.ids().log_insert_ns, 1500);
        t.span(Stage::Fill, Lsn(64), 10, 20);
        t.event(Stage::Durable, Lsn(128), 30);
        let mut snap = t.snapshot("unit \"test\"");
        snap.push_counter("extra.pushed", Unit::Bytes, 42);
        snap
    }

    #[test]
    fn text_rendering_is_line_prefixed_and_complete() {
        let snap = sample();
        let text = snap.render_text();
        assert!(text.lines().all(|l| l.starts_with("telemetry> ")));
        assert!(text.contains("counter x.events=3 unit=count"));
        assert!(text.contains("counter extra.pushed=42 unit=bytes"));
        assert!(text.contains("hist log.insert_ns count=1"));
        assert!(text.contains("span lsn=64 fill=10..20 durable@30"));
    }

    #[test]
    fn jsonl_rendering_parses_and_escapes() {
        let snap = sample();
        let jsonl = snap.render_jsonl();
        for line in jsonl.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line: {line}"
            );
            assert!(line.contains("\"telemetry\":\""));
            // The scope contains a quote; it must be escaped.
            assert!(line.contains("unit \\\"test\\\""));
        }
        assert!(jsonl.contains("\"name\":\"x.events\",\"unit\":\"count\",\"value\":3"));
        assert!(jsonl.contains("\"stage\":\"fill\""));
    }

    #[test]
    fn snapshot_lookups() {
        let snap = sample();
        assert_eq!(snap.counter("x.events"), Some(3));
        assert_eq!(snap.counter("extra.pushed"), Some(42));
        assert_eq!(snap.counter("nope"), None);
        assert_eq!(snap.hist("log.insert_ns").unwrap().count, 1);
    }
}
