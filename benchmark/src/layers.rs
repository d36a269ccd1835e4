//! Per-layer metrics of a traced run, measured from outside: deltas of the
//! counters `Db::telemetry_snapshot()` already exposes, the histograms the
//! program records while its telemetry is on, and a few calls into public
//! functions that the harness times itself.
//!
//! Which end-to-end metric each of these should move, on which workload, is
//! the table in `benchmark/README.md`.

use crate::measure::{Metric, Shape};
use crate::ops::{make_value, ValueInfo, ROWS};
use crate::rng::SplitMix64;
use crate::stats::median;
use aether_core::telemetry::{assemble_spans, Stage, TelemetrySnapshot, TraceEvent};
use aether_core::DeviceKind;
use aether_server::protocol::{extract_request, Extracted};
use aether_server::Request;
use aether_storage::{CommitOutcome, Db};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric: name, unit, which way is better. Each traced run
/// reports all of them; one that is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 37] = [
    ("server.req_us", "us", "lower"),
    ("server.req_p99_us", "us", "lower"),
    ("server.wire_self_us", "us", "lower"),
    ("server.ack_batch", "count", "higher"),
    ("server.commit_share", "ratio", "higher"),
    ("server.codec_ns_per_op", "ns", "lower"),
    ("storage.commit_us", "us", "lower"),
    ("storage.lock_wait_us", "us", "lower"),
    ("storage.lock_blocked_frac", "ratio", "lower"),
    ("storage.direct_txn_us", "us", "lower"),
    ("buffer.reserve_ns", "ns", "lower"),
    ("buffer.fill_ns", "ns", "lower"),
    ("buffer.release_ns", "ns", "lower"),
    ("buffer.consolidation_frac", "ratio", "higher"),
    ("buffer.insert_mb_per_s.B", "MB/s", "higher"),
    ("buffer.insert_mb_per_s.C", "MB/s", "higher"),
    ("buffer.insert_mb_per_s.D", "MB/s", "higher"),
    ("buffer.insert_mb_per_s.CD", "MB/s", "higher"),
    ("buffer.insert_mb_per_s.CDME", "MB/s", "higher"),
    ("flush.group_size", "count", "higher"),
    ("flush.flushes_per_s", "1/s", "lower"),
    ("flush.bytes_per_flush", "B", "higher"),
    ("flush.drain_us", "us", "lower"),
    ("commit.wait_us", "us", "lower"),
    ("log.bytes_per_commit", "B", "lower"),
    ("device.sync_us", "us", "lower"),
    ("device.writes_per_s", "1/s", "lower"),
    ("device.bytes_per_s", "B/s", "lower"),
    ("repl.durable_to_ack_us", "us", "lower"),
    ("repl.ship_bytes_per_commit", "B", "lower"),
    ("repl.frames_per_s", "1/s", "lower"),
    ("recovery.records_per_s", "1/s", "higher"),
    ("recovery.wall_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
    ("client.mean_us", "us", "lower"),
    ("client.gen_late_p99_us", "us", "lower"),
    ("client.backlog", "count", "lower"),
];

/// Lay `measured` out in [`PER_LAYER`] order, reading 0 for whatever this
/// workload does not exercise.
pub fn complete(measured: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::plain(name, unit, 0.0))
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counter and histogram readings over the traced windows of a run.
/// `snaps[b]` was taken at window boundary `b`; telemetry was on during the
/// even windows only, so the registry's own counters and histograms cover
/// exactly those, and the always-on counters are summed over the same
/// windows to match.
pub struct Traced<'a> {
    snaps: &'a [TelemetrySnapshot],
    shape: &'a Shape,
}

impl<'a> Traced<'a> {
    pub fn new(snaps: &'a [TelemetrySnapshot], shape: &'a Shape) -> Traced<'a> {
        assert_eq!(snaps.len(), shape.windows + 1, "one snapshot per boundary");
        Traced { snaps, shape }
    }

    fn seconds(&self) -> f64 {
        let traced = (0..self.shape.windows)
            .filter(|&w| self.shape.window_traced(w))
            .count();
        traced as f64 * self.shape.window.as_secs_f64()
    }

    /// Growth of counter `name` summed over the traced windows.
    fn counter(&self, name: &str) -> f64 {
        (0..self.shape.windows)
            .filter(|&w| self.shape.window_traced(w))
            .map(|w| {
                let at = |b: usize| self.snaps[b].counter(name).unwrap_or(0);
                at(w + 1).saturating_sub(at(w))
            })
            .sum::<u64>() as f64
    }

    /// `(count, mean, p99)` of histogram `name` (recorded only while
    /// telemetry was on).
    fn hist(&self, name: &str) -> (f64, f64, f64) {
        match self.snaps.last().and_then(|s| s.hist(name)) {
            Some(h) => (h.count as f64, h.mean as f64, h.p99 as f64),
            None => (0.0, 0.0, 0.0),
        }
    }

    /// The metrics read off the program's own telemetry. `client_mean_us`
    /// is the client-side mean latency over the same windows.
    pub fn metrics(&self, client_mean_us: f64) -> Vec<Metric> {
        let secs = self.seconds();
        let commits = self.counter("db.commits");
        let flushes = self.counter("flush.flushes");
        let flushed = self.counter("flush.flushed_bytes");
        let (_, req_mean, req_p99) = self.hist("server.req_ns");
        let (passes, _, _) = self.hist("server.ack_batch");
        let m = Metric::plain;
        vec![
            m("server.req_us", "us", req_mean / 1e3),
            m("server.req_p99_us", "us", req_p99 / 1e3),
            m("server.wire_self_us", "us", client_mean_us - req_mean / 1e3),
            m(
                "server.ack_batch",
                "count",
                ratio(self.counter("server.responses"), passes),
            ),
            m(
                "server.commit_share",
                "ratio",
                ratio(commits, self.counter("server.requests")),
            ),
            m(
                "storage.commit_us",
                "us",
                self.hist("db.commit_latency_ns").1 / 1e3,
            ),
            m(
                "storage.lock_wait_us",
                "us",
                ratio(self.counter("lock.wait_ns"), commits) / 1e3,
            ),
            m(
                "storage.lock_blocked_frac",
                "ratio",
                ratio(self.counter("lock.blocked_acquires"), commits),
            ),
            m(
                "buffer.consolidation_frac",
                "ratio",
                ratio(
                    self.counter("log.consolidations"),
                    self.counter("log.inserts"),
                ),
            ),
            m(
                "flush.group_size",
                "count",
                self.hist("commit.group_size").1,
            ),
            m("flush.flushes_per_s", "1/s", ratio(flushes, secs)),
            m("flush.bytes_per_flush", "B", ratio(flushed, flushes)),
            m("flush.drain_us", "us", self.hist("flush.drain_ns").1 / 1e3),
            m("commit.wait_us", "us", self.hist("commit.wait_ns").1 / 1e3),
            m(
                "log.bytes_per_commit",
                "B",
                ratio(self.counter("log.bytes"), commits),
            ),
            m("device.writes_per_s", "1/s", ratio(flushes, secs)),
            m("device.bytes_per_s", "B/s", ratio(flushed, secs)),
            m("repl.durable_to_ack_us", "us", self.durable_to_ack_us()),
            m(
                "repl.ship_bytes_per_commit",
                "B",
                ratio(self.counter("ship.bytes"), commits),
            ),
            m(
                "repl.frames_per_s",
                "1/s",
                ratio(self.counter("ship.frames"), secs),
            ),
        ]
    }

    /// The program's trace events of the whole run. The trace ring keeps
    /// only the newest events of each shard, so the boundary snapshots are
    /// merged.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .snaps
            .iter()
            .flat_map(|s| s.events.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Median gap between a sampled commit's `Durable` event and the first
    /// `ReplicaAck` that covered it; 0 without replication. A span whose
    /// covering ack had already left the ring pairs with a later one or an
    /// earlier-looking one; the median shrugs off the former and the latter
    /// are dropped.
    fn durable_to_ack_us(&self) -> f64 {
        let gaps: Vec<f64> = assemble_spans(&self.events())
            .iter()
            .filter_map(|span| {
                let at = |stage| {
                    span.batch
                        .iter()
                        .find(|e| e.stage == stage)
                        .map(|e| e.start_ns)
                };
                let (durable, ack) = (at(Stage::Durable)?, at(Stage::ReplicaAck)?);
                Some(ack.checked_sub(durable)? as f64 / 1e3)
            })
            .collect();
        median(&gaps).unwrap_or(0.0)
    }
}

/// Encode one auto-commit update and parse it back, the work the server's
/// IO loop and the client each do once per request, in ns per op.
pub fn codec_ns_per_op() -> f64 {
    const N: u64 = 200_000;
    let req = Request::Update {
        txn: 0,
        table: 0,
        key: 0x1234_5678,
        value: vec![7u8; crate::ops::VALUE_LEN],
    };
    let mut buf = Vec::new();
    let t0 = Instant::now();
    for id in 0..N {
        buf.extend_from_slice(&black_box(&req).encode(id));
        match extract_request(&mut buf) {
            Extracted::Msg { req_id, msg } => {
                black_box((req_id, msg));
            }
            _ => unreachable!("a frame just encoded parses"),
        }
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// `begin` → `update` → `commit` straight into the storage layer, no wire:
/// mean µs until `commit` returns (the pipelined protocol hands back a
/// handle; the last one is awaited after the clock stops).
pub fn direct_txn_us(db: &Arc<Db>, seed: u64) -> Result<f64, String> {
    const N: u64 = 20_000;
    let mut rng = SplitMix64::stream(seed, 2_000);
    let mut last = None;
    let t0 = Instant::now();
    for seq in 0..N {
        let key = rng.below(ROWS);
        let info = ValueInfo {
            key,
            writer: u64::MAX,
            seq,
        };
        let value = make_value(info, &mut rng);
        let mut txn = db.begin();
        db.update(&mut txn, 0, key, &value)
            .map_err(|e| format!("direct update: {e}"))?;
        if let CommitOutcome::Pipelined(handle) =
            db.commit(txn).map_err(|e| format!("direct commit: {e}"))?
        {
            last = Some(handle);
        }
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / N as f64;
    if let Some(handle) = last {
        if !handle.wait() {
            return Err("direct commit did not become durable".to_string());
        }
    }
    Ok(us)
}

/// A 4 KiB `write_vectored` + `sync` on a fresh device of `kind`: mean µs.
pub fn device_sync_us(kind: &DeviceKind) -> Result<f64, String> {
    const N: u32 = 200;
    let device = kind.build().map_err(|e| format!("device: {e}"))?;
    let block = [0u8; 4096];
    let t0 = Instant::now();
    for _ in 0..N {
        device
            .write_vectored(&[&block])
            .and_then(|()| device.sync())
            .map_err(|e| format!("device write: {e}"))?;
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / f64::from(N))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_fills_every_name_in_order() {
        let got = complete(&[Metric::plain("flush.group_size", "count", 64.0)]);
        assert_eq!(got.len(), PER_LAYER.len());
        assert!(got
            .iter()
            .zip(PER_LAYER)
            .all(|(m, p)| m.name == p.0 && m.unit == p.1));
        let value = |name: &str| got.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("flush.group_size"), 64.0);
        assert_eq!(value("repl.frames_per_s"), 0.0);
    }

    #[test]
    fn harness_timed_calls_return_positive_times() {
        assert!(codec_ns_per_op() > 0.0);
        let ram = device_sync_us(&DeviceKind::Ram).unwrap();
        let slow = device_sync_us(&DeviceKind::CustomUs(100)).unwrap();
        assert!(
            ram > 0.0 && slow >= 100.0,
            "ram {ram} us, 100 us device {slow} us"
        );
    }
}
