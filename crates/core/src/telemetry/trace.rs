//! LSN-correlated pipeline tracing.
//!
//! Every record's journey through the commit pipeline passes through a fixed
//! set of [`Stage`]s. When tracing is enabled, instrumented call sites record
//! `(lsn, stage, start_ns, end_ns)` events into a sharded fixed-capacity ring
//! (overwrite-oldest). Per-record stages are sampled by LSN mask — the same
//! record is either traced at *every* per-record stage or at none, across
//! threads, with no RNG and no coordination — while batch-scoped stages
//! (device writes, durability advances, replica acks) are cheap enough to
//! record unconditionally and are joined to sampled records at assembly time
//! by LSN range.
//!
//! All timestamps come from `runtime::monotonic_ns`, so under
//! `Runtime::sim(seed)` a trace is byte-reproducible for a given seed.

use crate::padded::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// A stage in the life of a log record, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Waiting to acquire log space (per-record, sampled).
    Reserve = 1,
    /// Copying the record into the ring (per-record, sampled).
    Fill = 2,
    /// Waiting for / performing in-order buffer release (per-record, sampled).
    Release = 3,
    /// Flush daemon picked up a drain request covering this LSN (batch).
    FlushEnqueue = 4,
    /// Vectored device write + sync for the batch ending at this LSN (batch).
    DeviceWrite = 5,
    /// Durable watermark advanced to this LSN (batch, instant).
    Durable = 6,
    /// A replica acknowledged up to this LSN (batch, instant).
    ReplicaAck = 7,
    /// Commit completion delivered for this LSN (per-record, sampled).
    CommitComplete = 8,
}

impl Stage {
    /// Stable lowercase label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Reserve => "reserve",
            Stage::Fill => "fill",
            Stage::Release => "release",
            Stage::FlushEnqueue => "flush_enqueue",
            Stage::DeviceWrite => "device_write",
            Stage::Durable => "durable",
            Stage::ReplicaAck => "replica_ack",
            Stage::CommitComplete => "commit_complete",
        }
    }

    /// Whether events of this stage describe a flush/replication batch (keyed
    /// by the batch's end LSN) rather than a single record.
    pub fn batch_scoped(self) -> bool {
        matches!(
            self,
            Stage::FlushEnqueue | Stage::DeviceWrite | Stage::Durable | Stage::ReplicaAck
        )
    }

    fn from_u8(v: u8) -> Option<Stage> {
        Some(match v {
            1 => Stage::Reserve,
            2 => Stage::Fill,
            3 => Stage::Release,
            4 => Stage::FlushEnqueue,
            5 => Stage::DeviceWrite,
            6 => Stage::Durable,
            7 => Stage::ReplicaAck,
            8 => Stage::CommitComplete,
            _ => return None,
        })
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceEvent {
    /// Record LSN (per-record stages) or batch end LSN (batch stages).
    pub lsn: u64,
    /// Pipeline stage.
    pub stage: Stage,
    /// Stage start, runtime-monotonic nanoseconds.
    pub start_ns: u64,
    /// Stage end; equals `start_ns` for instantaneous events.
    pub end_ns: u64,
}

struct EventSlot {
    lsn: AtomicU64,
    stage: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

struct TraceShard {
    head: CachePadded<AtomicU64>,
    slots: Box<[EventSlot]>,
}

/// Sharded fixed-capacity event ring with overwrite-oldest semantics.
///
/// Recording is wait-free (one `fetch_add` to claim a slot, four relaxed
/// stores) and never allocates. A snapshot taken concurrently with recording
/// may observe a torn slot; torn slots are filtered by stage validity. Under
/// the sim runtime there is no true concurrency, so snapshots are exact.
pub struct TraceRing {
    shards: Box<[TraceShard]>,
    shard_mask: usize,
    slot_mask: u64,
}

impl TraceRing {
    /// Allocate `shards` rings of `capacity` slots each (both rounded up to
    /// powers of two).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let cap = capacity.max(16).next_power_of_two();
        let shards = (0..n)
            .map(|_| TraceShard {
                head: CachePadded::new(AtomicU64::new(0)),
                slots: (0..cap)
                    .map(|_| EventSlot {
                        lsn: AtomicU64::new(0),
                        stage: AtomicU64::new(0),
                        start_ns: AtomicU64::new(0),
                        end_ns: AtomicU64::new(0),
                    })
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        TraceRing {
            shards,
            shard_mask: n - 1,
            slot_mask: (cap - 1) as u64,
        }
    }

    /// Record one event into this thread's shard.
    #[inline]
    pub fn record(&self, stage: Stage, lsn: u64, start_ns: u64, end_ns: u64) {
        let shard = &self.shards[super::thread_shard() & self.shard_mask];
        let idx = (shard.head.fetch_add(1, Ordering::Relaxed) & self.slot_mask) as usize;
        let slot = &shard.slots[idx];
        slot.stage.store(0, Ordering::Relaxed);
        slot.lsn.store(lsn, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.end_ns.store(end_ns, Ordering::Relaxed);
        slot.stage.store(stage as u64, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed))
            .sum()
    }

    /// Collect all live events, sorted by `(lsn, stage, start_ns)` so the
    /// result is independent of shard assignment.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let live = shard.head.load(Ordering::Relaxed).min(self.slot_mask + 1);
            for slot in shard.slots.iter().take(live as usize) {
                let Some(stage) = Stage::from_u8(slot.stage.load(Ordering::Acquire) as u8) else {
                    continue;
                };
                out.push(TraceEvent {
                    lsn: slot.lsn.load(Ordering::Relaxed),
                    stage,
                    start_ns: slot.start_ns.load(Ordering::Relaxed),
                    end_ns: slot.end_ns.load(Ordering::Relaxed),
                });
            }
        }
        out.sort_unstable();
        out
    }
}

/// All events for one sampled record, plus the batch-scoped events that
/// carried it: a causal span tree for a single commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitSpan {
    /// The record's LSN.
    pub lsn: u64,
    /// Per-record stage events, in pipeline order.
    pub stages: Vec<TraceEvent>,
    /// Batch events covering this record: for each batch stage, the earliest
    /// event whose end LSN is at or past this record's LSN.
    pub batch: Vec<TraceEvent>,
}

/// Group a sorted event list (from [`TraceRing::snapshot`]) into per-commit
/// span trees. Batch-scoped events are matched to each record by LSN range:
/// a batch event with end LSN `B` covers records with `lsn <= B`, and the
/// earliest such batch per stage is the one that carried the record.
pub fn assemble_spans(events: &[TraceEvent]) -> Vec<CommitSpan> {
    let batch: Vec<&TraceEvent> = events.iter().filter(|e| e.stage.batch_scoped()).collect();
    let mut spans: Vec<CommitSpan> = Vec::new();
    for e in events.iter().filter(|e| !e.stage.batch_scoped()) {
        match spans.last_mut() {
            Some(s) if s.lsn == e.lsn => s.stages.push(*e),
            _ => spans.push(CommitSpan {
                lsn: e.lsn,
                stages: vec![*e],
                batch: Vec::new(),
            }),
        }
    }
    for span in &mut spans {
        for stage in [
            Stage::FlushEnqueue,
            Stage::DeviceWrite,
            Stage::Durable,
            Stage::ReplicaAck,
        ] {
            if let Some(e) = batch
                .iter()
                .filter(|e| e.stage == stage && e.lsn >= span.lsn)
                .min_by_key(|e| (e.lsn, e.start_ns))
            {
                span.batch.push(**e);
            }
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_and_sorts() {
        let r = TraceRing::new(2, 16);
        r.record(Stage::Fill, 200, 5, 9);
        r.record(Stage::Reserve, 200, 1, 5);
        r.record(Stage::DeviceWrite, 300, 20, 40);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].stage, Stage::Reserve);
        assert_eq!(snap[1].stage, Stage::Fill);
        assert_eq!(snap[2].lsn, 300);
        assert_eq!(r.recorded(), 3);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = TraceRing::new(1, 16);
        for i in 0..40u64 {
            r.record(Stage::Fill, i, i, i + 1);
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 16, "capacity bounds live events");
        assert_eq!(r.recorded(), 40);
        // The survivors are the most recent 16.
        assert!(snap.iter().all(|e| e.lsn >= 24));
    }

    #[test]
    fn spans_join_batches_by_lsn_range() {
        let r = TraceRing::new(1, 64);
        // Two records, one flush batch ending at lsn 250 covering both.
        for lsn in [100u64, 200] {
            r.record(Stage::Reserve, lsn, lsn, lsn + 1);
            r.record(Stage::Fill, lsn, lsn + 1, lsn + 4);
            r.record(Stage::Release, lsn, lsn + 4, lsn + 5);
            r.record(Stage::CommitComplete, lsn, lsn + 50, lsn + 50);
        }
        r.record(Stage::DeviceWrite, 250, 300, 340);
        r.record(Stage::Durable, 250, 340, 340);
        let spans = assemble_spans(&r.snapshot());
        assert_eq!(spans.len(), 2);
        for span in &spans {
            assert_eq!(span.stages.len(), 4);
            assert_eq!(span.batch.len(), 2, "device write + durable joined");
            assert!(span.batch.iter().all(|e| e.lsn == 250));
        }
    }

    #[test]
    fn earliest_covering_batch_wins() {
        let r = TraceRing::new(1, 64);
        r.record(Stage::Fill, 100, 0, 1);
        r.record(Stage::Durable, 150, 10, 10);
        r.record(Stage::Durable, 400, 20, 20);
        let spans = assemble_spans(&r.snapshot());
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].batch.len(), 1);
        assert_eq!(spans[0].batch[0].lsn, 150, "first batch at/past the record");
    }
}
