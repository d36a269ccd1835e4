//! The Aether log manager: buffer variant + device + flush daemon + commit
//! pipeline behind one facade.

use crate::buffer::{BufferCore, BufferKind, EncodePayload, LogBuffer, LogRun, LogSlot};
use crate::commit::{CommitGate, CommitHandle, CommitPipeline, DurabilityPolicy};
use crate::config::LogConfig;
use crate::device::{DeviceKind, LogDevice};
use crate::error::Result;
use crate::flush::FlushDaemon;
use crate::lsn::Lsn;
use crate::reader::LogReader;
use crate::record::RecordKind;
use crate::runtime::lock;
use crate::stats::StatsSnapshot;
use crate::telemetry::{Telemetry, TelemetrySnapshot, Unit};
use std::sync::{Arc, Mutex};

/// Builder for [`LogManager`].
#[derive(Debug)]
pub struct LogManagerBuilder {
    config: LogConfig,
    buffer: BufferKind,
    device_kind: DeviceKind,
    device: Option<Arc<dyn LogDevice>>,
}

impl std::fmt::Debug for dyn LogDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LogDevice(len={})", self.len())
    }
}

impl Default for LogManagerBuilder {
    fn default() -> Self {
        LogManagerBuilder {
            config: LogConfig::default(),
            buffer: BufferKind::Hybrid,
            device_kind: DeviceKind::Ram,
            device: None,
        }
    }
}

impl LogManagerBuilder {
    /// Set the full configuration.
    pub fn config(mut self, config: LogConfig) -> Self {
        self.config = config;
        self
    }

    /// Choose the buffer insertion algorithm (default: Hybrid/CD).
    pub fn buffer(mut self, kind: BufferKind) -> Self {
        self.buffer = kind;
        self
    }

    /// Choose a device class (default: Ram).
    pub fn device(mut self, kind: DeviceKind) -> Self {
        self.device_kind = kind;
        self
    }

    /// Supply a pre-built device (e.g. a shared [`crate::device::SimDevice`]
    /// whose contents a test will inspect after a simulated crash).
    pub fn device_instance(mut self, device: Arc<dyn LogDevice>) -> Self {
        self.device = Some(device);
        self
    }

    /// Build; panics on invalid configuration (see
    /// [`LogManagerBuilder::try_build`] for the fallible form).
    pub fn build(self) -> LogManager {
        self.try_build().expect("invalid log configuration")
    }

    /// Build, surfacing configuration/I-O errors.
    pub fn try_build(self) -> Result<LogManager> {
        self.config
            .validate()
            .map_err(crate::error::AetherError::Config)?;
        let device = match self.device {
            Some(d) => d,
            None => self.device_kind.build()?,
        };
        // The log starts where its device ends, so a record's LSN is its
        // offset on the device.
        let core = BufferCore::with_start(&self.config, Lsn(device.len()));
        let buffer = self.buffer.build(Arc::clone(&core), &self.config);
        let gate = Arc::new(CommitGate::new());
        gate.set_telemetry(Arc::clone(core.telemetry()));
        let pipeline = Arc::new(CommitPipeline::new(Arc::clone(&core), Arc::clone(&gate)));
        let daemon = if device.discards() {
            // Microbenchmark mode: no daemon; releasing reclaims directly.
            core.set_auto_reclaim(true);
            None
        } else {
            Some(FlushDaemon::spawn(
                &self.config.runtime,
                Arc::clone(&core),
                Arc::clone(&device),
                Arc::clone(&pipeline),
                self.config.group_commit.clone(),
            ))
        };
        let flush_shared = daemon.as_ref().map(|d| Arc::clone(d.shared()));
        Ok(LogManager {
            core,
            buffer,
            device,
            pipeline,
            gate,
            flush_shared,
            daemon: Mutex::new(daemon),
            final_emitted: std::sync::atomic::AtomicBool::new(false),
            config: self.config,
        })
    }
}

/// The assembled log manager.
///
/// Thread-safe: share it via `Arc` and call [`LogManager::insert`] from any
/// number of threads.
pub struct LogManager {
    core: Arc<BufferCore>,
    buffer: Arc<dyn LogBuffer>,
    device: Arc<dyn LogDevice>,
    pipeline: Arc<CommitPipeline>,
    /// Replication gate: commit completion additionally waits on replica
    /// acks per the installed [`DurabilityPolicy`] (transparent by default).
    gate: Arc<CommitGate>,
    /// Shared daemon state, used lock-free-ish on the commit path so any
    /// number of committers can wait concurrently (group commit).
    flush_shared: Option<Arc<crate::flush::FlushShared>>,
    /// The daemon thread handle; the mutex is touched only at shutdown.
    daemon: Mutex<Option<FlushDaemon>>,
    /// Guard so the shutdown telemetry emit happens exactly once.
    final_emitted: std::sync::atomic::AtomicBool,
    config: LogConfig,
}

impl std::fmt::Debug for LogManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogManager")
            .field("buffer", &self.buffer.kind())
            .field("released", &self.released_lsn())
            .field("durable", &self.durable_lsn())
            .finish()
    }
}

impl LogManager {
    /// Start building a log manager.
    pub fn builder() -> LogManagerBuilder {
        LogManagerBuilder::default()
    }

    /// Insert a record with `payload` as its bytes; returns its start LSN.
    pub fn insert(&self, kind: RecordKind, txn: u64, payload: &[u8]) -> Lsn {
        self.insert_payload(kind, txn, Lsn::ZERO, payload).0
    }

    /// Reserve a record slot and serialize `payload` **directly into the
    /// ring**, with `prev` in its header's chain field. Returns the
    /// record's `(start, end)` LSNs — `end`, start plus on-log size, is the
    /// durability target for commit waits. No
    /// intermediate encode buffer anywhere: the payload's bytes exist only
    /// in the ring (and the frame CRC streams along with them).
    pub fn insert_payload<P: EncodePayload + ?Sized>(
        &self,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload: &P,
    ) -> (Lsn, Lsn) {
        let mut slot = self.buffer.reserve(kind, txn, prev, payload.encoded_len());
        slot.fill(payload);
        let end = slot.end_lsn();
        (slot.release(), end)
    }

    /// Reserve a record slot for `payload_len` payload bytes; the caller
    /// streams the payload through the returned [`LogSlot`] and releases
    /// it. See [`crate::buffer::LogBuffer::reserve`].
    pub fn reserve(
        &self,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload_len: usize,
    ) -> LogSlot<'_> {
        self.buffer.reserve(kind, txn, prev, payload_len)
    }

    /// Reserve `len` bytes for a run of records written one after another
    /// ([`crate::buffer::LogBuffer::reserve_run`]).
    pub fn reserve_run(&self, len: u64) -> LogRun<'_> {
        self.buffer.reserve_run(len)
    }

    /// The buffer variant in use.
    pub fn buffer_kind(&self) -> BufferKind {
        self.buffer.kind()
    }

    /// Direct access to the buffer (microbenchmarks).
    pub fn buffer(&self) -> &Arc<dyn LogBuffer> {
        &self.buffer
    }

    /// The configuration this manager was built with.
    pub fn config(&self) -> &LogConfig {
        &self.config
    }

    /// Highest released (fill-complete, flushable) LSN.
    pub fn released_lsn(&self) -> Lsn {
        self.core.released_lsn()
    }

    /// Highest durable LSN.
    pub fn durable_lsn(&self) -> Lsn {
        self.core.durable_lsn()
    }

    /// Block until everything at or below `lsn` is durable (baseline commit:
    /// this is delay (A)+(C) of Figure 1 — the I/O wait plus the context
    /// switch pair).
    ///
    /// Fails with [`crate::AetherError::Poisoned`] when the flush daemon has
    /// halted on a permanent device failure, and with
    /// [`crate::AetherError::Shutdown`] when the log shut down first —
    /// callers get an `Err`, never a hang.
    pub fn flush_until(&self, lsn: Lsn) -> Result<()> {
        self.core.flush_until(lsn)
    }

    /// Flush everything released so far and wait for it; fallible like
    /// [`LogManager::flush_until`].
    pub fn flush_all(&self) -> Result<()> {
        let target = self.core.released_lsn();
        self.flush_until(target)
    }

    /// True when the log is poisoned: the flush daemon halted on a permanent
    /// device failure (or exhausted its retry budget) and no further bytes
    /// will ever become durable.
    pub fn is_poisoned(&self) -> bool {
        self.core.poison_reason().is_some()
    }

    /// Have the flush daemon make a commit record ending at `lsn` durable,
    /// without waiting for it (flush pipelining: the caller does **not**
    /// block). Whoever waits on the commit subscribes to the watermark
    /// ([`CommitPipeline::watch`]) or holds a [`CommitHandle`].
    pub fn note_commit(&self, lsn: Lsn) {
        self.note_commits(1, lsn);
    }

    /// [`LogManager::note_commit`] for `n` commit records, the last of
    /// which ends at `lsn`: one registration for a run of them.
    pub fn note_commits(&self, n: usize, lsn: Lsn) {
        if let Some(shared) = &self.flush_shared {
            shared.note_commits(n, lsn);
        }
    }

    /// A handle on the commit whose record ends at `lsn`; allocates nothing.
    pub fn handle(&self, lsn: Lsn) -> CommitHandle {
        CommitHandle::new(&self.pipeline, lsn)
    }

    /// The commit pipeline (drivers read completion counts from here).
    pub fn pipeline(&self) -> &Arc<CommitPipeline> {
        &self.pipeline
    }

    /// Number of device syncs performed so far (0 in microbenchmark mode).
    pub fn flush_count(&self) -> u64 {
        let tel = self.telemetry();
        tel.count(tel.ids().flush_flushes)
    }

    /// Buffer statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.core.stats.snapshot()
    }

    /// The log's telemetry registry (register layer metrics, flip sampling).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.core.telemetry()
    }

    /// Full telemetry snapshot under the default `log` scope; see
    /// [`LogManager::telemetry_snapshot_scoped`].
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.telemetry_snapshot_scoped("log")
    }

    /// Full telemetry snapshot tagged with `scope` (e.g. `primary`,
    /// `replica-1`): every registry metric plus the gauges read off the log
    /// now — pending commits, the truncation and release/durable
    /// watermarks, and, when a durability policy is installed, the
    /// replication gate's floors.
    pub fn telemetry_snapshot_scoped(&self, scope: &str) -> TelemetrySnapshot {
        let mut snap = self.core.telemetry().snapshot(scope);
        snap.push_gauge(
            "commit.pending",
            Unit::Records,
            self.pipeline.pending() as i64,
        );
        snap.push_gauge(
            "truncation.low_water",
            Unit::Lsns,
            self.device.low_water().raw() as i64,
        );
        snap.push_gauge(
            "log.released_lsn",
            Unit::Lsns,
            self.core.released_lsn().raw() as i64,
        );
        snap.push_gauge(
            "log.durable_lsn",
            Unit::Lsns,
            self.core.durable_lsn().raw() as i64,
        );
        if self.gate.policy().is_some() {
            snap.push_gauge(
                "repl.replicated_floor",
                Unit::Lsns,
                self.gate.replicated_floor().raw() as i64,
            );
            snap.push_gauge(
                "repl.slowest_ack",
                Unit::Lsns,
                self.gate.slowest_ack().raw() as i64,
            );
        }
        snap
    }

    /// The device (tests inspect contents; recovery reads records).
    pub fn device(&self) -> &Arc<dyn LogDevice> {
        &self.device
    }

    /// Block until the durable watermark reaches `lsn`, the log is closed,
    /// or `give_up` holds; returns the watermark as it is then. Unlike
    /// [`LogManager::flush_until`] this asks for no flush: the log shipper
    /// tails the durable frontier here instead of polling
    /// [`LogManager::durable_lsn`]. `give_up` runs under the waiters' lock,
    /// so keep it a load; whoever makes it true stores `SeqCst` and then
    /// calls [`LogManager::wake_durable_waiters`].
    pub fn wait_durable(&self, lsn: Lsn, give_up: impl Fn() -> bool) -> Lsn {
        self.core.wait_durable(lsn, give_up)
    }

    /// Have every [`LogManager::wait_durable`] caller look again, at the
    /// watermark and at its give-up condition.
    pub fn wake_durable_waiters(&self) {
        self.core.notify_durable();
    }

    /// The replication commit gate (register replicas, install a policy).
    pub fn commit_gate(&self) -> &Arc<CommitGate> {
        &self.gate
    }

    /// Install a replication durability policy; see [`DurabilityPolicy`].
    pub fn set_durability_policy(&self, policy: DurabilityPolicy) {
        self.gate.set_policy(policy);
        self.replication_recheck();
    }

    /// Highest LSN at which commits may currently complete:
    /// `min(durable, replicated floor)`.
    pub fn commit_lsn(&self) -> Lsn {
        self.pipeline.commit_lsn()
    }

    /// Re-evaluate the commit gate after replica acks advanced: completes
    /// newly-eligible pipelined commits and wakes blocking committers (the
    /// advance notifies the gate). The shipper calls this once per ack
    /// batch — one recheck per flush group, not per transaction, preserving
    /// group-commit amortization.
    pub fn replication_recheck(&self) {
        self.pipeline.advance(self.commit_lsn());
    }

    /// Block until `lsn` is fully committable: durable locally (group-commit
    /// flush machinery) and replicated per the gate policy. With no policy
    /// installed this is exactly [`LogManager::flush_until`].
    ///
    /// `Err` means local durability failed (log poisoned or shut down) —
    /// the commit is *not* durable. `Ok(false)` means the bytes are durable
    /// locally but the replication gate was poisoned before enough acks
    /// arrived: the commit's replicated fate is indeterminate. `Ok(true)` is
    /// a fully-committed transaction.
    #[must_use = "a false return means the commit did not replicate"]
    pub fn wait_committed(&self, lsn: Lsn) -> Result<bool> {
        self.flush_until(lsn)?;
        if self.gate.required_acks() > 0 {
            let core = Arc::clone(&self.core);
            Ok(self.gate.wait_effective(lsn, move || core.durable_lsn()))
        } else {
            Ok(true)
        }
    }

    /// A recovery-scan reader over the device from its low-water mark (LSN
    /// 0 until the log has been truncated).
    pub fn reader(&self) -> LogReader {
        LogReader::new(Arc::clone(&self.device))
    }

    // ------------------------------------------------------------------
    // Log truncation (checkpoint-driven segment recycling)
    // ------------------------------------------------------------------

    /// The log's low-water mark: the stream offset of the first byte any
    /// scan may rely on. Everything below has been retired by
    /// [`LogManager::truncate_to`]; 0 for devices that never truncate.
    pub fn low_water(&self) -> Lsn {
        self.device.low_water()
    }

    /// Bytes of log currently retained (`len - low_water`): the on-disk
    /// footprint recovery would have to scan.
    pub fn retained_bytes(&self) -> u64 {
        self.device.len().saturating_sub(self.low_water().raw())
    }

    /// Retire the log prefix below `lsn` — the **safe** truncation entry
    /// point. `lsn` must be a truncation point computed by the storage
    /// layer (a record boundary at or below the last fuzzy checkpoint's
    /// redo LSN); this method additionally clamps it to the durable
    /// watermark and refuses to act at all while any registered replica has
    /// acknowledged less than the target — a lagging shipper still needs
    /// those bytes, and partial truncation to an ack offset could land
    /// mid-record. All-or-nothing keeps the low-water mark on a record
    /// boundary, which recovery scans depend on.
    ///
    /// Returns the truncation outcome; `applied` never exceeds
    /// `min(lsn, durable, slowest replica ack)` — invariant 7 of DESIGN.md.
    pub fn truncate_to(&self, lsn: Lsn) -> TruncationOutcome {
        let target = lsn.min(self.core.durable_lsn());
        if self.gate.slowest_ack() < target {
            return TruncationOutcome {
                requested: lsn,
                applied: self.low_water(),
                segments_recycled: 0,
                held_back_by_replica: true,
                device_error: false,
            };
        }
        self.apply_truncation(lsn, target)
    }

    /// Retire the log prefix below `lsn` **ignoring replica acks** (still
    /// clamped to the durable watermark). This is the bounded-disk
    /// emergency lever: a shipper stranded below the new low-water mark can
    /// no longer read the stream and must re-bootstrap its replica from a
    /// checkpoint snapshot (`aether-repl` does so automatically). Prefer
    /// [`LogManager::truncate_to`].
    pub fn force_truncate_to(&self, lsn: Lsn) -> TruncationOutcome {
        let target = lsn.min(self.core.durable_lsn());
        self.apply_truncation(lsn, target)
    }

    fn apply_truncation(&self, requested: Lsn, target: Lsn) -> TruncationOutcome {
        // A failed truncation is not fatal to the log — the bytes are merely
        // still retained. Report it so the caller (checkpointer, disk-pressure
        // supervisor) can alarm and retry; the low-water mark is unchanged.
        let (recycled, device_error) = match self.device.truncate_before(target) {
            Ok(n) => (n, false),
            Err(_) => (0, true),
        };
        let tel = self.telemetry();
        tel.inc(tel.ids().truncation_truncations);
        tel.add(tel.ids().truncation_segments_recycled, recycled as u64);
        TruncationOutcome {
            requested,
            applied: self.low_water(),
            segments_recycled: recycled,
            held_back_by_replica: false,
            device_error,
        }
    }

    /// Truncation counters (complements the buffer stats).
    pub fn truncation_stats(&self) -> TruncationStats {
        let tel = self.telemetry();
        TruncationStats {
            low_water: self.low_water(),
            truncations: tel.count(tel.ids().truncation_truncations),
            segments_recycled: tel.count(tel.ids().truncation_segments_recycled),
        }
    }

    /// Stop the flush daemon after a final flush. Called automatically on
    /// drop; explicit calls are idempotent. With telemetry enabled, one
    /// final snapshot is appended to `TelemetryConfig::export_path` when set.
    pub fn shutdown(&self) {
        if let Some(d) = lock(&self.daemon).as_mut() {
            d.shutdown();
        }
        let path = &self.config.telemetry.export_path;
        if let (true, Some(path)) = (self.core.telemetry().on(), path) {
            if !self
                .final_emitted
                .swap(true, std::sync::atomic::Ordering::Relaxed)
            {
                let _ = self.telemetry_snapshot().append_to(path);
            }
        }
    }
}

impl Drop for LogManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Result of one [`LogManager::truncate_to`] / `force_truncate_to` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncationOutcome {
    /// The truncation point the caller asked for.
    pub requested: Lsn,
    /// The low-water mark after the call (≤ `requested`, and unchanged when
    /// the call was held back).
    pub applied: Lsn,
    /// Whole segments recycled by this call.
    pub segments_recycled: usize,
    /// True when a lagging replica ack prevented any truncation (safe
    /// entry point only; `force_truncate_to` never reports this).
    pub held_back_by_replica: bool,
    /// True when the device refused to drop the prefix (e.g. an I/O error
    /// while sealing/recycling segments). The low-water mark is unchanged;
    /// the bytes are still retained and the caller should retry or alarm.
    pub device_error: bool,
}

/// Counters over the log's truncation history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncationStats {
    /// Current low-water mark.
    pub low_water: Lsn,
    /// `truncate_to`/`force_truncate_to` calls that reached the device.
    pub truncations: u64,
    /// Whole segments recycled across all calls.
    pub segments_recycled: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::Tally;
    use crate::device::{DeviceFault, FaultDevice, SimDevice};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// An empty record registered as a commit, and a handle on it.
    fn commit(log: &LogManager, txn: u64) -> CommitHandle {
        let (_, end) = log.insert_payload::<[u8]>(RecordKind::Filler, txn, Lsn::ZERO, &[]);
        log.note_commit(end);
        log.handle(end)
    }

    #[test]
    fn build_all_variants() {
        for kind in BufferKind::ALL {
            let log = LogManager::builder()
                .buffer(kind)
                .device(DeviceKind::Ram)
                .build();
            assert_eq!(log.buffer_kind(), kind);
            let lsn = log.insert(RecordKind::Filler, 1, b"abc");
            log.flush_all().unwrap();
            assert!(log.durable_lsn() > lsn);
        }
    }

    #[test]
    fn microbenchmark_mode_has_no_daemon() {
        let log = LogManager::builder().device(DeviceKind::Null).build();
        log.insert(RecordKind::Filler, 1, &[0; 120]);
        assert_eq!(log.flush_count(), 0);
        assert_eq!(log.durable_lsn(), log.released_lsn());
        log.flush_all().unwrap(); // no-op, must not hang
        assert!(
            commit(&log, 2).wait(),
            "no flusher walks the subscribers: a handle reads the watermark"
        );
    }

    #[test]
    fn commit_handle_completes() {
        let log = LogManager::builder()
            .device(DeviceKind::CustomUs(200))
            .build();
        log.insert(RecordKind::Filler, 42, &[1; 64]);
        let h = commit(&log, 42);
        assert!(h.wait());
        assert!(log.durable_lsn() >= log.released_lsn());
        assert!(log.durable_lsn() >= h.lsn());
    }

    /// A tally the log's flushers resolve.
    fn subscribed(log: &LogManager) -> Arc<Tally> {
        let t = Arc::new(Tally::default());
        log.pipeline().subscribe(t.clone());
        t
    }

    #[test]
    fn watched_commits_resolve_once_across_a_poison() {
        // Four threads race commits against a device that fails for good
        // after a few syncs, each into a tally of its own. A poison that
        // lands between a committer's publish and its look must not strand
        // the commit: every commit resolves, once, whatever its verdict.
        for round in 0..20u64 {
            let log = LogManager::builder()
                .device_instance(Arc::new(FaultDevice::new(
                    Arc::new(SimDevice::new(Duration::ZERO)),
                    &[DeviceFault::FailSync {
                        nth: round % 3 + 1,
                        times: u64::MAX,
                        transient: false,
                    }],
                )))
                .build();
            let submitted = AtomicU64::new(0);
            let tallies: Vec<Arc<Tally>> = (0..4).map(|_| subscribed(&log)).collect();
            std::thread::scope(|s| {
                for (t, tally) in tallies.iter().enumerate() {
                    let (log, submitted) = (&log, &submitted);
                    s.spawn(move || {
                        // Keep committing a little past the poison.
                        let mut after = 0;
                        for i in 0..20_000u64 {
                            if log.is_poisoned() {
                                after += 1;
                                if after > 50 {
                                    break;
                                }
                            }
                            let txn = (t as u64) << 32 | i;
                            let (_, end) =
                                log.insert_payload::<[u8]>(RecordKind::Filler, txn, Lsn::ZERO, &[]);
                            submitted.fetch_add(1, Ordering::Relaxed);
                            log.note_commit(end);
                            tally.add(end);
                            log.pipeline().watch(&**tally, end);
                        }
                    });
                }
            });
            assert!(log.is_poisoned(), "round {round}: the device never failed");
            let submitted = submitted.load(Ordering::Relaxed);
            let resolved = || -> u64 { tallies.iter().map(|t| t.durable() + t.failed()).sum() };
            for t in &tallies {
                assert!(
                    t.wait_settled(Some(Duration::from_secs(10))),
                    "round {round}: {} of {submitted} commits resolved in 10 s",
                    resolved()
                );
            }
            assert_eq!(resolved(), submitted, "round {round}");
        }
    }

    #[test]
    fn a_commit_made_durable_before_it_is_watched_completes_at_its_own_look() {
        // The registration window: the flush that hardens the record walks
        // the subscribers before this one publishes the commit, and no later
        // flush comes. Only the subscriber's own look can complete it.
        let log = LogManager::builder().device(DeviceKind::Ram).build();
        let tally = subscribed(&log);
        let (_, end) = log.insert_payload::<[u8]>(RecordKind::Filler, 1, Lsn::ZERO, &[]);
        log.note_commit(end);
        log.flush_all().unwrap();
        assert!(log.commit_lsn() >= end);
        let flushes = log.flush_count();
        tally.add(end);
        log.pipeline().watch(&*tally, end);
        assert_eq!(tally.durable(), 1, "completed at the look, not by a flush");
        assert_eq!(log.flush_count(), flushes);
    }

    #[test]
    fn watched_commits_complete() {
        let log = LogManager::builder().device(DeviceKind::Ram).build();
        let tally = subscribed(&log);
        for i in 0..20u64 {
            let (_, end) = log.insert_payload::<[u8]>(RecordKind::Filler, i, Lsn::ZERO, &[]);
            log.note_commit(end);
            tally.add(end);
            log.pipeline().watch(&*tally, end);
        }
        log.flush_all().unwrap();
        // Once the log is durable, the flusher's walk (or the look) has
        // completed them all.
        assert!(tally.wait_settled(None));
        assert_eq!(tally.durable(), 20);
    }

    #[test]
    fn records_roundtrip_through_device() {
        let device = Arc::new(SimDevice::new(Duration::ZERO));
        let log = LogManager::builder()
            .device_instance(device.clone())
            .build();
        let payloads: Vec<Vec<u8>> = (0..30).map(|i| vec![i as u8; 10 + i * 7]).collect();
        for (i, p) in payloads.iter().enumerate() {
            log.insert(RecordKind::Filler, i as u64, p);
        }
        log.flush_all().unwrap();
        let mut reader = log.reader();
        let mut n = 0;
        while let Some(rec) = reader.next_record().unwrap() {
            assert_eq!(rec.header.txn, n as u64);
            assert_eq!(rec.payload, payloads[n]);
            n += 1;
        }
        assert_eq!(n, payloads.len());
    }

    #[test]
    fn truncate_to_recycles_segments_and_moves_the_low_water_mark() {
        use crate::partition::{MemSegmentFactory, SegmentedDevice};
        let seg = Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 4096).unwrap());
        let log = LogManager::builder()
            .device_instance(Arc::clone(&seg) as Arc<dyn crate::device::LogDevice>)
            .build();
        for i in 0..200u64 {
            log.insert(RecordKind::Filler, i, &[7u8; 100]);
        }
        log.flush_all().unwrap();
        assert_eq!(log.low_water(), Lsn::ZERO);
        let full = log.retained_bytes();
        // Pick a record boundary roughly halfway in.
        let mid = {
            let mut r = log.reader();
            let mut at = Lsn::ZERO;
            while at.raw() < log.durable_lsn().raw() / 2 {
                at = r.next_record().unwrap().unwrap().next_lsn();
            }
            at
        };
        let out = log.truncate_to(mid);
        assert!(!out.held_back_by_replica);
        assert_eq!(out.applied, mid);
        assert!(out.segments_recycled > 0);
        assert_eq!(log.low_water(), mid);
        assert!(log.retained_bytes() < full);
        let stats = log.truncation_stats();
        assert_eq!(stats.low_water, mid);
        assert_eq!(stats.truncations, 1);
        assert_eq!(stats.segments_recycled, out.segments_recycled as u64);
        // The reader now starts at the mark and the tail is intact.
        let recs = log.reader().read_all().unwrap();
        assert_eq!(recs.first().unwrap().lsn, mid);
        assert_eq!(recs.last().unwrap().next_lsn(), log.durable_lsn());
    }

    #[test]
    fn truncate_to_is_held_back_by_slow_replicas_but_force_is_not() {
        use crate::partition::{MemSegmentFactory, SegmentedDevice};
        let seg = Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 4096).unwrap());
        let log = LogManager::builder()
            .device_instance(Arc::clone(&seg) as Arc<dyn crate::device::LogDevice>)
            .build();
        let mut end = Lsn::ZERO;
        for i in 0..100u64 {
            let (_, e) = log.insert_payload(RecordKind::Filler, i, Lsn::ZERO, &[7u8; 100]);
            end = e;
        }
        log.flush_all().unwrap();
        let ack = log.commit_gate().register_replica();
        ack.advance(Lsn(end.raw() / 4));
        let out = log.truncate_to(end);
        assert!(out.held_back_by_replica, "slow replica must pin the log");
        assert_eq!(out.applied, Lsn::ZERO);
        assert_eq!(log.low_water(), Lsn::ZERO);
        // The emergency lever ignores the ack (laggards re-bootstrap).
        let out = log.force_truncate_to(end);
        assert!(!out.held_back_by_replica);
        assert_eq!(out.applied, end);
        assert_eq!(log.low_water(), end);
        assert_eq!(log.retained_bytes(), 0);
        // Once the replica catches up, safe truncation proceeds again.
        ack.advance(end);
        assert!(!log.truncate_to(end).held_back_by_replica);
    }

    #[test]
    fn truncate_to_clamps_to_durable_on_plain_devices() {
        // Non-segmented devices ignore truncation: the call is a no-op with
        // a zero low-water mark, so recovery semantics never change.
        let log = LogManager::builder().device(DeviceKind::Ram).build();
        log.insert(RecordKind::Filler, 0, &[1; 64]);
        log.flush_all().unwrap();
        let out = log.truncate_to(log.durable_lsn());
        assert_eq!(out.applied, Lsn::ZERO);
        assert_eq!(out.segments_recycled, 0);
        assert_eq!(log.low_water(), Lsn::ZERO);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let log = LogManager::builder().device(DeviceKind::Ram).build();
        log.insert(RecordKind::Filler, 0, &[1; 16]);
        log.shutdown();
        log.shutdown();
        drop(log);
    }

    #[test]
    fn concurrent_inserts_through_manager() {
        let log = Arc::new(
            LogManager::builder()
                .buffer(BufferKind::Hybrid)
                .device(DeviceKind::Ram)
                .build(),
        );
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for _ in 0..500 {
                        log.insert(RecordKind::Filler, t, &[t as u8; 88]);
                    }
                });
            }
        });
        log.flush_all().unwrap();
        let stats = log.stats();
        assert_eq!(stats.inserts, 8 * 500);
        assert_eq!(log.durable_lsn(), Lsn(stats.bytes));
    }
}
