//! The flush daemon: the only thread that ever waits on log I/O (§4.1).
//!
//! "A daemon thread triggers log flushes using policies similar to those used
//! in group commit (e.g. flush every X transactions, L bytes logged, or T
//! time elapsed, whichever comes first). After each I/O completion, the
//! daemon notifies the agent threads of newly-hardened transactions."
//!
//! The daemon drains `[durable, released)` straight out of the ring: the
//! window is at most one ring lap, so it is at most two contiguous ring
//! slices, which go to [`LogDevice::write_vectored`] with **no scratch
//! copy** — the payload memcpy at insert is the only time log bytes are
//! copied in memory. It then syncs, advances the durable watermark
//! (reclaiming ring space) and completes pending commits via the
//! [`CommitPipeline`].

use crate::buffer::BufferCore;
use crate::commit::{CommitGate, CommitPipeline};
use crate::config::{FlushRetryPolicy, GroupCommitPolicy};
use crate::device::LogDevice;
use crate::error::{AetherError, Result};
use crate::lsn::Lsn;
use crate::runtime::{self, RtCondvar, Runtime};
use crate::telemetry::Stage;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug)]
struct FlushInner {
    /// Highest LSN any caller demanded be made durable *now* (blocking
    /// flush requests bypass the group-commit batching).
    requested: Lsn,
    /// Commits submitted since the last flush (the "X transactions" trigger).
    pending_commits: usize,
    /// Highest commit LSN registered through [`FlushShared::note_commit`].
    /// It may be past `released`: a commit record's release can be handed
    /// to a predecessor that is still filling.
    noted: Lsn,
    /// When (runtime-monotonic ns) the oldest unserviced request arrived
    /// (the "T time" trigger).
    oldest: Option<u64>,
    shutdown: bool,
    /// Set when the daemon hit a permanent device failure (or exhausted its
    /// retry budget): the terminal poisoned-log state. Waiters fail fast
    /// with [`AetherError::Poisoned`] instead of hanging.
    poisoned: Option<String>,
}

/// Shared state between the daemon thread and its clients.
#[derive(Debug)]
pub struct FlushShared {
    inner: Mutex<FlushInner>,
    daemon_cv: RtCondvar,
    waiter_cv: RtCondvar,
    flushes: AtomicU64,
    flushed_bytes: AtomicU64,
}

impl FlushShared {
    /// Demand durability up to `lsn` and block until it holds. This is the
    /// *baseline* commit path: one blocking wait (and its pair of context
    /// switches) per call. Fully concurrent: any number of committers may
    /// wait simultaneously and are woken together by the daemon (group
    /// commit).
    ///
    /// Fails fast with [`AetherError::Poisoned`] when the daemon halted on
    /// a device failure, and with [`AetherError::Shutdown`] when the log
    /// shut down before `lsn` became durable — waiters get an `Err`, never
    /// a hang.
    pub fn flush_until(&self, core: &BufferCore, lsn: Lsn) -> Result<()> {
        if core.durable_lsn() >= lsn {
            return Ok(());
        }
        let mut g = self.inner.lock();
        if g.requested < lsn {
            g.requested = lsn;
        }
        if g.oldest.is_none() {
            g.oldest = Some(runtime::monotonic_ns());
        }
        self.daemon_cv.notify_one();
        loop {
            if core.durable_lsn() >= lsn {
                return Ok(());
            }
            if let Some(reason) = &g.poisoned {
                return Err(AetherError::Poisoned {
                    reason: reason.clone(),
                });
            }
            if g.shutdown {
                return Err(AetherError::Shutdown);
            }
            g = self.waiter_cv.wait(&self.inner, g);
        }
    }

    /// The poison reason, if the daemon has halted on a device failure.
    pub fn poisoned(&self) -> Option<String> {
        self.inner.lock().poisoned.clone()
    }

    /// Register a commit waiting for `lsn` for group-commit accounting and
    /// nudge the daemon once a policy threshold is reached. Non-blocking
    /// (flush pipelining).
    pub fn note_commit(&self, lsn: Lsn, policy: &GroupCommitPolicy) {
        let mut g = self.inner.lock();
        g.pending_commits += 1;
        g.noted = g.noted.max(lsn);
        if g.oldest.is_none() {
            g.oldest = Some(runtime::monotonic_ns());
        }
        if g.pending_commits >= policy.max_pending_commits {
            self.daemon_cv.notify_one();
        }
    }

    /// Ask the daemon to flush everything released so far without waiting.
    pub fn kick(&self, core: &BufferCore) {
        let mut g = self.inner.lock();
        let rel = core.released_lsn();
        if g.requested < rel {
            g.requested = rel;
        }
        self.daemon_cv.notify_one();
    }

    fn new() -> Arc<FlushShared> {
        Arc::new(FlushShared {
            inner: Mutex::new(FlushInner {
                requested: Lsn::ZERO,
                pending_commits: 0,
                noted: Lsn::ZERO,
                oldest: None,
                shutdown: false,
                poisoned: None,
            }),
            daemon_cv: RtCondvar::new(),
            waiter_cv: RtCondvar::new(),
            flushes: AtomicU64::new(0),
            flushed_bytes: AtomicU64::new(0),
        })
    }

    /// Number of device sync operations performed (one per group flush) —
    /// this is what group commit minimizes.
    pub fn flush_count(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Total bytes written to the device.
    pub fn flushed_bytes(&self) -> u64 {
        self.flushed_bytes.load(Ordering::Relaxed)
    }
}

/// The flush daemon handle: owns the background thread.
pub struct FlushDaemon {
    shared: Arc<FlushShared>,
    core: Arc<BufferCore>,
    thread: Option<runtime::JoinHandle<()>>,
}

impl std::fmt::Debug for FlushDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlushDaemon")
            .field("flushes", &self.shared.flush_count())
            .finish()
    }
}

impl FlushDaemon {
    /// Spawn the daemon over `core`/`device` under `rt`, completing commits
    /// through `pipeline` once they clear `gate` (local durability +
    /// replica acks). Device errors are retried per `retry`; exhaustion or
    /// a permanent error poisons the log.
    pub fn spawn(
        rt: &Runtime,
        core: Arc<BufferCore>,
        device: Arc<dyn LogDevice>,
        pipeline: Arc<CommitPipeline>,
        gate: Arc<CommitGate>,
        policy: GroupCommitPolicy,
        retry: FlushRetryPolicy,
    ) -> FlushDaemon {
        let shared = FlushShared::new();
        let sh = Arc::clone(&shared);
        let co = Arc::clone(&core);
        let thread = rt.spawn("aether-flushd", move || {
            daemon_loop(sh, co, device, pipeline, gate, policy, retry)
        });
        FlushDaemon {
            shared,
            core,
            thread: Some(thread),
        }
    }

    /// Shared state (metrics, notification).
    pub fn shared(&self) -> &Arc<FlushShared> {
        &self.shared
    }

    /// Blocking durability wait; see [`FlushShared::flush_until`].
    pub fn flush_until(&self, lsn: Lsn) -> Result<()> {
        self.shared.flush_until(&self.core, lsn)
    }

    /// Non-blocking commit registration; see [`FlushShared::note_commit`].
    pub fn note_commit(&self, lsn: Lsn, policy_hint: &GroupCommitPolicy) {
        self.shared.note_commit(lsn, policy_hint);
    }

    /// Ask the daemon to flush everything released so far without waiting.
    pub fn kick(&self) {
        self.shared.kick(&self.core);
    }

    /// Stop the daemon after a final flush of all released bytes.
    pub fn shutdown(&mut self) {
        {
            let mut g = self.shared.inner.lock();
            if g.shutdown {
                return;
            }
            g.shutdown = true;
            self.shared.daemon_cv.notify_one();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        // Wake anyone still blocked in flush_until.
        let _g = self.shared.inner.lock();
        self.shared.waiter_cv.notify_all();
    }
}

impl Drop for FlushDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run `op`, retrying transient failures with exponential backoff per
/// `retry`. Returns the last error when the budget is exhausted or the
/// failure is permanent.
fn with_retry<T>(retry: &FlushRetryPolicy, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut backoff = retry.initial_backoff;
    let mut attempt = 1u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < retry.max_attempts => {
                runtime::sleep(backoff);
                backoff = (backoff * 2).min(retry.max_backoff);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Enter the terminal poisoned-log state: record the reason, release every
/// blocked flusher with an error, fail all pending pipelined commits, and
/// poison the commit gate so replication waiters unblock too.
fn poison_log(
    shared: &FlushShared,
    pipeline: &CommitPipeline,
    gate: &CommitGate,
    error: &AetherError,
) {
    {
        let mut g = shared.inner.lock();
        if g.poisoned.is_none() {
            g.poisoned = Some(error.to_string());
        }
        shared.waiter_cv.notify_all();
    }
    pipeline.fail_pending();
    gate.poison();
}

#[allow(clippy::too_many_arguments)]
fn daemon_loop(
    shared: Arc<FlushShared>,
    core: Arc<BufferCore>,
    device: Arc<dyn LogDevice>,
    pipeline: Arc<CommitPipeline>,
    gate: Arc<CommitGate>,
    policy: GroupCommitPolicy,
    retry: FlushRetryPolicy,
) {
    let poll = policy
        .max_wait
        .min(Duration::from_micros(500))
        .max(Duration::from_micros(50));
    // Group-commit batching window: once triggered, linger briefly so
    // commits arriving "just behind" the trigger join this flush instead of
    // waiting a full device sync. Scaled to the device (zero for ramdisks —
    // no added latency; a quarter sync for magnetic-class devices). This is
    // the "aggregating multiple requests for log flush into a single I/O"
    // of group commit [Helland et al.], and without it a slow device
    // degrades to ~1 commit per sync.
    let batch_window = device.nominal_latency() / 4;
    let max_wait_ns = u64::try_from(policy.max_wait.as_nanos()).unwrap_or(u64::MAX);
    let tel = Arc::clone(core.telemetry());
    loop {
        // Decide whether (and how far) to flush.
        let t_trigger;
        {
            let mut g = shared.inner.lock();
            loop {
                let released = core.released_lsn();
                let durable = core.durable_lsn();
                let pending_bytes = released.raw() - durable.raw();
                let timed_out = g
                    .oldest
                    .map(|t| runtime::monotonic_ns().saturating_sub(t) >= max_wait_ns)
                    .unwrap_or(false);
                // A request may be for a record whose release was handed to
                // a predecessor that is still filling: with nothing released
                // to write there is nothing to do for it yet, and the poll
                // below looks again.
                let trigger = (g.requested > durable && pending_bytes > 0)
                    || g.pending_commits >= policy.max_pending_commits
                    || pending_bytes >= policy.max_pending_bytes
                    || (pending_bytes > 0 && timed_out)
                    || (pending_bytes > 0 && core.space_waiters() > 0)
                    || (g.shutdown && pending_bytes > 0);
                if g.shutdown && pending_bytes == 0 {
                    return;
                }
                if trigger {
                    g.pending_commits = 0;
                    g.oldest = None;
                    t_trigger = tel.ts();
                    if t_trigger.is_some() {
                        let ids = tel.ids();
                        tel.gauge_set(ids.flush_queue_depth, pipeline.pending() as i64);
                        tel.gauge_set(ids.flush_pending_bytes, pending_bytes as i64);
                    }
                    break;
                }
                (g, _) = shared.daemon_cv.wait_for(&shared.inner, g, poll);
            }
        }

        // Batch: give trailing committers a moment to get their records in.
        if !batch_window.is_zero() {
            runtime::sleep(batch_window);
        }

        // Drain [durable, target) to the device and sync. The window is at
        // most one ring lap (writers cannot reserve past durable+capacity),
        // so it is at most two contiguous ring slices — handed to the device
        // as-is, zero copies.
        let target = core.released_lsn();
        let at = core.durable_lsn();
        if at < target {
            let t_drain = tel.ts();
            if !device.discards() {
                // SAFETY: [at, target) is published (≤ released) and this
                // daemon is the only reclaimer — durable does not advance
                // until after the write below completes.
                //
                // Retry note: a failed write may have left a prefix on the
                // device (torn append). Re-running the same vectored write
                // would duplicate that prefix, so each retry re-derives the
                // remaining window from the device's own length — the
                // stream offset equals the LSN, making the write idempotent.
                let write = with_retry(&retry, || {
                    let done = device.len().max(at.raw());
                    if done >= target.raw() {
                        return Ok(()); // a previous attempt landed everything
                    }
                    let from = Lsn(done);
                    let (head, tail) = unsafe { core.released_slices(from, target.since(from)) };
                    if tail.is_empty() {
                        device.write_vectored(&[head])
                    } else {
                        device.write_vectored(&[head, tail])
                    }
                });
                if let Err(e) = write {
                    // Permanent device failure (or retry budget exhausted):
                    // the terminal poisoned-log state. Pending committers
                    // and blocked flushers get an `Err`, not a hang.
                    poison_log(&shared, &pipeline, &gate, &e);
                    return;
                }
            }
            if let Err(e) = with_retry(&retry, || device.sync()) {
                poison_log(&shared, &pipeline, &gate, &e);
                return;
            }
            shared.flushes.fetch_add(1, Ordering::Relaxed);
            shared
                .flushed_bytes
                .fetch_add(target.since(core.durable_lsn()), Ordering::Relaxed);
            if let Some(t0) = t_drain {
                let now = runtime::monotonic_ns();
                let ids = tel.ids();
                tel.record(ids.flush_write_bytes, target.since(at));
                tel.record(ids.flush_drain_ns, now.saturating_sub(t0));
                if let Some(tt) = t_trigger {
                    tel.span(Stage::FlushEnqueue, target, tt, t0);
                }
                tel.span(Stage::DeviceWrite, target, t0, now);
                tel.event(Stage::Durable, target, now);
            }
            core.advance_durable(target);
        }

        // Reattach: complete pipelined commits that are both durable and
        // sufficiently replicated (the gate is transparent without a
        // policy), wake blocking flushers, and nudge gate waiters.
        let completed = pipeline.complete_upto(gate.effective(target));
        if completed > 0 {
            tel.record(tel.ids().commit_group_size, completed as u64);
        }
        {
            let mut g = shared.inner.lock();
            // A commit beyond `target` (registered before its handed-off
            // release was published) is still unserviced: keep the
            // `max_wait` clock running for it, or nothing would trigger
            // its flush.
            if g.oldest.is_none() && g.noted > target {
                g.oldest = Some(runtime::monotonic_ns());
            }
            shared.waiter_cv.notify_all();
        }
        gate.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BaselineBuffer, LogBuffer};
    use crate::commit::{CommitAction, CommitHandle};
    use crate::config::LogConfig;
    use crate::device::SimDevice;
    use crate::record::RecordKind;

    fn setup(
        latency_us: u64,
    ) -> (
        Arc<BufferCore>,
        Arc<SimDevice>,
        Arc<CommitPipeline>,
        FlushDaemon,
        BaselineBuffer,
    ) {
        let cfg = LogConfig::default().with_buffer_size(1 << 16);
        let core = BufferCore::new(&cfg);
        let device = Arc::new(SimDevice::new(Duration::from_micros(latency_us)));
        let pipeline = Arc::new(CommitPipeline::new());
        let daemon = FlushDaemon::spawn(
            &Runtime::default(),
            Arc::clone(&core),
            device.clone() as Arc<dyn LogDevice>,
            Arc::clone(&pipeline),
            Arc::new(CommitGate::new()),
            GroupCommitPolicy::default(),
            FlushRetryPolicy::default(),
        );
        let buf = BaselineBuffer::new(Arc::clone(&core));
        (core, device, pipeline, daemon, buf)
    }

    #[test]
    fn flush_until_makes_bytes_durable() {
        let (core, device, _p, daemon, buf) = setup(0);
        let lsn = buf.insert(RecordKind::Filler, 1, Lsn::ZERO, &[7; 100]);
        let end = core.released_lsn();
        daemon.flush_until(end).unwrap();
        assert!(core.durable_lsn() >= end);
        assert_eq!(device.len(), end.raw());
        assert!(lsn < end);
        assert!(daemon.shared().flush_count() >= 1);
        assert!(daemon.shared().flushed_bytes() >= 100);
    }

    #[test]
    fn pipelined_commits_complete_without_blocking() {
        let (core, _d, pipeline, daemon, buf) = setup(100);
        let mut handles = vec![];
        for i in 0..10u64 {
            buf.insert(RecordKind::Update, i, Lsn::ZERO, &[1; 80]);
            buf.insert(RecordKind::Commit, i, Lsn::ZERO, &[]);
            let end = core.released_lsn();
            let (h, st) = CommitHandle::new();
            pipeline.submit(end, CommitAction::Notify(st));
            daemon.note_commit(end, &GroupCommitPolicy::default());
            handles.push(h);
        }
        daemon.kick();
        for h in handles {
            assert!(h.wait());
        }
        assert_eq!(pipeline.completed(), 10);
        // Group commit: far fewer syncs than commits.
        assert!(daemon.shared().flush_count() <= 10);
    }

    #[test]
    fn time_policy_flushes_without_requests() {
        let cfg = LogConfig::default().with_buffer_size(1 << 16);
        let core = BufferCore::new(&cfg);
        let device = Arc::new(SimDevice::new(Duration::ZERO));
        let pipeline = Arc::new(CommitPipeline::new());
        let policy = GroupCommitPolicy {
            max_pending_commits: 1_000_000,
            max_pending_bytes: u64::MAX,
            max_wait: Duration::from_millis(5),
        };
        let daemon = FlushDaemon::spawn(
            &Runtime::default(),
            Arc::clone(&core),
            device.clone() as Arc<dyn LogDevice>,
            pipeline,
            Arc::new(CommitGate::new()),
            policy.clone(),
            FlushRetryPolicy::default(),
        );
        let buf = BaselineBuffer::new(Arc::clone(&core));
        buf.insert(RecordKind::Filler, 1, Lsn::ZERO, &[0; 64]);
        let target = core.released_lsn();
        daemon.note_commit(target, &policy); // starts the T clock
                                             // Durable-watch notification instead of a sleep-poll loop.
        let durable = core.wait_durable_timeout(target, Duration::from_millis(500));
        assert_eq!(durable, target, "T policy must fire");
    }

    #[test]
    fn shutdown_drains_released_bytes() {
        let (core, device, _p, mut daemon, buf) = setup(0);
        for _ in 0..50 {
            buf.insert(RecordKind::Filler, 0, Lsn::ZERO, &[3; 200]);
        }
        let end = core.released_lsn();
        daemon.shutdown();
        assert_eq!(core.durable_lsn(), end);
        assert_eq!(device.len(), end.raw());
        // Idempotent.
        daemon.shutdown();
    }

    #[test]
    fn vectored_drain_copies_nothing_and_survives_wrap() {
        // ~200 KB through a 64 KiB ring: every flush window shape occurs,
        // including wrapped ones that drain as two slices.
        let (core, device, _p, daemon, buf) = setup(0);
        let payload = vec![9u8; 1000];
        for _ in 0..200 {
            buf.insert(RecordKind::Filler, 0, Lsn::ZERO, &payload);
        }
        daemon.flush_until(core.released_lsn()).unwrap();
        assert_eq!(device.len(), core.released_lsn().raw());
        assert_eq!(
            core.stats.snapshot().scratch_bytes,
            0,
            "the vectored drain must not stage bytes through a scratch buffer"
        );
        // The device stream is record-decodable end to end.
        let contents = device.contents();
        let mut at = 0usize;
        let mut n = 0;
        while at < contents.len() {
            let h = crate::record::RecordHeader::decode(
                contents[at..at + crate::record::HEADER_SIZE]
                    .try_into()
                    .unwrap(),
            )
            .expect("well-formed header");
            let p = &contents[at + crate::record::HEADER_SIZE
                ..at + crate::record::HEADER_SIZE + h.payload_len as usize];
            assert!(h.verify(p), "frame CRC must hold at offset {at}");
            at += h.total_len as usize;
            n += 1;
        }
        assert_eq!(n, 200);
    }

    /// A device whose `sync` fails the first `fail_syncs` times with a
    /// transient error, and whose failure kind flips to permanent (EIO)
    /// when `permanent` is set.
    struct FlakyDevice {
        inner: SimDevice,
        fail_syncs: AtomicU64,
        permanent: bool,
    }

    impl FlakyDevice {
        fn new(fail_syncs: u64, permanent: bool) -> FlakyDevice {
            FlakyDevice {
                inner: SimDevice::new(Duration::ZERO),
                fail_syncs: AtomicU64::new(fail_syncs),
                permanent,
            }
        }
    }

    impl LogDevice for FlakyDevice {
        fn append(&self, data: &[u8]) -> Result<()> {
            self.inner.append(data)
        }
        fn write_vectored(&self, bufs: &[&[u8]]) -> Result<()> {
            self.inner.write_vectored(bufs)
        }
        fn sync(&self) -> Result<()> {
            let left = self.fail_syncs.load(Ordering::SeqCst);
            if left > 0 || self.permanent {
                self.fail_syncs
                    .store(left.saturating_sub(1), Ordering::SeqCst);
                let e = if self.permanent {
                    std::io::Error::from_raw_os_error(5) // EIO: permanent
                } else {
                    std::io::Error::new(std::io::ErrorKind::Interrupted, "flaky sync")
                };
                return Err(e.into());
            }
            self.inner.sync()
        }
        fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<usize> {
            self.inner.read_at(offset, dst)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    fn flaky_setup(
        device: Arc<FlakyDevice>,
    ) -> (
        Arc<BufferCore>,
        Arc<CommitPipeline>,
        FlushDaemon,
        BaselineBuffer,
    ) {
        let cfg = LogConfig::default().with_buffer_size(1 << 16);
        let core = BufferCore::new(&cfg);
        let pipeline = Arc::new(CommitPipeline::new());
        let retry = FlushRetryPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(100),
        };
        let daemon = FlushDaemon::spawn(
            &Runtime::default(),
            Arc::clone(&core),
            device as Arc<dyn LogDevice>,
            Arc::clone(&pipeline),
            Arc::new(CommitGate::new()),
            GroupCommitPolicy::default(),
            retry,
        );
        let buf = BaselineBuffer::new(Arc::clone(&core));
        (core, pipeline, daemon, buf)
    }

    #[test]
    fn transient_sync_errors_are_retried_and_committers_unblock_ok() {
        let device = Arc::new(FlakyDevice::new(3, false));
        let (core, pipeline, daemon, buf) = flaky_setup(Arc::clone(&device));
        buf.insert(RecordKind::Commit, 1, Lsn::ZERO, &[]);
        let end = core.released_lsn();
        let (h, st) = CommitHandle::new();
        pipeline.submit(end, CommitAction::Notify(st));
        daemon.kick();
        assert!(daemon.flush_until(end).is_ok(), "retries must absorb blips");
        assert!(h.wait(), "committer unblocks with Ok after retried flush");
        assert!(daemon.shared().poisoned().is_none());
        assert_eq!(pipeline.failed(), 0);
    }

    #[test]
    fn permanent_sync_error_poisons_and_fails_pending_committers() {
        let device = Arc::new(FlakyDevice::new(0, true));
        let (core, pipeline, daemon, buf) = flaky_setup(Arc::clone(&device));
        buf.insert(RecordKind::Commit, 1, Lsn::ZERO, &[]);
        let end = core.released_lsn();
        let (h, st) = CommitHandle::new();
        pipeline.submit(end, CommitAction::Notify(st));
        daemon.kick();
        let err = daemon.flush_until(end);
        assert!(
            matches!(err, Err(AetherError::Poisoned { .. })),
            "waiter must get Err, not a hang: {err:?}"
        );
        assert!(!h.wait(), "pending committer fails, never completes");
        assert!(daemon.shared().poisoned().is_some());
        assert_eq!(pipeline.failed(), 1);
        // Subsequent waits fail fast too.
        assert!(matches!(
            daemon.flush_until(end.advance(1)),
            Err(AetherError::Poisoned { .. })
        ));
    }

    #[test]
    fn exhausted_retry_budget_poisons() {
        // More transient failures than the 5-attempt budget.
        let device = Arc::new(FlakyDevice::new(50, false));
        let (core, _pipeline, daemon, buf) = flaky_setup(Arc::clone(&device));
        buf.insert(RecordKind::Filler, 1, Lsn::ZERO, &[0; 32]);
        let end = core.released_lsn();
        assert!(matches!(
            daemon.flush_until(end),
            Err(AetherError::Poisoned { .. })
        ));
    }

    #[test]
    fn back_pressure_resolves_via_daemon() {
        // Ring smaller than the data volume: inserts must block on space and
        // the daemon must reclaim.
        let (core, device, _p, _daemon, buf) = setup(0);
        let payload = vec![5u8; 4000];
        for _ in 0..100 {
            buf.insert(RecordKind::Filler, 0, Lsn::ZERO, &payload);
        }
        // 100 * ~4KB ≈ 400KB through a 64KB ring.
        assert!(core.released_lsn().raw() > (1 << 16));
        let _ = device;
    }
}
