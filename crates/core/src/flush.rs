//! The flush daemon: the only thread that ever waits on log I/O (§4.1).
//!
//! "A daemon thread triggers log flushes using policies similar to those used
//! in group commit (e.g. flush every X transactions, L bytes logged, or T
//! time elapsed, whichever comes first). After each I/O completion, the
//! daemon notifies the agent threads of newly-hardened transactions."
//!
//! The daemon is **work-conserving**: whenever it is idle and somebody waits
//! on bytes it could write — a pipelined commit registered through
//! [`FlushShared::note_commit`], a blocking [`BufferCore::flush_until`] —
//! it flushes at once. Commits that arrive while a flush is in flight are
//! the next group; that is where group commit's "aggregating multiple
//! requests for log flush into a single I/O" comes from, not from a timer on
//! an idle device. X, L and T ([`GroupCommitPolicy`]) are upper bounds: X and
//! L stop a group from growing while the daemon lets runnable committers
//! run, L and T flush bytes nobody is waiting on.
//!
//! The daemon drains `[durable, released)` straight out of the ring: the
//! window is at most one ring lap, so it is at most two contiguous ring
//! slices, which go to [`LogDevice::write_vectored`] with **no scratch
//! copy** — the payload memcpy at insert is the only time log bytes are
//! copied in memory. It then syncs, advances the durable watermark
//! (reclaiming ring space) and completes pending commits via the
//! [`CommitPipeline`].
//!
//! ## Park / notify
//!
//! Everything the daemon sleeps on is decided under `FlushInner`'s lock.
//! It evaluates its trigger holding the lock and, finding none, sets
//! `parked` and waits on `daemon_cv` — which gives the lock up only once the
//! daemon is a registered waiter. A client changes what the daemon waits for
//! under the same lock and notifies iff it finds `parked` set (clearing it,
//! so one park costs one notify). Either the client's change came before the
//! daemon's look and the daemon saw it, or it came after the daemon parked
//! and the client saw `parked`: no wakeup is lost, and a running daemon costs
//! its clients no syscall. One input changes outside the lock: a commit
//! whose release was handed to a predecessor that is still filling is
//! registered *before* its bytes are released, and nothing runs when they
//! are. For that case alone the daemon looks again after `HANDOFF_RELOOK`.
//!
//! The daemon's clients do not wait here. Whoever needs an LSN durable — a
//! blocking committer, an inserter out of ring space — raises `wanted` and
//! then waits on the durable watermark itself
//! ([`BufferCore::flush_until`]), which is closed when the daemon poisons
//! the log or shuts down.

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

/// How long the daemon parks before looking again for the released bytes of
/// a commit that was registered ahead of its handed-off release. The
/// predecessor that publishes them is mid-`memcpy`, so they are normally
/// there on the first look.
const HANDOFF_RELOOK: Duration = Duration::from_micros(50);

#[derive(Debug, Default)]
struct FlushInner {
    /// Highest LSN somebody is waiting to see durable: blocking flush
    /// requests and registered pipelined commits alike. It may be past
    /// `released`: a commit record's release can be handed to a predecessor
    /// that is still filling.
    wanted: Lsn,
    /// Pipelined commits registered since the daemon last started a drain
    /// (the "X transactions" bound on a growing group).
    pending_commits: usize,
    /// The daemon is in its parked wait. Whoever changes what it waits for
    /// clears the flag and notifies `daemon_cv`.
    parked: bool,
    shutdown: bool,
}

/// Shared state between the daemon thread and its clients.
#[derive(Debug, Default)]
pub struct FlushShared {
    inner: Mutex<FlushInner>,
    daemon_cv: RtCondvar,
    flushes: AtomicU64,
    flushed_bytes: AtomicU64,
}

impl FlushShared {
    /// Wake the daemon if it is parked; `g` proves the caller changed what
    /// it waits for under the lock.
    fn unpark(&self, g: &mut FlushInner) {
        if std::mem::take(&mut g.parked) {
            self.daemon_cv.notify_one();
        }
    }

    /// Have the daemon make `lsn` durable as soon as it is released, without
    /// waiting for it. Not a commit: the daemon gives the caller no yield to
    /// bring more work, since its thread is about to block.
    pub(crate) fn want(&self, lsn: Lsn) {
        let mut g = self.inner.lock();
        g.wanted = g.wanted.max(lsn);
        self.unpark(&mut g);
    }

    /// Register a pipelined commit waiting for `lsn`. An idle daemon starts
    /// on it at once; a busy one takes it with its next group. Non-blocking
    /// (flush pipelining), and no syscall unless the daemon is parked.
    pub fn note_commit(&self, lsn: Lsn) {
        let mut g = self.inner.lock();
        g.pending_commits += 1;
        g.wanted = g.wanted.max(lsn);
        self.unpark(&mut g);
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
        let shared = Arc::<FlushShared>::default();
        core.attach_flusher(Arc::clone(&shared));
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

    /// Stop the daemon after a final flush of all released bytes.
    pub fn shutdown(&mut self) {
        {
            let mut g = self.shared.inner.lock();
            if g.shutdown {
                return;
            }
            g.shutdown = true;
            self.shared.unpark(&mut g);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        // Whatever is not durable by now never will be.
        self.core.close(None);
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
/// thread waiting on the durable watermark (blocked flushers get an error,
/// inserters out of ring space go on to fail at their commit), fail all
/// pending pipelined commits, and poison the commit gate so replication
/// waiters unblock too.
fn poison_log(
    core: &BufferCore,
    pipeline: &CommitPipeline,
    gate: &CommitGate,
    error: &AetherError,
) {
    core.close(Some(error.to_string()));
    pipeline.fail_pending();
    gate.poison();
}

/// Park until there are bytes to write and a reason to write them; `false`
/// once the log is shut down and everything released is durable.
///
/// Reasons, looked at under the lock: somebody waits on durability the
/// daemon can advance (the work-conserving rule; an inserter out of ring
/// space is one of them), L bytes are pending, T has passed since the daemon
/// went idle, or shutdown.
///
/// Before it drains for pipelined commits, the daemon gives other runnable
/// threads a turn for as long as each turn brings new commits: on a busy
/// host the yield hands the CPU to threads that are about to commit, so
/// their records join this group and they find the daemon running (no
/// notify, no park/wake cycle per commit); on an idle host the yield returns
/// at once. X and L end the growing of a group, so one flush costs at most
/// X yields. A blocked committer is not made to wait for a yield: its
/// thread has nothing more to add.
fn await_trigger(shared: &FlushShared, core: &BufferCore, policy: &GroupCommitPolicy) -> bool {
    let max_wait_ns = u64::try_from(policy.max_wait.as_nanos()).unwrap_or(u64::MAX);
    let mut g = shared.inner.lock();
    let idle_deadline = runtime::monotonic_ns().saturating_add(max_wait_ns);
    // Pipelined commits registered as of the last yield.
    let mut seen = 0;
    loop {
        let durable = core.durable_lsn();
        let pending_bytes = core.released_lsn().raw() - durable.raw();
        if g.shutdown {
            g.pending_commits = 0;
            return pending_bytes > 0;
        }
        if seen != g.pending_commits
            && g.pending_commits < policy.max_pending_commits
            && pending_bytes < policy.max_pending_bytes
        {
            seen = g.pending_commits;
            drop(g);
            runtime::yield_now();
            g = shared.inner.lock();
            continue;
        }
        let waited_on = g.wanted > durable;
        let now = runtime::monotonic_ns();
        if pending_bytes > 0
            && (waited_on || pending_bytes >= policy.max_pending_bytes || now >= idle_deadline)
        {
            g.pending_commits = 0;
            return true;
        }
        let nap = if pending_bytes > 0 {
            // T: bytes nobody waits on are written at most `max_wait` after
            // the daemon went idle.
            Duration::from_nanos(idle_deadline - now)
        } else if waited_on {
            // Somebody waits, yet nothing is released: their record's
            // release was handed to a predecessor that is still filling, and
            // no one tells the daemon when it lands.
            HANDOFF_RELOOK
        } else {
            policy.max_wait
        };
        g.parked = true;
        (g, _) = shared.daemon_cv.wait_for(&shared.inner, g, nap);
        g.parked = false;
    }
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
    let tel = Arc::clone(core.telemetry());
    while await_trigger(&shared, &core, &policy) {
        let t_trigger = tel.ts();
        if t_trigger.is_some() {
            let ids = tel.ids();
            let pending_bytes = core.released_lsn().raw() - core.durable_lsn().raw();
            tel.gauge_set(ids.flush_queue_depth, pipeline.pending() as i64);
            tel.gauge_set(ids.flush_pending_bytes, pending_bytes as i64);
        }

        // Drain [durable, target) to the device and sync. The window is at
        // most one ring lap (writers cannot reserve past durable+capacity),
        // so it is at most two contiguous ring slices — handed to the device
        // as-is, zero copies.
        let target = core.released_lsn();
        let at = core.durable_lsn();
        if at < target {
            let t_drain = tel.ts();
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
                poison_log(&core, &pipeline, &gate, &e);
                return;
            }
            if let Err(e) = with_retry(&retry, || device.sync()) {
                poison_log(&core, &pipeline, &gate, &e);
                return;
            }
            shared.flushes.fetch_add(1, Ordering::Relaxed);
            shared
                .flushed_bytes
                .fetch_add(target.since(at), Ordering::Relaxed);
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
        // policy), then wake the gate's waiters and the blocked flushers —
        // last, so that whoever this flush wakes finds its commits completed.
        let completed = pipeline.complete_upto(gate.effective(target));
        if completed > 0 {
            tel.record(tel.ids().commit_group_size, completed as u64);
        }
        gate.notify();
        core.notify_durable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferKind, LogBuffer};
    use crate::commit::{CommitAction, CommitHandle};
    use crate::config::LogConfig;
    use crate::device::{SimDevice, StallDevice};
    use crate::record::RecordKind;

    type Rig<D> = (
        Arc<BufferCore>,
        Arc<D>,
        Arc<CommitPipeline>,
        FlushDaemon,
        Arc<dyn LogBuffer>,
    );

    /// A 64 KiB ring, a daemon over `device`, and a baseline buffer.
    fn rig<D: LogDevice + 'static>(
        device: Arc<D>,
        policy: GroupCommitPolicy,
        retry: FlushRetryPolicy,
    ) -> Rig<D> {
        let cfg = LogConfig::default().with_buffer_size(1 << 16);
        let core = BufferCore::new(&cfg);
        let pipeline = Arc::new(CommitPipeline::new());
        let daemon = FlushDaemon::spawn(
            &Runtime::default(),
            Arc::clone(&core),
            device.clone() as Arc<dyn LogDevice>,
            Arc::clone(&pipeline),
            Arc::new(CommitGate::new()),
            policy,
            retry,
        );
        let buf = BufferKind::Baseline.build(Arc::clone(&core), &cfg);
        (core, device, pipeline, daemon, buf)
    }

    /// One record through the reservation path; returns its start LSN.
    fn put(buf: &dyn LogBuffer, kind: RecordKind, txn: u64, payload: &[u8]) -> Lsn {
        let mut slot = buf.reserve(kind, txn, Lsn::ZERO, payload.len());
        slot.write(payload);
        slot.release()
    }

    fn setup(latency_us: u64) -> Rig<SimDevice> {
        rig(
            Arc::new(SimDevice::new(Duration::from_micros(latency_us))),
            GroupCommitPolicy::default(),
            FlushRetryPolicy::default(),
        )
    }

    #[test]
    fn flush_until_makes_bytes_durable() {
        let (core, device, _p, daemon, buf) = setup(0);
        let lsn = put(&*buf, RecordKind::Filler, 1, &[7; 100]);
        let end = core.released_lsn();
        core.flush_until(end).unwrap();
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
            put(&*buf, RecordKind::Update, i, &[1; 80]);
            put(&*buf, RecordKind::Commit, i, &[]);
            let end = core.released_lsn();
            let (h, st) = CommitHandle::new();
            pipeline.submit(end, CommitAction::Notify(st));
            daemon.shared().note_commit(end);
            handles.push(h);
        }
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
        let buf = BufferKind::Baseline.build(Arc::clone(&core), &cfg);
        put(&*buf, RecordKind::Filler, 1, &[0; 64]);
        let target = core.released_lsn();
        daemon.shared().note_commit(target);
        // Durable-watch notification instead of a sleep-poll loop.
        let durable = core.wait_durable(target, Some(Duration::from_millis(500)));
        assert_eq!(durable, target, "T policy must fire");
    }

    #[test]
    fn shutdown_drains_released_bytes() {
        let (core, device, _p, mut daemon, buf) = setup(0);
        for _ in 0..50 {
            put(&*buf, RecordKind::Filler, 0, &[3; 200]);
        }
        let end = core.released_lsn();
        daemon.shutdown();
        assert_eq!(core.durable_lsn(), end);
        assert_eq!(device.len(), end.raw());
        // Idempotent.
        daemon.shutdown();
    }

    #[test]
    fn vectored_drain_survives_wrap() {
        // ~200 KB through a 64 KiB ring: every flush window shape occurs,
        // including wrapped ones that drain as two slices.
        let (core, device, _p, _daemon, buf) = setup(0);
        let payload = vec![9u8; 1000];
        for _ in 0..200 {
            put(&*buf, RecordKind::Filler, 0, &payload);
        }
        core.flush_until(core.released_lsn()).unwrap();
        assert_eq!(device.len(), core.released_lsn().raw());
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
        Arc<dyn LogBuffer>,
    ) {
        let retry = FlushRetryPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(100),
        };
        let (core, _, pipeline, daemon, buf) = rig(device, GroupCommitPolicy::default(), retry);
        (core, pipeline, daemon, buf)
    }

    #[test]
    fn transient_sync_errors_are_retried_and_committers_unblock_ok() {
        let device = Arc::new(FlakyDevice::new(3, false));
        let (core, pipeline, _daemon, buf) = flaky_setup(Arc::clone(&device));
        put(&*buf, RecordKind::Commit, 1, &[]);
        let end = core.released_lsn();
        let (h, st) = CommitHandle::new();
        pipeline.submit(end, CommitAction::Notify(st));
        assert!(core.flush_until(end).is_ok(), "retries must absorb blips");
        assert!(h.wait(), "committer unblocks with Ok after retried flush");
        assert!(core.poison_reason().is_none());
        assert_eq!(pipeline.failed(), 0);
    }

    #[test]
    fn permanent_sync_error_poisons_and_fails_pending_committers() {
        let device = Arc::new(FlakyDevice::new(0, true));
        let (core, pipeline, _daemon, buf) = flaky_setup(Arc::clone(&device));
        put(&*buf, RecordKind::Commit, 1, &[]);
        let end = core.released_lsn();
        let (h, st) = CommitHandle::new();
        pipeline.submit(end, CommitAction::Notify(st));
        let err = core.flush_until(end);
        assert!(
            matches!(err, Err(AetherError::Poisoned { .. })),
            "waiter must get Err, not a hang: {err:?}"
        );
        assert!(!h.wait(), "pending committer fails, never completes");
        assert!(core.poison_reason().is_some());
        assert_eq!(pipeline.failed(), 1);
        // Subsequent waits fail fast too.
        assert!(matches!(
            core.flush_until(end.advance(1)),
            Err(AetherError::Poisoned { .. })
        ));
    }

    #[test]
    fn exhausted_retry_budget_poisons() {
        // More transient failures than the 5-attempt budget.
        let device = Arc::new(FlakyDevice::new(50, false));
        let (core, _pipeline, _daemon, buf) = flaky_setup(Arc::clone(&device));
        put(&*buf, RecordKind::Filler, 1, &[0; 32]);
        let end = core.released_lsn();
        assert!(matches!(
            core.flush_until(end),
            Err(AetherError::Poisoned { .. })
        ));
    }

    #[test]
    fn no_wait_outlives_the_poison() {
        // A 4 KiB ring over a device whose sync never succeeds: the first
        // flush poisons the log with most of the ring unflushed. An inserter
        // out of ring space waits holding the insert lock; after the poison
        // nothing in the ring will ever be flushed, so it must go on and
        // learn of the failure at its commit.
        let log = Arc::new(
            crate::manager::LogManager::builder()
                .config(LogConfig::default().with_buffer_size(4096))
                .device_instance(Arc::new(FlakyDevice::new(0, true)))
                .build(),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let inserter = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let mut prev = Lsn::ZERO;
                for _ in 0..64 {
                    prev = log.insert(RecordKind::Update, 1, &[7; 200]);
                }
                let committed = log.commit(1, prev).wait();
                let flushed = log.flush_all();
                // The wait with no deadline and no flush request of its own.
                let durable = log.buffer().core().wait_durable(Lsn::MAX, None);
                tx.send((committed, flushed, durable)).unwrap();
            })
        };
        let (committed, flushed, durable) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a wait on the poisoned log outlived the poison");
        inserter.join().unwrap();
        assert!(!committed, "the commit fails, it does not hang");
        assert!(matches!(flushed, Err(AetherError::Poisoned { .. })));
        assert!(durable < log.released_lsn());
    }

    #[test]
    fn back_pressure_resolves_via_daemon() {
        // Ring smaller than the data volume: inserts must block on space and
        // the daemon must reclaim.
        let (core, device, _p, _daemon, buf) = setup(0);
        let payload = vec![5u8; 4000];
        for _ in 0..100 {
            put(&*buf, RecordKind::Filler, 0, &payload);
        }
        // 100 * ~4KB ≈ 400KB through a 64KB ring.
        assert!(core.released_lsn().raw() > (1 << 16));
        let _ = device;
    }

    /// A policy whose bounds never fire, so only the work-conserving rule
    /// (or the named field) can be what flushed.
    fn unbounded() -> GroupCommitPolicy {
        GroupCommitPolicy {
            max_pending_commits: usize::MAX,
            max_pending_bytes: u64::MAX,
            max_wait: Duration::from_secs(3600),
        }
    }

    fn stall_setup(policy: GroupCommitPolicy) -> Rig<StallDevice> {
        rig(
            Arc::new(StallDevice::new(Duration::ZERO)),
            policy,
            FlushRetryPolicy::default(),
        )
    }

    fn submit_commit(
        core: &BufferCore,
        pipeline: &CommitPipeline,
        daemon: &FlushDaemon,
        buf: &dyn LogBuffer,
        txn: u64,
    ) -> CommitHandle {
        put(buf, RecordKind::Commit, txn, &[]);
        let end = core.released_lsn();
        let (h, st) = CommitHandle::new();
        pipeline.submit(end, CommitAction::Notify(st));
        daemon.shared().note_commit(end);
        h
    }

    #[test]
    fn idle_commit_costs_the_device_not_a_timer() {
        // Virtual time: one commit on an idle log over a 100 µs device, with
        // T at an hour. Anything on the path between `note_commit` and the
        // completion besides the device would show as virtual time.
        let rt = Runtime::sim(11);
        let guard = rt.enter();
        let mut cfg = LogConfig::default().with_runtime(rt.clone());
        cfg.group_commit.max_wait = Duration::from_secs(3600);
        let log = crate::manager::LogManager::builder()
            .config(cfg)
            .device(crate::device::DeviceKind::Flash)
            .build();
        runtime::sleep(Duration::from_millis(3)); // the daemon is parked by now
        for txn in 0..3u64 {
            let t0 = runtime::monotonic_ns();
            assert!(log.commit(txn, Lsn::ZERO).wait());
            let dt = runtime::monotonic_ns() - t0;
            assert!(
                (100_000..=110_000).contains(&dt),
                "commit {txn} took {dt} ns of virtual time on a 100 µs device"
            );
            runtime::sleep(Duration::from_millis(1));
        }
        assert_eq!(log.flush_count(), 3);
        log.shutdown();
        drop(guard);
    }

    #[test]
    fn commits_during_a_flush_are_the_next_group() {
        let (core, device, pipeline, daemon, buf) = stall_setup(unbounded());
        device.hold();
        let first = submit_commit(&core, &pipeline, &daemon, &*buf, 0);
        device.wait_blocked(); // flush 1 is in flight
        let group: Vec<_> = (1..=10)
            .map(|txn| submit_commit(&core, &pipeline, &daemon, &*buf, txn))
            .collect();
        assert_eq!(daemon.shared().flush_count(), 0);
        assert!(!first.is_done() && group.iter().all(|h| !h.is_done()));
        device.release();
        assert!(first.wait());
        for h in &group {
            assert!(h.wait());
        }
        assert_eq!(
            daemon.shared().flush_count(),
            2,
            "ten commits that arrived during one flush share the next"
        );
        assert_eq!(pipeline.completed(), 11);
    }

    #[test]
    fn blocked_committers_share_the_next_flush() {
        // The blocking protocols group the same way, with no linger: whoever
        // calls `flush_until` during a flush is covered by the next one.
        let (core, device, _p, daemon, buf) = stall_setup(unbounded());
        device.hold();
        std::thread::scope(|s| {
            let committer = || {
                put(&*buf, RecordKind::Commit, 0, &[]);
                core.flush_until(core.released_lsn()).unwrap();
            };
            s.spawn(committer);
            device.wait_blocked(); // flush 1 is in flight
            for _ in 0..4 {
                s.spawn(committer);
            }
            while core.durable_waiters() < 5 {
                std::thread::yield_now();
            }
            device.release();
        });
        assert_eq!(daemon.shared().flush_count(), 2);
        assert_eq!(core.durable_lsn(), core.released_lsn());
    }

    #[test]
    fn bytes_nobody_waits_on_flush_by_t() {
        let policy = GroupCommitPolicy {
            max_wait: Duration::from_millis(5),
            ..unbounded()
        };
        let (core, _device, _p, _daemon, buf) = stall_setup(policy);
        put(&*buf, RecordKind::Filler, 1, &[0; 64]);
        let target = core.released_lsn();
        let durable = core.wait_durable(target, Some(Duration::from_secs(5)));
        assert_eq!(durable, target, "no commit, no request: T must fire");
    }

    #[test]
    fn bytes_nobody_waits_on_flush_by_l() {
        // T is an hour, so only L can flush what nobody asked for. The
        // daemon looks at L whenever it finishes a flush.
        let policy = GroupCommitPolicy {
            max_pending_bytes: 4096,
            ..unbounded()
        };
        let (core, device, _p, daemon, buf) = stall_setup(policy);
        device.hold();
        put(&*buf, RecordKind::Filler, 1, &[0; 64]);
        daemon.shared().want(core.released_lsn());
        device.wait_blocked();
        for _ in 0..3 {
            put(&*buf, RecordKind::Filler, 1, &[0; 2000]);
        }
        let target = core.released_lsn();
        device.release();
        let durable = core.wait_durable(target, Some(Duration::from_secs(5)));
        assert_eq!(durable, target, "6 KB pending against L = 4 KB");
        assert_eq!(daemon.shared().flush_count(), 2);
    }
}
