//! The flush daemon: the threads that wait on log I/O (§4.1).
//!
//! "A daemon thread triggers log flushes using policies similar to those used
//! in group commit (e.g. flush every X transactions, L bytes logged, or T
//! time elapsed, whichever comes first). After each I/O completion, the
//! daemon notifies the agent threads of newly-hardened transactions."
//!
//! The daemon is **work-conserving**: whenever a flusher is free and
//! somebody waits on bytes it could write — a pipelined commit registered
//! through [`FlushShared::note_commit`], a blocking
//! [`BufferCore::flush_until`] — it flushes at once. Commits that arrive
//! while no flusher is free are the next group; that is where group commit's
//! "aggregating multiple requests for log flush into a single I/O" comes
//! from, not from a timer on an idle device. X, L and T
//! ([`GroupCommitPolicy`]) are upper bounds: X and L stop a group from
//! growing while a flusher lets runnable committers run, L and T flush bytes
//! nobody is waiting on.
//!
//! ## Flushers, claim order and the ordered window
//!
//! [`LogDevice::sync`] may run beside another sync (the paper's devices are
//! "asynchronous I/O and high resolution timers", §6.1), so the daemon is
//! [`FLUSH_DEPTH`] flusher threads over one [`FlushShared`], each looping:
//! claim `[submitted, released)` and write it, one flusher at a time, so the
//! device sees appends in LSN order; sync outside the claim, so a commit that
//! arrives during a sync starts the next flush instead of waiting the sync
//! out; then advance `durable` — in claim order only, through a window of at
//! most `FLUSH_DEPTH` groups, to the end of the last group whose
//! predecessors all synced. A failed write or sync poisons the log and stops
//! every flusher: no later success ever covers bytes whose sync failed
//! (after a failed `fsync` the kernel may have dropped them). With
//! `FLUSH_DEPTH = 1` this is one thread that claims, writes, syncs and
//! completes in turn.
//!
//! A claim drains straight out of the ring: it lies within `[durable,
//! released)`, at most one ring lap, so it is at most two contiguous ring
//! slices, which go to [`LogDevice::write_vectored`] with **no scratch
//! copy** — the payload memcpy at insert is the only time log bytes are
//! copied in memory. Whoever advances `durable` (reclaiming ring space)
//! resolves the [`CommitPipeline`]'s subscribers the advance passed.
//!
//! ## Park / notify
//!
//! Everything a flusher sleeps on is decided under `FlushInner`'s lock: it
//! evaluates its trigger holding the lock and, finding none, counts itself
//! `parked` and waits on `daemon_cv`, which gives the lock up only once it is
//! a registered waiter. A client changes what flushers wait for under the
//! same lock and wakes one only if none is `awake` outside a device sync,
//! none is `waking` yet and the window has room. So either an awake flusher
//! looks after the change or the client wakes one: no wakeup is lost, a
//! running flusher costs its clients no syscall, and on a device that syncs
//! in no time a second flusher hardly ever wakes. A flusher that cannot
//! claim (another is writing, the window is full) leaves the claim to the
//! one holding it up, which looks again when done; flusher 0 alone keeps T's
//! clock while parked. One input changes outside the lock: a commit whose
//! release was handed to a predecessor that is still filling is registered
//! *before* its bytes are released. A flusher that finds such a want and
//! nothing released raises `ahead` to it before it parks, and the head of the
//! release order that publishes bytes from below `ahead` takes the lock and
//! wakes one (`FlushShared::released_from`). The flusher's raise-then-look
//! at `released` and the head's publish-then-look at `ahead` are a `SeqCst`
//! Dekker pair (the argument in `buffer/release.rs`), so one of the two sees
//! the other. `ahead` is compared with the watermark the head moved *from*,
//! so a want is never left waiting for a later want that is still unreleased.
//!
//! The daemon's clients do not wait here. Whoever needs an LSN durable — a
//! blocking committer, an inserter out of ring space — raises `wanted` and
//! then waits on the durable watermark itself
//! ([`BufferCore::flush_until`]), which is closed when the daemon poisons
//! the log or shuts down.

use crate::buffer::BufferCore;
use crate::commit::CommitPipeline;
use crate::config::GroupCommitPolicy;
use crate::device::LogDevice;
use crate::error::{AetherError, Result};
use crate::lsn::Lsn;
use crate::padded::CachePadded;
use crate::runtime::{self, lock, RtCondvar, Runtime};
use crate::telemetry::Stage;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Flush groups in flight at most — claimed, not yet durable — and so the
/// number of flusher threads.
pub const FLUSH_DEPTH: usize = 4;

#[derive(Debug, Default)]
struct FlushInner {
    /// Highest LSN somebody is waiting to see durable: blocking flush
    /// requests and registered pipelined commits alike. It may be past
    /// `released`: a commit record's release can be handed to a predecessor
    /// that is still filling.
    wanted: Lsn,
    /// Pipelined commits since the last claim (X, the bound on a group).
    pending_commits: usize,
    /// End of the bytes claimed so far: the next claim starts here.
    submitted: Lsn,
    /// Claimed groups, oldest first: end and whether its sync completed.
    in_flight: VecDeque<(Lsn, bool)>,
    /// The newest claim is being written; the next claim waits for it.
    writing: bool,
    /// A write or sync failed for good: nothing more becomes durable.
    failed: bool,
    /// Flushers running outside a device sync and the parked wait.
    awake: usize,
    /// Flushers in the parked wait.
    parked: usize,
    /// A parked flusher was notified and has not looked yet.
    waking: bool,
    shutdown: bool,
}

/// Shared state between the flusher threads and their clients.
#[derive(Debug, Default)]
pub struct FlushShared {
    inner: Mutex<FlushInner>,
    daemon_cv: RtCondvar,
    /// The highest want a flusher parked on while it was not released yet.
    /// Every head publish reads it; only such a flusher writes it.
    ahead: CachePadded<AtomicU64>,
}

impl FlushShared {
    /// Wake a parked flusher if none is awake outside a device sync and the
    /// window has room for another group; `g` proves the caller changed what
    /// flushers wait for under the lock.
    fn unpark(&self, g: &mut FlushInner) {
        if g.awake == 0 && g.parked > 0 && !g.waking && g.in_flight.len() < FLUSH_DEPTH {
            g.waking = true;
            self.daemon_cv.notify_one();
        }
    }

    /// The head of the release order published bytes from `from` on: wake a
    /// flusher if one parked on a want above `from` (see the module docs).
    #[inline]
    pub(crate) fn released_from(&self, from: Lsn) {
        if self.ahead.load(Ordering::SeqCst) > from.raw() {
            self.unpark(&mut lock(&self.inner));
        }
    }

    /// Have the daemon make `lsn` durable as soon as it is released, without
    /// waiting for it. Not a commit: the daemon gives the caller no yield to
    /// bring more work, since its thread is about to block.
    pub(crate) fn want(&self, lsn: Lsn) {
        let mut g = lock(&self.inner);
        g.wanted = g.wanted.max(lsn);
        self.unpark(&mut g);
    }

    /// Register a pipelined commit waiting for `lsn`. An idle flusher starts
    /// on it at once; a busy one takes it with its next group. Non-blocking
    /// (flush pipelining), and no syscall unless a flusher must be woken.
    pub fn note_commit(&self, lsn: Lsn) {
        self.note_commits(1, lsn);
    }

    /// [`FlushShared::note_commit`] for `n` commits, the last ending at
    /// `lsn`, under one lock.
    pub fn note_commits(&self, n: usize, lsn: Lsn) {
        let mut g = lock(&self.inner);
        g.pending_commits += n;
        g.wanted = g.wanted.max(lsn);
        self.unpark(&mut g);
    }
}

/// The flush daemon handle: owns the flusher threads.
pub struct FlushDaemon {
    shared: Arc<FlushShared>,
    core: Arc<BufferCore>,
    pipeline: Arc<CommitPipeline>,
    threads: Vec<runtime::JoinHandle<()>>,
}

impl std::fmt::Debug for FlushDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlushDaemon")
            .field("flushes", &self.flushes())
            .finish()
    }
}

impl FlushDaemon {
    /// Spawn the daemon over `core`/`device` under `rt`, completing commits
    /// through `pipeline` once they clear its gate (local durability +
    /// replica acks). Device errors are retried ([`FLUSH_ATTEMPTS`]);
    /// exhaustion or a permanent error poisons the log.
    pub fn spawn(
        rt: &Runtime,
        core: Arc<BufferCore>,
        device: Arc<dyn LogDevice>,
        pipeline: Arc<CommitPipeline>,
        policy: GroupCommitPolicy,
    ) -> FlushDaemon {
        let shared = Arc::new(FlushShared {
            inner: Mutex::new(FlushInner {
                submitted: core.durable_lsn(),
                in_flight: VecDeque::with_capacity(FLUSH_DEPTH),
                awake: FLUSH_DEPTH,
                ..FlushInner::default()
            }),
            ..FlushShared::default()
        });
        core.attach_flusher(Arc::clone(&shared));
        let flusher = Arc::new(Flusher {
            shared: Arc::clone(&shared),
            core: Arc::clone(&core),
            device,
            pipeline: Arc::clone(&pipeline),
            policy,
        });
        let threads = (0..FLUSH_DEPTH)
            .map(|id| {
                let f = Arc::clone(&flusher);
                rt.spawn("aether-flushd", move || f.run(id))
            })
            .collect();
        FlushDaemon {
            shared,
            core,
            pipeline,
            threads,
        }
    }

    /// Device syncs completed so far (the registry's `flush.flushes`).
    fn flushes(&self) -> u64 {
        let t = self.core.telemetry();
        t.count(t.ids().flush_flushes)
    }

    /// Shared state (commit registration, wake-ups).
    pub fn shared(&self) -> &Arc<FlushShared> {
        &self.shared
    }

    /// Stop the daemon after a final flush of all released bytes.
    pub fn shutdown(&mut self) {
        {
            let mut g = lock(&self.shared.inner);
            if g.shutdown {
                return;
            }
            g.shutdown = true;
            self.shared.daemon_cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Whatever is not durable by now never will be.
        self.core.close(None);
        self.pipeline.close();
    }
}

impl Drop for FlushDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Attempts per device write or sync (1 would be no retry). A transient
/// error (see [`AetherError::is_transient`]) is retried with exponential
/// backoff until the budget is spent; a permanent error, or a transient one
/// that exhausts it, poisons the log — pending committers are released
/// with [`AetherError::Poisoned`] instead of hanging.
pub const FLUSH_ATTEMPTS: u32 = 5;

/// Backoff before the first retry; it doubles per attempt.
const FLUSH_BACKOFF: Duration = Duration::from_micros(100);

/// Backoff ceiling.
const FLUSH_BACKOFF_MAX: Duration = Duration::from_millis(10);

/// Run `op`, retrying transient failures with exponential backoff, up to
/// [`FLUSH_ATTEMPTS`] attempts. Returns the last error when the budget is
/// exhausted or the failure is permanent.
fn with_retry<T>(mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut backoff = FLUSH_BACKOFF;
    let mut attempt = 1u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < FLUSH_ATTEMPTS => {
                runtime::sleep(backoff);
                backoff = (backoff * 2).min(FLUSH_BACKOFF_MAX);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// What every flusher thread shares: the daemon's state and its arguments.
struct Flusher {
    shared: Arc<FlushShared>,
    core: Arc<BufferCore>,
    device: Arc<dyn LogDevice>,
    pipeline: Arc<CommitPipeline>,
    policy: GroupCommitPolicy,
}

impl Flusher {
    /// Enter the terminal poisoned-log state: stop every flusher before a
    /// later sync can advance `durable` over the failed bytes, release every
    /// wait on the durable watermark, resolve every subscriber and handle
    /// (complete what is durable, fail the rest), and poison the commit gate
    /// so replication waiters unblock too.
    fn poison(&self, mut g: MutexGuard<'_, FlushInner>, error: &AetherError) {
        g.failed = true;
        drop(g);
        self.core.close(Some(error.to_string()));
        self.pipeline.close();
        self.pipeline.gate().poison();
    }

    /// Park until this flusher may claim bytes and has a reason to write
    /// them, then claim `[submitted, released)`; `None` once the log is
    /// poisoned, or shut down with nothing left for this flusher to claim.
    ///
    /// Reasons, looked at under the lock: somebody waits on durability a
    /// claim can advance (the work-conserving rule; an inserter out of ring
    /// space is one of them), L bytes are pending, T has passed since the
    /// flusher went idle, or shutdown. A flusher may claim when no other is
    /// writing and the window has room.
    ///
    /// Before it claims for pipelined commits, the flusher gives other
    /// runnable threads a turn for as long as each turn brings new commits:
    /// on a busy host the yield hands the CPU to threads that are about to
    /// commit, so their records join this group and they find a flusher
    /// running (no notify, no park/wake cycle per commit); on an idle host
    /// the yield returns at once. X and L end the growing of a group, so one
    /// flush costs at most X yields. A blocked committer is not made to wait
    /// for a yield: its thread has nothing more to add.
    fn await_trigger(&self, id: usize) -> Option<(Lsn, Lsn)> {
        let (shared, policy) = (&*self.shared, &self.policy);
        let max_wait_ns = u64::try_from(policy.max_wait.as_nanos()).unwrap_or(u64::MAX);
        let mut g = lock(&shared.inner);
        let idle_deadline = runtime::monotonic_ns().saturating_add(max_wait_ns);
        // Pipelined commits registered as of the last yield.
        let mut seen = 0;
        loop {
            let pending_bytes = self.core.released_lsn().raw() - g.submitted.raw();
            let free = !g.writing && g.in_flight.len() < FLUSH_DEPTH;
            if g.failed || (g.shutdown && !(free && pending_bytes > 0)) {
                // Whoever is writing or syncing claims the rest.
                return None;
            }
            if free
                && seen != g.pending_commits
                && g.pending_commits < policy.max_pending_commits
                && pending_bytes < policy.max_pending_bytes
            {
                seen = g.pending_commits;
                drop(g);
                runtime::yield_now();
                g = lock(&shared.inner);
                continue;
            }
            let waited_on = g.wanted > g.submitted;
            let now = runtime::monotonic_ns();
            if free
                && pending_bytes > 0
                && (g.shutdown
                    || waited_on
                    || pending_bytes >= policy.max_pending_bytes
                    || now >= idle_deadline)
            {
                let claim = (g.submitted, self.core.released_lsn());
                g.submitted = claim.1;
                g.writing = true;
                g.pending_commits = 0;
                g.in_flight.push_back((claim.1, false));
                return Some(claim);
            }
            if waited_on && pending_bytes == 0 {
                // Somebody waits, yet nothing is released: their record's
                // release was handed to a predecessor that is still filling.
                // Its publish wakes a flusher unless it came before this look.
                shared.ahead.fetch_max(g.wanted.raw(), Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if self.core.released_lsn() > g.submitted {
                    continue;
                }
            }
            let nap = if free && pending_bytes > 0 {
                // T: bytes nobody waits on are written at most `max_wait`
                // after the flusher went idle.
                Some(Duration::from_nanos(idle_deadline - now))
            } else if id == 0 {
                Some(policy.max_wait)
            } else {
                None
            };
            g.awake -= 1;
            g.parked += 1;
            g = match nap {
                Some(nap) => shared.daemon_cv.wait_for(&shared.inner, g, nap).0,
                None => shared.daemon_cv.wait(&shared.inner, g),
            };
            g.parked -= 1;
            g.awake += 1;
            g.waking = false;
        }
    }

    /// One flusher thread: claim, write, sync, advance, complete.
    fn run(&self, id: usize) {
        let tel = Arc::clone(self.core.telemetry());
        while let Some((at, target)) = self.await_trigger(id) {
            let t_trigger = tel.ts();
            if t_trigger.is_some() {
                let ids = tel.ids();
                tel.gauge_set(ids.flush_queue_depth, self.pipeline.pending() as i64);
                tel.gauge_set(ids.flush_pending_bytes, target.since(at) as i64);
            }

            // Write the claim [at, target) to the device. It is at most one
            // ring lap (writers cannot reserve past durable+capacity), so it
            // is at most two contiguous ring slices — handed to the device
            // as-is, zero copies.
            let t_drain = tel.ts();
            // SAFETY: [at, target) is published (≤ released) and stays
            // unreclaimed until this group's sync completes: `durable`
            // advances in claim order only, and only through synced groups.
            //
            // Retry note: a failed write may have left a prefix on the
            // device (torn append). Re-running the same vectored write would
            // duplicate that prefix, so each retry re-derives the remaining
            // window from the device's own length — the stream offset equals
            // the LSN, and no other flusher writes until this one is done.
            let write = with_retry(|| {
                let done = self.device.len().max(at.raw());
                if done >= target.raw() {
                    return Ok(()); // a previous attempt landed everything
                }
                let from = Lsn(done);
                let (head, tail) = unsafe { self.core.released_slices(from, target.since(from)) };
                if tail.is_empty() {
                    self.device.write_vectored(&[head])
                } else {
                    self.device.write_vectored(&[head, tail])
                }
            });
            let mut g = lock(&self.shared.inner);
            g.writing = false;
            if let Err(e) = write {
                // Permanent device failure (or retry budget exhausted): the
                // terminal poisoned-log state. Pending committers and
                // blocked flushers get an `Err`, not a hang.
                return self.poison(g, &e);
            }
            g.awake -= 1;
            drop(g);
            let synced = with_retry(|| self.device.sync());
            let mut g = lock(&self.shared.inner);
            g.awake += 1;
            if let Err(e) = synced {
                return self.poison(g, &e);
            }
            if g.failed {
                return;
            }
            let tel = self.core.telemetry();
            tel.inc(tel.ids().flush_flushes);
            tel.add(tel.ids().flush_flushed_bytes, target.since(at));
            if let Some(group) = g.in_flight.iter_mut().find(|(end, _)| *end == target) {
                group.1 = true;
            }
            let mut durable = None;
            while let Some(&(end, true)) = g.in_flight.front() {
                g.in_flight.pop_front();
                durable = Some(end);
            }
            if let Some(end) = durable {
                self.core.advance_durable(end);
            }
            drop(g);
            if let Some(t0) = t_drain {
                let now = runtime::monotonic_ns();
                let ids = tel.ids();
                tel.record(ids.flush_write_bytes, target.since(at));
                tel.record(ids.flush_drain_ns, now.saturating_sub(t0));
                if let Some(tt) = t_trigger {
                    tel.span(Stage::FlushEnqueue, target, tt, t0);
                }
                tel.span(Stage::DeviceWrite, target, t0, now);
                if let Some(end) = durable {
                    tel.event(Stage::Durable, end, now);
                }
            }

            // Reattach: resolve the subscribers whose commits are now both
            // durable and sufficiently replicated (the gate is transparent
            // without a policy), one call each, and wake the gate's waiters;
            // then the blocked flushers — last, so that whoever this advance
            // wakes finds its commits completed. A group synced ahead of its
            // predecessor leaves this to the flusher of the predecessor.
            if let Some(end) = durable {
                let gate = self.pipeline.gate();
                let completed = self.pipeline.advance(gate.effective(end));
                if completed > 0 {
                    tel.record(tel.ids().commit_group_size, completed as u64);
                }
                self.core.notify_durable();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferKind, LogBuffer};
    use crate::commit::{CommitGate, CommitHandle, Tally};
    use crate::config::LogConfig;
    use crate::device::{DeviceFault, FaultDevice, SimDevice};
    use crate::manager::LogManager;
    use crate::record::RecordKind;

    /// An empty record registered as a commit, and a handle on it.
    fn commit(log: &LogManager, txn: u64) -> CommitHandle {
        let (_, end) = log.insert_payload::<[u8]>(RecordKind::Filler, txn, Lsn::ZERO, &[]);
        log.note_commit(end);
        log.handle(end)
    }

    type Rig<D> = (
        Arc<BufferCore>,
        Arc<D>,
        Arc<CommitPipeline>,
        FlushDaemon,
        Arc<dyn LogBuffer>,
    );

    /// A 64 KiB ring, a daemon over `device`, and a baseline buffer.
    fn rig<D: LogDevice + 'static>(device: Arc<D>, policy: GroupCommitPolicy) -> Rig<D> {
        let cfg = LogConfig::default().with_buffer_size(1 << 16);
        let core = BufferCore::new(&cfg);
        let pipeline = Arc::new(CommitPipeline::new(
            Arc::clone(&core),
            Arc::new(CommitGate::new()),
        ));
        let daemon = FlushDaemon::spawn(
            &Runtime::default(),
            Arc::clone(&core),
            device.clone() as Arc<dyn LogDevice>,
            Arc::clone(&pipeline),
            policy,
        );
        let buf = BufferKind::Baseline.build(Arc::clone(&core), &cfg);
        (core, device, pipeline, daemon, buf)
    }

    /// Hand a commit ending at `end` to a tally of its own, as a subscriber
    /// would; a handle on it.
    fn watch(pipeline: &Arc<CommitPipeline>, end: Lsn) -> CommitHandle {
        let tally = Arc::new(Tally::default());
        pipeline.subscribe(tally.clone());
        tally.add(end);
        pipeline.watch(&*tally, end);
        CommitHandle::new(pipeline, end)
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
        assert!(daemon.flushes() >= 1);
        let t = core.telemetry();
        assert!(t.count(t.ids().flush_flushed_bytes) >= 100);
    }

    #[test]
    fn pipelined_commits_complete_without_blocking() {
        let (core, _d, pipeline, daemon, buf) = setup(100);
        let mut handles = vec![];
        for i in 0..10u64 {
            put(&*buf, RecordKind::Filler, i, &[1; 80]);
            put(&*buf, RecordKind::Filler, i, &[]);
            let end = core.released_lsn();
            let h = watch(&pipeline, end);
            daemon.shared().note_commit(end);
            handles.push(h);
        }
        for h in handles {
            assert!(h.wait());
        }
        assert_eq!(pipeline.completed(), 10);
        // Group commit: far fewer syncs than commits.
        assert!(daemon.flushes() <= 10);
    }

    #[test]
    fn time_policy_flushes_without_requests() {
        let cfg = LogConfig::default().with_buffer_size(1 << 16);
        let core = BufferCore::new(&cfg);
        let device = Arc::new(SimDevice::new(Duration::ZERO));
        let pipeline = Arc::new(CommitPipeline::new(
            Arc::clone(&core),
            Arc::new(CommitGate::new()),
        ));
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
            policy.clone(),
        );
        let buf = BufferKind::Baseline.build(Arc::clone(&core), &cfg);
        put(&*buf, RecordKind::Filler, 1, &[0; 64]);
        let target = core.released_lsn();
        daemon.shared().note_commit(target);
        // Durable-watch notification instead of a sleep-poll loop.
        let durable = core.wait_durable(target, || false);
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

    #[test]
    fn transient_sync_errors_are_retried_and_committers_unblock_ok() {
        let device = faulty(&[DeviceFault::FailSync {
            nth: 1,
            times: 3,
            transient: true,
        }]);
        let (core, _, pipeline, _daemon, buf) =
            rig(Arc::clone(&device), GroupCommitPolicy::default());
        put(&*buf, RecordKind::Filler, 1, &[]);
        let end = core.released_lsn();
        let h = watch(&pipeline, end);
        assert!(core.flush_until(end).is_ok(), "retries must absorb blips");
        assert!(h.wait(), "committer unblocks with Ok after retried flush");
        assert!(core.poison_reason().is_none());
        assert_eq!(pipeline.failed(), 0);
    }

    #[test]
    fn permanent_sync_error_poisons_and_fails_pending_committers() {
        let device = faulty(&[FOREVER]);
        let (core, _, pipeline, _daemon, buf) =
            rig(Arc::clone(&device), GroupCommitPolicy::default());
        put(&*buf, RecordKind::Filler, 1, &[]);
        let end = core.released_lsn();
        let h = watch(&pipeline, end);
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
        let device = faulty(&[DeviceFault::FailSync {
            nth: 1,
            times: 50,
            transient: true,
        }]);
        let (core, _, _pipeline, _daemon, buf) =
            rig(Arc::clone(&device), GroupCommitPolicy::default());
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
                .device_instance(faulty(&[FOREVER]))
                .build(),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let inserter = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for _ in 0..64 {
                    log.insert(RecordKind::Filler, 1, &[7; 200]);
                }
                let committed = commit(&log, 1).wait();
                let flushed = log.flush_all();
                // The wait with no deadline and no flush request of its own.
                let durable = log.buffer().core().wait_durable(Lsn::MAX, || false);
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

    /// Every sync fails for good (EIO).
    const FOREVER: DeviceFault = DeviceFault::FailSync {
        nth: 1,
        times: u64::MAX,
        transient: false,
    };

    /// A zero-latency in-memory device with `script` armed.
    fn faulty(script: &[DeviceFault]) -> Arc<FaultDevice> {
        Arc::new(FaultDevice::new(
            Arc::new(SimDevice::new(Duration::ZERO)),
            script,
        ))
    }

    fn stall_setup(policy: GroupCommitPolicy) -> Rig<FaultDevice> {
        rig(faulty(&[]), policy)
    }

    fn submit_commit(
        core: &BufferCore,
        pipeline: &Arc<CommitPipeline>,
        daemon: &FlushDaemon,
        buf: &dyn LogBuffer,
        txn: u64,
    ) -> CommitHandle {
        put(buf, RecordKind::Filler, txn, &[]);
        let end = core.released_lsn();
        let h = watch(pipeline, end);
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
            assert!(commit(&log, txn).wait());
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
    fn a_commit_during_a_sync_starts_the_next_flush() {
        // Virtual time, a 1 ms device: commit A at t0, commit B 300 µs into
        // A's sync. B's flush starts at once, beside A's, so B is acked when
        // its own sync ends — not after A's sync and then its own (2 ms).
        let rt = Runtime::sim(13);
        let guard = rt.enter();
        let log = crate::manager::LogManager::builder()
            .config(LogConfig::default().with_runtime(rt.clone()))
            .device(crate::device::DeviceKind::FastDisk)
            .build();
        runtime::sleep(Duration::from_millis(3)); // every flusher is parked by now
        let t0 = runtime::monotonic_ns();
        let a = commit(&log, 1);
        runtime::sleep(Duration::from_micros(300));
        let b = commit(&log, 2);
        assert!(b.wait() && a.is_done());
        let dt = runtime::monotonic_ns() - t0;
        assert!(
            (1_290_000..=1_310_000).contains(&dt),
            "B acked {dt} ns after A started on a 1 ms device"
        );
        log.shutdown();
        drop(guard);
    }

    #[test]
    fn a_handed_off_release_wakes_the_daemon() {
        // Virtual time, a 100 µs device: a commit is registered while the
        // reservation ahead of it is open, so its record's release is handed
        // to that reservation's owner, which releases 30 µs later. The
        // publish wakes a flusher: the commit is acked one device sync after
        // the release, not on a timer's next tick.
        let rt = Runtime::sim(17);
        let guard = rt.enter();
        let log = crate::manager::LogManager::builder()
            .config(LogConfig::default().with_runtime(rt.clone()))
            .buffer(BufferKind::Hybrid)
            .device(crate::device::DeviceKind::Flash)
            .build();
        runtime::sleep(Duration::from_millis(3)); // every flusher is parked by now
        let mut open = log.reserve(RecordKind::Filler, 1, Lsn::ZERO, 8);
        let handle = commit(&log, 2);
        runtime::sleep(Duration::from_micros(30));
        assert!(!handle.is_done(), "committed past a gap");
        open.write(&[7; 8]);
        let t0 = runtime::monotonic_ns();
        open.release();
        assert!(handle.wait());
        let dt = runtime::monotonic_ns() - t0;
        assert!(
            (100_000..=105_000).contains(&dt),
            "acked {dt} ns after the release on a 100 µs device"
        );
        log.shutdown();
        drop(guard);
    }

    #[test]
    fn commits_during_a_flush_are_the_next_group() {
        let (core, device, pipeline, daemon, buf) = stall_setup(unbounded());
        device.arm(DeviceFault::HoldSync(None));
        // One commit per flusher, each flush blocked in its sync: the
        // window is full, so what comes next waits for a flusher to return.
        let first: Vec<_> = (0..FLUSH_DEPTH)
            .map(|n| {
                let h = submit_commit(&core, &pipeline, &daemon, &*buf, n as u64);
                device.wait_blocked(n + 1);
                h
            })
            .collect();
        let group: Vec<_> = (1..=10)
            .map(|txn| submit_commit(&core, &pipeline, &daemon, &*buf, 100 + txn))
            .collect();
        assert_eq!(daemon.flushes(), 0);
        assert!(first.iter().chain(&group).all(|h| !h.is_done()));
        device.release();
        for h in first.iter().chain(&group) {
            assert!(h.wait());
        }
        assert_eq!(
            daemon.flushes(),
            FLUSH_DEPTH as u64 + 1,
            "ten commits that arrived while every flusher was in a sync share the next flush"
        );
        assert_eq!(pipeline.completed(), FLUSH_DEPTH as u64 + 10);
    }

    #[test]
    fn blocked_committers_share_the_next_flush() {
        // The blocking protocols group the same way, with no linger: whoever
        // calls `flush_until` while every flusher is in a sync is covered by
        // the next flush.
        let (core, device, _p, daemon, buf) = stall_setup(unbounded());
        device.arm(DeviceFault::HoldSync(None));
        std::thread::scope(|s| {
            let committer = || {
                put(&*buf, RecordKind::Filler, 0, &[]);
                core.flush_until(core.released_lsn()).unwrap();
            };
            for n in 1..=FLUSH_DEPTH {
                s.spawn(committer);
                device.wait_blocked(n); // flush n is in flight
            }
            for _ in 0..4 {
                s.spawn(committer);
            }
            while core.durable_waiters() < FLUSH_DEPTH + 4 {
                std::thread::yield_now();
            }
            device.release();
        });
        assert_eq!(daemon.flushes(), FLUSH_DEPTH as u64 + 1);
        assert_eq!(core.durable_lsn(), core.released_lsn());
    }

    #[test]
    fn a_failed_sync_is_never_covered_by_a_later_one() {
        // fsyncgate: group 1's sync blocks and then fails for good; group 2's
        // sync, issued meanwhile, succeeds. After a failed sync the kernel may
        // have dropped group 1's pages, so group 2's success covers nothing:
        // durable never passes group 1's start, and no commit completes Ok.
        let device = faulty(&[
            DeviceFault::HoldSync(Some(1)),
            DeviceFault::FailSync {
                nth: 1,
                times: 1,
                transient: false,
            },
        ]);
        let (core, device, pipeline, daemon, buf) = rig(device, unbounded());
        // Dropped before the daemon: a failed assertion lets the held sync
        // go, so the daemon's shutdown can join its flushers.
        struct Release<'a>(&'a FaultDevice);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.release();
            }
        }
        let _release = Release(&device);
        let start = core.durable_lsn();
        let first = submit_commit(&core, &pipeline, &daemon, &*buf, 1);
        device.wait_blocked(1);
        let second = submit_commit(&core, &pipeline, &daemon, &*buf, 2);
        while device.syncs() == 0 {
            std::thread::yield_now();
        }
        // Time for a flusher that trusted group 2's sync to act on it.
        runtime::sleep(Duration::from_millis(20));
        assert_eq!(core.durable_lsn(), start, "group 2's sync covered group 1");
        assert!(!second.is_done());
        device.release();
        assert!(!first.wait(), "group 1's commit completed Ok");
        assert!(!second.wait(), "group 2's commit completed Ok");
        assert!(core.poison_reason().is_some());
        assert_eq!(core.durable_lsn(), start);
        assert_eq!(pipeline.failed(), 2);
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
        let durable = core.wait_durable(target, || false);
        assert_eq!(durable, target, "no commit, no request: T must fire");
    }

    #[test]
    fn bytes_nobody_waits_on_flush_by_l() {
        // T is an hour, so only L can flush what nobody asked for. A flusher
        // looks at L whenever it finishes a flush.
        let policy = GroupCommitPolicy {
            max_pending_bytes: 4096,
            ..unbounded()
        };
        let (core, device, _p, daemon, buf) = stall_setup(policy);
        device.arm(DeviceFault::HoldSync(None));
        put(&*buf, RecordKind::Filler, 1, &[0; 64]);
        daemon.shared().want(core.released_lsn());
        device.wait_blocked(1);
        for _ in 0..3 {
            put(&*buf, RecordKind::Filler, 1, &[0; 2000]);
        }
        let target = core.released_lsn();
        device.release();
        let durable = core.wait_durable(target, || false);
        assert_eq!(durable, target, "6 KB pending against L = 4 KB");
        assert_eq!(daemon.flushes(), 2);
    }
}
