//! Commit completion: flush pipelining's detach/reattach point (§4.1).
//!
//! Under flush pipelining an agent thread that finishes a transaction does
//! **not** block on the log flush. It hands the commit's LSN to a
//! [`Subscriber`] of its own and moves on: a connection's response queue, a
//! benchmark driver's [`Tally`], or the log's own tally behind
//! [`CommitHandle`]s. A subscriber keeps its pending commits in LSN order
//! and publishes the lowest one. When a flusher advances the durable
//! watermark it *reattaches* — "the daemon notifies the agent threads of
//! newly-hardened transactions" — with one [`Subscriber::resolve`] call to
//! each subscriber whose lowest pending LSN the watermark passed, which
//! resolves that subscriber's whole ready prefix under its own lock. The
//! log queues nothing per commit, allocates nothing for one, and has no
//! lock that every committer takes.
//!
//! ## Publish, then look
//!
//! A flusher may harden a commit's record before its subscriber publishes
//! it; that flusher's walk misses it, and no later flush need come. So a
//! subscriber stores its lowest pending LSN (`SeqCst`) and then looks at
//! the watermark itself ([`CommitPipeline::watch`]), while a flusher
//! advances the watermark (`SeqCst`) and then reads the lowest LSNs. That
//! is [`crate::runtime::WaitSet`]'s Dekker pair: one of the two sees the
//! other, so the commit is resolved by the walk, by the look, or by both,
//! and the subscriber's lock makes "both" resolve it once. The log closing
//! is the same pair over the watermark [`CommitPipeline::close`] publishes:
//! every pending commit resolves, failed if the watermark never reached it.

use crate::buffer::BufferCore;
pub use crate::gate::{CommitGate, DurabilityPolicy, ReplicaAck};
use crate::lsn::{AtomicLsn, Lsn};
use crate::runtime::{lock, read, write, WaitSet};
use crate::telemetry::{Stage, Telemetry};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Something that waits on commits to become durable; see the module docs.
pub trait Subscriber: Send + Sync {
    /// The lowest LSN among the pending commits as last published
    /// ([`LowMark`]), [`Lsn::MAX`] when none is pending.
    fn low(&self) -> Lsn;

    /// Resolve, under one lock and with one wake, every pending commit at or
    /// below `upto` as durable and, when `fail_rest` (the log closed), every
    /// other one as failed; then publish the new lowest. `each(lsn,
    /// durable)` is called once per commit resolved.
    fn resolve(&self, upto: Lsn, fail_rest: bool, each: &mut dyn FnMut(Lsn, bool));

    /// Gone, with nothing pending: [`CommitPipeline::prune`] drops it.
    fn retired(&self) -> bool {
        false
    }
}

/// A subscriber's lowest pending LSN, published for the flushers' walk.
#[derive(Debug)]
pub struct LowMark(AtomicU64);

impl Default for LowMark {
    fn default() -> Self {
        LowMark(AtomicU64::new(u64::MAX))
    }
}

impl LowMark {
    /// The published LSN ([`Lsn::MAX`]: nothing pending).
    pub fn get(&self) -> Lsn {
        Lsn(self.0.load(Ordering::SeqCst))
    }

    /// Publish the lowest pending LSN (`None`: nothing pending). Call it
    /// under the lock that guards the pending commits.
    pub fn set(&self, low: Option<Lsn>) {
        self.0
            .store(low.map_or(u64::MAX, Lsn::raw), Ordering::SeqCst);
    }
}

/// A subscriber that counts how many of its commits became durable and how
/// many failed. The log keeps one behind [`crate::LogManager::commit`]'s
/// handles; a benchmark driver keeps one per client thread.
#[derive(Debug, Default)]
pub struct Tally {
    pending: Mutex<VecDeque<Lsn>>,
    low: LowMark,
    durable: AtomicU64,
    failed: AtomicU64,
    closed: AtomicBool,
    /// Threads in [`Tally::wait_settled`].
    wait: WaitSet,
}

impl Tally {
    /// Hold a commit ending at `lsn` and publish it. Follow with
    /// [`CommitPipeline::watch`].
    pub fn add(&self, lsn: Lsn) {
        let mut q = lock(&self.pending);
        let at = q.partition_point(|&p| p <= lsn);
        q.insert(at, lsn);
        if at == 0 {
            self.low.set(Some(lsn));
        }
    }

    /// Commits resolved durable.
    pub fn durable(&self) -> u64 {
        self.durable.load(Ordering::SeqCst)
    }

    /// Commits resolved failed (the log closed first).
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::SeqCst)
    }

    /// Park until nothing is pending, for at most `timeout` (`None`: for
    /// ever); whether nothing is.
    pub fn wait_settled(&self, timeout: Option<Duration>) -> bool {
        self.wait
            .wait_until(timeout, || (self.low.get() == Lsn::MAX).then_some(()))
            .is_some()
    }

    /// Take no more commits: once nothing is pending the registry drops
    /// this tally at its next [`CommitPipeline::prune`].
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }
}

impl Subscriber for Tally {
    fn low(&self) -> Lsn {
        self.low.get()
    }

    fn resolve(&self, upto: Lsn, fail_rest: bool, each: &mut dyn FnMut(Lsn, bool)) {
        let mut q = lock(&self.pending);
        let mut n = 0;
        while let Some(&lsn) = q.front() {
            let durable = lsn <= upto;
            if !durable && !fail_rest {
                break;
            }
            q.pop_front();
            n += 1;
            each(lsn, durable);
            let count = if durable { &self.durable } else { &self.failed };
            count.fetch_add(1, Ordering::SeqCst);
        }
        if n > 0 {
            self.low.set(q.front().copied());
            drop(q);
            self.wait.notify();
        }
    }

    fn retired(&self) -> bool {
        self.closed.load(Ordering::SeqCst) && self.low.get() == Lsn::MAX
    }
}

/// The log's completion side: the durable watermark as commits see it —
/// local durability through the replication [`CommitGate`] — and the
/// registry of [`Subscriber`]s the flushers resolve as it advances.
pub struct CommitPipeline {
    core: Arc<BufferCore>,
    gate: Arc<CommitGate>,
    subscribers: RwLock<Vec<Arc<dyn Subscriber>>>,
    /// Every subscriber's commits at or below this are resolved: the
    /// highest watermark a walk has finished.
    done: AtomicLsn,
    /// The watermark the log closed at; [`Lsn::MAX`] while it is open.
    closed_at: AtomicU64,
}

impl std::fmt::Debug for CommitPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitPipeline")
            .field("submitted", &self.submitted())
            .field("completed", &self.completed())
            .finish()
    }
}

impl CommitPipeline {
    /// The pipeline over `core`'s durable watermark, gated by `gate`.
    pub fn new(core: Arc<BufferCore>, gate: Arc<CommitGate>) -> CommitPipeline {
        CommitPipeline {
            core,
            gate,
            subscribers: RwLock::new(Vec::new()),
            done: AtomicLsn::new(Lsn::ZERO),
            closed_at: AtomicU64::new(u64::MAX),
        }
    }

    /// The replication gate.
    pub fn gate(&self) -> &Arc<CommitGate> {
        &self.gate
    }

    /// Have the flushers resolve `sub` as the watermark passes its commits.
    pub fn subscribe(&self, sub: Arc<dyn Subscriber>) {
        write(&self.subscribers).push(sub);
    }

    /// Drop the subscribers that are [`Subscriber::retired`].
    pub fn prune(&self) {
        write(&self.subscribers).retain(|s| !s.retired());
    }

    /// Highest LSN at which commits may complete: `min(durable, replicated
    /// floor)`.
    pub fn commit_lsn(&self) -> Lsn {
        self.gate.effective(self.core.durable_lsn())
    }

    fn closed_at(&self) -> Option<Lsn> {
        let at = self.closed_at.load(Ordering::SeqCst);
        (at != u64::MAX).then_some(Lsn(at))
    }

    /// Whether the commit ending at `lsn` needs nothing more from the log:
    /// it is locally durable, or the log closed. What the ATT asks of a
    /// commit nobody waits on.
    pub fn settled(&self, lsn: Lsn) -> bool {
        self.core.durable_lsn() >= lsn || self.closed_at().is_some()
    }

    /// `sub` has published a pending commit ending at `lsn` (its
    /// [`Subscriber::low`] is at or below `lsn`): look at the watermark
    /// once, and resolve `sub` if the watermark passed it or the log
    /// closed. See the module docs.
    pub fn watch(&self, sub: &dyn Subscriber, lsn: Lsn) {
        let tel = self.core.telemetry();
        tel.inc(tel.ids().commit_submitted);
        fence(Ordering::SeqCst);
        if let Some(at) = self.closed_at() {
            self.resolve(sub, at, true);
            return;
        }
        let now = self.commit_lsn();
        if now >= lsn {
            self.resolve(sub, now, false);
        }
    }

    /// Resolve `sub` up to `upto`, counting and tracing each commit;
    /// returns how many became durable.
    fn resolve(&self, sub: &dyn Subscriber, upto: Lsn, fail_rest: bool) -> usize {
        let tel: &Telemetry = self.core.telemetry();
        let at = tel.ts();
        let (mut ok, mut failed) = (0, 0);
        sub.resolve(upto, fail_rest, &mut |lsn, durable| {
            if !durable {
                failed += 1;
                return;
            }
            ok += 1;
            if let Some(at) = at {
                tel.event(Stage::CommitComplete, lsn, at);
            }
        });
        tel.add(tel.ids().commit_completed, ok as u64);
        tel.add(tel.ids().commit_failed, failed);
        ok
    }

    /// The watermark advanced to `upto`: resolve every subscriber it passed,
    /// one call each, then wake the gate's waiters — [`CommitHandle::wait`]
    /// and [`CommitGate::wait_effective`] both park there. Returns how many
    /// commits completed.
    pub fn advance(&self, upto: Lsn) -> usize {
        fence(Ordering::SeqCst);
        let mut completed = 0;
        let mut retired = false;
        for sub in read(&self.subscribers).iter() {
            if sub.low() <= upto {
                completed += self.resolve(&**sub, upto, false);
                retired |= sub.retired();
            }
        }
        self.done.fetch_max(upto);
        self.gate.notify();
        if retired {
            self.prune();
        }
        completed
    }

    /// The log closed: nothing more becomes durable. Publish the watermark
    /// it closed at, then resolve every subscriber's pending commits — the
    /// ones at or below it durable, the rest failed. The first call wins.
    pub fn close(&self) {
        let at = self.commit_lsn();
        let _ =
            self.closed_at
                .compare_exchange(u64::MAX, at.raw(), Ordering::SeqCst, Ordering::SeqCst);
        let at = self.closed_at().expect("closed just now");
        for sub in read(&self.subscribers).iter() {
            self.resolve(&**sub, at, true);
        }
        self.gate.notify();
        self.prune();
    }

    /// How the commit ending at `lsn` resolved: `Some(true)` durable (and
    /// replicated as the gate requires), `Some(false)` failed — the log
    /// closed below it — and `None` while it is pending.
    fn verdict(&self, lsn: Lsn) -> Option<bool> {
        if let Some(at) = self.closed_at() {
            return Some(lsn <= at);
        }
        // Without a flush daemon nothing walks: released is durable.
        let reached = if self.core.auto_reclaim() {
            self.commit_lsn()
        } else {
            self.done.load()
        };
        (reached >= lsn).then_some(true)
    }

    /// Commits handed to [`CommitPipeline::watch`] so far
    /// (`commit.submitted`).
    pub fn submitted(&self) -> u64 {
        let tel = self.core.telemetry();
        tel.count(tel.ids().commit_submitted)
    }

    /// Watched commits resolved durable (`commit.completed`).
    pub fn completed(&self) -> u64 {
        let tel = self.core.telemetry();
        tel.count(tel.ids().commit_completed)
    }

    /// Watched commits resolved failed: the log closed before the
    /// watermark reached them (`commit.failed`).
    pub fn failed(&self) -> u64 {
        let tel = self.core.telemetry();
        tel.count(tel.ids().commit_failed)
    }

    /// Watched commits not resolved yet.
    pub fn pending(&self) -> usize {
        let resolved = self.completed() + self.failed();
        self.submitted().saturating_sub(resolved) as usize
    }
}

/// A waitable view of one commit: its LSN and the log's watermark. Cloning
/// or creating one allocates nothing.
#[derive(Debug, Clone)]
pub struct CommitHandle {
    lsn: Lsn,
    pipeline: Arc<CommitPipeline>,
}

impl CommitHandle {
    /// The commit whose record ends at `lsn`, resolved by `pipeline`'s
    /// watermark.
    pub fn new(pipeline: &Arc<CommitPipeline>, lsn: Lsn) -> CommitHandle {
        CommitHandle {
            lsn,
            pipeline: Arc::clone(pipeline),
        }
    }

    /// Block until the commit resolves. Returns `true` when it became
    /// durable, `false` when the log was poisoned first and the commit was
    /// released with an error (it never became durable).
    #[must_use = "a false return means the commit failed (log poisoned)"]
    pub fn wait(&self) -> bool {
        let p = &*self.pipeline;
        p.gate
            .wait
            .wait_until(None, || p.verdict(self.lsn))
            .unwrap_or(false)
    }

    /// Non-blocking resolution check (durable *or* failed).
    pub fn is_done(&self) -> bool {
        self.pipeline.verdict(self.lsn).is_some()
    }
}

/// A commit's position in the log's total order: the end LSN of its commit
/// record, handed back to the client as a *session token*.
///
/// Tokens are the currency of read-your-writes: a client that threads the
/// token from its last commit into a replica read (see `aether-repl`'s
/// `ReadRouter::read_at_least`) is guaranteed a snapshot whose applied
/// watermark covers that commit. Tokens are totally ordered (log order), so
/// a session tracking several commits only needs to keep the maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CommitToken(Lsn);

impl CommitToken {
    /// The zero token: observed by no commit, satisfied by any snapshot.
    pub const ZERO: CommitToken = CommitToken(Lsn::ZERO);

    /// Token covering everything below `lsn` (the commit record's end LSN).
    pub fn at(lsn: Lsn) -> CommitToken {
        CommitToken(lsn)
    }

    /// The LSN a snapshot's applied watermark must reach to satisfy this
    /// token.
    pub fn lsn(self) -> Lsn {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LogConfig;

    /// A pipeline over a core nothing flushes: only `advance` moves it.
    fn pipeline() -> Arc<CommitPipeline> {
        let core = BufferCore::new(&LogConfig::default());
        Arc::new(CommitPipeline::new(core, Arc::new(CommitGate::new())))
    }

    fn tally(p: &CommitPipeline) -> Arc<Tally> {
        let t = Arc::new(Tally::default());
        p.subscribe(t.clone());
        t
    }

    #[test]
    fn completes_in_lsn_order_upto_watermark() {
        let p = pipeline();
        let t = Arc::new(Tally::default());
        let seen = Arc::new(Mutex::new(Vec::new()));
        // The tally, and the order it resolves in.
        struct Log(Arc<Tally>, Arc<Mutex<Vec<u64>>>);
        impl Subscriber for Log {
            fn low(&self) -> Lsn {
                self.0.low()
            }
            fn resolve(&self, upto: Lsn, fail_rest: bool, each: &mut dyn FnMut(Lsn, bool)) {
                self.0.resolve(upto, fail_rest, &mut |lsn, ok| {
                    lock(&self.1).push(lsn.raw());
                    each(lsn, ok);
                });
            }
        }
        let log = Arc::new(Log(Arc::clone(&t), Arc::clone(&seen)));
        p.subscribe(log.clone());
        for lsn in [300u64, 100, 200, 400] {
            t.add(Lsn(lsn));
            p.watch(&*log, Lsn(lsn));
        }
        assert_eq!(t.low(), Lsn(100), "the lowest is published");
        assert_eq!(p.pending(), 4);
        assert_eq!(p.advance(Lsn(250)), 2);
        assert_eq!(&*lock(&seen), &[100, 200]);
        assert_eq!(p.advance(Lsn(250)), 0);
        assert_eq!(p.advance(Lsn(1000)), 2);
        assert_eq!(&*lock(&seen), &[100, 200, 300, 400]);
        assert_eq!(p.submitted(), 4);
        assert_eq!(p.completed(), 4);
        assert_eq!(t.durable(), 4);
        assert_eq!(p.pending(), 0);
        assert_eq!(t.low(), Lsn::MAX);
    }

    #[test]
    fn handle_wait_wakes() {
        let p = pipeline();
        let h = CommitHandle::new(&p, Lsn(10));
        assert!(!h.is_done());
        let p2 = Arc::clone(&p);
        let t = std::thread::spawn(move || {
            crate::runtime::sleep(std::time::Duration::from_millis(10));
            p2.advance(Lsn(10));
        });
        assert!(h.wait(), "completed, not failed");
        assert!(h.is_done());
        t.join().unwrap();
    }

    #[test]
    fn a_closed_pipeline_fails_what_it_never_reached() {
        let p = pipeline();
        let t = tally(&p);
        for lsn in [50u64, 150] {
            t.add(Lsn(lsn));
        }
        let h = CommitHandle::new(&p, Lsn(150));
        // Nothing was made durable: the log closes at 0.
        p.close();
        assert_eq!((t.durable(), t.failed()), (0, 2));
        assert!(!h.wait() && h.is_done());
        t.close();
        p.prune();
        assert!(
            read(&p.subscribers).is_empty(),
            "a closed, settled tally is dropped"
        );
        // A commit watched after the close resolves at its own look.
        let late = tally(&p);
        late.add(Lsn(10));
        p.watch(&*late, Lsn(10));
        assert_eq!(late.failed(), 1);
    }

    #[test]
    fn concurrent_watch_and_advance() {
        let p = pipeline();
        let t = tally(&p);
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let (p, t) = (&p, &t);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let lsn = Lsn(w * 1000 + i + 1);
                        t.add(lsn);
                        p.watch(&**t, lsn);
                    }
                });
            }
            s.spawn(|| {
                for w in 0..50u64 {
                    p.advance(Lsn(w * 100));
                    std::thread::yield_now();
                }
                p.advance(Lsn::MAX);
            });
        });
        // A final walk in case the completer finished before late watchers.
        p.advance(Lsn::MAX);
        assert!(t.wait_settled(None));
        assert_eq!(t.durable(), 4000);
        assert_eq!(p.completed(), 4000);
    }
}
