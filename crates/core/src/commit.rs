//! The commit pipeline: flush pipelining's detach/reattach point (§4.1).
//!
//! Under flush pipelining, an agent thread that finishes a transaction does
//! **not** block on the log flush. It enqueues the transaction's commit LSN
//! (plus a completion action) here and moves on to other work. When the flush
//! daemon advances the durable watermark it *reattaches*: every pending
//! commit at or below the watermark completes — its action runs (waking a
//! client handle, invoking a callback, or simply counting). Only the daemon
//! ever blocks on I/O; agent threads never context-switch for a commit.

use crate::lsn::{AtomicLsn, Lsn};
use crate::runtime::WaitSet;
use crate::telemetry::{Stage, Telemetry};
use parking_lot::{Mutex, RwLock};
use std::collections::BinaryHeap;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Completion state shared between a [`CommitHandle`] and the pipeline.
#[derive(Debug, Default)]
pub struct CommitState {
    done: AtomicBool,
    failed: AtomicBool,
    /// Threads in [`CommitHandle::wait`]. Most commits complete with nobody
    /// blocked on the handle (the server acks from the durability callback),
    /// and completion then takes no lock and makes no syscall.
    wait: WaitSet,
}

impl CommitState {
    /// Mark complete and wake waiters. Normally invoked by the pipeline;
    /// exposed for callers that compose their own completion callbacks.
    pub fn complete(&self) {
        self.done.store(true, Ordering::SeqCst);
        self.wait.notify();
    }

    /// Mark failed (log poisoned before the commit became durable) and wake
    /// waiters: the commit's handle reports failure instead of hanging.
    pub fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
        self.complete();
    }
}

/// A waitable handle for one pending commit.
#[derive(Debug, Clone)]
pub struct CommitHandle(Arc<CommitState>);

impl CommitHandle {
    /// New handle + its pipeline-side state.
    pub fn new() -> (CommitHandle, Arc<CommitState>) {
        let st = Arc::new(CommitState::default());
        (CommitHandle(Arc::clone(&st)), st)
    }

    /// Block until the commit resolves. Returns `true` when it became
    /// durable, `false` when the log was poisoned first and the commit was
    /// released with an error (it never became durable).
    #[must_use = "a false return means the commit failed (log poisoned)"]
    pub fn wait(&self) -> bool {
        self.0
            .wait
            .wait_until(None, || self.is_done().then_some(()));
        !self.0.failed.load(Ordering::SeqCst)
    }

    /// Non-blocking resolution check (durable *or* failed).
    pub fn is_done(&self) -> bool {
        self.0.done.load(Ordering::SeqCst)
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

/// What to do when a pending commit resolves.
pub enum CommitAction {
    /// Wake a [`CommitHandle`].
    Notify(Arc<CommitState>),
    /// Run an arbitrary callback (used by the benchmark drivers to count
    /// completed transactions and by agent threads to reattach). The
    /// argument is `true` when the commit became durable, `false` when the
    /// log was poisoned first — callbacks observe the failure instead of
    /// silently never running.
    Callback(Box<dyn FnOnce(bool) + Send>),
}

impl std::fmt::Debug for CommitAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitAction::Notify(_) => f.write_str("Notify"),
            CommitAction::Callback(_) => f.write_str("Callback"),
        }
    }
}

struct Pending {
    lsn: Lsn,
    action: CommitAction,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.lsn == other.lsn
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by LSN.
        other.lsn.cmp(&self.lsn)
    }
}

/// Queue of commits awaiting durability, completed in LSN order by the flush
/// daemon.
#[derive(Default)]
pub struct CommitPipeline {
    heap: Mutex<BinaryHeap<Pending>>,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    telemetry: OnceLock<Arc<Telemetry>>,
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
    /// Empty pipeline.
    pub fn new() -> CommitPipeline {
        CommitPipeline::default()
    }

    /// Attach the log's telemetry registry so completions emit
    /// [`Stage::CommitComplete`] trace events. First call wins; later calls
    /// are ignored (one pipeline serves one log).
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.telemetry.set(telemetry);
    }

    /// Enqueue a commit whose record ends at `lsn`; its action runs once the
    /// durable watermark reaches `lsn`.
    pub fn submit(&self, lsn: Lsn, action: CommitAction) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.heap.lock().push(Pending { lsn, action });
    }

    /// Number of commits submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Number of commits completed (durable + action run).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Number of commits failed by [`CommitPipeline::fail_pending`] (the
    /// log was poisoned while they awaited durability).
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Commits currently awaiting durability.
    pub fn pending(&self) -> usize {
        self.heap.lock().len()
    }

    /// Complete every pending commit with `lsn <= durable`. Actions run
    /// outside the internal lock. Returns how many completed.
    pub fn complete_upto(&self, durable: Lsn) -> usize {
        let mut ready = Vec::new();
        {
            let mut heap = self.heap.lock();
            while let Some(p) = heap.peek() {
                if p.lsn <= durable {
                    ready.push(heap.pop().unwrap());
                } else {
                    break;
                }
            }
        }
        let n = ready.len();
        let t_done = self
            .telemetry
            .get()
            .filter(|t| t.on())
            .map(|t| (t, crate::runtime::monotonic_ns()));
        for p in ready {
            if let Some((tel, now)) = &t_done {
                tel.event(Stage::CommitComplete, p.lsn, *now);
            }
            // Count first: an action may wake a waiter that immediately
            // reads `completed()`.
            self.completed.fetch_add(1, Ordering::Relaxed);
            match p.action {
                CommitAction::Notify(st) => st.complete(),
                CommitAction::Callback(f) => f(true),
            }
        }
        n
    }

    /// Fail every pending commit: the flush daemon poisoned the log, so no
    /// further LSN will ever become durable. Handles wake with failure,
    /// callbacks run with `false` — committers get an `Err`, not a hang.
    /// Returns how many were failed.
    pub fn fail_pending(&self) -> usize {
        let drained: Vec<Pending> = {
            let mut heap = self.heap.lock();
            std::mem::take(&mut *heap).into_vec()
        };
        let n = drained.len();
        for p in drained {
            self.failed.fetch_add(1, Ordering::Relaxed);
            Self::fail_action(p.action);
        }
        n
    }

    /// Resolve one action as failed without enqueuing it (used when a
    /// commit is submitted against an already-poisoned log).
    pub fn fail_action(action: CommitAction) {
        match action {
            CommitAction::Notify(st) => st.fail(),
            CommitAction::Callback(f) => f(false),
        }
    }
}

/// When a commit may be acknowledged, relative to log shipping (the
/// replication analogue of the paper's commit-protocol axis).
///
/// The local `fdatasync` is always required — these policies only *add*
/// replica acknowledgements to the durability condition. Group commit
/// amortizes the extra round-trip exactly as it amortizes the sync: the
/// shipper forwards one byte run per flush group, the replica acks the run,
/// and every commit in the group completes on that single ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Local durability only; replicas apply the shipped log asynchronously.
    /// A primary failure may lose commits the replicas have not received yet.
    Async,
    /// Local durability plus at least this many replica acks (classic
    /// semi-synchronous replication is `SemiSync(1)`).
    SemiSync(usize),
    /// Local durability plus `acks` of `replicas` acknowledgements — a
    /// majority quorum is `Quorum { acks: 2, replicas: 3 }`.
    Quorum {
        /// Acks required before commit completion.
        acks: usize,
        /// Expected replica count (documentation/validation; the gate counts
        /// registered replicas itself).
        replicas: usize,
    },
}

impl DurabilityPolicy {
    /// Replica acks required before a commit may complete.
    pub fn required_acks(&self) -> usize {
        match *self {
            DurabilityPolicy::Async => 0,
            DurabilityPolicy::SemiSync(k) => k,
            DurabilityPolicy::Quorum { acks, .. } => acks,
        }
    }

    /// Short label for experiment output.
    pub fn label(&self) -> String {
        match *self {
            DurabilityPolicy::Async => "async".into(),
            DurabilityPolicy::SemiSync(k) => format!("semisync{k}"),
            DurabilityPolicy::Quorum { acks, replicas } => format!("quorum{acks}of{replicas}"),
        }
    }
}

/// One replica's acknowledgement watermark: the highest LSN the replica has
/// durably received. Advanced by the shipper when acks arrive; read by the
/// [`CommitGate`] when deciding which commits may complete.
#[derive(Debug, Default)]
pub struct ReplicaAck {
    acked: AtomicLsn,
}

impl ReplicaAck {
    /// Record an ack up to `lsn` (acks are cumulative; regressions ignored).
    pub fn advance(&self, lsn: Lsn) {
        self.acked.fetch_max(lsn);
    }

    /// Highest acknowledged LSN.
    pub fn acked(&self) -> Lsn {
        self.acked.load()
    }
}

/// Gates commit completion on replica acknowledgements.
///
/// The flush daemon asks the gate for the *effective* commit watermark —
/// `min(local durable, k-th highest replica ack)` — before completing
/// pipelined commits, and blocking committers wait here after their local
/// flush. With the default [`DurabilityPolicy::Async`] the gate is
/// transparent: effective == durable and no waiting ever happens.
#[derive(Debug, Default)]
pub struct CommitGate {
    policy: RwLock<Option<DurabilityPolicy>>,
    replicas: RwLock<Vec<Arc<ReplicaAck>>>,
    /// Set when replication is known dead (primary failure simulation):
    /// waiters stop blocking, but their commits report *unreplicated*.
    poisoned: AtomicBool,
    /// Threads in [`CommitGate::wait_effective`].
    wait: WaitSet,
    telemetry: OnceLock<Arc<Telemetry>>,
}

impl CommitGate {
    /// New gate with no policy (equivalent to [`DurabilityPolicy::Async`]).
    pub fn new() -> CommitGate {
        CommitGate::default()
    }

    /// Attach the log's telemetry registry so policy waits feed the
    /// `commit.wait_ns` histogram. First call wins.
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.telemetry.set(telemetry);
    }

    /// Install the durability policy.
    pub fn set_policy(&self, policy: DurabilityPolicy) {
        *self.policy.write() = Some(policy);
        self.notify();
    }

    /// The installed policy, if any.
    pub fn policy(&self) -> Option<DurabilityPolicy> {
        *self.policy.read()
    }

    /// Register a replica; the returned handle is advanced as its acks
    /// arrive.
    pub fn register_replica(&self) -> Arc<ReplicaAck> {
        let ack = Arc::new(ReplicaAck::default());
        self.replicas.write().push(Arc::clone(&ack));
        ack
    }

    /// Remove a replica's ack handle (identity comparison). A quarantined
    /// or replaced replica must be unregistered, or its stalled watermark
    /// clamps log truncation and holds the replication floor down forever.
    /// Waiters are re-notified — removing a laggard can only *raise* the
    /// floor. Returns whether the handle was registered.
    pub fn unregister_replica(&self, ack: &Arc<ReplicaAck>) -> bool {
        let mut replicas = self.replicas.write();
        let before = replicas.len();
        replicas.retain(|r| !Arc::ptr_eq(r, ack));
        let removed = replicas.len() != before;
        drop(replicas);
        if removed {
            self.notify();
        }
        removed
    }

    /// The *slowest* replica's acknowledged LSN — the log-truncation clamp.
    /// Bytes above this may still be needed by a shipper replaying the
    /// stream to a lagging replica, so `LogManager::truncate_to` never
    /// retires past it. [`Lsn::MAX`] when no replicas are registered or the
    /// gate is poisoned (replication declared dead — laggards re-seed from
    /// a snapshot instead of the log).
    pub fn slowest_ack(&self) -> Lsn {
        if self.is_poisoned() {
            return Lsn::MAX;
        }
        self.replicas
            .read()
            .iter()
            .map(|r| r.acked())
            .min()
            .unwrap_or(Lsn::MAX)
    }

    /// Register a replica whose acknowledgement watermark starts at `lsn`
    /// rather than zero — a replica bootstrapped from a base snapshot
    /// implicitly holds everything below the snapshot LSN, so it must not
    /// drag [`CommitGate::slowest_ack`] (and with it log truncation) to 0.
    pub fn register_replica_at(&self, lsn: Lsn) -> Arc<ReplicaAck> {
        let ack = self.register_replica();
        ack.advance(lsn);
        ack
    }

    /// The replication floor: the highest LSN acknowledged by at least the
    /// required number of replicas ([`Lsn::MAX`] when no acks are required,
    /// [`Lsn::ZERO`] when fewer replicas than required are registered).
    pub fn replicated_floor(&self) -> Lsn {
        let required = match *self.policy.read() {
            Some(p) => p.required_acks(),
            None => 0,
        };
        if required == 0 {
            return Lsn::MAX;
        }
        let replicas = self.replicas.read();
        if replicas.len() < required {
            return Lsn::ZERO;
        }
        let mut acks: Vec<Lsn> = replicas.iter().map(|r| r.acked()).collect();
        acks.sort_unstable_by(|a, b| b.cmp(a)); // descending
        acks[required - 1]
    }

    /// The effective commit watermark given the local durable LSN. A
    /// poisoned gate no longer holds anything back (replication is dead;
    /// blocking forever helps nobody) — callers learn whether a given LSN
    /// actually replicated from [`CommitGate::wait_effective`]'s return.
    pub fn effective(&self, durable: Lsn) -> Lsn {
        if self.is_poisoned() {
            return durable;
        }
        durable.min(self.replicated_floor())
    }

    /// Declare replication dead: release all waiters. Their commits remain
    /// locally durable but report as unreplicated unless the floor already
    /// covered them. Used when the primary "fails" mid-commit — the real
    /// analogue is the client connection dying with an indeterminate
    /// outcome.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.notify();
    }

    /// Whether [`CommitGate::poison`] was called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Wake threads blocked in [`CommitGate::wait_effective`]. Called after
    /// any ack advance or flush; free when nobody waits (the pipelined
    /// protocols never do).
    pub fn notify(&self) {
        // The policy and the replica table change under their locks, whose
        // release is no `SeqCst` write: order them with the count here.
        fence(Ordering::SeqCst);
        self.wait.notify();
    }

    /// Block until the effective watermark (given the caller-supplied live
    /// durable LSN) reaches `lsn`. Returns whether the replication
    /// requirement was genuinely met for `lsn` — false only when a
    /// poisoned gate released the wait before enough acks arrived.
    pub fn wait_effective(&self, lsn: Lsn, durable: impl Fn() -> Lsn) -> bool {
        let t0 = self.telemetry.get().and_then(|t| t.ts());
        self.wait
            .wait_until(None, || (self.effective(durable()) >= lsn).then_some(()));
        if let (Some(t0), Some(tel)) = (t0, self.telemetry.get()) {
            let dt = crate::runtime::monotonic_ns().saturating_sub(t0);
            tel.record(tel.ids().commit_wait_ns, dt);
        }
        self.replicated_floor() >= lsn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn completes_in_lsn_order_upto_watermark() {
        let p = CommitPipeline::new();
        let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(vec![]));
        for lsn in [300u64, 100, 200, 400] {
            let log = Arc::clone(&log);
            p.submit(
                Lsn(lsn),
                CommitAction::Callback(Box::new(move |_| log.lock().push(lsn))),
            );
        }
        assert_eq!(p.pending(), 4);
        assert_eq!(p.complete_upto(Lsn(250)), 2);
        assert_eq!(&*log.lock(), &[100, 200]);
        assert_eq!(p.complete_upto(Lsn(250)), 0);
        assert_eq!(p.complete_upto(Lsn(1000)), 2);
        assert_eq!(&*log.lock(), &[100, 200, 300, 400]);
        assert_eq!(p.submitted(), 4);
        assert_eq!(p.completed(), 4);
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn handle_wait_wakes() {
        let p = Arc::new(CommitPipeline::new());
        let (h, st) = CommitHandle::new();
        p.submit(Lsn(10), CommitAction::Notify(st));
        assert!(!h.is_done());
        let p2 = Arc::clone(&p);
        let t = std::thread::spawn(move || {
            crate::runtime::sleep(std::time::Duration::from_millis(10));
            p2.complete_upto(Lsn(10));
        });
        assert!(h.wait(), "completed, not failed");
        assert!(h.is_done());
        t.join().unwrap();
    }

    #[test]
    fn gate_async_policy_is_transparent() {
        let g = CommitGate::new();
        assert_eq!(g.effective(Lsn(500)), Lsn(500));
        g.set_policy(DurabilityPolicy::Async);
        assert_eq!(g.effective(Lsn(500)), Lsn(500));
        assert_eq!(DurabilityPolicy::Async.required_acks(), 0);
        // No waiting with a satisfied watermark.
        g.wait_effective(Lsn(100), || Lsn(100));
    }

    #[test]
    fn gate_semisync_waits_for_one_ack() {
        let g = CommitGate::new();
        g.set_policy(DurabilityPolicy::SemiSync(1));
        // No replicas registered yet: nothing can commit.
        assert_eq!(g.effective(Lsn(500)), Lsn::ZERO);
        let r = g.register_replica();
        assert_eq!(g.effective(Lsn(500)), Lsn::ZERO);
        r.advance(Lsn(300));
        assert_eq!(g.effective(Lsn(500)), Lsn(300));
        r.advance(Lsn(800));
        assert_eq!(
            g.effective(Lsn(500)),
            Lsn(500),
            "local durability still gates"
        );
        // Regressions are ignored.
        r.advance(Lsn(100));
        assert_eq!(r.acked(), Lsn(800));
    }

    #[test]
    fn gate_quorum_takes_kth_highest_ack() {
        let g = CommitGate::new();
        g.set_policy(DurabilityPolicy::Quorum {
            acks: 2,
            replicas: 3,
        });
        assert_eq!(
            DurabilityPolicy::Quorum {
                acks: 2,
                replicas: 3
            }
            .label(),
            "quorum2of3"
        );
        let r1 = g.register_replica();
        let r2 = g.register_replica();
        let r3 = g.register_replica();
        r1.advance(Lsn(900));
        assert_eq!(g.replicated_floor(), Lsn::ZERO, "one ack is not a quorum");
        r2.advance(Lsn(400));
        assert_eq!(g.replicated_floor(), Lsn(400));
        r3.advance(Lsn(600));
        assert_eq!(
            g.replicated_floor(),
            Lsn(600),
            "2nd highest of {{900,400,600}}"
        );
    }

    #[test]
    fn gate_slowest_ack_clamps_truncation() {
        let g = CommitGate::new();
        // No replicas: nothing to protect.
        assert_eq!(g.slowest_ack(), Lsn::MAX);
        let r1 = g.register_replica();
        let r2 = g.register_replica_at(Lsn(700));
        assert_eq!(g.slowest_ack(), Lsn::ZERO, "r1 has acked nothing");
        r1.advance(Lsn(300));
        assert_eq!(g.slowest_ack(), Lsn(300));
        r2.advance(Lsn(900));
        assert_eq!(g.slowest_ack(), Lsn(300), "min over replicas");
        r1.advance(Lsn(950));
        assert_eq!(g.slowest_ack(), Lsn(900));
        // A dead cluster no longer pins the log.
        g.poison();
        assert_eq!(g.slowest_ack(), Lsn::MAX);
    }

    #[test]
    fn gate_wait_effective_wakes_on_ack() {
        let g = Arc::new(CommitGate::new());
        g.set_policy(DurabilityPolicy::SemiSync(1));
        let r = g.register_replica();
        let g2 = Arc::clone(&g);
        let t = std::thread::spawn(move || g2.wait_effective(Lsn(100), || Lsn(100)));
        crate::runtime::sleep(std::time::Duration::from_millis(5));
        assert!(!t.is_finished());
        r.advance(Lsn(100));
        g.notify();
        assert!(t.join().unwrap(), "requirement met: acked to 100");
    }

    #[test]
    fn gate_poison_releases_waiters_as_unreplicated() {
        let g = Arc::new(CommitGate::new());
        g.set_policy(DurabilityPolicy::SemiSync(1));
        let r = g.register_replica();
        r.advance(Lsn(50));
        let g2 = Arc::clone(&g);
        let t = std::thread::spawn(move || g2.wait_effective(Lsn(100), || Lsn(100)));
        crate::runtime::sleep(std::time::Duration::from_millis(5));
        assert!(!t.is_finished());
        g.poison();
        assert!(
            !t.join().unwrap(),
            "released by poison without the ack: unreplicated"
        );
        // But an LSN the floor already covered still reports replicated,
        // and a poisoned gate no longer holds anything back.
        assert!(g.wait_effective(Lsn(40), || Lsn(100)));
        assert_eq!(g.effective(Lsn(100)), Lsn(100));
        assert!(g.is_poisoned());
    }

    #[test]
    fn concurrent_submit_and_complete() {
        let p = Arc::new(CommitPipeline::new());
        let ran = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let p = Arc::clone(&p);
                let ran = Arc::clone(&ran);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let ran = Arc::clone(&ran);
                        p.submit(
                            Lsn(t * 1000 + i),
                            CommitAction::Callback(Box::new(move |_| {
                                ran.fetch_add(1, Ordering::Relaxed);
                            })),
                        );
                    }
                });
            }
            let p = Arc::clone(&p);
            s.spawn(move || {
                for w in 0..50u64 {
                    p.complete_upto(Lsn(w * 100));
                    std::thread::yield_now();
                }
                p.complete_upto(Lsn::MAX);
            });
        });
        // A final sweep in case the completer finished before late submitters.
        p.complete_upto(Lsn::MAX);
        assert_eq!(ran.load(Ordering::Relaxed), 4000);
        assert_eq!(p.completed(), 4000);
    }
}
