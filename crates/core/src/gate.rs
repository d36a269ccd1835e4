//! The replication commit gate: a commit completes only once the durable
//! watermark *and* enough replica acknowledgements have passed it.
//!
//! The commit path reads the gate without a lock or an allocation: the
//! required ack count is an atomic and the registered replicas sit in
//! append-only slots.

use crate::lsn::{AtomicLsn, Lsn};
use crate::runtime::{lock, WaitSet};
use crate::telemetry::Telemetry;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
    /// semi-synchronous replication is `SemiSync(1)`; a majority quorum of
    /// three replicas is `SemiSync(2)` — the gate counts the registered
    /// replicas itself).
    SemiSync(usize),
}

impl DurabilityPolicy {
    /// Replica acks required before a commit may complete.
    pub fn required_acks(&self) -> usize {
        match *self {
            DurabilityPolicy::Async => 0,
            DurabilityPolicy::SemiSync(k) => k,
        }
    }

    /// Short label for experiment output.
    pub fn label(&self) -> String {
        match *self {
            DurabilityPolicy::Async => "async".into(),
            DurabilityPolicy::SemiSync(k) => format!("semisync{k}"),
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
    /// The installed policy, for [`CommitGate::policy`]; the commit path
    /// reads `required` instead.
    policy: Mutex<Option<DurabilityPolicy>>,
    /// Replica acks a commit needs: the policy's
    /// [`DurabilityPolicy::required_acks`], 0 without one.
    required: AtomicUsize,
    replicas: Replicas,
    /// Set when replication is known dead (primary failure simulation):
    /// waiters stop blocking, but their commits report *unreplicated*.
    poisoned: AtomicBool,
    /// Threads in [`CommitGate::wait_effective`] and
    /// [`crate::commit::CommitHandle::wait`].
    pub(crate) wait: WaitSet,
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
        *lock(&self.policy) = Some(policy);
        self.required
            .store(policy.required_acks(), Ordering::SeqCst);
        self.notify();
    }

    /// The installed policy, if any.
    pub fn policy(&self) -> Option<DurabilityPolicy> {
        *lock(&self.policy)
    }

    /// Replica acks a commit needs before it completes (0: none).
    pub fn required_acks(&self) -> usize {
        self.required.load(Ordering::SeqCst)
    }

    /// Register a replica; the returned handle is advanced as its acks
    /// arrive.
    pub fn register_replica(&self) -> Arc<ReplicaAck> {
        let ack = Arc::new(ReplicaAck::default());
        self.replicas.push(Arc::clone(&ack));
        ack
    }

    /// Remove a replica's ack handle (identity comparison). A quarantined
    /// or replaced replica must be unregistered, or its stalled watermark
    /// clamps log truncation and holds the replication floor down forever.
    /// Waiters are re-notified — removing a laggard can only *raise* the
    /// floor. Returns whether the handle was registered.
    pub fn unregister_replica(&self, ack: &Arc<ReplicaAck>) -> bool {
        let removed = self.replicas.remove(ack);
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
            .live()
            .map(ReplicaAck::acked)
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
        match self.required_acks() {
            0 => Lsn::MAX,
            k => self.replicas.kth_highest(k),
        }
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

    /// Wake threads blocked in [`CommitGate::wait_effective`] or a
    /// [`crate::commit::CommitHandle::wait`]. Called after any ack advance
    /// and by every advance of the commit watermark; free when nobody waits
    /// (the pipelined protocols never do).
    pub fn notify(&self) {
        // A replica's removal is a `SeqCst` store, but an ack or a
        // registration may come from a caller's relaxed write: order them
        // with the count here.
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

/// Registered replicas' acks in slots that are set once and never move, so
/// the gate reads them without a lock: a chunk of slots, and another chunk
/// behind it once they are all taken. Unregistering clears a slot's `live`
/// flag; the slot is not reused.
#[derive(Debug, Default)]
struct Replicas {
    slots: [OnceLock<(Arc<ReplicaAck>, AtomicBool)>; 8],
    more: OnceLock<Box<Replicas>>,
}

impl Replicas {
    fn chunks(&self) -> impl Iterator<Item = &Replicas> {
        std::iter::successors(Some(self), |c| c.more.get().map(|b| &**b))
    }

    fn entries(&self) -> impl Iterator<Item = &(Arc<ReplicaAck>, AtomicBool)> {
        self.chunks()
            .flat_map(|c| c.slots.iter().filter_map(OnceLock::get))
    }

    /// The registered replicas' acks.
    fn live(&self) -> impl Iterator<Item = &ReplicaAck> {
        self.entries()
            .filter(|(_, live)| live.load(Ordering::SeqCst))
            .map(|(ack, _)| &**ack)
    }

    fn push(&self, ack: Arc<ReplicaAck>) {
        let mut entry = (ack, AtomicBool::new(true));
        let mut chunk = self;
        loop {
            for slot in &chunk.slots {
                match slot.set(entry) {
                    Ok(()) => return,
                    Err(taken) => entry = taken,
                }
            }
            chunk = chunk.more.get_or_init(Box::default);
        }
    }

    /// Unregister `ack`; whether it was registered.
    fn remove(&self, ack: &Arc<ReplicaAck>) -> bool {
        self.entries()
            .filter(|(a, _)| Arc::ptr_eq(a, ack))
            .any(|(_, live)| live.swap(false, Ordering::SeqCst))
    }

    /// The highest LSN that at least `k` replicas have acked; [`Lsn::ZERO`]
    /// with fewer than `k` registered. Counts instead of sorting: no
    /// allocation, and a handful of replicas.
    fn kth_highest(&self, k: usize) -> Lsn {
        let mut floor = Lsn::ZERO;
        let mut n = 0;
        for ack in self.live() {
            n += 1;
            let lsn = ack.acked();
            if lsn > floor && self.live().filter(|a| a.acked() >= lsn).count() >= k {
                floor = lsn;
            }
        }
        if n < k {
            Lsn::ZERO
        } else {
            floor
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        g.set_policy(DurabilityPolicy::SemiSync(2));
        assert_eq!(DurabilityPolicy::SemiSync(2).label(), "semisync2");
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
    fn the_kth_highest_ack_follows_registration_and_removal() {
        let g = CommitGate::new();
        g.set_policy(DurabilityPolicy::SemiSync(2));
        // Past one chunk of slots.
        let acks: Vec<_> = (1..=20u64)
            .map(|i| g.register_replica_at(Lsn(i * 10)))
            .collect();
        assert_eq!(g.replicated_floor(), Lsn(190));
        assert!(g.unregister_replica(&acks[19]));
        assert!(!g.unregister_replica(&acks[19]), "once");
        assert_eq!(g.replicated_floor(), Lsn(180));
        assert_eq!(g.slowest_ack(), Lsn(10));
        g.set_policy(DurabilityPolicy::SemiSync(20));
        assert_eq!(g.replicated_floor(), Lsn::ZERO, "19 registered");
    }
}
