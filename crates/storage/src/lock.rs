//! The lock manager.
//!
//! Shared/exclusive (S/X) locks on rows — enough for the TPC-B and TATP
//! transactions the paper drives, while keeping the lock manager itself
//! uncontended so logging dominates (the paper uses Speculative Lock
//! Inheritance for the same reason, §6.1). The storage layer takes row
//! locks only, so there are no table-level locks and no intention modes:
//! nothing ever took a table S or X lock, and intention modes are
//! compatible with each other, so table locks excluded nothing while every
//! transaction paid two acquisitions of one shared entry per table.
//!
//! **Early Lock Release** is a *policy* of the commit path (see
//! [`crate::txn`]): the lock manager just provides `release_all`, and the
//! commit protocol decides whether to call it before or after the log flush.
//! That is exactly DeWitt et al.'s formulation: locks may be released as soon
//! as the commit record is *in the log buffer*, provided the client is not
//! told before the record is durable (§3.1).
//!
//! A waiter is queued or holding: whoever changes a queue — a release, a
//! time-out, a deadlock victim leaving — moves its grantable FIFO prefix
//! into the holders under the shard lock, so a woken waiter only looks
//! whether it holds the lock. Deadlocks: a wait-for graph, always on,
//! aborts the requester that closes a cycle; a wait time-out backs it up.
//! A transaction has edges in the graph only while it is queued, so one
//! that never waits never touches the graph, and an entry that empties
//! leaves its storage for the next lock its shard makes: an uncontended
//! acquire and release allocate nothing and take only the row's shard
//! lock.

use crate::error::{StorageError, StorageResult};
use aether_core::runtime::{self, lock, WaitSet};
use aether_core::telemetry::{CounterId, Telemetry, Unit};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Row lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared.
    S,
    /// Exclusive.
    X,
}

impl LockMode {
    /// Only two shared locks are compatible.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::S, LockMode::S))
    }

    /// Whether holding `self` already covers a request for `other` from the
    /// same transaction (mode dominance for re-entrant acquisition).
    pub fn covers(self, other: LockMode) -> bool {
        self == LockMode::X || self == other
    }
}

/// What a lock protects: one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId {
    /// Table id.
    pub table: u32,
    /// Row key.
    pub key: u64,
}

impl LockId {
    /// Row-level lock id.
    pub fn row(table: u32, key: u64) -> LockId {
        LockId { table, key }
    }
}

#[derive(Debug)]
struct Waiter {
    txn: u64,
    mode: LockMode,
}

#[derive(Debug, Default)]
struct Entry {
    granted: Vec<(u64, LockMode)>,
    waiters: VecDeque<Waiter>,
}

impl Entry {
    fn holds(&self, txn: u64) -> bool {
        self.granted.iter().any(|&(t, _)| t == txn)
    }

    /// Is `mode` compatible with every other holder?
    fn admits(&self, txn: u64, mode: LockMode) -> bool {
        self.granted
            .iter()
            .all(|&(t, m)| t == txn || m.compatible(mode))
    }

    /// Whom queued `txn` waits for: every holder, and every waiter ahead of
    /// it whose mode conflicts with `mode` — the FIFO serves those first.
    fn blockers(&self, txn: u64, mode: LockMode) -> Vec<u64> {
        let ahead = self
            .waiters
            .iter()
            .take_while(|w| w.txn != txn)
            .filter(|w| !w.mode.compatible(mode));
        let holders = self.granted.iter().map(|&(t, _)| t);
        holders.chain(ahead.map(|w| w.txn)).collect()
    }
}

/// The lock table's hash: one multiply and one fold per word, for the
/// shard choice and the shard's map alike. A row id is two integers that
/// no client chooses to collide, so a keyed hash buys nothing here.
#[derive(Default)]
struct LockHasher(u64);

impl Hasher for LockHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        let m = u128::from(self.0 ^ v) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type LockMap = HashMap<LockId, Entry, BuildHasherDefault<LockHasher>>;

/// One shard's lock table: an entry per lock that has a holder or a
/// waiter, and the storage of entries that emptied, kept for the next.
struct Entries {
    live: LockMap,
    spare: Vec<Entry>,
}

impl Entries {
    /// The entry for `id`, made from a spare one if it has none.
    fn entry(&mut self, id: LockId) -> &mut Entry {
        let Entries { live, spare } = self;
        live.entry(id)
            .or_insert_with(|| spare.pop().unwrap_or_default())
    }

    /// Drop `id`'s entry, which has emptied, keeping its storage.
    fn retire(&mut self, id: LockId) {
        let e = self.live.remove(&id).expect("a live entry");
        debug_assert!(e.granted.is_empty() && e.waiters.is_empty());
        if self.spare.len() < SPARE_ENTRIES {
            self.spare.push(e);
        }
    }
}

/// Aligned to two cache lines, so that connections working in different
/// shards never share a line (adjacent-line prefetch pairs them).
#[repr(align(128))]
struct Shard {
    entries: Mutex<Entries>,
    /// The shard's waiters, parked until `entries` lists them as holders.
    granted: WaitSet,
}

/// Hash shards over the lock table.
const SHARDS: usize = 64;
/// Emptied entries a shard keeps for reuse: the lock table grows with the
/// locks held at once, not with every key ever locked.
const SPARE_ENTRIES: usize = 8;

/// Lock-manager tuning.
#[derive(Debug, Clone)]
pub struct LockConfig {
    /// Give up (`LockTimeout`) after waiting this long — a backstop: the
    /// wait-for graph ends every cycle at once.
    pub timeout: Duration,
}

impl Default for LockConfig {
    fn default() -> Self {
        LockConfig {
            timeout: Duration::from_secs(10),
        }
    }
}

/// The wait-for graph behind deadlock detection, striped by transaction id.
///
/// The graph used to live under one global mutex, which serialized *every*
/// conflicting lock acquisition in the system — even though lock entries
/// themselves are sharded — and was held across the whole cycle-detection
/// DFS. Striping bounds each lock hold to a single edge-list read or write:
/// a blocking transaction records its out-edges in its own stripe, and the
/// DFS locks one stripe at a time as it walks. The walk therefore sees a
/// slightly stale composite view; that is the standard trade for concurrent
/// detection. A waiter's edges are exact whenever its shard lock is free —
/// holders plus conflicting waiters ahead, set at enqueue and republished by
/// every release, time-out or victim exit on its queue — and a queue change
/// only ever removes edges, so a cycle closes at an enqueue and the enqueuer
/// that closes it sees it. A spurious one (a walk racing a hand-over) merely
/// aborts a victim that retries (the same outcome the timeout would produce).
#[derive(Debug)]
struct WaitForGraph {
    stripes: Box<[WaitStripe]>,
}

/// One stripe of the wait-for graph: blocked txn → the txns it waits on.
type WaitStripe = Mutex<HashMap<u64, Vec<u64>>>;

impl WaitForGraph {
    /// Power-of-two stripe count: index by the low bits of the txn id
    /// (sequentially allocated, so consecutive transactions spread evenly).
    const STRIPES: usize = 32;

    fn new() -> WaitForGraph {
        WaitForGraph {
            stripes: (0..Self::STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn stripe(&self, txn: u64) -> &WaitStripe {
        &self.stripes[(txn as usize) & (Self::STRIPES - 1)]
    }

    fn set_edges(&self, txn: u64, blockers: Vec<u64>) {
        lock(self.stripe(txn)).insert(txn, blockers);
    }

    fn clear(&self, txn: u64) {
        lock(self.stripe(txn)).remove(&txn);
    }

    /// Is there a path back to `from` starting at its out-edges? Each step
    /// locks exactly one stripe briefly.
    fn has_cycle_from(&self, from: u64, blockers: &[u64]) -> bool {
        let mut stack = blockers.to_vec();
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == from {
                return true;
            }
            if seen.insert(t) {
                if let Some(next) = lock(self.stripe(t)).get(&t) {
                    stack.extend_from_slice(next);
                }
            }
        }
        false
    }
}

/// The lock manager.
pub struct LockManager {
    shards: Box<[Shard]>,
    timeout: Duration,
    /// Wait-for edges: blocked txn → txns it waits on. Striped so the slow
    /// path (an actual block) does not serialize unrelated conflicts; see
    /// [`WaitForGraph`].
    waits_for: WaitForGraph,
    /// The registry the `lock.*` counters below live on.
    tel: Arc<Telemetry>,
    /// `lock.wait_ns`: total nanoseconds spent blocked in `acquire` (Figure
    /// 2/3/7 breakdowns: this is delay (B), log-induced lock contention,
    /// when the holder is in its commit flush).
    wait_ns: CounterId,
    /// `lock.blocked_acquires`: acquires that had to block.
    blocked_acquires: CounterId,
    /// `lock.deadlock_victims`: acquires refused as deadlock victims
    /// (detector cycles and conservative upgrade refusals).
    deadlock_victims: CounterId,
    /// `lock.timeouts`: acquires that gave up on timeout.
    lock_timeouts: CounterId,
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("timeout", &self.timeout)
            .finish()
    }
}

impl LockManager {
    /// Build with `config`, counting on `tel`.
    pub fn new(config: LockConfig, tel: &Arc<Telemetry>) -> Arc<LockManager> {
        let shards = (0..SHARDS)
            .map(|_| Shard {
                entries: Mutex::new(Entries {
                    live: LockMap::default(),
                    spare: Vec::with_capacity(SPARE_ENTRIES),
                }),
                granted: WaitSet::new(),
            })
            .collect();
        Arc::new(LockManager {
            shards,
            timeout: config.timeout,
            waits_for: WaitForGraph::new(),
            tel: Arc::clone(tel),
            wait_ns: tel.counter("lock.wait_ns", Unit::Nanos),
            blocked_acquires: tel.counter("lock.blocked_acquires", Unit::Count),
            deadlock_victims: tel.counter("lock.deadlock_victims", Unit::Count),
            lock_timeouts: tel.counter("lock.timeouts", Unit::Count),
        })
    }

    /// Total nanoseconds spent blocked waiting for locks.
    pub fn wait_ns(&self) -> u64 {
        self.tel.count(self.wait_ns)
    }

    /// Number of acquires that blocked.
    pub fn blocked_acquires(&self) -> u64 {
        self.tel.count(self.blocked_acquires)
    }

    /// Acquires refused as deadlock victims.
    pub fn deadlock_victims(&self) -> u64 {
        self.tel.count(self.deadlock_victims)
    }

    /// Acquires that gave up on timeout.
    pub fn lock_timeouts(&self) -> u64 {
        self.tel.count(self.lock_timeouts)
    }

    fn shard(&self, id: LockId) -> &Shard {
        let mut h = LockHasher::default();
        id.hash(&mut h);
        // Bits the shard's map does not index by: its bucket takes the low
        // ones and its tag the top seven.
        &self.shards[(h.finish() >> 32) as usize % SHARDS]
    }

    /// Acquire `mode` on `id` for `txn`, blocking until granted. Re-entrant:
    /// already-covering holds return immediately; S→X upgrades succeed when
    /// `txn` is the sole holder.
    ///
    /// Errors with [`StorageError::Deadlock`] (detector) or
    /// [`StorageError::LockTimeout`] (timeout) — both retryable; the caller
    /// must roll the transaction back.
    pub fn acquire(&self, txn: u64, id: LockId, mode: LockMode) -> StorageResult<()> {
        let shard = self.shard(id);
        let mut entries = lock(&shard.entries);
        let entry = entries.entry(id);

        // Re-entrant / upgrade handling.
        if let Some(pos) = entry.granted.iter().position(|&(t, _)| t == txn) {
            if entry.granted[pos].1.covers(mode) {
                return Ok(());
            }
            // Conservative: an upgrade that would wait behind other holders
            // is a classic deadlock source; fail fast as a victim.
            if !entry.waiters.is_empty() || !entry.admits(txn, mode) {
                self.tel.inc(self.deadlock_victims);
                return Err(StorageError::Deadlock { txn });
            }
            entry.granted[pos].1 = mode;
            return Ok(());
        }

        // FIFO: a newcomer passes nobody already queued.
        if entry.waiters.is_empty() && entry.admits(txn, mode) {
            entry.granted.push((txn, mode));
            return Ok(());
        }

        // Slow path: enqueue, publish our edges, and leave at once as the
        // victim if they close a cycle. Publishing before walking means two
        // transactions closing a cycle concurrently each see the other's
        // edges, so at least one of them detects it.
        entry.waiters.push_back(Waiter { txn, mode });
        let blockers = entry.blockers(txn, mode);
        self.waits_for.set_edges(txn, blockers.clone());
        if self.waits_for.has_cycle_from(txn, &blockers) {
            self.leave(entry, txn);
            self.tel.inc(self.deadlock_victims);
            return Err(StorageError::Deadlock { txn });
        }
        self.tel.inc(self.blocked_acquires);
        drop(entries);

        let wait_started = runtime::monotonic_ns();
        // A grant is published under `entries`, which this look takes too:
        // that orders it before the waiter count `notify` reads.
        let granted = shard
            .granted
            .wait_until(Some(self.timeout), || {
                lock(&shard.entries).live[&id].holds(txn).then_some(())
            })
            .is_some();
        let dt = runtime::monotonic_ns().saturating_sub(wait_started);
        self.tel.add(self.wait_ns, dt);
        if granted {
            return Ok(());
        }
        let mut entries = lock(&shard.entries);
        let entry = entries
            .live
            .get_mut(&id)
            .expect("entry vanished on timeout");
        // The time-out's one look: a grant may have come after the last one.
        if entry.holds(txn) {
            return Ok(());
        }
        self.leave(entry, txn);
        drop(entries);
        shard.granted.notify();
        self.tel.inc(self.lock_timeouts);
        Err(StorageError::LockTimeout { txn })
    }

    /// Grant `mode` on `id` to `txn` if nobody would have to wait for it,
    /// and say whether it did. It never queues, so it never waits, never
    /// adds a wait-for edge and never makes a deadlock: for a caller that
    /// already holds other locks and would rather stop than wait (a run of
    /// auto-commits, `Db::update_commit_run`).
    pub fn try_grant(&self, txn: u64, id: LockId, mode: LockMode) -> bool {
        let mut entries = lock(&self.shard(id).entries);
        let entry = entries.entry(id);
        if let Some(&(_, held)) = entry.granted.iter().find(|&&(t, _)| t == txn) {
            return held.covers(mode);
        }
        // A refusal leaves the entry as it found it, and it has a holder or
        // a waiter, so it is not an emptied entry left behind.
        let free = entry.waiters.is_empty() && entry.admits(txn, mode);
        if free {
            entry.granted.push((txn, mode));
        }
        free
    }

    /// Release one lock held by `txn`.
    pub fn release(&self, txn: u64, id: LockId) {
        let shard = self.shard(id);
        let mut entries = lock(&shard.entries);
        let Some(entry) = entries.live.get_mut(&id) else {
            return;
        };
        entry.granted.retain(|&(t, _)| t != txn);
        self.grant_waiters(entry);
        // With no holder left, `grant_waiters` has emptied the queue too.
        if entry.granted.is_empty() {
            entries.retire(id);
        }
        drop(entries);
        shard.granted.notify();
    }

    /// Release every lock in `held` — the commit/abort path. Under ELR this
    /// is called *before* the log flush; under the baseline protocol, after.
    /// The wait-for graph is not touched: a transaction has edges only
    /// while it is queued, and whatever ends its wait — a grant, a time-out,
    /// or its exit as a victim — clears them, under the shard lock of the
    /// one queue it was on.
    pub fn release_all(&self, txn: u64, held: &[LockId]) {
        for &id in held {
            self.release(txn, id);
        }
    }

    /// Take queued `txn` off `entry` — a victim or a time-out — and hand
    /// the lock on to whoever that lets through.
    fn leave(&self, entry: &mut Entry, txn: u64) {
        entry.waiters.retain(|w| w.txn != txn);
        self.waits_for.clear(txn);
        self.grant_waiters(entry);
    }

    /// Grant the queue's compatible FIFO prefix — each such waiter moves
    /// into the holders and waits for nobody — and republish whom each of
    /// the rest now waits for. Every change to a queue ends here, under its
    /// shard lock, so the wait-for edges never lag a hand-over. (Waiting for
    /// the waiters to refresh their own edges when they wake leaves a window
    /// in which a txn that has moved on still looks like a blocker, and the
    /// walk finds cycles that are not there.)
    fn grant_waiters(&self, entry: &mut Entry) {
        while let Some(&Waiter { txn, mode }) = entry.waiters.front() {
            if !entry.admits(txn, mode) {
                break; // strict FIFO beyond the first blocked waiter
            }
            entry.waiters.pop_front();
            entry.granted.push((txn, mode));
            self.waits_for.clear(txn);
        }
        for w in &entry.waiters {
            self.waits_for
                .set_edges(w.txn, entry.blockers(w.txn, w.mode));
        }
    }

    /// Number of locks currently granted (diagnostics/tests).
    pub fn granted_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                lock(&s.entries)
                    .live
                    .values()
                    .map(|e| e.granted.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aether_core::telemetry::TelemetryConfig;

    fn mgr(timeout_ms: u64) -> Arc<LockManager> {
        let tel = Arc::new(Telemetry::new(&TelemetryConfig::default()));
        LockManager::new(
            LockConfig {
                timeout: Duration::from_millis(timeout_ms),
            },
            &tel,
        )
    }

    /// Would `txn` get `mode` on `id` within the manager's time-out? It
    /// holds the lock if so.
    fn try_acquire(m: &LockManager, txn: u64, id: LockId, mode: LockMode) -> bool {
        match m.acquire(txn, id, mode) {
            Ok(()) => true,
            Err(StorageError::LockTimeout { .. }) => false,
            Err(e) => panic!("probe refused: {e:?}"),
        }
    }

    /// Wait until `n` acquires have entered the blocked slow path — the
    /// ack-based replacement for "sleep and hope the other thread got
    /// there": the counter is bumped after the waiter is enqueued (and its
    /// wait-for edges published), which is exactly the state the callers
    /// below need to observe.
    fn wait_until_blocked(m: &LockManager, n: u64) {
        while m.blocked_acquires() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(S.compatible(S));
        assert!(!S.compatible(X));
        assert!(!X.compatible(X));
    }

    #[test]
    fn covers_dominance() {
        use LockMode::*;
        assert!(X.covers(S));
        assert!(S.covers(S));
        assert!(!S.covers(X));
    }

    #[test]
    fn shared_locks_coexist_exclusive_blocks() {
        let m = mgr(50);
        let id = LockId::row(1, 42);
        m.acquire(1, id, LockMode::S).unwrap();
        m.acquire(2, id, LockMode::S).unwrap();
        assert!(!try_acquire(&m, 3, id, LockMode::X));
        assert!(matches!(
            m.acquire(3, id, LockMode::X),
            Err(StorageError::LockTimeout { txn: 3 })
        ));
        m.release_all(1, &[id]);
        m.release_all(2, &[id]);
        assert!(try_acquire(&m, 3, id, LockMode::X));
        m.release_all(3, &[id]);
        assert_eq!(m.granted_count(), 0);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let m = mgr(50);
        let id = LockId::row(1, 7);
        m.acquire(1, id, LockMode::S).unwrap();
        m.acquire(1, id, LockMode::S).unwrap(); // re-entrant
        m.acquire(1, id, LockMode::X).unwrap(); // sole-holder upgrade
        assert!(!try_acquire(&m, 2, id, LockMode::S));
        m.release_all(1, &[id]);
        assert!(try_acquire(&m, 2, id, LockMode::S));
    }

    #[test]
    fn blocked_then_granted_on_release() {
        let m = mgr(5000);
        let id = LockId::row(1, 1);
        m.acquire(1, id, LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || m2.acquire(2, id, LockMode::X));
        wait_until_blocked(&m, 1);
        assert!(!t.is_finished());
        m.release_all(1, &[id]);
        t.join().unwrap().unwrap();
        m.release_all(2, &[id]);
    }

    #[test]
    fn fifo_ordering_of_waiters() {
        let m = mgr(5000);
        let id = LockId::row(9, 9);
        m.acquire(1, id, LockMode::X).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = vec![];
        for txn in 2..=4u64 {
            let m2 = Arc::clone(&m);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                m2.acquire(txn, id, LockMode::X).unwrap();
                lock(&order).push(txn);
                m2.release_all(txn, &[id]);
            }));
            // Stagger arrivals so the queue order is deterministic: wait for
            // this waiter to be enqueued before launching the next.
            wait_until_blocked(&m, txn - 1);
        }
        m.release_all(1, &[id]);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(&*lock(&order), &[2, 3, 4]);
    }

    #[test]
    fn deadlock_detector_picks_victim() {
        let m = mgr(5000);
        let a = LockId::row(1, 1);
        let b = LockId::row(1, 2);
        m.acquire(1, a, LockMode::X).unwrap();
        m.acquire(2, b, LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            // txn 1 waits for b (held by 2)
            m2.acquire(1, b, LockMode::X)
        });
        // Wait for txn 1's wait-for edges to be published.
        wait_until_blocked(&m, 1);
        // txn 2 requesting a closes the cycle → victim.
        let r = m.acquire(2, a, LockMode::X);
        assert!(matches!(r, Err(StorageError::Deadlock { txn: 2 })));
        // Victim rolls back, releasing b; txn 1 proceeds.
        m.release_all(2, &[b]);
        t.join().unwrap().unwrap();
        m.release_all(1, &[a, b]);
    }

    /// Txn 2 holds `a` and asks for `d`; txn 3 holds `d` and waits for `a`.
    /// Both run on their own thread and roll back if made the victim. The
    /// cycle must end in a `Deadlock`, well inside the 5 s time-out.
    fn crossing_pair(
        m: &Arc<LockManager>,
        two: impl FnOnce() -> StorageResult<()> + Send + 'static,
        three: impl FnOnce() -> StorageResult<()> + Send + 'static,
    ) {
        let started = runtime::monotonic_ns();
        let two = std::thread::spawn(two);
        let three = std::thread::spawn(three);
        let results = [two.join().unwrap(), three.join().unwrap()];
        assert!(
            results
                .iter()
                .all(|r| !matches!(r, Err(StorageError::LockTimeout { .. }))),
            "a cycle waited out the time-out: {results:?}"
        );
        assert!(results.iter().any(|r| r.is_err()), "{results:?}");
        assert!(runtime::monotonic_ns() - started < 2_000_000_000);
        assert_eq!(m.granted_count(), 0);
    }

    #[test]
    fn detector_sees_a_cycle_through_a_waiter_ahead() {
        // 3 queues for `a` behind waiting 2; when 1 lets go, `a` passes to 2,
        // which then asks for `d`. 3 waits for 2 only because the FIFO serves
        // 2 first: with edges to the holders alone it never says so.
        let m = mgr(5000);
        let (a, d) = (LockId::row(1, 1), LockId::row(1, 2));
        m.acquire(1, a, LockMode::X).unwrap();
        m.acquire(3, d, LockMode::X).unwrap();
        let (m2, m3, m1) = (Arc::clone(&m), Arc::clone(&m), Arc::clone(&m));
        let releaser = std::thread::spawn(move || {
            wait_until_blocked(&m1, 2);
            m1.release_all(1, &[a]);
        });
        crossing_pair(
            &m,
            move || {
                m2.acquire(2, a, LockMode::X).unwrap();
                let r = m2.acquire(2, d, LockMode::X);
                m2.release_all(2, &[a, d]);
                r
            },
            move || {
                wait_until_blocked(&m3, 1);
                let r = m3.acquire(3, a, LockMode::X);
                m3.release_all(3, &[a, d]);
                r
            },
        );
        releaser.join().unwrap();
    }

    /// Written for a lock granted but not yet claimed, so holderless; now the
    /// release itself makes 2 the holder, and the shape stays pinned.
    #[test]
    fn detector_sees_a_cycle_through_a_regrant() {
        // 1 lets go of `a`, handing it to waiting 2, and at once asks for it
        // again as 3 — before 2 has woken to take it, so `a` has no holder.
        // 2 then asks for `d`, which 3 holds.
        let m = mgr(5000);
        let (a, d) = (LockId::row(1, 1), LockId::row(1, 2));
        m.acquire(1, a, LockMode::X).unwrap();
        m.acquire(3, d, LockMode::X).unwrap();
        let (m2, m3) = (Arc::clone(&m), Arc::clone(&m));
        crossing_pair(
            &m,
            move || {
                m2.acquire(2, a, LockMode::X).unwrap();
                wait_until_blocked(&m2, 2);
                let r = m2.acquire(2, d, LockMode::X);
                m2.release_all(2, &[a, d]);
                r
            },
            move || {
                wait_until_blocked(&m3, 1);
                m3.release_all(1, &[a]);
                let r = m3.acquire(3, a, LockMode::X);
                m3.release_all(3, &[a, d]);
                r
            },
        );
    }

    /// `try_grant` grants what needs no wait and refuses the rest without
    /// queuing: no waiter, no wait-for edge, nothing to time out.
    #[test]
    fn try_grant_never_queues() {
        let m = mgr(5000);
        let (a, b) = (LockId::row(1, 1), LockId::row(1, 2));
        assert!(m.try_grant(1, a, LockMode::X));
        assert!(m.try_grant(1, a, LockMode::S), "a held X covers S");
        assert!(!m.try_grant(2, a, LockMode::S), "X held by another");
        assert!(m.try_grant(2, b, LockMode::S));
        assert!(m.try_grant(3, b, LockMode::S), "S beside S");
        assert!(!m.try_grant(3, b, LockMode::X), "no upgrade past a sharer");
        assert_eq!(m.blocked_acquires(), 0);
        assert!(edges(&m).is_empty());
        m.release_all(1, &[a]);
        assert!(m.try_grant(2, a, LockMode::X), "free once released");
        m.release_all(2, &[a, b]);
        m.release_all(3, &[b]);
        assert_eq!(m.granted_count(), 0);
    }

    #[test]
    fn upgrade_with_competitor_fails_fast() {
        let m = mgr(100);
        let id = LockId::row(3, 3);
        m.acquire(1, id, LockMode::S).unwrap();
        m.acquire(2, id, LockMode::S).unwrap();
        // Upgrade would deadlock against the other S holder.
        assert!(matches!(
            m.acquire(1, id, LockMode::X),
            Err(StorageError::Deadlock { txn: 1 })
        ));
        m.release_all(1, &[id]);
        m.release_all(2, &[id]);
    }

    #[test]
    fn striped_detector_resolves_many_concurrent_cycles() {
        // Eight disjoint deadlock pairs race on disjoint keys. Each pair
        // must resolve through the detector (never the 5 s timeout), even
        // though every cycle spans two graph stripes being mutated
        // concurrently with six other cycles.
        let m = mgr(5000);
        std::thread::scope(|s| {
            for pair in 0..8u64 {
                let barrier = Arc::new(std::sync::Barrier::new(2));
                for side in 0..2u64 {
                    let m = Arc::clone(&m);
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        let me = 100 + pair * 2 + side;
                        let mine = LockId::row(7, pair * 2 + side);
                        let theirs = LockId::row(7, pair * 2 + (1 - side));
                        m.acquire(me, mine, LockMode::X).unwrap();
                        barrier.wait();
                        match m.acquire(me, theirs, LockMode::X) {
                            Ok(()) => m.release_all(me, &[mine, theirs]),
                            Err(StorageError::Deadlock { .. }) => {
                                // Victim: roll back, freeing the partner.
                                m.release_all(me, &[mine]);
                            }
                            Err(e) => panic!("expected deadlock victim, got {e:?}"),
                        }
                    });
                }
            }
        });
        assert_eq!(m.granted_count(), 0);
    }

    #[test]
    fn concurrent_hammering_many_keys() {
        let m = mgr(5000);
        std::thread::scope(|s| {
            for txn in 0..8u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..500u64 {
                        let id = LockId::row(1, (txn * 31 + i) % 64);
                        m.acquire(txn, id, LockMode::X).unwrap();
                        m.release_all(txn, &[id]);
                    }
                });
            }
        });
        assert_eq!(m.granted_count(), 0);
    }

    /// Every wait-for edge in the graph, as `(txn, blockers)`.
    fn edges(m: &LockManager) -> Vec<(u64, Vec<u64>)> {
        let stripes = m.waits_for.stripes.iter();
        stripes
            .flat_map(|s| lock(s).clone().into_iter().collect::<Vec<_>>())
            .collect()
    }

    #[test]
    fn an_uncontended_acquire_and_release_leave_the_graph_untouched() {
        // Hold every stripe of the graph: a lock manager that touched it on
        // this path would block until the guards go.
        let m = mgr(5000);
        let guards: Vec<_> = m.waits_for.stripes.iter().map(lock).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let m2 = Arc::clone(&m);
        let worker = std::thread::spawn(move || {
            for txn in 1..=64u64 {
                let ids = [LockId::row(1, txn), LockId::row(2, txn)];
                for id in ids {
                    m2.acquire(txn, id, LockMode::X).unwrap();
                }
                m2.release_all(txn, &ids);
            }
            tx.send(()).unwrap();
        });
        let done = rx.recv_timeout(Duration::from_secs(10));
        drop(guards);
        worker.join().unwrap();
        assert!(
            done.is_ok(),
            "an uncontended transaction waited on the wait-for graph"
        );
        assert_eq!(m.granted_count(), 0);
    }

    #[test]
    fn a_waiter_granted_and_released_leaves_no_edges() {
        let m = mgr(5000);
        let id = LockId::row(1, 1);
        m.acquire(1, id, LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || m2.acquire(2, id, LockMode::X));
        wait_until_blocked(&m, 1);
        assert_eq!(edges(&m), vec![(2, vec![1])]);
        m.release_all(1, &[id]);
        waiter.join().unwrap().unwrap();
        assert!(
            edges(&m).is_empty(),
            "a granted waiter keeps {:?}",
            edges(&m)
        );
        m.release_all(2, &[id]);
        assert!(edges(&m).is_empty());
        assert_eq!(m.granted_count(), 0);
    }

    #[test]
    fn a_sweep_of_many_keys_leaves_no_entries_behind() {
        let m = mgr(5000);
        let ids: Vec<LockId> = (0..10_000).map(|k| LockId::row(4, k)).collect();
        for &id in &ids {
            m.acquire(1, id, LockMode::X).unwrap();
        }
        assert_eq!(m.granted_count(), 10_000);
        m.release_all(1, &ids);
        for &id in &ids {
            m.acquire(2, id, LockMode::S).unwrap();
            m.release_all(2, &[id]);
        }
        assert_eq!(m.granted_count(), 0);
        for s in m.shards.iter() {
            let entries = lock(&s.entries);
            assert!(
                entries.live.is_empty(),
                "{} entries left",
                entries.live.len()
            );
            assert!(entries.spare.len() <= SPARE_ENTRIES);
        }
    }
}
