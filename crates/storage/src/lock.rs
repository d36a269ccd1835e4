//! The lock manager.
//!
//! Hierarchical two-level locking: intention locks (IS/IX) at table
//! granularity, shared/exclusive (S/X) at row granularity — enough for the
//! TPC-B and TATP transactions the paper drives, while keeping the lock
//! manager itself uncontended so logging dominates (the paper uses
//! Speculative Lock Inheritance for the same reason, §6.1).
//!
//! **Early Lock Release** is a *policy* of the commit path (see
//! [`crate::txn`]): the lock manager just provides `release_all`, and the
//! commit protocol decides whether to call it before or after the log flush.
//! That is exactly DeWitt et al.'s formulation: locks may be released as soon
//! as the commit record is *in the log buffer*, provided the client is not
//! told before the record is durable (§3.1).
//!
//! Deadlock handling: FIFO queues plus either a wait timeout or a wait-for
//! graph with cycle detection (victim = the requester that closes the cycle).

use crate::error::{StorageError, StorageResult};
use aether_core::runtime::{self, RtCondvar};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Lock modes. Intention modes (IS/IX) are taken at table granularity;
/// S/X at row granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intention shared (table).
    IS,
    /// Intention exclusive (table).
    IX,
    /// Shared (row).
    S,
    /// Exclusive (row).
    X,
}

impl LockMode {
    /// Standard compatibility matrix (no SIX; the workloads don't need it).
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IS, X) | (X, IS) => false,
            (IS, _) | (_, IS) => true,
            (IX, IX) => true,
            (IX, _) | (_, IX) => false,
            (S, S) => true,
            (S, X) | (X, S) | (X, X) => false,
        }
    }

    /// Whether holding `self` already covers a request for `other` from the
    /// same transaction (mode dominance for re-entrant acquisition).
    pub fn covers(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (X, _) => true,
            (S, S) | (S, IS) => true,
            (IX, IX) | (IX, IS) => true,
            (IS, IS) => true,
            _ => self == other,
        }
    }
}

/// What a lock protects: a whole table (`key == TABLE_KEY`) or one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId {
    /// Table id.
    pub table: u32,
    /// Row key, or [`LockId::TABLE_KEY`] for the table-level lock.
    pub key: u64,
}

impl LockId {
    /// Sentinel key for table-granularity locks.
    pub const TABLE_KEY: u64 = u64::MAX;

    /// Table-level lock id.
    pub fn table(table: u32) -> LockId {
        LockId {
            table,
            key: Self::TABLE_KEY,
        }
    }

    /// Row-level lock id.
    pub fn row(table: u32, key: u64) -> LockId {
        debug_assert_ne!(key, Self::TABLE_KEY);
        LockId { table, key }
    }
}

#[derive(Debug)]
struct Waiter {
    txn: u64,
    mode: LockMode,
    /// Set true by a granter; the waiter rechecks under the shard lock.
    granted: bool,
}

#[derive(Debug, Default)]
struct Entry {
    granted: Vec<(u64, LockMode)>,
    waiters: VecDeque<Waiter>,
}

impl Entry {
    /// Can `txn` acquire `mode` right now? Compatible with all other
    /// holders, and FIFO-fair: no earlier waiter may be left behind.
    fn can_grant(&self, txn: u64, mode: LockMode) -> bool {
        let compat_granted = self
            .granted
            .iter()
            .all(|&(t, m)| t == txn || m.compatible(mode));
        // FIFO: grant only if this txn is the first waiter (or not a waiter
        // at all and there are none).
        let first_ok = match self.waiters.front() {
            None => true,
            Some(w) => w.txn == txn,
        };
        compat_granted && first_ok
    }

    /// Whom queued `txn` waits for now: every other holder, and every waiter
    /// ahead of it whose mode conflicts with `mode` — the FIFO serves those
    /// first, granted-but-not-yet-woken ones included.
    fn blockers(&self, txn: u64, mode: LockMode) -> Vec<u64> {
        let ahead = self
            .waiters
            .iter()
            .take_while(|w| w.txn != txn)
            .filter(|w| !w.mode.compatible(mode));
        let holders = self.granted.iter().map(|&(t, _)| t);
        holders
            .chain(ahead.map(|w| w.txn))
            .filter(|&t| t != txn)
            .collect()
    }
}

struct Shard {
    entries: Mutex<HashMap<LockId, Entry>>,
    cv: RtCondvar,
}

/// Lock-manager tuning.
#[derive(Debug, Clone)]
pub struct LockConfig {
    /// Hash shards over the lock table.
    pub shards: usize,
    /// Give up (deadlock victim) after waiting this long.
    pub timeout: Duration,
    /// Maintain a wait-for graph and abort cycle-closing requesters
    /// immediately instead of waiting for the timeout.
    pub detect_deadlocks: bool,
}

impl Default for LockConfig {
    fn default() -> Self {
        LockConfig {
            shards: 64,
            timeout: Duration::from_secs(10),
            detect_deadlocks: true,
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
/// every release, time-out or grant on its queue — and a queue change only
/// ever removes edges, so a cycle closes at an enqueue and the enqueuer that
/// closes it sees it. A spurious one (a walk racing a hand-over) merely
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

    fn set_edges(&self, txn: u64, holders: Vec<u64>) {
        self.stripe(txn).lock().insert(txn, holders);
    }

    fn clear(&self, txn: u64) {
        self.stripe(txn).lock().remove(&txn);
    }

    fn edges_of(&self, txn: u64) -> Option<Vec<u64>> {
        self.stripe(txn).lock().get(&txn).cloned()
    }

    /// Is there a path back to `from` starting at its out-edges? Each step
    /// locks exactly one stripe briefly.
    fn has_cycle_from(&self, from: u64, holders: &[u64]) -> bool {
        let mut stack: Vec<u64> = holders.to_vec();
        let mut seen = std::collections::HashSet::new();
        while let Some(t) = stack.pop() {
            if t == from {
                return true;
            }
            if seen.insert(t) {
                if let Some(next) = self.edges_of(t) {
                    stack.extend_from_slice(&next);
                }
            }
        }
        false
    }
}

/// The lock manager.
pub struct LockManager {
    shards: Box<[Shard]>,
    config: LockConfig,
    /// Wait-for edges: blocked txn → txns it waits on. Striped so the slow
    /// path (an actual block) does not serialize unrelated conflicts; see
    /// [`WaitForGraph`].
    waits_for: WaitForGraph,
    /// Total nanoseconds spent blocked in `acquire` (Figure 2/3/7 breakdowns:
    /// this is delay (B), log-induced lock contention, when the holder is in
    /// its commit flush).
    wait_ns: std::sync::atomic::AtomicU64,
    /// Number of acquires that had to block.
    blocked_acquires: std::sync::atomic::AtomicU64,
    /// Acquires refused as deadlock victims (detector cycles and
    /// conservative upgrade refusals).
    deadlock_victims: std::sync::atomic::AtomicU64,
    /// Acquires that gave up on timeout.
    lock_timeouts: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl LockManager {
    /// Build with `config`.
    pub fn new(config: LockConfig) -> Arc<LockManager> {
        let shards = (0..config.shards.max(1))
            .map(|_| Shard {
                entries: Mutex::new(HashMap::new()),
                cv: RtCondvar::new(),
            })
            .collect();
        Arc::new(LockManager {
            shards,
            config,
            waits_for: WaitForGraph::new(),
            wait_ns: std::sync::atomic::AtomicU64::new(0),
            blocked_acquires: std::sync::atomic::AtomicU64::new(0),
            deadlock_victims: std::sync::atomic::AtomicU64::new(0),
            lock_timeouts: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Total nanoseconds spent blocked waiting for locks.
    pub fn wait_ns(&self) -> u64 {
        self.wait_ns.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of acquires that blocked.
    pub fn blocked_acquires(&self) -> u64 {
        self.blocked_acquires
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Acquires refused as deadlock victims.
    pub fn deadlock_victims(&self) -> u64 {
        self.deadlock_victims
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Acquires that gave up on timeout.
    pub fn lock_timeouts(&self) -> u64 {
        self.lock_timeouts
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    fn shard(&self, id: LockId) -> &Shard {
        // FNV-ish mix of table+key.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in id.table.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        for b in id.key.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
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
        let mut entries = shard.entries.lock();
        let entry = entries.entry(id).or_default();

        // Re-entrant / upgrade handling.
        if let Some(pos) = entry.granted.iter().position(|&(t, _)| t == txn) {
            let held = entry.granted[pos].1;
            if held.covers(mode) {
                return Ok(());
            }
            // Upgrade: allowed immediately iff no other holder conflicts.
            let others_compatible = entry
                .granted
                .iter()
                .all(|&(t, m)| t == txn || m.compatible(mode));
            if others_compatible && entry.waiters.is_empty() {
                entry.granted[pos].1 = mode;
                return Ok(());
            }
            // Conservative: upgrades that would wait behind other holders
            // are a classic deadlock source; fail fast as a victim.
            self.deadlock_victims
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Err(StorageError::Deadlock { txn });
        }

        if entry.can_grant(txn, mode) {
            entry.granted.push((txn, mode));
            return Ok(());
        }

        // Slow path: enqueue and (optionally) run deadlock detection.
        entry.waiters.push_back(Waiter {
            txn,
            mode,
            granted: false,
        });
        if self.config.detect_deadlocks && self.would_deadlock(txn, &entry.blockers(txn, mode)) {
            // Remove ourselves and bail out as the victim.
            entry.waiters.retain(|w| w.txn != txn);
            self.deadlock_victims
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Err(StorageError::Deadlock { txn });
        }

        let wait_started = runtime::monotonic_ns();
        let deadline = wait_started.saturating_add(self.config.timeout.as_nanos() as u64);
        self.blocked_acquires
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let charge = |start_ns: u64| {
            let dt = runtime::monotonic_ns().saturating_sub(start_ns);
            self.wait_ns
                .fetch_add(dt, std::sync::atomic::Ordering::Relaxed);
        };
        loop {
            // A release may have granted us while we weren't looking.
            let entry = entries.get_mut(&id).expect("entry vanished while waiting");
            if let Some(w) = entry.waiters.iter().find(|w| w.txn == txn) {
                if w.granted {
                    entry.waiters.retain(|w| w.txn != txn);
                    entry.granted.push((txn, mode));
                    charge(wait_started);
                    return Ok(());
                }
            }
            let now = runtime::monotonic_ns();
            let timed_out = if now >= deadline {
                true
            } else {
                let (g, timed_out) = shard.cv.wait_for(
                    &shard.entries,
                    entries,
                    Duration::from_nanos(deadline - now),
                );
                entries = g;
                timed_out
            };
            if timed_out {
                let entry = entries.get_mut(&id).expect("entry vanished on timeout");
                // One last re-check: a grant may have raced the timeout.
                if let Some(w) = entry.waiters.iter().find(|w| w.txn == txn) {
                    if w.granted {
                        continue;
                    }
                }
                entry.waiters.retain(|w| w.txn != txn);
                self.clear_waits(txn);
                // The waiters behind us may be grantable now, and they no
                // longer wait for us.
                self.grant_waiters(entry);
                shard.cv.notify_all();
                charge(wait_started);
                self.lock_timeouts
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Err(StorageError::LockTimeout { txn });
            }
        }
    }

    /// Non-blocking acquire; `Ok(false)` when it would have to wait.
    pub fn try_acquire(&self, txn: u64, id: LockId, mode: LockMode) -> StorageResult<bool> {
        let shard = self.shard(id);
        let mut entries = shard.entries.lock();
        let entry = entries.entry(id).or_default();
        if let Some(pos) = entry.granted.iter().position(|&(t, _)| t == txn) {
            let held = entry.granted[pos].1;
            if held.covers(mode) {
                return Ok(true);
            }
            let others_compatible = entry
                .granted
                .iter()
                .all(|&(t, m)| t == txn || m.compatible(mode));
            if others_compatible && entry.waiters.is_empty() {
                entry.granted[pos].1 = mode;
                return Ok(true);
            }
            return Ok(false);
        }
        if entry.can_grant(txn, mode) {
            entry.granted.push((txn, mode));
            return Ok(true);
        }
        Ok(false)
    }

    /// Release one lock held by `txn`.
    pub fn release(&self, txn: u64, id: LockId) {
        let shard = self.shard(id);
        let mut entries = shard.entries.lock();
        let remove = if let Some(entry) = entries.get_mut(&id) {
            entry.granted.retain(|&(t, _)| t != txn);
            self.grant_waiters(entry);
            entry.granted.is_empty() && entry.waiters.is_empty()
        } else {
            false
        };
        if remove {
            entries.remove(&id);
        }
        shard.cv.notify_all();
    }

    /// Release every lock in `held` — the commit/abort path. Under ELR this
    /// is called *before* the log flush; under the baseline protocol, after.
    pub fn release_all(&self, txn: u64, held: &[LockId]) {
        for &id in held {
            self.release(txn, id);
        }
        self.clear_waits(txn);
    }

    /// Mark grantable waiters (in FIFO order) — they complete the grant
    /// themselves when they wake — and republish whom each of the rest now
    /// waits for. Every change to a queue ends here, under its shard lock, so
    /// the wait-for edges never lag a hand-over: a granted waiter waits for
    /// nobody, and the others for the new holders and whoever is still ahead.
    /// (Waiting for the waiters to refresh their own edges when they wake
    /// leaves a window in which a txn that has moved on still looks like a
    /// blocker, and the walk finds cycles that are not there.)
    fn grant_waiters(&self, entry: &mut Entry) {
        // Walk waiters in order; grant a prefix of mutually-compatible ones.
        let mut granted_modes: Vec<(u64, LockMode)> = entry.granted.clone();
        for w in entry.waiters.iter_mut() {
            if w.granted {
                granted_modes.push((w.txn, w.mode));
                continue;
            }
            let ok = granted_modes
                .iter()
                .all(|&(t, m)| t == w.txn || m.compatible(w.mode));
            if ok {
                w.granted = true;
                granted_modes.push((w.txn, w.mode));
            } else {
                break; // strict FIFO beyond the first blocked waiter
            }
        }
        if self.config.detect_deadlocks {
            for w in &entry.waiters {
                if w.granted {
                    self.clear_waits(w.txn);
                } else {
                    self.waits_for
                        .set_edges(w.txn, entry.blockers(w.txn, w.mode));
                }
            }
        }
    }

    /// Record `txn → blockers` wait edges and check for a cycle including
    /// `txn`. Returns true if waiting would deadlock. Publishing the edges
    /// before walking means two transactions closing a cycle concurrently
    /// each see the other's edges, so at least one of them detects it.
    fn would_deadlock(&self, txn: u64, blockers: &[u64]) -> bool {
        self.waits_for.set_edges(txn, blockers.to_vec());
        if self.waits_for.has_cycle_from(txn, blockers) {
            self.waits_for.clear(txn);
            return true;
        }
        false
    }

    fn clear_waits(&self, txn: u64) {
        self.waits_for.clear(txn);
    }

    /// Number of locks currently granted (diagnostics/tests).
    pub fn granted_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.entries
                    .lock()
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

    fn mgr(timeout_ms: u64, detect: bool) -> Arc<LockManager> {
        LockManager::new(LockConfig {
            shards: 8,
            timeout: Duration::from_millis(timeout_ms),
            detect_deadlocks: detect,
        })
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
        assert!(IS.compatible(IS));
        assert!(IS.compatible(IX));
        assert!(IS.compatible(S));
        assert!(!IS.compatible(X));
        assert!(IX.compatible(IX));
        assert!(!IX.compatible(S));
        assert!(!IX.compatible(X));
        assert!(S.compatible(S));
        assert!(!S.compatible(X));
        assert!(!X.compatible(X));
    }

    #[test]
    fn covers_dominance() {
        use LockMode::*;
        assert!(X.covers(S));
        assert!(X.covers(IX));
        assert!(S.covers(S));
        assert!(!S.covers(X));
        assert!(IX.covers(IS));
        assert!(!IS.covers(IX));
    }

    #[test]
    fn shared_locks_coexist_exclusive_blocks() {
        let m = mgr(50, false);
        let id = LockId::row(1, 42);
        m.acquire(1, id, LockMode::S).unwrap();
        m.acquire(2, id, LockMode::S).unwrap();
        assert!(!m.try_acquire(3, id, LockMode::X).unwrap());
        assert!(matches!(
            m.acquire(3, id, LockMode::X),
            Err(StorageError::LockTimeout { txn: 3 })
        ));
        m.release_all(1, &[id]);
        m.release_all(2, &[id]);
        assert!(m.try_acquire(3, id, LockMode::X).unwrap());
        m.release_all(3, &[id]);
        assert_eq!(m.granted_count(), 0);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let m = mgr(50, false);
        let id = LockId::row(1, 7);
        m.acquire(1, id, LockMode::S).unwrap();
        m.acquire(1, id, LockMode::S).unwrap(); // re-entrant
        m.acquire(1, id, LockMode::X).unwrap(); // sole-holder upgrade
        assert!(!m.try_acquire(2, id, LockMode::S).unwrap());
        m.release_all(1, &[id]);
        assert!(m.try_acquire(2, id, LockMode::S).unwrap());
    }

    #[test]
    fn blocked_then_granted_on_release() {
        let m = mgr(5000, false);
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
        let m = mgr(5000, false);
        let id = LockId::row(9, 9);
        m.acquire(1, id, LockMode::X).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = vec![];
        for txn in 2..=4u64 {
            let m2 = Arc::clone(&m);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                m2.acquire(txn, id, LockMode::X).unwrap();
                order.lock().push(txn);
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
        assert_eq!(&*order.lock(), &[2, 3, 4]);
    }

    #[test]
    fn deadlock_detector_picks_victim() {
        let m = mgr(5000, true);
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
        let m = mgr(5000, true);
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

    #[test]
    fn detector_sees_a_cycle_through_a_regrant() {
        // 1 lets go of `a`, handing it to waiting 2, and at once asks for it
        // again as 3 — before 2 has woken to take it, so `a` has no holder.
        // 2 then asks for `d`, which 3 holds.
        let m = mgr(5000, true);
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

    #[test]
    fn upgrade_with_competitor_fails_fast() {
        let m = mgr(100, true);
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
    fn intention_locks_at_table_level() {
        let m = mgr(50, false);
        let t = LockId::table(5);
        m.acquire(1, t, LockMode::IX).unwrap();
        m.acquire(2, t, LockMode::IX).unwrap();
        m.acquire(3, t, LockMode::IS).unwrap();
        assert!(!m.try_acquire(4, t, LockMode::S).unwrap());
        m.release_all(1, &[t]);
        m.release_all(2, &[t]);
        assert!(m.try_acquire(4, t, LockMode::S).unwrap());
        m.release_all(3, &[t]);
        m.release_all(4, &[t]);
    }

    #[test]
    fn striped_detector_resolves_many_concurrent_cycles() {
        // Eight disjoint deadlock pairs race on disjoint keys. Each pair
        // must resolve through the detector (never the 5 s timeout), even
        // though every cycle spans two graph stripes being mutated
        // concurrently with six other cycles.
        let m = mgr(5000, true);
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
        let m = mgr(5000, true);
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
}
