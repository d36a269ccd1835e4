//! Instrumentation: counters and phase timers.
//!
//! The paper's evaluation leans on time breakdowns ("log mgr. work",
//! "log mgr. contention", Figures 2 and 7). We reproduce those categories by
//! timing the three insert phases — acquire (contention), fill (work) and
//! release (ordering wait) — with cheap monotonic-clock reads guarded so the
//! microbenchmarks can disable them entirely.

use crossbeam::utils::CachePadded;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Counter shards per [`BufferStats`]. A thread keeps one shard index for its
/// lifetime, so while at most this many threads insert, no two of them add
/// to the same cache line; beyond that threads share shards, which costs
/// speed but never a count (every add is atomic).
const SHARDS: usize = 32;

/// One thread's share of the counters, alone on its cache lines.
#[derive(Debug, Default)]
struct Shard {
    inserts: AtomicU64,
    bytes: AtomicU64,
    direct_acquires: AtomicU64,
    consolidations: AtomicU64,
    group_acquires: AtomicU64,
    delegated_releases: AtomicU64,
    acquire_wait_ns: AtomicU64,
    fill_ns: AtomicU64,
    release_wait_ns: AtomicU64,
}

/// The calling thread's shard index, assigned round-robin on first use.
#[inline]
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    INDEX.with(|i| {
        if i.get() == usize::MAX {
            i.set(NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS);
        }
        i.get()
    })
}

/// Aggregate counters for a log buffer. All counters are monotonically
/// increasing; read a consistent-enough view via [`BufferStats::snapshot`].
///
/// The counters are sharded per thread: D, CD and CDME count outside the
/// insert mutex, where one shared counter line would be written by every
/// inserter. [`BufferStats::snapshot`] sums the shards, so once the counting
/// threads are joined the totals are exact.
///
/// Field meanings (see [`StatsSnapshot`]): `direct_acquires` are inserts
/// that took the mutex themselves, `consolidations` are followers in a
/// consolidation-array group, `group_acquires` are group leaders,
/// and `delegated_releases` are releases handed to a predecessor.
#[derive(Debug)]
pub struct BufferStats {
    timing_enabled: AtomicBool,
    shards: Box<[CachePadded<Shard>]>,
}

impl Default for BufferStats {
    fn default() -> Self {
        BufferStats {
            timing_enabled: AtomicBool::new(false),
            shards: (0..SHARDS).map(|_| CachePadded::default()).collect(),
        }
    }
}

/// A point-in-time copy of [`BufferStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total records inserted.
    pub inserts: u64,
    /// Total bytes inserted (on-log footprint).
    pub bytes: u64,
    /// Fast-path (uncontended) acquisitions.
    pub direct_acquires: u64,
    /// Follower joins in consolidation groups.
    pub consolidations: u64,
    /// Leader acquisitions for consolidation groups.
    pub group_acquires: u64,
    /// Releases handed to a predecessor that was still filling (D, CD and
    /// CDME; one per reservation, so one per consolidation group).
    pub delegated_releases: u64,
    /// ns waiting in acquire.
    pub acquire_wait_ns: u64,
    /// ns copying payloads.
    pub fill_ns: u64,
    /// ns waiting for a turn to release (CDME's treadmill refusals only).
    pub release_wait_ns: u64,
}

impl BufferStats {
    /// New stats block; timing disabled (counter-only) by default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable phase timing. Counters are always maintained.
    pub fn set_timing(&self, on: bool) {
        self.timing_enabled.store(on, Ordering::Relaxed);
    }

    #[inline]
    fn shard(&self) -> &Shard {
        &self.shards[shard_index()]
    }

    /// Whether phase timing is on.
    #[inline]
    pub fn timing(&self) -> bool {
        self.timing_enabled.load(Ordering::Relaxed)
    }

    /// Start a phase timer iff timing is enabled. The value is a
    /// runtime-monotonic timestamp in nanoseconds (virtual under simulation).
    #[inline]
    pub fn phase_start(&self) -> Option<u64> {
        if self.timing() {
            Some(crate::runtime::monotonic_ns())
        } else {
            None
        }
    }

    /// Record one insert of `bytes` on-log bytes.
    #[inline]
    pub fn record_insert(&self, bytes: u64) {
        let shard = self.shard();
        shard.inserts.fetch_add(1, Ordering::Relaxed);
        shard.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count a fast-path acquisition.
    #[inline]
    pub fn record_direct(&self) {
        self.shard().direct_acquires.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a follower consolidation.
    #[inline]
    pub fn record_consolidation(&self) {
        self.shard().consolidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a group-leader acquisition.
    #[inline]
    pub fn record_group_acquire(&self) {
        self.shard().group_acquires.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a delegated release.
    #[inline]
    pub fn record_delegated(&self) {
        self.shard()
            .delegated_releases
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Close an acquire-phase timer.
    #[inline]
    pub fn phase_acquire(&self, t: Option<u64>) {
        if let Some(t) = t {
            let dt = crate::runtime::monotonic_ns().saturating_sub(t);
            self.shard()
                .acquire_wait_ns
                .fetch_add(dt, Ordering::Relaxed);
        }
    }

    /// Close a fill-phase timer.
    #[inline]
    pub fn phase_fill(&self, t: Option<u64>) {
        if let Some(t) = t {
            let dt = crate::runtime::monotonic_ns().saturating_sub(t);
            self.shard().fill_ns.fetch_add(dt, Ordering::Relaxed);
        }
    }

    /// Close a release-phase timer.
    #[inline]
    pub fn phase_release(&self, t: Option<u64>) {
        if let Some(t) = t {
            let dt = crate::runtime::monotonic_ns().saturating_sub(t);
            self.shard()
                .release_wait_ns
                .fetch_add(dt, Ordering::Relaxed);
        }
    }

    /// Sum the shards. Exact once the counting threads are joined; while
    /// they run, each field is some value it held during the call.
    pub fn snapshot(&self) -> StatsSnapshot {
        let sum = |field: fn(&Shard) -> &AtomicU64| {
            self.shards
                .iter()
                .map(|s| field(s).load(Ordering::Relaxed))
                .sum()
        };
        StatsSnapshot {
            inserts: sum(|s| &s.inserts),
            bytes: sum(|s| &s.bytes),
            direct_acquires: sum(|s| &s.direct_acquires),
            consolidations: sum(|s| &s.consolidations),
            group_acquires: sum(|s| &s.group_acquires),
            delegated_releases: sum(|s| &s.delegated_releases),
            acquire_wait_ns: sum(|s| &s.acquire_wait_ns),
            fill_ns: sum(|s| &s.fill_ns),
            release_wait_ns: sum(|s| &s.release_wait_ns),
        }
    }
}

impl StatsSnapshot {
    /// Difference of two snapshots (self - earlier), for interval reporting.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            inserts: self.inserts - earlier.inserts,
            bytes: self.bytes - earlier.bytes,
            direct_acquires: self.direct_acquires - earlier.direct_acquires,
            consolidations: self.consolidations - earlier.consolidations,
            group_acquires: self.group_acquires - earlier.group_acquires,
            delegated_releases: self.delegated_releases - earlier.delegated_releases,
            acquire_wait_ns: self.acquire_wait_ns - earlier.acquire_wait_ns,
            fill_ns: self.fill_ns - earlier.fill_ns,
            release_wait_ns: self.release_wait_ns - earlier.release_wait_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = BufferStats::new();
        s.record_insert(120);
        s.record_insert(40);
        s.record_direct();
        s.record_consolidation();
        s.record_group_acquire();
        s.record_delegated();
        let snap = s.snapshot();
        assert_eq!(snap.inserts, 2);
        assert_eq!(snap.bytes, 160);
        assert_eq!(snap.direct_acquires, 1);
        assert_eq!(snap.consolidations, 1);
        assert_eq!(snap.group_acquires, 1);
        assert_eq!(snap.delegated_releases, 1);
    }

    #[test]
    fn timing_disabled_by_default() {
        let s = BufferStats::new();
        let t = s.phase_start();
        assert!(t.is_none());
        crate::runtime::sleep(std::time::Duration::from_millis(1));
        s.phase_acquire(t);
        s.phase_fill(t);
        s.phase_release(t);
        let snap = s.snapshot();
        assert_eq!(
            (snap.acquire_wait_ns, snap.fill_ns, snap.release_wait_ns),
            (0, 0, 0),
            "no phase time may accumulate while timing is off"
        );
        s.set_timing(true);
        assert!(s.phase_start().is_some());
    }

    #[test]
    fn timers_record_when_enabled() {
        let s = BufferStats::new();
        s.set_timing(true);
        let t = s.phase_start();
        crate::runtime::sleep(std::time::Duration::from_millis(2));
        s.phase_fill(t);
        assert!(s.snapshot().fill_ns >= 1_000_000);
    }

    #[test]
    fn delta_subtracts() {
        let s = BufferStats::new();
        s.record_insert(10);
        let a = s.snapshot();
        s.record_insert(30);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.inserts, 1);
        assert_eq!(d.bytes, 30);
    }
}
