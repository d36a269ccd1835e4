//! The consolidation array (§5.1, §A.2, Algorithm 5, Figure 10).
//!
//! Elimination-based backoff [Hendler et al., SPAA'04] turns opposing stack
//! operations into a productive form of backoff. Log inserts don't cancel —
//! they *compose*: two requests concatenated are one larger request. So
//! threads that hit contention on the log mutex back off into this array and
//! **consolidate**: the first thread to claim a slot (the *leader*, offset 0)
//! acquires buffer space for the whole group; followers compute their record
//! positions from their join offsets with no further communication; the last
//! to finish its copy releases the group's buffer region.
//!
//! ## Slot state machine (Figure 10)
//!
//! One `AtomicI64` encodes the entire life cycle:
//!
//! ```text
//!   FREE ──(mutex holder: SET(READY))──► OPEN (state = READY + joined_bytes)
//!   OPEN ──(owner + mutex: total = SWAP(PENDING))──► PENDING
//!   PENDING ──(owner: SET(DONE − total))──► COPYING (state in [DONE−total, DONE))
//!   COPYING ──(each member: ADD(size))──► … ──(last: ADD makes state == DONE)
//!   DONE ──(last one: SET(FREE))──► FREE
//! ```
//!
//! `join` succeeds only while `state >= READY`; every other state makes the
//! probing thread retry elsewhere. Because the closing leader first swaps a
//! *fresh* slot into the array, newly arriving threads practically never see
//! a closed slot ("the array slot reopens even though the threads that
//! consolidated their request are still working on the previous, now-private,
//! version of that slot").

use crate::buffer::fast_rand;
use crate::lsn::Lsn;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Base of the OPEN range: an open slot's state is `READY + joined bytes`.
pub const SLOT_READY: i64 = 0;
/// Slot is unused and may be installed into the array by a closing leader.
pub const SLOT_FREE: i64 = -1;
/// Transient: leader has closed the group but not yet published the LSN.
pub const SLOT_PENDING: i64 = -2;
/// Copy-phase base: after `notify`, state is `DONE - remaining_bytes` and
/// climbs back to `DONE` as members finish (Figure 10's COPYING range).
pub const SLOT_DONE: i64 = i64::MIN / 2;

/// One consolidation slot. All fields are written under the protocol above;
/// `lsn`/`group_size`/`extra` are published by the release-store in
/// [`Slot::notify`] and read after the acquire-load in [`Slot::wait`].
#[derive(Debug)]
pub struct Slot {
    state: AtomicI64,
    lsn: AtomicU64,
    group_size: AtomicU64,
    /// Variant-specific payload published along with the LSN; CD and CDME
    /// pass the group's release ticket here.
    extra: AtomicU64,
    /// Which array position currently points at this slot (meaningful only
    /// while OPEN; used by the closing leader to install the replacement).
    array_pos: AtomicUsize,
}

impl Slot {
    fn new_free() -> Self {
        Slot {
            state: AtomicI64::new(SLOT_FREE),
            lsn: AtomicU64::new(0),
            group_size: AtomicU64::new(0),
            extra: AtomicU64::new(0),
            array_pos: AtomicUsize::new(usize::MAX),
        }
    }

    /// Raw state, for diagnostics and tests.
    pub fn state(&self) -> i64 {
        self.state.load(Ordering::Relaxed)
    }

    /// Leader publishes the group's base LSN (+ a variant-specific word) and
    /// opens the copy phase. `group_size` is the total bytes closed into the
    /// group.
    pub fn notify(&self, lsn: Lsn, group_size: u64, extra: u64) {
        self.lsn.store(lsn.raw(), Ordering::Relaxed);
        self.group_size.store(group_size, Ordering::Relaxed);
        self.extra.store(extra, Ordering::Relaxed);
        self.state
            .store(SLOT_DONE - group_size as i64, Ordering::Release);
    }

    /// Follower waits for the leader's [`Slot::notify`]; returns
    /// `(base_lsn, group_size, extra)`.
    pub fn wait(&self) -> (Lsn, u64, u64) {
        let mut backoff = crate::buffer::WaitBackoff::new();
        while self.state.load(Ordering::Acquire) > SLOT_DONE {
            backoff.wait();
        }
        (
            Lsn(self.lsn.load(Ordering::Relaxed)),
            self.group_size.load(Ordering::Relaxed),
            self.extra.load(Ordering::Relaxed),
        )
    }

    /// Member signals its copy of `size` bytes is complete. Returns `true`
    /// for the last member out (who must release the group's buffer and then
    /// [`Slot::free`] the slot).
    pub fn release_member(&self, size: u64) -> bool {
        let new = self.state.fetch_add(size as i64, Ordering::AcqRel) + size as i64;
        debug_assert!(new <= SLOT_DONE, "slot over-released");
        new == SLOT_DONE
    }

    /// Return the slot to the pool (terminal FREE state).
    pub fn free(&self) {
        self.state.store(SLOT_FREE, Ordering::Release);
    }
}

/// Result of a successful [`CArray::join`].
#[derive(Debug, Clone, Copy)]
pub struct JoinResult<'a> {
    /// The slot joined.
    pub slot: &'a Slot,
    /// Byte offset of this thread's record within the group allocation.
    /// Offset 0 means this thread is the group leader.
    pub offset: u64,
}

/// The consolidation array: `n_active` visible slots backed by a recycled
/// pool (preallocated at startup, §A.1).
#[derive(Debug)]
pub struct CArray {
    pool: Box<[CachePadded<Slot>]>,
    active: Box<[CachePadded<AtomicUsize>]>,
    /// Written by every closing leader, so kept off the line with the
    /// other fields, which every joiner reads.
    pool_cursor: CachePadded<AtomicUsize>,
    max_group: u64,
}

impl CArray {
    /// `n_active` array entries over a pool of `pool_size` slots. Groups are
    /// capped at `max_group` bytes so a consolidated allocation always fits
    /// in the ring.
    pub fn new(n_active: usize, pool_size: usize, max_group: u64) -> CArray {
        assert!(n_active >= 1, "need at least one active slot");
        assert!(
            pool_size >= 2 * n_active,
            "pool must be at least twice the active set"
        );
        let pool: Box<[CachePadded<Slot>]> = (0..pool_size)
            .map(|_| CachePadded::new(Slot::new_free()))
            .collect();
        let active: Box<[CachePadded<AtomicUsize>]> = (0..n_active)
            .map(|i| {
                pool[i].state.store(SLOT_READY, Ordering::Relaxed);
                pool[i].array_pos.store(i, Ordering::Relaxed);
                CachePadded::new(AtomicUsize::new(i))
            })
            .collect();
        CArray {
            pool,
            active,
            pool_cursor: CachePadded::new(AtomicUsize::new(n_active)),
            max_group,
        }
    }

    /// Number of visible slots.
    pub fn n_active(&self) -> usize {
        self.active.len()
    }

    /// Largest group (bytes) the array will form.
    pub fn max_group(&self) -> u64 {
        self.max_group
    }

    /// Probe for an OPEN slot and add `size` bytes to its group (Algorithm 5
    /// lines 1–19). Returns the slot and this thread's offset; offset 0 makes
    /// the caller the group leader, responsible for
    /// [`CArray::close_and_replace`] + buffer acquisition + [`Slot::notify`].
    ///
    /// `size` must be `<= max_group` (callers route oversized records to the
    /// direct path instead).
    pub fn join(&self, size: u64) -> JoinResult<'_> {
        debug_assert!(size <= self.max_group);
        loop {
            // probe_slot:
            let pos = fast_rand() as usize % self.active.len();
            let slot_idx = self.active[pos].load(Ordering::Acquire);
            let slot: &Slot = &self.pool[slot_idx];
            let mut state = slot.state.load(Ordering::Relaxed);
            // join_slot:
            loop {
                if state < SLOT_READY || (state - SLOT_READY) as u64 + size > self.max_group {
                    break; // closed or full: new threads not welcome here
                }
                match slot.state.compare_exchange_weak(
                    state,
                    state + size as i64,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        return JoinResult {
                            slot,
                            offset: (state - SLOT_READY) as u64,
                        }
                    }
                    Err(cur) => state = cur,
                }
            }
        }
    }

    /// Leader-only (Algorithm 5 lines 21–33): install a fresh slot in this
    /// slot's array position, then close the group with an atomic swap.
    /// Returns the total bytes joined. The caller must hold the log's insert
    /// lock (which also serializes pool allocation, per the paper).
    pub fn close_and_replace(&self, slot: &Slot) -> u64 {
        let pos = slot.array_pos.load(Ordering::Relaxed);
        // Find a FREE pool slot; "in the common case the next slot to be
        // allocated was freed long ago and each allocation requires only an
        // index increment".
        let mut scanned = 0;
        loop {
            let i = self.pool_cursor.fetch_add(1, Ordering::Relaxed) % self.pool.len();
            let cand = &self.pool[i];
            scanned += 1;
            if scanned % self.pool.len() == 0 {
                // A whole lap without a FREE slot: every group is still
                // copying. Their members do not need the insert lock we
                // hold, but on an oversubscribed host (or under the sim's
                // cooperative scheduler) they do need this core.
                crate::runtime::yield_now();
            }
            if cand.state.load(Ordering::Relaxed) == SLOT_FREE {
                cand.array_pos.store(pos, Ordering::Relaxed);
                cand.state.store(SLOT_READY, Ordering::Release);
                // New arrivals will no longer see `slot`.
                self.active[pos].store(i, Ordering::Release);
                break;
            }
        }
        let old = slot.state.swap(SLOT_PENDING, Ordering::AcqRel);
        debug_assert!(old >= SLOT_READY, "only OPEN slots can close");
        (old - SLOT_READY) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_group_of_one() {
        let ca = CArray::new(2, 8, 1 << 20);
        let j = ca.join(100);
        assert_eq!(j.offset, 0, "first joiner is leader");
        let total = ca.close_and_replace(j.slot);
        assert_eq!(total, 100);
        j.slot.notify(Lsn(4096), total, 7);
        let (lsn, group, extra) = j.slot.wait();
        assert_eq!(lsn, Lsn(4096));
        assert_eq!(group, 100);
        assert_eq!(extra, 7);
        assert!(j.slot.release_member(100), "sole member is last out");
        j.slot.free();
        assert_eq!(j.slot.state(), SLOT_FREE);
    }

    #[test]
    fn offsets_accumulate_in_join_order() {
        let ca = CArray::new(1, 4, 1 << 20);
        let a = ca.join(40);
        let b = ca.join(264);
        let c = ca.join(8);
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 40);
        assert_eq!(c.offset, 304);
        assert!(std::ptr::eq(a.slot, b.slot));
        let total = ca.close_and_replace(a.slot);
        assert_eq!(total, 312);
        // After close, new joins land on the *replacement* slot.
        let d = ca.join(16);
        assert!(!std::ptr::eq(a.slot, d.slot));
        assert_eq!(d.offset, 0);
        // Drain the first group so the slot recycles.
        a.slot.notify(Lsn(0), total, 0);
        assert!(!a.slot.release_member(40));
        assert!(!a.slot.release_member(264));
        assert!(a.slot.release_member(8));
        a.slot.free();
    }

    #[test]
    fn join_respects_max_group() {
        let ca = Arc::new(CArray::new(1, 4, 512));
        let a = ca.join(500);
        assert_eq!(a.offset, 0);
        // A 100-byte join would exceed max_group=512; it must wait for the
        // close and land on the replacement slot. Run it in a scoped thread.
        std::thread::scope(|s| {
            let ca2 = Arc::clone(&ca);
            let h = s.spawn(move || {
                let j = ca2.join(100);
                j.offset
            });
            crate::runtime::sleep(std::time::Duration::from_millis(10));
            let total = ca.close_and_replace(a.slot);
            assert_eq!(total, 500);
            assert_eq!(h.join().unwrap(), 0, "lands as leader of fresh slot");
            a.slot.notify(Lsn(0), total, 0);
            assert!(a.slot.release_member(500));
            a.slot.free();
        });
    }

    #[test]
    fn concurrent_joins_partition_the_group() {
        // Many threads join; one leader closes; the offsets must tile
        // [0, total) exactly with no overlap.
        let ca = Arc::new(CArray::new(1, 8, 1 << 30));
        let threads = 16;
        let size = 48u64;
        let results = Arc::new(parking_lot::Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for _ in 0..threads {
                let ca = Arc::clone(&ca);
                let results = Arc::clone(&results);
                s.spawn(move || {
                    let j = ca.join(size);
                    if j.offset == 0 {
                        // tiny delay lets others pile in
                        crate::runtime::sleep(std::time::Duration::from_millis(20));
                        let total = ca.close_and_replace(j.slot);
                        j.slot.notify(Lsn(0), total, 0);
                    }
                    let (_, _, _) = j.slot.wait();
                    results
                        .lock()
                        .push((j.slot as *const Slot as usize, j.offset));
                    if j.slot.release_member(size) {
                        j.slot.free();
                    }
                });
            }
        });
        let results = results.lock();
        assert_eq!(results.len(), threads);
        // Group offsets within each slot must be distinct multiples of size.
        use std::collections::HashMap;
        let mut by_slot: HashMap<usize, Vec<u64>> = HashMap::new();
        for (slot, off) in results.iter() {
            by_slot.entry(*slot).or_default().push(*off);
        }
        for offs in by_slot.values_mut() {
            offs.sort();
            for (i, off) in offs.iter().enumerate() {
                assert_eq!(*off, i as u64 * size, "offsets must tile contiguously");
            }
        }
    }

    #[test]
    fn slot_recycling_reuses_pool() {
        let ca = CArray::new(1, 4, 1 << 20);
        // Cycle through many groups; pool of 4 must keep up because each
        // group is fully drained before the next closes.
        for round in 0..50u64 {
            let j = ca.join(64);
            assert_eq!(j.offset, 0);
            let total = ca.close_and_replace(j.slot);
            assert_eq!(total, 64);
            j.slot.notify(Lsn(round * 64), total, 0);
            assert!(j.slot.release_member(64));
            j.slot.free();
        }
    }

    #[test]
    fn state_constants_are_disjoint() {
        const { assert!(SLOT_FREE < SLOT_READY) };
        const { assert!(SLOT_PENDING < SLOT_READY) };
        const { assert!(SLOT_DONE < SLOT_PENDING) };
        // COPYING range [DONE - g, DONE) must not collide with FREE/PENDING
        // for any plausible group size.
        let g = (1u64 << 40) as i64;
        assert!(SLOT_DONE - g > i64::MIN);
        assert!(SLOT_DONE < SLOT_FREE - g);
    }
}
