//! Algorithm 2: log insertion with consolidated buffer acquire (C).
//!
//! Threads begin with a non-blocking lock attempt; on success they behave
//! exactly like the baseline. Threads that hit contention back off into the
//! consolidation array and combine their requests: only the group leader
//! (join offset 0) competes for the mutex, acquires buffer space for the
//! whole group, and publishes the base LSN; everyone fills in parallel; the
//! **last member to finish releases both the group's buffer region and the
//! mutex** (which is why [`super::InsertLock`] permits cross-thread unlock).
//!
//! Consolidation bounds contention at the log to the number of array slots
//! rather than the number of threads — but fills between groups remain
//! serialized (the mutex is held for the group's entire copy phase), which
//! Figure 6(C) shows as residual wait time and Figure 8 as a lower asymptote
//! than the hybrid.

use super::{BufferCore, BufferKind, InsertGate, LogBuffer, LogSlot, SlotFinish};
use crate::carray::CArray;
use crate::config::LogConfig;
use crate::lsn::Lsn;
use crate::record::{on_log_size, RecordKind};
use crossbeam::utils::CachePadded;
use std::sync::Arc;

/// The consolidation-array log buffer (paper Algorithm 2, variant "C").
pub struct ConsolidationBuffer {
    core: Arc<BufferCore>,
    gate: CachePadded<InsertGate>,
    carray: CArray,
}

impl ConsolidationBuffer {
    /// Wrap `core`, building a consolidation array per `config`
    /// (`carray_slots` active slots over a `carray_pool` pool).
    pub fn new(core: Arc<BufferCore>, config: &LogConfig) -> Self {
        let start = core.released_lsn();
        let max_group = core.capacity() / 8;
        ConsolidationBuffer {
            core,
            gate: InsertGate::new(start),
            carray: CArray::new(config.carray_slots, config.carray_pool, max_group),
        }
    }

    /// The array (exposed for the Figure-12 sensitivity experiment).
    pub fn carray(&self) -> &CArray {
        &self.carray
    }

    /// Baseline-style reservation with the lock already held: the caller
    /// fills under the mutex; releasing the slot publishes and unlocks.
    fn reserve_locked(
        &self,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload_len: usize,
    ) -> LogSlot<'_> {
        let len = on_log_size(payload_len) as u64;
        // SAFETY: insert lock held by this thread.
        let start = unsafe { self.gate.alloc.reserve_space(len, &self.core) };
        self.core.begin_fill(
            start,
            kind,
            txn,
            prev,
            payload_len,
            SlotFinish::LockedDirect {
                lock: &self.gate.lock,
            },
        )
    }
}

impl LogBuffer for ConsolidationBuffer {
    fn reserve(&self, kind: RecordKind, txn: u64, prev: Lsn, payload_len: usize) -> LogSlot<'_> {
        super::check_payload_len(payload_len);
        self.core.note_reserve_start();
        let len = on_log_size(payload_len) as u64;

        // Fast path (Algorithm 2, lines 2–6): no contention, no backoff.
        if self.gate.lock.try_lock() {
            self.core.stats.record_direct();
            return self.reserve_locked(kind, txn, prev, payload_len);
        }
        // Oversized records cannot consolidate; take the blocking direct path.
        if len > self.carray.max_group() {
            let t = self.core.stats.phase_start();
            self.gate.lock.lock();
            self.core.stats.phase_acquire(t);
            self.core.stats.record_direct();
            return self.reserve_locked(kind, txn, prev, payload_len);
        }

        self.reserve_contended(kind, txn, prev, payload_len)
    }

    fn core(&self) -> &BufferCore {
        &self.core
    }

    fn kind(&self) -> BufferKind {
        BufferKind::Consolidation
    }
}

impl ConsolidationBuffer {
    /// Insert via the consolidation array unconditionally, skipping the
    /// uncontended fast path. Used by tests and by the sensitivity
    /// microbenchmarks (Figure 12) to exercise group formation even on hosts
    /// with few cores, where the `try_lock` fast path would otherwise always
    /// win.
    pub fn insert_backoff(&self, kind: RecordKind, txn: u64, prev: Lsn, payload: &[u8]) -> Lsn {
        self.core.stats.record_wrapper();
        let mut slot = self.reserve_backoff(kind, txn, prev, payload.len());
        slot.write(payload);
        slot.release()
    }

    /// Reservation counterpart of [`ConsolidationBuffer::insert_backoff`].
    pub fn reserve_backoff(
        &self,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload_len: usize,
    ) -> LogSlot<'_> {
        super::check_payload_len(payload_len);
        self.core.note_reserve_start();
        if on_log_size(payload_len) as u64 > self.carray.max_group() {
            let t = self.core.stats.phase_start();
            self.gate.lock.lock();
            self.core.stats.phase_acquire(t);
            self.core.stats.record_direct();
            return self.reserve_locked(kind, txn, prev, payload_len);
        }
        self.reserve_contended(kind, txn, prev, payload_len)
    }

    /// The contended path of Algorithm 2 (lines 8–21). Group members fill
    /// their disjoint sub-ranges in place; the last member out releases the
    /// group's buffer region *and* the mutex (via the slot's finish action).
    fn reserve_contended(
        &self,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload_len: usize,
    ) -> LogSlot<'_> {
        let len = on_log_size(payload_len) as u64;
        let join = self.carray.join(len);
        if join.offset == 0 {
            // Group leader: acquire the mutex on behalf of the group.
            let t = self.core.stats.phase_start();
            self.gate.lock.lock();
            self.core.stats.phase_acquire(t);
            self.core.stats.record_group_acquire();
            let group = self.carray.close_and_replace(join.slot);
            // SAFETY: insert lock held.
            let base = unsafe { self.gate.alloc.reserve_space(group, &self.core) };
            join.slot.notify(base, group, 0);
            self.core.begin_fill(
                base,
                kind,
                txn,
                prev,
                payload_len,
                SlotFinish::GroupLocked {
                    slot: join.slot,
                    lock: &self.gate.lock,
                    base,
                    group,
                },
            )
        } else {
            // Follower: wait for the leader's allocation, then fill our
            // pre-computed sub-range.
            self.core.stats.record_consolidation();
            let (base, group, _) = join.slot.wait();
            self.core.begin_fill(
                base.advance(join.offset),
                kind,
                txn,
                prev,
                payload_len,
                SlotFinish::GroupLocked {
                    slot: join.slot,
                    lock: &self.gate.lock,
                    base,
                    group,
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::on_log_size;

    fn make() -> Arc<ConsolidationBuffer> {
        let cfg = LogConfig::default().with_buffer_size(1 << 18);
        let core = BufferCore::new(&cfg);
        core.set_auto_reclaim(true);
        Arc::new(ConsolidationBuffer::new(core, &cfg))
    }

    #[test]
    fn uncontended_takes_fast_path() {
        let b = make();
        for i in 0..100u64 {
            b.insert(RecordKind::Filler, i, Lsn::ZERO, &[0; 88]);
        }
        let s = b.core().stats.snapshot();
        assert_eq!(s.inserts, 100);
        assert_eq!(s.direct_acquires, 100);
        assert_eq!(s.consolidations, 0);
        assert_eq!(b.core().released_lsn(), Lsn(100 * on_log_size(88) as u64));
    }

    #[test]
    fn contended_inserts_consolidate_and_stay_contiguous() {
        let b = make();
        let threads = 16usize;
        let per = 500usize;
        std::thread::scope(|s| {
            for t in 0..threads {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for i in 0..per {
                        let size = 8 + (i % 7) * 32;
                        b.insert(
                            RecordKind::Filler,
                            t as u64,
                            Lsn::ZERO,
                            &vec![t as u8; size],
                        );
                    }
                });
            }
        });
        let s = b.core().stats.snapshot();
        assert_eq!(s.inserts, (threads * per) as u64);
        assert_eq!(b.core().released_lsn(), Lsn(s.bytes));
    }

    #[test]
    fn backoff_path_forms_groups_and_stays_contiguous() {
        // `insert_backoff` skips the fast path, deterministically exercising
        // group formation regardless of host core count.
        let b = make();
        let threads = 8usize;
        let per = 400usize;
        std::thread::scope(|s| {
            for t in 0..threads {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for i in 0..per {
                        let size = 8 + (i % 7) * 32;
                        b.insert_backoff(
                            RecordKind::Filler,
                            t as u64,
                            Lsn::ZERO,
                            &vec![t as u8; size],
                        );
                    }
                });
            }
        });
        let s = b.core().stats.snapshot();
        assert_eq!(s.inserts, (threads * per) as u64);
        assert_eq!(b.core().released_lsn(), Lsn(s.bytes));
        // Every insert went through the array: leaders + followers == total.
        assert_eq!(s.group_acquires + s.consolidations, (threads * per) as u64);
        assert!(s.group_acquires > 0);
    }

    #[test]
    fn oversized_record_takes_direct_path() {
        let b = make(); // 256 KiB ring → max_group = 32 KiB
        assert!(b.carray().max_group() == (1 << 18) / 8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..20 {
                        b.insert(RecordKind::Filler, 1, Lsn::ZERO, &vec![1u8; 40_000]);
                    }
                });
            }
        });
        let s = b.core().stats.snapshot();
        assert_eq!(s.inserts, 80);
        assert_eq!(b.core().released_lsn(), Lsn(s.bytes));
    }

    #[test]
    fn lsns_unique_and_dense_under_contention() {
        let b = make();
        let lsns = parking_lot::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let b = Arc::clone(&b);
                let lsns = &lsns;
                s.spawn(move || {
                    let mut local = Vec::new();
                    for _ in 0..300 {
                        local.push((
                            b.insert(RecordKind::Filler, t, Lsn::ZERO, &[t as u8; 56]),
                            on_log_size(56) as u64,
                        ));
                    }
                    lsns.lock().extend(local);
                });
            }
        });
        let mut v = lsns.into_inner();
        v.sort();
        // Records must tile the log stream with no gaps or overlaps.
        let mut expect = Lsn::ZERO;
        for (lsn, len) in v {
            assert_eq!(lsn, expect, "gap or overlap in log stream");
            expect = lsn.advance(len);
        }
        assert_eq!(b.core().released_lsn(), expect);
    }
}
