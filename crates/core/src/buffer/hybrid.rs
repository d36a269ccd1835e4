//! §5.3: the hybrid log buffer (CD) — consolidation + decoupled fill.
//!
//! Consolidation bounds the number of threads competing for the mutex;
//! decoupling moves every copy off the critical path. The leader acquires
//! buffer space for the whole group and **releases the mutex immediately**
//! (before anyone copies); group members fill in parallel; groups release in
//! LSN order, the last member of each group publishing the group's region
//! (or handing it to a predecessor that is still filling, see
//! [`BufferCore::release_ordered`]). Figure 6(CD): "bounded contention for
//! threads in the buffer acquire stage and maximum pipelining of all
//! operations". This is the variant the paper recommends and the one that
//! reaches >1.8 GB/s on one socket.

use super::{BufferCore, BufferKind, InsertGate, LogBuffer, LogSlot, SlotFinish};
use crate::carray::CArray;
use crate::config::LogConfig;
use crate::lsn::Lsn;
use crate::record::{on_log_size, RecordKind};
use crossbeam::utils::CachePadded;
use std::sync::Arc;

/// The hybrid (CD) log buffer of §5.3.
pub struct HybridBuffer {
    core: Arc<BufferCore>,
    gate: CachePadded<InsertGate>,
    carray: CArray,
    /// Treadmill guard of every release ([`BufferCore::release_ordered`]):
    /// 0 for CD, `LogConfig::treadmill_inv` when this is the inside of a
    /// [`super::DelegatedBuffer`].
    treadmill_inv: u32,
}

impl HybridBuffer {
    /// Wrap `core`, with the consolidation array sized per `config`.
    pub fn new(core: Arc<BufferCore>, config: &LogConfig) -> Self {
        Self::with_treadmill_guard(core, config, 0)
    }

    pub(super) fn with_treadmill_guard(
        core: Arc<BufferCore>,
        config: &LogConfig,
        treadmill_inv: u32,
    ) -> Self {
        let start = core.released_lsn();
        let max_group = core.capacity() / 8;
        HybridBuffer {
            core,
            gate: InsertGate::new(start),
            carray: CArray::new(config.carray_slots, config.carray_pool, max_group),
            treadmill_inv,
        }
    }

    /// The consolidation array (Figure-12 sensitivity experiment).
    pub fn carray(&self) -> &CArray {
        &self.carray
    }

    /// Acquire-only critical section (lock already held): reserve `len`
    /// bytes and the release ticket that goes with them, drop the lock.
    fn reserve_and_unlock(&self, len: u64) -> (Lsn, u64) {
        // SAFETY: insert lock held by this thread.
        let reserved = unsafe { self.gate.alloc.reserve_ordered(len, &self.core) };
        self.gate.lock.unlock();
        reserved
    }

    /// Decoupled-style reservation (lock already held): unlock before the
    /// caller fills; the slot releases in LSN order.
    fn reserve_direct(
        &self,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload_len: usize,
    ) -> LogSlot<'_> {
        let (start, ticket) = self.reserve_and_unlock(on_log_size(payload_len) as u64);
        self.core.stats.record_direct();
        let finish = SlotFinish::Ordered {
            ticket,
            treadmill_inv: self.treadmill_inv,
        };
        self.core
            .begin_fill(start, kind, txn, prev, payload_len, finish)
    }

    /// Take the lock however long it takes, then reserve directly: records
    /// too large for a consolidation group.
    fn reserve_blocking(
        &self,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload_len: usize,
    ) -> LogSlot<'_> {
        let t = self.core.stats.phase_start();
        self.gate.lock.lock();
        self.core.stats.phase_acquire(t);
        self.reserve_direct(kind, txn, prev, payload_len)
    }
}

impl LogBuffer for HybridBuffer {
    fn reserve(&self, kind: RecordKind, txn: u64, prev: Lsn, payload_len: usize) -> LogSlot<'_> {
        super::check_payload_len(payload_len);
        self.core.note_reserve_start();

        // Fast path: the lock is free, or its holder — who only generates an
        // LSN under it — is about to leave: decoupled-style insert.
        if self.gate.lock.try_lock_spin() {
            return self.reserve_direct(kind, txn, prev, payload_len);
        }
        if on_log_size(payload_len) as u64 > self.carray.max_group() {
            return self.reserve_blocking(kind, txn, prev, payload_len);
        }
        self.reserve_contended(kind, txn, prev, payload_len)
    }

    fn core(&self) -> &BufferCore {
        &self.core
    }

    fn kind(&self) -> BufferKind {
        BufferKind::Hybrid
    }
}

impl HybridBuffer {
    /// Insert via the consolidation array unconditionally (skip the fast
    /// path). Lets the Figure-12 sensitivity experiment exercise group
    /// formation deterministically on hosts with few cores.
    pub fn insert_backoff(&self, kind: RecordKind, txn: u64, prev: Lsn, payload: &[u8]) -> Lsn {
        self.core.stats.record_wrapper();
        let mut slot = self.reserve_backoff(kind, txn, prev, payload.len());
        slot.write(payload);
        slot.release()
    }

    /// Reservation counterpart of [`HybridBuffer::insert_backoff`].
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
            return self.reserve_blocking(kind, txn, prev, payload_len);
        }
        self.reserve_contended(kind, txn, prev, payload_len)
    }

    /// Contended path: consolidate, leader reserves and unlocks before
    /// anyone fills, groups release in LSN order (last member publishes).
    /// The group's release ticket travels to the followers in the slot's
    /// `extra` word.
    fn reserve_contended(
        &self,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload_len: usize,
    ) -> LogSlot<'_> {
        let len = on_log_size(payload_len) as u64;
        let join = self.carray.join(len);
        let (base, group, ticket) = if join.offset == 0 {
            // Leader: acquire space for the group, then unlock *before*
            // filling — this is what distinguishes CD from C.
            let t = self.core.stats.phase_start();
            self.gate.lock.lock();
            self.core.stats.phase_acquire(t);
            let group = self.carray.close_and_replace(join.slot);
            let (base, ticket) = self.reserve_and_unlock(group);
            join.slot.notify(base, group, ticket);
            self.core.stats.record_group_acquire();
            (base, group, ticket)
        } else {
            self.core.stats.record_consolidation();
            join.slot.wait()
        };
        self.core.begin_fill(
            base.advance(join.offset),
            kind,
            txn,
            prev,
            payload_len,
            SlotFinish::GroupOrdered {
                slot: join.slot,
                base,
                group,
                ticket,
                treadmill_inv: self.treadmill_inv,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::on_log_size;

    fn make() -> Arc<HybridBuffer> {
        let cfg = LogConfig::default().with_buffer_size(1 << 18);
        let core = BufferCore::new(&cfg);
        core.set_auto_reclaim(true);
        Arc::new(HybridBuffer::new(core, &cfg))
    }

    #[test]
    fn stream_is_dense_under_heavy_contention() {
        let b = make();
        let threads = 16usize;
        let per = 600usize;
        std::thread::scope(|s| {
            for t in 0..threads {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for i in 0..per {
                        let size = 8 + (i % 9) * 24;
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
    fn mixed_sizes_with_outliers() {
        // Bimodal distribution à la Figure 11: mostly 48 B, occasional 16 KiB.
        let b = make();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for i in 0..400usize {
                        if i % 60 == 0 {
                            b.insert(RecordKind::Filler, t as u64, Lsn::ZERO, &vec![9; 16384]);
                        } else {
                            b.insert(RecordKind::Filler, t as u64, Lsn::ZERO, &[1; 16]);
                        }
                    }
                });
            }
        });
        let s = b.core().stats.snapshot();
        assert_eq!(s.inserts, 8 * 400);
        assert_eq!(b.core().released_lsn(), Lsn(s.bytes));
    }

    #[test]
    fn single_thread_layout_identical_to_baseline() {
        let b = make();
        let a = b.insert(RecordKind::Update, 3, Lsn::ZERO, &[0; 8]);
        let c = b.insert(RecordKind::Commit, 3, a, &[]);
        assert_eq!(a, Lsn::ZERO);
        assert_eq!(c, Lsn(on_log_size(8) as u64));
        assert_eq!(b.kind(), BufferKind::Hybrid);
        assert_eq!(b.carray().n_active(), 4);
    }
}
