//! Algorithm 3: decoupled buffer fill (D).
//!
//! The mutex is held only for LSN generation; the thread releases it before
//! copying, so buffer fills pipeline freely. The price is a non-trivial
//! release: records must be *published* in LSN order (recovery stops at the
//! first gap, §5.2). A thread whose start is the release watermark bumps it
//! — "the release stage uses the implicit queuing of the release_lsn to
//! avoid expensive atomic operations" (§A.1) — and one whose predecessor is
//! still filling hands its range to that predecessor rather than wait for
//! it ([`BufferCore::release_ordered`]).

use super::{BufferCore, BufferKind, InsertGate, LogBuffer, LogSlot, SlotFinish};
use crate::lsn::Lsn;
use crate::record::{on_log_size, RecordKind};
use crossbeam::utils::CachePadded;
use std::sync::Arc;

/// The decoupled-fill log buffer (paper Algorithm 3).
pub struct DecoupledBuffer {
    core: Arc<BufferCore>,
    gate: CachePadded<InsertGate>,
}

impl DecoupledBuffer {
    /// Wrap `core` with decoupled-fill semantics.
    pub fn new(core: Arc<BufferCore>) -> Self {
        let start = core.released_lsn();
        DecoupledBuffer {
            core,
            gate: InsertGate::new(start),
        }
    }
}

impl LogBuffer for DecoupledBuffer {
    fn reserve(&self, kind: RecordKind, txn: u64, prev: Lsn, payload_len: usize) -> LogSlot<'_> {
        super::check_payload_len(payload_len);
        self.core.note_reserve_start();
        let len = on_log_size(payload_len) as u64;

        // --- acquire: mutex covers only LSN generation + back-pressure ---
        let t_acq = self.core.stats.phase_start();
        self.gate.lock.lock();
        self.core.stats.phase_acquire(t_acq);
        // SAFETY: insert lock held.
        let (start, ticket) = unsafe { self.gate.alloc.reserve_ordered(len, &self.core) };
        self.gate.lock.unlock(); // Algorithm 3, line 4: release immediately
        self.core.stats.record_direct();

        // The caller fills fully in parallel with other inserts; releasing
        // the slot publishes in LSN order.
        let finish = SlotFinish::Ordered {
            ticket,
            treadmill_inv: 0,
        };
        self.core
            .begin_fill(start, kind, txn, prev, payload_len, finish)
    }

    fn core(&self) -> &BufferCore {
        &self.core
    }

    fn kind(&self) -> BufferKind {
        BufferKind::Decoupled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LogConfig;
    use crate::record::on_log_size;

    fn make() -> Arc<DecoupledBuffer> {
        let core = BufferCore::new(&LogConfig::default().with_buffer_size(1 << 18));
        core.set_auto_reclaim(true);
        Arc::new(DecoupledBuffer::new(core))
    }

    #[test]
    fn single_thread_matches_baseline_layout() {
        let b = make();
        let a = b.insert(RecordKind::Filler, 1, Lsn::ZERO, &[0; 88]);
        let c = b.insert(RecordKind::Commit, 1, a, &[]);
        assert_eq!(a, Lsn::ZERO);
        assert_eq!(c, Lsn(on_log_size(88) as u64));
        assert_eq!(b.kind(), BufferKind::Decoupled);
    }

    #[test]
    fn parallel_fills_release_in_order() {
        let b = make();
        let threads = 8;
        let per = 400;
        std::thread::scope(|s| {
            for t in 0..threads {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    // Mixed sizes stress the in-order release path.
                    for i in 0..per {
                        let size = 24 + ((t * 31 + i * 7) % 480);
                        let payload = vec![t as u8; size];
                        b.insert(RecordKind::Filler, t as u64, Lsn::ZERO, &payload);
                    }
                });
            }
        });
        let snap = b.core().stats.snapshot();
        assert_eq!(snap.inserts, (threads * per) as u64);
        // released watermark equals total bytes inserted (no gaps, no holes)
        assert_eq!(b.core().released_lsn(), Lsn(snap.bytes));
    }

    #[test]
    fn large_record_does_not_block_small_followers_fills() {
        // Can't observe overlap directly without timing hooks; instead verify
        // a big record interleaved with small ones keeps the stream intact.
        let b = make();
        std::thread::scope(|s| {
            let b1 = Arc::clone(&b);
            s.spawn(move || {
                let big = vec![9u8; 60_000];
                for _ in 0..20 {
                    b1.insert(RecordKind::Filler, 1, Lsn::ZERO, &big);
                }
            });
            let b2 = Arc::clone(&b);
            s.spawn(move || {
                for _ in 0..2000 {
                    b2.insert(RecordKind::Filler, 2, Lsn::ZERO, &[1u8; 8]);
                }
            });
        });
        let snap = b.core().stats.snapshot();
        assert_eq!(snap.inserts, 2020);
        assert_eq!(b.core().released_lsn(), Lsn(snap.bytes));
    }
}
