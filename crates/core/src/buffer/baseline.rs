//! Algorithm 1: the baseline monolithic log insert.
//!
//! One mutex protects LSN generation, the buffer fill *and* the release.
//! Simple — "log inserts are relatively inexpensive, and in the monolithic
//! case buffer release is simplified to a mutex release" — but it serializes
//! buffer fills even though reserved regions never overlap, so both thread
//! count and record size feed directly into the critical-section length.
//! Figure 8 shows it saturating around 140 MB/s regardless of parallelism.
//! Threads waiting for the mutex spin briefly, then yield
//! ([`super::WaitBackoff`]); they never sleep.

use super::{BufferCore, BufferKind, InsertGate, LogBuffer, LogSlot, SlotFinish};
use crate::lsn::Lsn;
use crate::record::{on_log_size, RecordKind};
use crossbeam::utils::CachePadded;
use std::sync::Arc;

/// The monolithic single-mutex log buffer (paper Algorithm 1).
pub struct BaselineBuffer {
    core: Arc<BufferCore>,
    gate: CachePadded<InsertGate>,
}

impl BaselineBuffer {
    /// Wrap `core` with baseline insert semantics.
    pub fn new(core: Arc<BufferCore>) -> Self {
        let start = core.released_lsn();
        BaselineBuffer {
            core,
            gate: InsertGate::new(start),
        }
    }
}

impl LogBuffer for BaselineBuffer {
    fn reserve(&self, kind: RecordKind, txn: u64, prev: Lsn, payload_len: usize) -> LogSlot<'_> {
        super::check_payload_len(payload_len);
        self.core.note_reserve_start();
        let len = on_log_size(payload_len) as u64;

        // --- acquire: lock + LSN generation + space back-pressure ---
        let t_acq = self.core.stats.phase_start();
        self.gate.lock.lock();
        self.core.stats.phase_acquire(t_acq);
        self.core.stats.record_direct();
        // SAFETY: insert lock held.
        let start = unsafe { self.gate.alloc.reserve_space(len, &self.core) };

        // The caller fills while *holding* the mutex (the whole point of the
        // baseline's weakness); releasing the slot advances the watermark
        // and drops the mutex.
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

    fn core(&self) -> &BufferCore {
        &self.core
    }

    fn kind(&self) -> BufferKind {
        BufferKind::Baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LogConfig;
    use crate::record::on_log_size;

    fn make() -> BaselineBuffer {
        let core = BufferCore::new(&LogConfig::default().with_buffer_size(1 << 16));
        core.set_auto_reclaim(true);
        BaselineBuffer::new(core)
    }

    #[test]
    fn sequential_inserts_are_contiguous() {
        let b = make();
        let a = b.insert(RecordKind::Filler, 1, Lsn::ZERO, &[1; 8]);
        let c = b.insert(RecordKind::Filler, 1, Lsn::ZERO, &[2; 100]);
        assert_eq!(a, Lsn::ZERO);
        assert_eq!(c, Lsn(on_log_size(8) as u64));
        assert_eq!(
            b.core().released_lsn(),
            Lsn((on_log_size(8) + on_log_size(100)) as u64)
        );
        assert_eq!(b.kind(), BufferKind::Baseline);
    }

    #[test]
    fn concurrent_inserts_unique_lsns() {
        let b = Arc::new(make());
        let mut handles = vec![];
        for t in 0..8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut lsns = vec![];
                for _ in 0..500 {
                    lsns.push(b.insert(RecordKind::Filler, t, Lsn::ZERO, &[t as u8; 56]));
                }
                lsns
            }));
        }
        let mut all: Vec<Lsn> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 8 * 500);
        let expect = 8 * 500 * on_log_size(56) as u64;
        assert_eq!(b.core().released_lsn(), Lsn(expect));
        assert_eq!(b.core().stats.snapshot().inserts, 8 * 500);
    }

    #[test]
    fn ring_wraparound_many_laps() {
        let b = make(); // 64 KiB ring
        let payload = vec![7u8; 1000];
        for _ in 0..1000 {
            b.insert(RecordKind::Filler, 0, Lsn::ZERO, &payload);
        }
        // 1000 * 1032 bytes ≈ 16 laps around the ring
        assert_eq!(
            b.core().released_lsn(),
            Lsn(1000 * on_log_size(1000) as u64)
        );
    }
}
