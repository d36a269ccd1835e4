//! §A.3: the CDME log buffer — CD plus delegated buffer release.
//!
//! The paper's CD waits for its turn to release and CDME, to make the
//! release time of small records independent of large outliers (Figure 11),
//! lets a thread whose predecessor is still copying abandon its release to
//! that predecessor. Here every decoupled variant releases that way
//! ([`BufferCore::release_ordered`]), so CDME is [`HybridBuffer`] plus the
//! one thing of Algorithm 4 that CD does without: the treadmill guard, by
//! which a thread now and then refuses to delegate (probability
//! `1/LogConfig::treadmill_inv`) so that no thread is stuck publishing an
//! endless chain of other threads' releases.

use super::{BufferCore, BufferKind, HybridBuffer, LogBuffer, LogSlot};
use crate::carray::CArray;
use crate::config::LogConfig;
use crate::lsn::Lsn;
use crate::record::RecordKind;
use std::sync::Arc;

/// The CDME log buffer (§A.3, Algorithm 4).
pub struct DelegatedBuffer(HybridBuffer);

impl DelegatedBuffer {
    /// Wrap `core`; the treadmill probability comes from `config`.
    pub fn new(core: Arc<BufferCore>, config: &LogConfig) -> Self {
        DelegatedBuffer(HybridBuffer::with_treadmill_guard(
            core,
            config,
            config.treadmill_inv,
        ))
    }

    /// The consolidation array (sensitivity experiments).
    pub fn carray(&self) -> &CArray {
        self.0.carray()
    }

    /// Insert via the consolidation array unconditionally (skip the fast
    /// path); deterministic group formation for tests and sensitivity
    /// experiments on hosts with few cores.
    pub fn insert_backoff(&self, kind: RecordKind, txn: u64, prev: Lsn, payload: &[u8]) -> Lsn {
        self.0.insert_backoff(kind, txn, prev, payload)
    }

    /// Reservation counterpart of [`DelegatedBuffer::insert_backoff`].
    pub fn reserve_backoff(
        &self,
        kind: RecordKind,
        txn: u64,
        prev: Lsn,
        payload_len: usize,
    ) -> LogSlot<'_> {
        self.0.reserve_backoff(kind, txn, prev, payload_len)
    }
}

impl LogBuffer for DelegatedBuffer {
    fn reserve(&self, kind: RecordKind, txn: u64, prev: Lsn, payload_len: usize) -> LogSlot<'_> {
        self.0.reserve(kind, txn, prev, payload_len)
    }

    fn core(&self) -> &BufferCore {
        self.0.core()
    }

    fn kind(&self) -> BufferKind {
        BufferKind::Delegated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::on_log_size;

    fn make() -> Arc<DelegatedBuffer> {
        let cfg = LogConfig::default().with_buffer_size(1 << 18);
        let core = BufferCore::new(&cfg);
        core.set_auto_reclaim(true);
        Arc::new(DelegatedBuffer::new(core, &cfg))
    }

    #[test]
    fn sequential_inserts() {
        let b = make();
        let a = b.insert(RecordKind::Filler, 1, Lsn::ZERO, &[1; 8]);
        let c = b.insert(RecordKind::Filler, 1, Lsn::ZERO, &[2; 100]);
        assert_eq!(a, Lsn::ZERO);
        assert_eq!(c, Lsn(on_log_size(8) as u64));
        assert_eq!(
            b.core().released_lsn(),
            Lsn((on_log_size(8) + on_log_size(100)) as u64)
        );
        assert_eq!(b.kind(), BufferKind::Delegated);
    }

    #[test]
    fn dense_stream_under_contention() {
        let b = make();
        let threads = 16usize;
        let per = 500usize;
        std::thread::scope(|s| {
            for t in 0..threads {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for i in 0..per {
                        let size = 8 + (i % 11) * 16;
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
    fn bimodal_skew_with_huge_outliers() {
        // The Figure-11 stress: 48 B records with 1-in-60 outliers of 64 kiB
        // — the workload where CD's in-order release stalls but CDME doesn't.
        let b = make();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for i in 0..300usize {
                        if i % 60 == 0 {
                            b.insert(RecordKind::Filler, t as u64, Lsn::ZERO, &vec![9; 1 << 15]);
                        } else {
                            b.insert(RecordKind::Filler, t as u64, Lsn::ZERO, &[1; 16]);
                        }
                    }
                });
            }
        });
        let s = b.core().stats.snapshot();
        assert_eq!(s.inserts, 8 * 300);
        assert_eq!(b.core().released_lsn(), Lsn(s.bytes));
    }

    #[test]
    fn delegation_happens_under_contention() {
        let b = make();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for i in 0..1000usize {
                        // Mix of sizes ensures some threads finish in the
                        // shadow of slower ones.
                        let size = if i % 13 == 0 { 4096 } else { 16 };
                        b.insert(RecordKind::Filler, t as u64, Lsn::ZERO, &vec![7; size]);
                    }
                });
            }
        });
        let s = b.core().stats.snapshot();
        assert_eq!(b.core().released_lsn(), Lsn(s.bytes));
    }
}
