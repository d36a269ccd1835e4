//! Background checkpoint daemon.
//!
//! Production engines take fuzzy checkpoints on a timer so recovery time and
//! log volume stay bounded. This daemon periodically runs one housekeeping
//! cycle ([`crate::db::Db::checkpoint_and_truncate`]): flush dirty pages,
//! take a fuzzy checkpoint (its DPT), publish the checkpoint's redo
//! low-water mark, and retire the log prefix below it through
//! [`aether_core::LogManager::truncate_to`] — which recycles whole sealed
//! segments when the log lives on a
//! [`aether_core::partition::SegmentedDevice`] and never outruns the
//! slowest replica acknowledgement.

use crate::db::Db;
use aether_core::runtime::{self, WaitSet};
use aether_core::TruncationOutcome;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Handle to a running checkpoint daemon; checkpointing stops when this is
/// dropped or [`Checkpointer::stop`] is called.
pub struct Checkpointer {
    /// Set to stop; the daemon sleeps out its interval in the set.
    stop: Arc<(AtomicBool, WaitSet)>,
    thread: Option<runtime::JoinHandle<()>>,
    checkpoints: Arc<AtomicU64>,
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("checkpoints", &self.count())
            .finish()
    }
}

impl Checkpointer {
    /// Start checkpointing `db` every `interval`. Each cycle also truncates
    /// the log behind the fresh checkpoint's redo low-water mark.
    pub fn start(db: Arc<Db>, interval: Duration) -> Checkpointer {
        let rt = db.log().config().runtime.clone();
        let stop = Arc::new((AtomicBool::new(false), WaitSet::new()));
        let checkpoints = Arc::new(AtomicU64::new(0));
        let st = Arc::clone(&stop);
        let ck = Arc::clone(&checkpoints);
        let thread = rt.spawn("aether-ckptd", move || {
            let (stopped, wake) = &*st;
            let stop = || stopped.load(Ordering::Relaxed).then_some(());
            while wake.wait_until(Some(interval), stop).is_none() {
                Self::checkpoint_once(&db);
                ck.fetch_add(1, Ordering::Relaxed);
            }
        });
        Checkpointer {
            stop,
            thread: Some(thread),
            checkpoints,
        }
    }

    /// One checkpoint cycle: flush pages, fuzzy checkpoint, retire the log
    /// prefix below the published redo low-water mark. Returns the
    /// truncation outcome (`applied` is the new low-water mark).
    pub fn checkpoint_once(db: &Db) -> TruncationOutcome {
        db.checkpoint_and_truncate()
    }

    /// Checkpoints taken so far.
    pub fn count(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Stop the daemon (idempotent; joins the thread).
    pub fn stop(&mut self) {
        let (stopped, wake) = &*self.stop;
        stopped.store(true, Ordering::SeqCst);
        wake.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbOptions;
    use crate::txn::CommitProtocol;
    use aether_core::partition::{MemSegmentFactory, SegmentedDevice};
    use aether_core::record::RecordKind;
    use aether_core::Lsn;

    fn rec(key: u64) -> Vec<u8> {
        let mut r = vec![1u8; 40];
        r[..8].copy_from_slice(&key.to_le_bytes());
        r
    }

    #[test]
    fn periodic_checkpoints_fire_and_stop() {
        let db = Db::open(DbOptions {
            protocol: CommitProtocol::Elr,
            log_config: aether_core::LogConfig::default().with_buffer_size(1 << 20),
            ..DbOptions::default()
        });
        db.create_table(40, 32);
        for k in 0..32 {
            db.load(0, k, &rec(k)).unwrap();
        }
        db.setup_complete();
        let mut ck = Checkpointer::start(Arc::clone(&db), Duration::from_millis(20));
        // Generate work while the daemon checkpoints underneath.
        for i in 0..200u64 {
            let mut txn = db.begin();
            db.update_with(&mut txn, 0, i % 32, |r| r[8] = r[8].wrapping_add(1))
                .unwrap();
            db.commit(txn).unwrap();
            runtime::sleep(Duration::from_millis(1));
        }
        ck.stop();
        let taken = ck.count();
        assert!(taken >= 2, "daemon must checkpoint periodically: {taken}");
        ck.stop(); // idempotent
                   // The log contains checkpoint-end records.
        db.log().flush_all().unwrap();
        let ends = db
            .log()
            .reader()
            .read_all()
            .unwrap()
            .iter()
            .filter(|r| r.header.kind == RecordKind::CheckpointEnd)
            .count();
        assert!(ends as u64 >= taken);
        // On a plain (non-segmented) device the truncation calls were
        // harmless no-ops.
        assert_eq!(db.log().low_water(), Lsn::ZERO);
    }

    #[test]
    fn checkpointing_recycles_segments_under_load() {
        let segments =
            Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 16 * 1024).unwrap());
        let db = Db::open_with_device(
            DbOptions {
                protocol: CommitProtocol::Elr,
                log_config: aether_core::LogConfig::default().with_buffer_size(1 << 20),
                ..DbOptions::default()
            },
            Arc::clone(&segments) as _,
        );
        db.create_table(64, 64);
        for k in 0..64u64 {
            let mut r = vec![0u8; 64];
            r[..8].copy_from_slice(&k.to_le_bytes());
            db.load(0, k, &r).unwrap();
        }
        db.setup_complete();
        for round in 0..6 {
            for i in 0..500u64 {
                let mut txn = db.begin();
                db.update_with(&mut txn, 0, (round * 500 + i) % 64, |r| {
                    r[8] = r[8].wrapping_add(1)
                })
                .unwrap();
                db.commit(txn).unwrap();
            }
            let out = Checkpointer::checkpoint_once(&db);
            assert!(!out.held_back_by_replica, "no replicas registered");
            assert_eq!(out.applied, db.redo_low_water());
        }
        assert!(
            segments.recycled_segments() > 0,
            "log must be bounded by checkpoint-driven recycling"
        );
        assert!(segments.live_segments() < 10);
        assert_eq!(db.log().low_water(), db.redo_low_water());
        assert!(db.log().truncation_stats().segments_recycled > 0);
    }
}
