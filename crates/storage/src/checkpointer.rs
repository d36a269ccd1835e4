//! Background checkpoint daemon.
//!
//! Production engines checkpoint on a timer so recovery time and log volume
//! stay bounded. This daemon periodically runs one housekeeping cycle
//! ([`crate::db::Db::checkpoint_and_truncate`]): flush dirty pages, publish
//! the redo low-water mark (the log-truncation point), and retire the log
//! prefix below it through [`aether_core::LogManager::truncate_to`] — which
//! recycles whole sealed segments when the log lives on a
//! [`aether_core::partition::SegmentedDevice`] and never outruns the
//! slowest replica acknowledgement. A checkpoint writes nothing to the log:
//! recovery is one redo scan from the device's low-water mark, so the
//! published mark is all it needs.

use crate::db::Db;
use crate::page::PageId;
use aether_core::runtime::{self, WaitSet};
use aether_core::{Lsn, TruncationOutcome};
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
    /// Start checkpointing `db` every `interval`: each cycle is one
    /// [`Db::checkpoint_and_truncate`].
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
                db.checkpoint_and_truncate();
                ck.fetch_add(1, Ordering::Relaxed);
            }
        });
        Checkpointer {
            stop,
            thread: Some(thread),
            checkpoints,
        }
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

impl Db {
    /// Write the dirty pages to the page store and mark them clean, under
    /// the WAL rule: a page is stored only once the log is durable to its
    /// page LSN, the end of the last record applied to it, so no stored
    /// page holds a commit whose record a crash can lose (it could never be
    /// redone, nor taken out again). The log is forced to the newest dirty
    /// page's LSN first, with no latch held; a page whose LSN it could not
    /// make durable (a poisoned log) stays dirty and unstored. A page no
    /// record touched has LSN zero, which any watermark covers. A database
    /// whose log discards its writes has no log to force: a standby never
    /// logs, and replays only records it durably received.
    pub fn flush_pages(&self) {
        let own_log = !self.log.device().discards();
        if own_log {
            let mut newest = Lsn::ZERO;
            for (_, t) in self.tables.iter() {
                t.for_each_dirty(|_, frame| newest = newest.max(frame.page_lsn));
            }
            if newest > self.log.durable_lsn() {
                let _ = self.log.flush_until(newest);
            }
        }
        let durable = self.log.durable_lsn();
        for (_, t) in self.tables.iter() {
            let id = t.id;
            t.for_each_dirty(|page_no, frame| {
                if !own_log || frame.page_lsn <= durable {
                    self.store
                        .write(PageId { table: id, page_no }, frame.page_lsn, &frame.data);
                    frame.mark_clean();
                }
            });
        }
    }

    /// Take a checkpoint: publish [`Db::log_truncation_point`] as the redo
    /// low-water mark ([`Db::redo_low_water`]), the point the log may be
    /// retired to, and return the mark. Nothing is logged and nothing is
    /// forced: the point is at or below the durable watermark already.
    pub fn checkpoint(&self) -> Lsn {
        self.redo_low_water.fetch_max(self.log_truncation_point())
    }

    /// The redo low-water mark published by the last checkpoint: the
    /// highest safe log-truncation point known. Recovery needs nothing
    /// strictly below it — every older commit is in the page store.
    pub fn redo_low_water(&self) -> Lsn {
        self.redo_low_water.load()
    }

    /// One full housekeeping cycle: flush dirty pages, checkpoint, and
    /// retire the log prefix through
    /// [`aether_core::LogManager::truncate_to`] (which refuses to outrun
    /// the slowest replica ack). Two-tier target: first the fresh redo
    /// low-water mark; if a replica has not yet acknowledged that far,
    /// fall back to the *previous* cycle's mark, which any keeping-up
    /// replica acked long ago (the keep-two-checkpoints policy of
    /// production WAL managers). Either way the on-disk log and the
    /// recovery scan stay bounded by checkpoint distance instead of growing
    /// with uptime; only a genuinely lagging replica pins the log.
    pub fn checkpoint_and_truncate(&self) -> TruncationOutcome {
        let tel = self.log.telemetry();
        let t0 = tel.ts();
        let prev = self.redo_low_water();
        self.flush_pages();
        let mark = self.checkpoint();
        let mut out = self.log.truncate_to(mark);
        if out.held_back_by_replica && prev > self.log.low_water() {
            out = self.log.truncate_to(prev);
        }
        tel.inc(self.tel.ckpt_cycles);
        if let Some(t0) = t0 {
            let dt = aether_core::runtime::monotonic_ns().saturating_sub(t0);
            tel.record(self.tel.ckpt_cycle_ns, dt);
        }
        out
    }

    /// The log-truncation point: everything strictly below this LSN can be
    /// recycled because every page it might redo has been flushed (no
    /// dirty page's `rec_lsn` is below it). The durable watermark is read
    /// before the pages: a record below it is released, and a commit
    /// stamps its pages before it releases its records, so the scan finds
    /// each such page dirty or already stored. An open transaction pins
    /// nothing: none of it is in the log.
    pub fn log_truncation_point(&self) -> Lsn {
        let mut point = self.log.durable_lsn();
        for (_, t) in self.tables.iter() {
            t.for_each_dpt_entry(|_, rec_lsn| point = point.min(rec_lsn));
        }
        point
    }

    /// The live dirty-page table across all tables: `(packed page id,
    /// recovery LSN)` per dirty page. A base snapshot ships it.
    pub fn dpt_snapshot(&self) -> Vec<(u64, Lsn)> {
        let mut dpt = Vec::new();
        for (_, t) in self.tables.iter() {
            t.for_each_dpt_entry(|page, rec_lsn| dpt.push((page, rec_lsn)));
        }
        dpt
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
                   // The cycles published a mark past the bulk load's, and logged
                   // nothing: every record is a commit.
        assert!(db.redo_low_water() > Lsn::ZERO);
        db.log().flush_all().unwrap();
        let records = db.log().reader().read_all().unwrap();
        assert_eq!(records.len(), 200);
        assert!(records
            .iter()
            .all(|r| r.header.kind == RecordKind::UpdateCommit));
        // On a plain (non-segmented) device the truncation calls were
        // harmless no-ops.
        assert_eq!(db.log().low_water(), Lsn::ZERO);
    }

    #[test]
    fn a_checkpoint_of_a_quiet_database_writes_and_syncs_nothing() {
        use aether_core::device::{FaultDevice, LogDevice, SimDevice};
        let device = Arc::new(FaultDevice::new(
            Arc::new(SimDevice::new(Duration::ZERO)),
            &[],
        ));
        let db = Db::open_with_device(
            DbOptions {
                protocol: CommitProtocol::Baseline,
                ..DbOptions::default()
            },
            Arc::clone(&device) as Arc<dyn LogDevice>,
        );
        db.create_table(40, 32);
        for k in 0..32 {
            db.load(0, k, &rec(k)).unwrap();
        }
        db.setup_complete();
        for k in 0..4 {
            let mut txn = db.begin();
            db.update_with(&mut txn, 0, k, |r| r[8] = 7).unwrap();
            db.commit(txn).unwrap();
        }
        // Every commit is durable: the cycles store the pages, and neither
        // they nor a cycle over clean pages touch the log.
        let (len, syncs) = (device.len(), device.syncs());
        for _ in 0..2 {
            let out = db.checkpoint_and_truncate();
            assert_eq!(out.applied, Lsn::ZERO, "a plain device keeps its log");
            assert_eq!((device.len(), device.syncs()), (len, syncs));
        }
        assert_eq!(db.redo_low_water(), Lsn(len));
        assert!(db.dpt_snapshot().is_empty());
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
            let out = db.checkpoint_and_truncate();
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
