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
use crate::page::PageId;
use crate::wal::CheckpointPayload;
use aether_core::runtime::{self, WaitSet};
use aether_core::{Lsn, RecordKind, TruncationOutcome};
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

impl Db {
    /// Write the dirty pages to the page store and mark them clean, under
    /// the WAL rule: a page is stored only once the log is durable past
    /// its page LSN, so no stored page holds a commit whose record a crash
    /// can lose (it could never be redone, nor taken out again). The log is forced to the newest
    /// dirty page's LSN first, with no latch held; a page whose LSN it
    /// could not make durable (a poisoned log) stays dirty and unstored.
    /// A page LSN of zero with nothing logged is a bulk load's. A database
    /// whose log discards its writes has no log to force: a standby never
    /// logs, and replays only records it durably received.
    pub fn flush_pages(&self) {
        let own_log = !self.log.device().discards();
        let nothing_logged = self.log.released_lsn().is_zero();
        if own_log && !nothing_logged {
            let mut newest = Lsn::ZERO;
            for (_, t) in self.tables.iter() {
                t.for_each_dirty(|_, frame| newest = newest.max(frame.page_lsn));
            }
            if newest >= self.log.durable_lsn() {
                let _ = self.log.flush_until(Lsn(newest.raw() + 1));
            }
        }
        let durable = self.log.durable_lsn();
        let covered = |lsn: Lsn| !own_log || lsn < durable || (nothing_logged && lsn.is_zero());
        for (_, t) in self.tables.iter() {
            let id = t.id;
            t.for_each_dirty(|page_no, frame| {
                if covered(frame.page_lsn) {
                    self.store
                        .write(PageId { table: id, page_no }, frame.page_lsn, &frame.data);
                    frame.mark_clean();
                }
            });
        }
    }

    /// Take a fuzzy checkpoint: begin record, DPT snapshot, end record,
    /// flushed — then publish the checkpoint's redo low-water mark
    /// ([`Db::redo_low_water`]), the truncation point the log may be
    /// retired to. Returns the checkpoint-begin LSN.
    pub fn checkpoint(&self) -> Lsn {
        let (begin, _) =
            self.log
                .insert_payload::<[u8]>(RecordKind::CheckpointBegin, 0, Lsn::ZERO, &[]);
        let payload = CheckpointPayload {
            dpt: self.dpt_snapshot(),
        };
        let (_, end) = self
            .log
            .insert_payload(RecordKind::CheckpointEnd, 0, Lsn::ZERO, &payload);
        // A poisoned log means this checkpoint never hardened — safe to
        // ignore here: truncation targets are clamped to the durable
        // watermark, so an unflushed checkpoint can never widen truncation.
        let _ = self.log.flush_until(end);
        self.redo_low_water.fetch_max(self.log_truncation_point());
        begin
    }

    /// The redo low-water mark published by the last fuzzy checkpoint: the
    /// highest safe log-truncation point known. Recovery needs nothing
    /// strictly below it — every older commit is in the page store.
    pub fn redo_low_water(&self) -> Lsn {
        self.redo_low_water.load()
    }

    /// One full housekeeping cycle: flush dirty pages, take a fuzzy
    /// checkpoint, and retire the log prefix through
    /// [`aether_core::LogManager::truncate_to`] (which refuses to outrun
    /// the slowest replica ack). Two-tier target: first the fresh
    /// checkpoint's redo low-water mark; if a replica has not yet
    /// acknowledged that far — under replication the checkpoint's own
    /// records are always still in flight — fall back to the *previous*
    /// checkpoint's mark, which any keeping-up replica acked long ago
    /// (the keep-two-checkpoints policy of production WAL managers). Either
    /// way the on-disk log and the recovery scan stay bounded by checkpoint
    /// distance instead of growing with uptime; only a genuinely lagging
    /// replica pins the log.
    pub fn checkpoint_and_truncate(&self) -> aether_core::TruncationOutcome {
        let tel = self.log.telemetry();
        let t0 = tel.ts();
        let prev = self.redo_low_water();
        self.flush_pages();
        self.checkpoint();
        let mut out = self.log.truncate_to(self.redo_low_water());
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
    /// dirty page's `rec_lsn` is below it). An open transaction pins
    /// nothing: none of it is in the log.
    pub fn log_truncation_point(&self) -> Lsn {
        let mut point = self.log.durable_lsn();
        for (_, rec_lsn) in self.dpt_snapshot() {
            point = point.min(rec_lsn);
        }
        point
    }

    /// The live dirty-page table across all tables: `(packed page id,
    /// recovery LSN)` per dirty page. What fuzzy checkpoints record and the
    /// truncation point is computed from.
    pub fn dpt_snapshot(&self) -> Vec<(u64, Lsn)> {
        let mut dpt = Vec::new();
        for (_, t) in self.tables.iter() {
            dpt.extend(t.dpt_snapshot());
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
