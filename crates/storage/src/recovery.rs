//! Restart recovery: one redo scan of the log.
//!
//! Opening is recovery: [`Db::open_on`] is the one way a [`Db`] is made.
//! A fresh database is recovery over an empty device (nothing to redo), a
//! crash image is recovery over a device rebuilt from its bytes, a standby
//! is recovery over a discarding device and its page store, and a
//! promotion is recovery over the replica's own receive log.
//!
//! A transaction is logged once, at its commit, as one redo-only
//! `UpdateCommit` record, and its writes reach its pages only after that
//! record is in the log: neither the log nor a page ever holds an
//! uncommitted byte. So there are no losers to find and nothing to undo.
//! Recovery is one scan of the retained log — from the device's low-water
//! mark, the redo point of the checkpoint the last truncation published
//! (zero for a never-truncated log) — that redoes every record through
//! [`crate::replay::apply_record`]'s rule, the standby's continuous redo: a
//! record newer than a page's LSN is applied to it, an older one is
//! already in the stored image and skipped. Truncation safety (DESIGN.md
//! invariant 7) guarantees every record a stored image lacks is at or
//! above the low-water mark. The hash index is built over the stored
//! images before the scan, as a standby's is, and redo keeps it in step.
//! Where the scan stops is the end of the valid log; a torn tail is cut
//! there, and the log starts behind it. The log is read once, front to
//! back, and nothing is held in memory but the record at hand.
//!
//! This is also where ELR's safety story closes (§3.1): a pre-committed
//! transaction whose commit record did not reach the disk is simply
//! absent, and any transaction that read its ELR-released data has a
//! *later* commit LSN — so it is absent too, never a durable winner.

use crate::db::{CrashImage, Db, DbOptions};
use crate::error::StorageResult;
use crate::replay::redo;
use crate::segmented::Segmented;
use crate::store::PageStore;
use crate::table::Table;
use aether_core::device::{LogDevice, SimDevice};
use aether_core::reader::LogReader;
use aether_core::record::RecordKind;
use aether_core::{LogManager, Lsn};
use std::sync::Arc;

/// Outcome statistics from a recovery run (inspectable in tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records scanned.
    pub scanned: usize,
    /// Committed transactions: the commit records scanned.
    pub winners: usize,
    /// Commit records that changed a page (newer than a page they touch).
    pub redone: usize,
    /// Checkpoints observed.
    pub checkpoints: usize,
    /// Where the scan began: the device's low-water mark (the truncation
    /// point; zero for a never-truncated log).
    pub scan_start: Lsn,
}

/// Recover a database from a crash image: [`Db::open_on`] over a device
/// that holds the image's log bytes at their stream offsets. The truncated
/// prefix is not materialized, so recovery cost scales with the retained
/// suffix (checkpoint distance), not uptime.
pub fn recover_with_stats(
    image: CrashImage,
    opts: DbOptions,
) -> StorageResult<(Arc<Db>, RecoveryStats)> {
    let device = Arc::new(SimDevice::from_image(image.log_start, image.log_bytes));
    Db::open_on(device, image.store, &image.schema, opts)
}

impl Db {
    /// Open a database over what `device`, `store` and `schema` hold:
    /// restart recovery (see the module docs), the one way a [`Db`] is
    /// made. The tables are installed from the store, the device is
    /// scanned and redone from its low-water mark, the torn tail is
    /// clipped, and the log starts at the device's end. An empty device,
    /// store and schema is a fresh database, and opening it writes nothing.
    pub fn open_on(
        device: Arc<dyn LogDevice>,
        store: Arc<PageStore>,
        schema: &[(usize, u64)],
        opts: DbOptions,
    ) -> StorageResult<(Arc<Db>, RecoveryStats)> {
        let mut stats = RecoveryStats {
            scan_start: device.low_water(),
            ..RecoveryStats::default()
        };
        // Tables: schema, page images from the store, the index over them
        // (a standby's are made the same way). Redo keeps the index in step.
        let tables = Segmented::new(8);
        for &(record_size, dense_rows) in schema {
            let id = tables.push_with(|id| Table::new(id as u32, record_size, dense_rows, &store));
            tables.get(id).expect("a table just made").rebuild_index();
        }

        let mut max_txn = 0u64;
        let mut reader = LogReader::new(Arc::clone(&device));
        while let Some(rec) = reader.next_record()? {
            stats.scanned += 1;
            max_txn = max_txn.max(rec.header.txn);
            match rec.header.kind {
                RecordKind::UpdateCommit => {
                    stats.winners += 1;
                    stats.redone += usize::from(redo(&tables, &rec)?);
                }
                RecordKind::CheckpointEnd => stats.checkpoints += 1,
                _ => {}
            }
        }
        // The scan stopped at the end of the valid prefix. The crash may
        // have torn the final record, and new records must append right
        // here — otherwise the dead tail bytes would end every future scan
        // early.
        device.clip_tail(reader.position().raw())?;
        for (_, t) in tables.iter() {
            t.reset_append_cursor();
        }

        // The log starts at the device's end, where the scan stopped.
        let log = LogManager::builder()
            .config(opts.log_config.clone())
            .buffer(opts.buffer)
            .device_instance(device)
            .try_build()?;
        let db = Db::assemble(opts, Arc::new(log), store, tables);
        db.txn_manager().bump_next(max_txn + 1);
        Ok((db, stats))
    }
}

impl Db {
    /// The schema as (record_size, dense_rows) per table id — what a real
    /// system would read from catalog pages. Base backups for replicas and
    /// crash images both carry it.
    pub fn schema(&self) -> Vec<(usize, u64)> {
        self.tables
            .iter()
            .map(|(_, t)| (t.geom.record_size, t.dense_rows))
            .collect()
    }

    /// Capture what would survive a power failure right now: the synced
    /// prefix of the retained log (with its start offset — the truncated
    /// prefix is gone, as on a real disk) and the page store. Bytes written
    /// but not yet synced are lost with the in-memory ring, frames, and lock
    /// state. Panics if the log device cannot snapshot (Null).
    pub fn crash(&self) -> CrashImage {
        let (log_start, log_bytes) = self
            .log
            .device()
            .snapshot()
            .expect("crash simulation needs a snapshot-capable log device");
        CrashImage {
            log_start,
            log_bytes,
            store: self.store.deep_clone(),
            schema: self.schema(),
        }
    }

    /// Recover a database from a crash image (one redo scan). See
    /// [`crate::recovery`] for the algorithm.
    pub fn recover(image: CrashImage, opts: DbOptions) -> StorageResult<Arc<Db>> {
        crate::recovery::recover_with_stats(image, opts).map(|(db, _)| db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::txn::CommitProtocol;
    use crate::wal::CheckpointPayload;
    use aether_core::device::{DeviceFault, FaultDevice, LogDevice, SimDevice};
    use aether_core::{BufferKind, DeviceKind, LogConfig};
    use std::time::Duration;

    fn rec_bytes(key: u64, size: usize, fill: u8) -> Vec<u8> {
        let mut r = vec![fill; size];
        r[..8].copy_from_slice(&key.to_le_bytes());
        r
    }

    fn opts(protocol: CommitProtocol) -> DbOptions {
        DbOptions {
            protocol,
            device: DeviceKind::Ram,
            buffer: BufferKind::Hybrid,
            log_config: LogConfig::default().with_buffer_size(1 << 20),
            ..DbOptions::default()
        }
    }

    fn fresh_db(protocol: CommitProtocol, rows: u64) -> Arc<Db> {
        let db = Db::open(opts(protocol));
        db.create_table(40, rows);
        for k in 0..rows {
            db.load(0, k, &rec_bytes(k, 40, 1)).unwrap();
        }
        db.setup_complete();
        db
    }

    #[test]
    fn committed_work_survives_crash() {
        let db = fresh_db(CommitProtocol::Baseline, 50);
        for k in 0..10u64 {
            let mut t = db.begin();
            db.update_with(&mut t, 0, k, |r| r[8] = 100 + k as u8)
                .unwrap();
            db.commit(t).unwrap();
        }
        let image = db.crash();
        let (db2, stats) = recover_with_stats(image, opts(CommitProtocol::Baseline)).unwrap();
        assert_eq!(stats.winners, 10);
        for k in 0..10u64 {
            let mut t = db2.begin();
            assert_eq!(db2.read(&mut t, 0, k).unwrap()[8], 100 + k as u8);
            db2.commit(t).unwrap();
        }
    }

    #[test]
    fn uncommitted_work_is_absent_after_recovery() {
        let db = fresh_db(CommitProtocol::Baseline, 50);
        // Committed baseline value for key 5.
        let mut t = db.begin();
        db.update_with(&mut t, 0, 5, |r| r[8] = 42).unwrap();
        db.commit(t).unwrap();
        // In-flight transaction: updates two keys, never commits. It logs
        // nothing and its pages stay as committed, stored or not.
        let logged = db.log().released_lsn();
        let mut open = db.begin();
        db.update_with(&mut open, 0, 5, |r| r[8] = 99).unwrap();
        db.update_with(&mut open, 0, 6, |r| r[8] = 98).unwrap();
        assert_eq!(
            db.log().released_lsn(),
            logged,
            "an open transaction logged"
        );
        db.flush_pages();
        db.log().flush_all().unwrap();
        let image = db.crash();
        std::mem::forget(open); // the crash takes it

        let (db2, stats) = recover_with_stats(image, opts(CommitProtocol::Baseline)).unwrap();
        assert_eq!(stats.winners, 1);
        let mut t = db2.begin();
        assert_eq!(
            db2.read(&mut t, 0, 5).unwrap()[8],
            42,
            "open write recovered"
        );
        assert_eq!(
            db2.read(&mut t, 0, 6).unwrap()[8],
            1,
            "open write recovered"
        );
        db2.commit(t).unwrap();
    }

    #[test]
    fn unflushed_commit_is_lost_after_crash() {
        // AsyncCommit: the commit record may never reach the device — the
        // exact unsafety the paper calls out (§2). The flush daemon starts
        // on a commit at once, so the device is held: the record gets no
        // further than an unfinished sync.
        let o = opts(CommitProtocol::AsyncCommit);
        let device = Arc::new(FaultDevice::new(
            Arc::new(SimDevice::new(Duration::ZERO)),
            &[],
        ));
        let db = Db::open_with_device(o.clone(), device.clone() as Arc<dyn LogDevice>);
        db.create_table(40, 10);
        for k in 0..10u64 {
            db.load(0, k, &rec_bytes(k, 40, 1)).unwrap();
        }
        db.setup_complete();
        device.arm(DeviceFault::HoldSync(None));

        let mut t = db.begin();
        db.update_with(&mut t, 0, 3, |r| r[8] = 77).unwrap();
        db.commit(t).unwrap(); // async: returns without durability
        device.wait_blocked(1); // written, not synced
        let image = db.crash();
        device.release();

        let (db2, stats) = recover_with_stats(image, o).unwrap();
        assert_eq!(stats.winners, 0, "commit record never became durable");
        let mut t = db2.begin();
        assert_eq!(
            db2.read(&mut t, 0, 3).unwrap()[8],
            1,
            "async-committed work lost — the paper's durability caveat"
        );
        db2.commit(t).unwrap();
    }

    #[test]
    fn elr_dependants_commit_after_what_they_read() {
        // ELR txn A releases locks at precommit; dependant B reads A's data
        // and commits. If A's commit record is durable then B's (later LSN)
        // may or may not be — but B can never be durable *without* A.
        let db = fresh_db(CommitProtocol::Elr, 20);
        let mut a = db.begin();
        db.update_with(&mut a, 0, 1, |r| r[8] = 50).unwrap();
        db.commit(a).unwrap(); // ELR blocks until durable
        let mut b = db.begin();
        let v = db.read_for_update(&mut b, 0, 1).unwrap();
        assert_eq!(v[8], 50);
        db.update_with(&mut b, 0, 1, |r| r[8] = 51).unwrap();
        db.commit(b).unwrap();
        let image = db.crash();
        let (db2, stats) = recover_with_stats(image, opts(CommitProtocol::Elr)).unwrap();
        assert_eq!(stats.winners, 2);
        let mut t = db2.begin();
        assert_eq!(db2.read(&mut t, 0, 1).unwrap()[8], 51);
        db2.commit(t).unwrap();
    }

    #[test]
    fn insert_and_delete_survive_crash_with_index_rebuild() {
        let db = fresh_db(CommitProtocol::Baseline, 10);
        let mut t = db.begin();
        db.insert(&mut t, 0, 1000, &rec_bytes(1000, 40, 7)).unwrap();
        db.commit(t).unwrap();
        let mut t = db.begin();
        db.delete(&mut t, 0, 3).unwrap();
        db.commit(t).unwrap();
        let image = db.crash();
        let db2 = Db::recover(image, opts(CommitProtocol::Baseline)).unwrap();
        let mut t = db2.begin();
        assert_eq!(db2.read(&mut t, 0, 1000).unwrap()[8], 7);
        assert!(matches!(
            db2.read(&mut t, 0, 3),
            Err(StorageError::KeyNotFound { .. })
        ));
        db2.commit(t).unwrap();
        // Appends continue without colliding with the recovered row.
        let mut t = db2.begin();
        db2.insert(&mut t, 0, 2000, &rec_bytes(2000, 40, 8))
            .unwrap();
        db2.commit(t).unwrap();
        let mut t = db2.begin();
        assert_eq!(db2.read(&mut t, 0, 2000).unwrap()[8], 8);
        assert_eq!(db2.read(&mut t, 0, 1000).unwrap()[8], 7);
        db2.commit(t).unwrap();
    }

    #[test]
    fn a_rollback_logs_nothing_and_leaves_nothing_to_recover() {
        let db = fresh_db(CommitProtocol::Baseline, 20);
        let logged = db.log().released_lsn();
        let mut t = db.begin();
        for k in 0..3u64 {
            db.update_with(&mut t, 0, k, |r| r[8] = 200).unwrap();
        }
        db.abort(t).unwrap();
        assert_eq!(db.log().released_lsn(), logged, "a rollback logged");
        let image = db.crash();
        let (db2, stats) = recover_with_stats(image, opts(CommitProtocol::Baseline)).unwrap();
        assert_eq!(stats.winners, 0);
        let mut t = db2.begin();
        for k in 0..3u64 {
            assert_eq!(db2.read(&mut t, 0, k).unwrap()[8], 1);
        }
        db2.commit(t).unwrap();
    }

    #[test]
    fn recovery_is_idempotent_double_crash() {
        let db = fresh_db(CommitProtocol::Baseline, 20);
        let mut t = db.begin();
        db.update_with(&mut t, 0, 2, |r| r[8] = 33).unwrap();
        db.commit(t).unwrap();
        let mut open = db.begin();
        db.update_with(&mut open, 0, 2, |r| r[8] = 34).unwrap();
        db.log().flush_all().unwrap();
        let image = db.crash();
        std::mem::forget(open);
        // First recovery, then crash again immediately: recovery wrote
        // nothing, so the second one scans the same log to the same state.
        let (db2, first) = recover_with_stats(image, opts(CommitProtocol::Baseline)).unwrap();
        let image2 = db2.crash();
        let (db3, stats) = recover_with_stats(image2, opts(CommitProtocol::Baseline)).unwrap();
        assert_eq!(stats, first);
        let mut t = db3.begin();
        assert_eq!(db3.read(&mut t, 0, 2).unwrap()[8], 33);
        db3.commit(t).unwrap();
    }

    #[test]
    fn a_commit_inside_a_checkpoint_is_redone() {
        // A checkpoint whose dirty-page capture ran before an update that
        // then committed between its begin and end records: the end lists
        // no dirty page, yet the page was never stored, so redo must
        // replay the update.
        let db = fresh_db(CommitProtocol::Baseline, 10);
        db.log()
            .insert_payload::<[u8]>(RecordKind::CheckpointBegin, 0, Lsn::ZERO, &[]);
        let mut t = db.begin();
        db.update_with(&mut t, 0, 4, |r| r[8] = 70).unwrap();
        db.commit(t).unwrap();
        let captured = CheckpointPayload::default();
        db.log()
            .insert_payload(RecordKind::CheckpointEnd, 0, Lsn::ZERO, &captured);
        db.log().flush_all().unwrap();
        let db2 = Db::recover(db.crash(), opts(CommitProtocol::Baseline)).unwrap();
        let mut t = db2.begin();
        assert_eq!(
            db2.read(&mut t, 0, 4).unwrap()[8],
            70,
            "committed update lost"
        );
        db2.commit(t).unwrap();
    }

    #[test]
    fn opening_an_empty_device_writes_nothing() {
        let device = Arc::new(SimDevice::new(Duration::ZERO));
        let db = Db::open_with_device(
            opts(CommitProtocol::Baseline),
            device.clone() as Arc<dyn LogDevice>,
        );
        db.create_table(40, 10);
        assert_eq!(device.len(), 0, "a fresh open logged something");
        assert_eq!(db.log().durable_lsn(), Lsn::ZERO);
    }

    #[test]
    fn a_torn_tail_is_clipped_so_later_work_survives_the_next_crash() {
        let db = fresh_db(CommitProtocol::Baseline, 20);
        let mut t = db.begin();
        db.update_with(&mut t, 0, 4, |r| r[8] = 40).unwrap();
        db.commit(t).unwrap();
        let mut image = db.crash();
        let valid_end = image.log_bytes.len() as u64;
        image.log_bytes.extend_from_slice(&[0xA5; 7]);
        let db2 = Db::recover(image, opts(CommitProtocol::Baseline)).unwrap();
        assert_eq!(db2.log().device().len(), valid_end, "torn tail kept");
        let mut t = db2.begin();
        db2.update_with(&mut t, 0, 5, |r| r[8] = 50).unwrap();
        db2.commit(t).unwrap();
        let (db3, stats) = recover_with_stats(db2.crash(), opts(CommitProtocol::Baseline)).unwrap();
        assert_eq!(stats.winners, 2, "{stats:?}");
        assert_eq!(db3.snapshot_read(0, 4).unwrap().unwrap()[8], 40);
        assert_eq!(
            db3.snapshot_read(0, 5).unwrap().unwrap()[8],
            50,
            "a commit made after recovery was logged behind the torn tail"
        );
    }

    #[test]
    fn a_torn_tail_on_a_device_that_cannot_clip_fails_the_open() {
        use aether_core::partition::{MemSegmentFactory, SegmentedDevice};
        use aether_core::AetherError;
        let segments =
            Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 16 * 1024).unwrap());
        let db = Db::open_with_device(
            opts(CommitProtocol::Baseline),
            Arc::clone(&segments) as Arc<dyn LogDevice>,
        );
        db.create_table(40, 10);
        for k in 0..10u64 {
            db.load(0, k, &rec_bytes(k, 40, 1)).unwrap();
        }
        db.setup_complete();
        db.log().shutdown();
        segments.append(&[0xA5; 7]).unwrap();
        let opened = Db::open_on(
            segments,
            db.store().deep_clone(),
            &db.schema(),
            opts(CommitProtocol::Baseline),
        );
        assert!(
            matches!(
                &opened,
                Err(StorageError::Log(AetherError::Io(e)))
                    if e.kind() == std::io::ErrorKind::Unsupported
            ),
            "{:?}",
            opened.map(|(_, stats)| stats)
        );
    }

    #[test]
    fn checkpoint_counted_and_page_store_used() {
        let db = fresh_db(CommitProtocol::Baseline, 30);
        let mut t = db.begin();
        db.update_with(&mut t, 0, 9, |r| r[8] = 60).unwrap();
        db.commit(t).unwrap();
        db.flush_pages();
        db.checkpoint();
        let image = db.crash();
        assert!(!image.store.is_empty());
        let (db2, stats) = recover_with_stats(image, opts(CommitProtocol::Baseline)).unwrap();
        assert!(stats.checkpoints >= 2, "setup + explicit checkpoint");
        // Pages came from the store, so the committed update needed no redo
        // (page_lsn already covers it)... but redo counting is an internal
        // detail; the observable contract is the value.
        let mut t = db2.begin();
        assert_eq!(db2.read(&mut t, 0, 9).unwrap()[8], 60);
        db2.commit(t).unwrap();
    }
}
