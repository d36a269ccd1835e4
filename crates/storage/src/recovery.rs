//! ARIES-style restart recovery: analysis → redo → undo, streaming the log.
//!
//! Opening is recovery: [`Db::open_on`] is the one way a [`Db`] is made.
//! A fresh database is recovery over an empty device (nothing to redo or
//! undo), a crash image is recovery over a device rebuilt from its bytes,
//! a standby is recovery over a discarding device and its page store, and
//! a promotion is recovery over the replica's own receive log.
//!
//! Nothing holds the log in memory: analysis and redo each scan the device
//! with a [`LogReader`], and undo reads each record it needs at its LSN.
//!
//! * **Analysis** scans the *retained* durable log — from the device's
//!   low-water mark (the truncation point the last fuzzy checkpoint
//!   published; zero for a never-truncated log) — and classifies
//!   transactions: winners (commit record present), cleanly-aborted (abort
//!   record present — their CLRs already restored everything), and losers
//!   (everything else). A one-record transaction (an `UpdateCommit`) is a
//!   winner by its one record and never enters the loser table: nothing
//!   of it can be undone. The last complete checkpoint's ATT seeds the
//!   loser table, so a transaction whose only records precede the checkpoint is
//!   still found and undone. Truncation safety (DESIGN.md invariant 7)
//!   guarantees every record analysis or undo could need is at or above
//!   `log_start`: the truncation point never exceeds the oldest active
//!   transaction's first record or any dirty page's recovery LSN. Where
//!   the scan stops is the end of the valid log; a torn tail is cut there.
//! * The last checkpoint's DPT gives the **redo start**: its minimum
//!   recovery LSN, or the checkpoint's begin record if that is lower. A
//!   page the capture saw clean may be dirtied by a record logged between
//!   the begin and end records, so redo never starts past the begin.
//!   Records below the start only touch pages whose images in the store
//!   already contain them, so the redo scan starts there and never reads
//!   them. This is what bounds recovery time by checkpoint distance rather than
//!   uptime.
//! * **Redo repeats history** through [`crate::replay::apply_record`], the
//!   standby's continuous redo: every Update/CLR/UpdateCommit whose LSN is
//!   newer than the target page's LSN is reapplied, reconstructing exactly the
//!   crash-moment page state — including updates of losers. The hash index
//!   is built over the stored page images before redo, as a standby's is;
//!   redo and undo keep it in step, and the end only resets each table's
//!   append cursor.
//! * **Undo** rolls losers back in *reverse global LSN order*, each update
//!   through `Db::compensate`, the step rollback takes too: CLRs chained
//!   through `undo_next`, so that a crash during recovery never re-undoes
//!   compensated work; each loser ends with an abort record.
//!
//! This is also where ELR's safety story closes (§3.1): a pre-committed
//! transaction whose commit record did not reach the disk is a loser, and
//! any transaction that read its ELR-released data has a *later* commit
//! LSN — so it is a loser too, never a durable winner.

use crate::db::{CrashImage, Db, DbOptions};
use crate::error::{StorageError, StorageResult};
use crate::replay::apply_record;
use crate::store::PageStore;
use crate::wal::{CheckpointPayload, ClrPayload, UpdatePayload};
use aether_core::device::{LogDevice, SimDevice};
use aether_core::reader::LogReader;
use aether_core::record::{Record, RecordKind};
use aether_core::{LogManager, Lsn};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Outcome statistics from a recovery run (inspectable in tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records scanned during analysis.
    pub scanned: usize,
    /// Committed (winner) transactions, one-record ones included.
    pub winners: usize,
    /// Transactions that had completed rollback before the crash.
    pub clean_aborts: usize,
    /// Loser transactions rolled back by undo.
    pub losers: usize,
    /// Update/CLR/UpdateCommit records reapplied by redo.
    pub redone: usize,
    /// CLRs written by undo.
    pub clrs_written: usize,
    /// Checkpoints observed.
    pub checkpoints: usize,
    /// Where the analysis scan began: the device's low-water mark (the
    /// truncation point; zero for a never-truncated log).
    pub scan_start: Lsn,
    /// Where redo began: the lower of the last checkpoint's minimum
    /// dirty-page recovery LSN and its begin record (== `scan_start` when
    /// no complete checkpoint was found).
    pub redo_start: Lsn,
    /// Update/CLR/UpdateCommit records skipped by redo because they precede
    /// `redo_start` (their effects are already in the flushed page images).
    pub redo_skipped: usize,
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
    /// made. Analysis scans the device from its low-water mark, the torn
    /// tail is clipped, the log starts at the device's end, the tables are
    /// installed from the store, then redo and undo run. An empty device,
    /// store and schema is a fresh database, and opening it writes nothing.
    pub fn open_on(
        device: Arc<dyn LogDevice>,
        store: Arc<PageStore>,
        schema: &[(usize, u64)],
        opts: DbOptions,
    ) -> StorageResult<(Arc<Db>, RecoveryStats)> {
        let log_start = device.low_water();
        let mut stats = RecoveryStats {
            scan_start: log_start,
            ..RecoveryStats::default()
        };

        // ---------------- Analysis ----------------
        let mut last_lsn: HashMap<u64, Lsn> = HashMap::new();
        let mut winners: HashSet<u64> = HashSet::new();
        let mut clean_aborts: HashSet<u64> = HashSet::new();
        let mut max_txn = 0u64;
        // One-record transactions: winners that never enter `last_lsn`.
        let mut one_record = 0usize;
        // The last complete checkpoint: its begin record's LSN and its
        // payload; and the first begin record since the previous end record.
        let mut last_ckpt: Option<(Lsn, CheckpointPayload)> = None;
        let mut open_begin: Option<Lsn> = None;
        // Update/CLR/UpdateCommit records seen; what the redo scan does not
        // see again is what redo skipped.
        let mut cell_records = 0usize;
        let mut reader = LogReader::new(Arc::clone(&device));
        while let Some(rec) = reader.next_record()? {
            stats.scanned += 1;
            let txn = rec.header.txn;
            max_txn = max_txn.max(txn);
            match rec.header.kind {
                RecordKind::Update | RecordKind::Clr => {
                    last_lsn.insert(txn, rec.lsn);
                    cell_records += 1;
                }
                RecordKind::UpdateCommit => {
                    one_record += 1;
                    cell_records += 1;
                }
                RecordKind::Commit => {
                    winners.insert(txn);
                }
                RecordKind::Abort => {
                    clean_aborts.insert(txn);
                }
                RecordKind::CheckpointEnd => {
                    stats.checkpoints += 1;
                    let payload = CheckpointPayload::decode(&rec.payload).ok_or_else(|| {
                        StorageError::Recovery("undecodable checkpoint payload".into())
                    })?;
                    // Checkpoints may overlap: without a begin of its own
                    // since the last end, the earlier checkpoint's begin
                    // stands in (lower is safe); the scan start if there is
                    // none.
                    let begin = open_begin
                        .take()
                        .or(last_ckpt.as_ref().map(|c| c.0))
                        .unwrap_or(log_start);
                    last_ckpt = Some((begin, payload));
                }
                RecordKind::CheckpointBegin => {
                    open_begin.get_or_insert(rec.lsn);
                }
                RecordKind::Filler | RecordKind::End => {}
            }
        }
        // The scan stopped at the end of the valid prefix. The crash may
        // have torn the final record, and new records (CLRs, post-recovery
        // traffic) must append right here — otherwise the dead tail bytes
        // would terminate every future scan early.
        let valid_end = reader.position();
        device.clip_tail(valid_end.raw())?;
        // Seed the transaction table from the last complete checkpoint's
        // ATT: a transaction active at checkpoint time whose records all
        // precede the scanned suffix must still be rolled back. (Truncation
        // safety keeps its whole undo chain at or above `log_start`.)
        // Entries merge by max — a record seen after the checkpoint
        // supersedes the checkpoint's view.
        if let Some((_, ref ckpt)) = last_ckpt {
            for &(txn, at_ckpt) in &ckpt.att {
                max_txn = max_txn.max(txn);
                if at_ckpt.is_zero() {
                    continue; // registered but had logged nothing yet
                }
                let e = last_lsn.entry(txn).or_insert(Lsn::ZERO);
                *e = (*e).max(at_ckpt);
            }
        }
        // Redo starts at the last checkpoint's minimum dirty-page recovery
        // LSN, or at its begin record if that is lower: every older update
        // is already in the flushed page images the tables are rebuilt from.
        let redo_start = match last_ckpt {
            Some((begin, ref ckpt)) => ckpt
                .dpt
                .iter()
                .map(|&(_, rec_lsn)| rec_lsn)
                .fold(begin, Lsn::min),
            None => log_start,
        };
        stats.redo_start = redo_start;
        stats.winners = winners.len() + one_record;
        stats.clean_aborts = clean_aborts.len();
        let losers: HashMap<u64, Lsn> = last_lsn
            .iter()
            .filter(|(t, _)| !winners.contains(t) && !clean_aborts.contains(t))
            .map(|(&t, &l)| (t, l))
            .collect();
        stats.losers = losers.len();

        // The log starts at the device's end, where the scan stopped.
        let log = LogManager::builder()
            .config(opts.log_config.clone())
            .buffer(opts.buffer)
            .device_instance(Arc::clone(&device))
            .try_build()?;
        let db = Db::assemble(opts, Arc::new(log), store);
        // Rebuild tables: schema, page images from the store, the index
        // over them (a standby's are made the same way). Redo and undo keep
        // the index in step from here.
        crate::replay::install_tables(&db, schema);

        // ---------------- Redo (repeat history, from the redo point) ----------------
        // A second scan, from the redo point: records below it only touch
        // pages whose flushed images already contain them, so they are not
        // even read. The standby's redo applies each record.
        let mut reader = LogReader::from_lsn(Arc::clone(&device), redo_start.max(log_start));
        while let Some(rec) = reader.next_record()? {
            if matches!(
                rec.header.kind,
                RecordKind::Update | RecordKind::Clr | RecordKind::UpdateCommit
            ) {
                cell_records -= 1;
                if apply_record(&db, &rec)? {
                    stats.redone += 1;
                }
            }
        }
        if reader.position() != valid_end {
            return Err(StorageError::Recovery(format!(
                "redo scan from {redo_start} stopped at {}, before the log's end at {valid_end}",
                reader.position()
            )));
        }
        stats.redo_skipped = cell_records;

        // ---------------- Undo (reverse global LSN order) ----------------
        let mut heap: BinaryHeap<(Lsn, u64)> = losers.iter().map(|(&t, &l)| (l, t)).collect();
        // Where each loser's new undo chain currently ends (for CLR chaining).
        let mut chain: HashMap<u64, Lsn> = losers.clone();
        while let Some((lsn, txn)) = heap.pop() {
            let rec = read_record_at(&device, lsn)?.ok_or_else(|| {
                StorageError::Recovery(format!("undo chain points at invalid LSN {lsn}"))
            })?;
            debug_assert_eq!(rec.header.txn, txn);
            let next = match rec.header.kind {
                RecordKind::Update => {
                    let u = UpdatePayload::decode(&rec.payload)
                        .ok_or_else(|| StorageError::Recovery("bad update in undo".into()))?;
                    let clr = ClrPayload {
                        page: u.page,
                        slot: u.slot,
                        restored: u.before,
                        undo_next: rec.header.prev_lsn,
                    };
                    let t = db.table(u.page.table)?;
                    chain.insert(txn, db.compensate(t, txn, chain[&txn], &clr));
                    stats.clrs_written += 1;
                    clr.undo_next
                }
                // Already-compensated work: skip to undo_next.
                RecordKind::Clr => {
                    ClrPayload::decode(&rec.payload)
                        .ok_or_else(|| StorageError::Recovery("bad CLR in undo".into()))?
                        .undo_next
                }
                other => {
                    return Err(StorageError::Recovery(format!(
                        "unexpected {other:?} record in a loser's undo chain at {lsn}"
                    )));
                }
            };
            if next.is_zero() {
                db.log()
                    .insert_payload::<[u8]>(RecordKind::Abort, txn, chain[&txn], &[]);
            } else {
                heap.push((next, txn));
            }
        }

        // ---------------- Wrap up ----------------
        for i in 0..schema.len() {
            db.table(i as u32)?.reset_append_cursor();
        }
        db.txn_manager().bump_next(max_txn + 1);
        db.log().flush_all()?;
        Ok((db, stats))
    }
}

/// Random-access read of one record at `lsn` from the retained log. An LSN
/// below the device's low-water mark reads zero bytes and surfaces as
/// `None` — the caller's "undo chain points at invalid LSN" error is the
/// safety net proving truncation never outran an undo chain.
fn read_record_at(device: &Arc<dyn LogDevice>, lsn: Lsn) -> StorageResult<Option<Record>> {
    let mut r = LogReader::from_lsn(Arc::clone(device), lsn);
    Ok(r.next_record()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::CommitProtocol;
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
        assert_eq!(stats.losers, 0);
        for k in 0..10u64 {
            let mut t = db2.begin();
            assert_eq!(db2.read(&mut t, 0, k).unwrap()[8], 100 + k as u8);
            db2.commit(t).unwrap();
        }
    }

    #[test]
    fn uncommitted_work_rolls_back_on_recovery() {
        let db = fresh_db(CommitProtocol::Baseline, 50);
        // Committed baseline value for key 5.
        let mut t = db.begin();
        db.update_with(&mut t, 0, 5, |r| r[8] = 42).unwrap();
        db.commit(t).unwrap();
        // In-flight transaction: updates two keys, never commits. Force its
        // records to disk so redo has something to repeat, then "crash".
        let mut loser = db.begin();
        db.update_with(&mut loser, 0, 5, |r| r[8] = 99).unwrap();
        db.update_with(&mut loser, 0, 6, |r| r[8] = 98).unwrap();
        db.log().flush_all().unwrap();
        let image = db.crash();
        std::mem::forget(loser); // the crash takes it

        let (db2, stats) = recover_with_stats(image, opts(CommitProtocol::Baseline)).unwrap();
        assert_eq!(stats.losers, 1);
        assert_eq!(stats.clrs_written, 2);
        let mut t = db2.begin();
        assert_eq!(db2.read(&mut t, 0, 5).unwrap()[8], 42, "loser undone");
        assert_eq!(db2.read(&mut t, 0, 6).unwrap()[8], 1, "loser undone");
        db2.commit(t).unwrap();
    }

    #[test]
    fn unflushed_commit_is_a_loser_after_crash() {
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
    fn elr_precommit_is_undone_but_dependants_cannot_be_winners() {
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
    fn crash_during_rollback_completes_via_clrs() {
        let db = fresh_db(CommitProtocol::Baseline, 20);
        // Transaction updates 3 keys then aborts; capture mid-rollback by
        // crafting the log: do a full abort (CLRs + abort record are atomic
        // here), then separately leave a loser with CLRs but no abort record
        // by crashing right after manual CLR writes. Simplest honest test:
        // abort fully, crash, and verify recovery does NOT double-undo.
        let mut t = db.begin();
        for k in 0..3u64 {
            db.update_with(&mut t, 0, k, |r| r[8] = 200).unwrap();
        }
        db.abort(t).unwrap();
        db.log().flush_all().unwrap();
        let image = db.crash();
        let (db2, stats) = recover_with_stats(image, opts(CommitProtocol::Baseline)).unwrap();
        assert_eq!(stats.losers, 0, "cleanly aborted txn is not a loser");
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
        let mut loser = db.begin();
        db.update_with(&mut loser, 0, 2, |r| r[8] = 34).unwrap();
        db.log().flush_all().unwrap();
        let image = db.crash();
        std::mem::forget(loser);
        // First recovery, then crash again immediately.
        let db2 = Db::recover(image, opts(CommitProtocol::Baseline)).unwrap();
        let image2 = db2.crash();
        let (db3, stats) = recover_with_stats(image2, opts(CommitProtocol::Baseline)).unwrap();
        // The loser was already compensated; second recovery sees a clean
        // abort and does nothing.
        assert_eq!(stats.losers, 0);
        assert_eq!(stats.clrs_written, 0);
        let mut t = db3.begin();
        assert_eq!(db3.read(&mut t, 0, 2).unwrap()[8], 33);
        db3.commit(t).unwrap();
    }

    #[test]
    fn redo_starts_no_later_than_the_last_checkpoints_begin() {
        // A checkpoint whose dirty-page capture ran before an update that
        // then committed between its begin and end records: the end lists
        // no dirty page, yet the page was never stored, so redo must
        // replay the update.
        let db = fresh_db(CommitProtocol::Baseline, 10);
        let (begin, _) =
            db.log()
                .insert_payload::<[u8]>(RecordKind::CheckpointBegin, 0, Lsn::ZERO, &[]);
        let mut t = db.begin();
        db.update_with(&mut t, 0, 4, |r| r[8] = 70).unwrap();
        db.commit(t).unwrap();
        let captured = CheckpointPayload::default();
        db.log()
            .insert_payload(RecordKind::CheckpointEnd, 0, Lsn::ZERO, &captured);
        db.log().flush_all().unwrap();
        let (db2, stats) = recover_with_stats(db.crash(), opts(CommitProtocol::Baseline)).unwrap();
        assert_eq!(stats.redo_start, begin);
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
