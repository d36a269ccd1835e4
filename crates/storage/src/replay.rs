//! Continuous redo for standby replicas (log-shipping replication).
//!
//! A replica receives the primary's durable log as a byte stream and keeps a
//! **standby database** warm by replaying it record-by-record — the same
//! "repeat history" rule ARIES redo uses at restart, applied continuously:
//! an Update/CLR whose LSN is newer than the target page's LSN is applied;
//! older records are skipped, so replay is idempotent over any prefix
//! overlap (the base backup's flushed pages already carry their page LSNs).
//!
//! The standby never originates transactions: its log manager writes to a
//! discarding device and its lock manager stays empty. Snapshot reads go
//! straight to the table frames ([`snapshot_read`]), and promotion hands the
//! shipped log prefix to the ordinary ARIES [`crate::recovery`] path.

use crate::db::{Db, DbOptions};
use crate::error::{StorageError, StorageResult};
use crate::page::Rid;
use crate::store::PageStore;
use crate::table::Table;
use crate::wal::{CheckpointPayload, ClrPayload, UpdatePayload};
use aether_core::record::{Record, RecordKind};
use aether_core::runtime::{read, write};
use aether_core::{DeviceKind, LogManager, Lsn};
use std::sync::Arc;

/// A checkpoint-consistent base snapshot: everything a fresh replica needs
/// to join a cluster whose log prefix has been truncated away.
///
/// `start_lsn` is the primary's truncation-safe point at capture time
/// (`min(durable, dirty-page recovery LSNs, oldest active transaction's
/// first record)` — [`crate::db::Db::log_truncation_point`] right after a
/// page flush): every record below it is reflected in `pages`, and every
/// record any in-flight transaction could need — redo *or* undo — is at or
/// above it, so shipping the log from `start_lsn` onward is sufficient for
/// both continuous replay and a later promotion. The fuzzy checkpoint's
/// ATT/DPT ride along, mirroring what the capture-time checkpoint wrote
/// into the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseSnapshot {
    /// First LSN the replica must receive; base of its log device.
    pub start_lsn: Lsn,
    /// Schema: (record_size, dense_rows) per table id.
    pub schema: Vec<(usize, u64)>,
    /// Flushed pages: (packed page id, page LSN, bytes).
    pub pages: Vec<(u64, Lsn, Vec<u8>)>,
    /// Active-transaction table at capture time.
    pub att: Vec<(u64, Lsn)>,
    /// Dirty-page table at capture time.
    pub dpt: Vec<(u64, Lsn)>,
}

impl BaseSnapshot {
    /// Serialize for shipping over a replication link. Layout:
    /// `[start u64][n_schema u32][n_pages u32][ckpt_len u32]` then per
    /// table `[record_size u64][dense_rows u64]`, per page
    /// `[id u64][lsn u64][len u32][bytes]`, then the encoded
    /// ATT/DPT ([`CheckpointPayload`]).
    pub fn encode(&self) -> Vec<u8> {
        let ckpt = CheckpointPayload {
            att: self.att.clone(),
            dpt: self.dpt.clone(),
        }
        .encode();
        let mut out = Vec::new();
        out.extend_from_slice(&self.start_lsn.raw().to_le_bytes());
        out.extend_from_slice(&(self.schema.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        out.extend_from_slice(&(ckpt.len() as u32).to_le_bytes());
        for &(record_size, dense_rows) in &self.schema {
            out.extend_from_slice(&(record_size as u64).to_le_bytes());
            out.extend_from_slice(&dense_rows.to_le_bytes());
        }
        for (id, lsn, data) in &self.pages {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&lsn.raw().to_le_bytes());
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            out.extend_from_slice(data);
        }
        out.extend_from_slice(&ckpt);
        out
    }

    /// Decode; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<BaseSnapshot> {
        if buf.len() < 20 {
            return None;
        }
        let start_lsn = Lsn(u64::from_le_bytes(buf[0..8].try_into().ok()?));
        let n_schema = u32::from_le_bytes(buf[8..12].try_into().ok()?) as usize;
        let n_pages = u32::from_le_bytes(buf[12..16].try_into().ok()?) as usize;
        let ckpt_len = u32::from_le_bytes(buf[16..20].try_into().ok()?) as usize;
        let mut at = 20;
        let mut schema = Vec::with_capacity(n_schema);
        for _ in 0..n_schema {
            if buf.len() < at + 16 {
                return None;
            }
            let record_size = u64::from_le_bytes(buf[at..at + 8].try_into().ok()?) as usize;
            let dense_rows = u64::from_le_bytes(buf[at + 8..at + 16].try_into().ok()?);
            schema.push((record_size, dense_rows));
            at += 16;
        }
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            if buf.len() < at + 20 {
                return None;
            }
            let id = u64::from_le_bytes(buf[at..at + 8].try_into().ok()?);
            let lsn = Lsn(u64::from_le_bytes(buf[at + 8..at + 16].try_into().ok()?));
            let len = u32::from_le_bytes(buf[at + 16..at + 20].try_into().ok()?) as usize;
            at += 20;
            if buf.len() < at + len {
                return None;
            }
            pages.push((id, lsn, buf[at..at + len].to_vec()));
            at += len;
        }
        if buf.len() != at + ckpt_len {
            return None;
        }
        let ckpt = CheckpointPayload::decode(&buf[at..])?;
        Some(BaseSnapshot {
            start_lsn,
            schema,
            pages,
            att: ckpt.att,
            dpt: ckpt.dpt,
        })
    }
}

/// Capture a [`BaseSnapshot`] from a live primary: flush every dirty page,
/// take a fuzzy checkpoint (publishing a fresh redo low-water mark), and
/// export the store. The returned `start_lsn` is the truncation point at
/// capture time, so the snapshot composes with any *prior* truncation —
/// the shipped stream `[start_lsn, ...)` plus the pages is a complete
/// replica seed even though the log below `start_lsn` may be long gone.
pub fn base_snapshot(db: &Db) -> BaseSnapshot {
    db.flush_pages();
    db.checkpoint();
    let start_lsn = db.redo_low_water();
    // ATT/DPT sampled after the checkpoint, like the checkpoint's own
    // payload: fuzzy, but every referenced LSN is >= start_lsn (an active
    // transaction's first record and a dirty page's recovery LSN both pin
    // the truncation point the start LSN was computed from).
    BaseSnapshot {
        start_lsn,
        schema: db.schema(),
        pages: db.store().export(),
        att: db.txn_manager().att_snapshot(),
        dpt: db.dpt_snapshot(),
    }
}

/// Build a standby database from a [`BaseSnapshot`] (the receiving end of a
/// replica bootstrap — fresh attach or a re-seed after the shipper fell
/// behind the truncated prefix). The snapshot's DPT is the integrity gate:
/// a dirty page whose recovery LSN lies below the snapshot's own start LSN
/// means the capture was inconsistent (the shipped stream could never redo
/// that page), so the snapshot is rejected rather than silently installed.
/// The ATT advances the standby's transaction-id floor, so a later
/// promotion never reissues an id that was in flight at capture time.
pub fn standby_from_snapshot(opts: DbOptions, snap: &BaseSnapshot) -> StorageResult<Arc<Db>> {
    if let Some(&(page, rec_lsn)) = snap.dpt.iter().find(|&&(_, rec)| rec < snap.start_lsn) {
        return Err(StorageError::Recovery(format!(
            "inconsistent base snapshot: dirty page {page} has recovery LSN {rec_lsn} below the snapshot start {}",
            snap.start_lsn
        )));
    }
    let store = PageStore::from_pages(&snap.pages);
    let db = standby_db(opts, store, &snap.schema)?;
    if let Some(max) = snap.att.iter().map(|&(txn, _)| txn).max() {
        db.txn_manager().bump_next(max + 1);
    }
    Ok(db)
}

/// Build a standby database from a base backup: the primary's flushed page
/// store plus its schema. The standby's own log discards writes (it never
/// logs); all state changes arrive via [`apply_record`].
pub fn standby_db(
    opts: DbOptions,
    store: Arc<PageStore>,
    schema: &[(usize, u64)],
) -> StorageResult<Arc<Db>> {
    let mut opts = opts;
    opts.device = DeviceKind::Null;
    let log = Arc::new(
        LogManager::builder()
            .config(opts.log_config.clone())
            .buffer(opts.buffer)
            .device(DeviceKind::Null)
            .try_build()?,
    );
    let db = Db::assemble(opts, log, Arc::clone(&store));
    install_tables(&db, schema, &store);
    for i in 0..schema.len() {
        db.table(i as u32)?.rebuild_index();
    }
    Ok(db)
}

/// Rebuild tables from a schema and load their page images from `store`.
/// Shared by restart recovery and standby construction.
pub(crate) fn install_tables(db: &Db, schema: &[(usize, u64)], store: &Arc<PageStore>) {
    for (i, &(record_size, dense_rows)) in schema.iter().enumerate() {
        let table = Arc::new(Table::new(i as u32, record_size, dense_rows));
        if let Some(max_page) = store.max_page_no(i as u32) {
            for page_no in 0..=max_page {
                if let Some((page_lsn, data)) = store.read(crate::page::PageId {
                    table: i as u32,
                    page_no,
                }) {
                    let frame = table.frame(page_no);
                    let mut g = write(&frame);
                    g.data = data;
                    g.page_lsn = page_lsn;
                }
            }
        }
        db.install_table(table);
    }
}

/// Apply one cell image at `rid` if `lsn` is newer than the page LSN
/// (ARIES redo rule). Returns whether the record was applied.
pub(crate) fn redo_cell(t: &Table, rid: Rid, cell: &[u8], lsn: Lsn) -> bool {
    let frame = t.frame(rid.page_no);
    let mut g = write(&frame);
    if g.page_lsn < lsn {
        g.apply(t.geom.offset(rid.slot), cell, lsn);
        true
    } else {
        false
    }
}

/// Apply one shipped log record to a standby database (continuous redo).
///
/// Update and CLR records redo their cell image (index-maintaining, so the
/// standby serves snapshot reads for appended keys too); every other kind is
/// a no-op for page state. Returns whether the record changed a page.
pub fn apply_record(db: &Db, rec: &Record) -> StorageResult<bool> {
    match rec.header.kind {
        RecordKind::Update => {
            let u = UpdatePayload::decode(&rec.payload).ok_or_else(|| {
                StorageError::Recovery(format!("bad update payload at {}", rec.lsn))
            })?;
            let t = db.table(u.page.table)?;
            let rid = u.rid();
            let current = t.read_cell(rid);
            let applied = redo_cell(&t, rid, &u.after, rec.lsn);
            if applied {
                db.fix_index_on_restore(&t, rid, &current, &u.after);
            }
            Ok(applied)
        }
        RecordKind::Clr => {
            let c = ClrPayload::decode(&rec.payload)
                .ok_or_else(|| StorageError::Recovery(format!("bad CLR payload at {}", rec.lsn)))?;
            let t = db.table(c.page.table)?;
            let rid = Rid {
                page_no: c.page.page_no,
                slot: c.slot,
            };
            let current = t.read_cell(rid);
            let applied = redo_cell(&t, rid, &c.restored, rec.lsn);
            if applied {
                db.fix_index_on_restore(&t, rid, &current, &c.restored);
            }
            Ok(applied)
        }
        _ => Ok(false),
    }
}

/// Lock-free snapshot read against a standby: resolves `key` through the
/// table's index/dense mapping and reads the frame directly. The result
/// reflects the replay frontier at call time (bounded staleness; the caller
/// reads the bound off its replica's status).
pub fn snapshot_read(db: &Db, table: u32, key: u64) -> StorageResult<Option<Vec<u8>>> {
    db.snapshot_read(table, key)
}

/// Every occupied cell of a database: `(table, page, slot, cell bytes)`.
pub type CellFingerprint = Vec<(u32, u32, u16, Vec<u8>)>;

/// Every occupied cell of every table: `(table, page, slot, cell bytes)`.
/// Two databases are state-equal iff their fingerprints are equal — the
/// equivalence the replication property tests check between a replica and
/// the primary's log replayed to the same LSN.
pub fn state_fingerprint(db: &Db) -> StorageResult<CellFingerprint> {
    let mut out = Vec::new();
    for table in 0..db.table_count() as u32 {
        let t = db.table(table)?;
        for page_no in 0..t.page_count() {
            let frame = t.frame(page_no);
            let g = read(&frame);
            for slot in 0..t.geom.slots_per_page as u16 {
                let off = t.geom.offset(slot);
                if g.data[off] == 1 {
                    out.push((
                        table,
                        page_no,
                        slot,
                        g.data[off..off + t.geom.cell_size].to_vec(),
                    ));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::CommitProtocol;
    use aether_core::reader::LogReader;
    use aether_core::{BufferKind, LogConfig};

    fn rec_bytes(key: u64, size: usize, fill: u8) -> Vec<u8> {
        let mut r = vec![fill; size];
        r[..8].copy_from_slice(&key.to_le_bytes());
        r
    }

    fn opts() -> DbOptions {
        DbOptions {
            protocol: CommitProtocol::Baseline,
            buffer: BufferKind::Hybrid,
            device: DeviceKind::Ram,
            log_config: LogConfig::default().with_buffer_size(1 << 20),
            ..DbOptions::default()
        }
    }

    /// Primary with some committed work; returns (db, base store, schema).
    fn primary_with_work() -> (Arc<Db>, Arc<PageStore>, Vec<(usize, u64)>) {
        let db = Db::open(opts());
        db.create_table(40, 20);
        for k in 0..20u64 {
            db.load(0, k, &rec_bytes(k, 40, 1)).unwrap();
        }
        db.setup_complete();
        let store = db.store().deep_clone();
        let schema = db.schema();
        for k in 0..10u64 {
            let mut t = db.begin();
            db.update_with(&mut t, 0, k, |r| r[8] = 50 + k as u8)
                .unwrap();
            db.commit(t).unwrap();
        }
        let mut t = db.begin();
        db.insert(&mut t, 0, 1000, &rec_bytes(1000, 40, 9)).unwrap();
        db.commit(t).unwrap();
        (db, store, schema)
    }

    #[test]
    fn standby_replay_matches_primary_state() {
        let (db, store, schema) = primary_with_work();
        db.log().flush_all().unwrap();
        let standby = standby_db(opts(), store, &schema).unwrap();
        let mut reader = LogReader::new(Arc::clone(db.log().device()));
        while let Some(rec) = reader.next_record().unwrap() {
            apply_record(&standby, &rec).unwrap();
        }
        assert_eq!(
            state_fingerprint(&standby).unwrap(),
            state_fingerprint(&db).unwrap()
        );
        // Snapshot reads resolve through dense mapping and the index alike.
        assert_eq!(snapshot_read(&standby, 0, 3).unwrap().unwrap()[8], 53);
        assert_eq!(snapshot_read(&standby, 0, 1000).unwrap().unwrap()[8], 9);
        assert_eq!(snapshot_read(&standby, 0, 777).unwrap(), None);
    }

    #[test]
    fn replay_is_idempotent_over_prefix_overlap() {
        let (db, store, schema) = primary_with_work();
        db.log().flush_all().unwrap();
        let standby = standby_db(opts(), store, &schema).unwrap();
        let records: Vec<Record> = LogReader::new(Arc::clone(db.log().device()))
            .read_all()
            .unwrap();
        for rec in &records {
            apply_record(&standby, rec).unwrap();
        }
        // Re-applying the whole log changes nothing (page LSNs skip it).
        for rec in &records {
            assert!(!apply_record(&standby, rec).unwrap());
        }
        assert_eq!(
            state_fingerprint(&standby).unwrap(),
            state_fingerprint(&db).unwrap()
        );
    }

    #[test]
    fn standby_never_writes_its_own_log() {
        let (db, store, schema) = primary_with_work();
        db.log().flush_all().unwrap();
        let standby = standby_db(opts(), store, &schema).unwrap();
        let before = standby.log().device().len();
        let mut reader = LogReader::new(Arc::clone(db.log().device()));
        while let Some(rec) = reader.next_record().unwrap() {
            apply_record(&standby, &rec).unwrap();
        }
        assert_eq!(standby.log().device().len(), before);
    }
}
