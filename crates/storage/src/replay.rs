//! Continuous redo for standby replicas (log-shipping replication).
//!
//! A replica receives the primary's durable log as a byte stream and keeps a
//! **standby database** warm by replaying it record-by-record — the same
//! "repeat history" rule ARIES redo uses at restart, applied continuously:
//! an Update/CLR whose LSN is newer than the target page's LSN is applied;
//! older records are skipped, so replay is idempotent over any prefix
//! overlap (the base backup's flushed pages already carry their page LSNs).
//!
//! [`apply_record`] is the crate's one redo: what an Update or CLR record
//! read back from the log does to a page is decided there and nowhere
//! else. Restart recovery
//! ([`crate::recovery`]) redoes through it, and promotion hands the shipped
//! log prefix to that same recovery, so the standby, a restart and a
//! failover repeat history by one routine.
//!
//! The standby never originates transactions: its log manager writes to a
//! discarding device and its lock manager stays empty. Snapshot reads go
//! straight to the table frames ([`snapshot_read`]).

use crate::db::{Db, DbOptions};
use crate::error::{StorageError, StorageResult};
use crate::page::{cell_key, PAGE_SIZE};
use crate::store::{PageStore, StoredPage};
use crate::wal::{CheckpointPayload, ClrPayload, UpdatePayload};
use aether_core::record::{Record, RecordKind};
use aether_core::runtime::{read, write};
use aether_core::{DeviceKind, EncodePayload, LogManager, Lsn};
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
///
/// The pages are the primary's stored images, shared: capturing a
/// snapshot copies no page, and a standby built from one copies each page
/// once, into its frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseSnapshot {
    /// First LSN the replica must receive; base of its log device.
    pub start_lsn: Lsn,
    /// Schema: (record_size, dense_rows) per table id.
    pub schema: Vec<(usize, u64)>,
    /// Flushed pages, sorted by packed page id.
    pub pages: Vec<StoredPage>,
    /// Active-transaction and dirty-page tables at capture time.
    pub checkpoint: CheckpointPayload,
}

impl BaseSnapshot {
    /// Serialize for shipping over a replication link. Layout:
    /// `[start u64][n_schema u32][n_pages u32][ckpt_len u32]` then per
    /// table `[record_size u64][dense_rows u64]`, per page
    /// `[id u64][lsn u64][len u32][bytes]`, then the encoded
    /// ATT/DPT ([`CheckpointPayload`]). One allocation, sized up front.
    pub fn encode(&self) -> Vec<u8> {
        let ckpt_len = self.checkpoint.encoded_len();
        let pages_len: usize = self.pages.iter().map(|p| 20 + p.2.len()).sum();
        let mut out = Vec::with_capacity(20 + 16 * self.schema.len() + pages_len + ckpt_len);
        out.extend_from_slice(&self.start_lsn.raw().to_le_bytes());
        out.extend_from_slice(&(self.schema.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        out.extend_from_slice(&(ckpt_len as u32).to_le_bytes());
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
        self.checkpoint.append_to(&mut out);
        out
    }

    /// Decode; `None` on malformed input, which includes pages that are not
    /// [`PAGE_SIZE`] or not in ascending id order. The one place wire bytes
    /// become page images.
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
            let ascending = pages.last().is_none_or(|p: &StoredPage| p.0 < id);
            if buf.len() < at + len || len != PAGE_SIZE || !ascending {
                return None;
            }
            pages.push((id, lsn, Arc::from(&buf[at..at + len])));
            at += len;
        }
        if buf.len() != at + ckpt_len {
            return None;
        }
        Some(BaseSnapshot {
            start_lsn,
            schema,
            pages,
            checkpoint: CheckpointPayload::decode(&buf[at..])?,
        })
    }
}

/// Capture a [`BaseSnapshot`] from a live primary: flush every dirty page,
/// take a fuzzy checkpoint (publishing a fresh redo low-water mark), and
/// export the store, sharing its images. The returned `start_lsn` is the
/// truncation point at capture time, so the snapshot composes with any
/// *prior* truncation — the shipped stream `[start_lsn, ...)` plus the
/// pages is a complete replica seed even though the log below `start_lsn`
/// may be long gone.
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
        checkpoint: CheckpointPayload {
            att: db.txn_manager().att_snapshot(),
            dpt: db.dpt_snapshot(),
        },
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
    let ckpt = &snap.checkpoint;
    if let Some(&(page, rec_lsn)) = ckpt.dpt.iter().find(|&&(_, rec)| rec < snap.start_lsn) {
        return Err(StorageError::Recovery(format!(
            "inconsistent base snapshot: dirty page {page} has recovery LSN {rec_lsn} below the snapshot start {}",
            snap.start_lsn
        )));
    }
    let store = PageStore::from_pages(&snap.pages);
    let db = standby_db(opts, store, &snap.schema)?;
    if let Some(max) = ckpt.att.iter().map(|&(txn, _)| txn).max() {
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
    let db = Db::assemble(opts, log, store);
    install_tables(&db, schema);
    Ok(db)
}

/// Rebuild tables from a schema, each frame made once from its page image
/// in the database's store, and index them; [`apply_record`] keeps the
/// index in step from there. Shared by restart recovery and standby
/// construction.
pub(crate) fn install_tables(db: &Db, schema: &[(usize, u64)]) {
    for &(record_size, dense_rows) in schema {
        let id = db.create_table(record_size, dense_rows);
        db.table(id).expect("a table just made").rebuild_index();
    }
}

/// Apply one log record to a database: the one redo of the crate. A
/// standby runs it on every shipped record (continuous redo), and restart
/// recovery — which promotion runs too — on every record from its redo
/// point.
///
/// An Update or CLR whose LSN is newer than its page's LSN applies its cell
/// image (the after-image, or the image the CLR restores) and keeps the
/// hash index in step, so a standby serves snapshot reads for appended keys
/// too; an older one is skipped. Decoding and applying allocate nothing:
/// the images are read in place from the record, and the index sees the
/// current cell's key, read under the same frame lock. Only an appended
/// key's insert may grow the index's map. Every other kind is a no-op for
/// page state. Returns whether the record changed a page.
pub fn apply_record(db: &Db, rec: &Record) -> StorageResult<bool> {
    let bad = |what| StorageError::Recovery(format!("bad {what} payload at {}", rec.lsn));
    let (table, rid, image) = match rec.header.kind {
        RecordKind::Update => {
            let u = UpdatePayload::decode(&rec.payload).ok_or_else(|| bad("update"))?;
            (u.page.table, u.rid(), u.after)
        }
        RecordKind::Clr => {
            let c = ClrPayload::decode(&rec.payload).ok_or_else(|| bad("CLR"))?;
            (c.page.table, c.rid(), c.restored)
        }
        _ => return Ok(false),
    };
    let t = db.table(table)?;
    let was = {
        let mut g = write(t.frame(rid.page_no));
        if g.page_lsn >= rec.lsn {
            return Ok(false);
        }
        let off = t.geom.offset(rid.slot);
        let was = cell_key(&g.data[off..]);
        g.apply(off, image, rec.lsn);
        was
    };
    t.reindex_cell(rid, was, image);
    Ok(true)
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
            let g = read(t.frame(page_no));
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
    use crate::page::PageId;
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

    /// A primary whose key `KEY` went into page 0, was deleted and went in
    /// again on page 1, and a page store that caught page 0 before the
    /// delete and page 1 after the second insert: both images hold the key.
    const KEY: u64 = 5000;
    fn key_in_two_page_images() -> (Arc<Db>, Arc<PageStore>, Vec<(usize, u64)>) {
        let db = Db::open(opts());
        db.create_table(40, 0);
        db.setup_complete();
        let t0 = db.table(0).unwrap();
        let store = PageStore::new();
        let snap = |page_no| {
            let g = read(t0.frame(page_no));
            store.write(PageId { table: 0, page_no }, g.page_lsn, &g.data);
        };
        let insert = |key, fill| {
            let mut t = db.begin();
            db.insert(&mut t, 0, key, &rec_bytes(key, 40, fill))
                .unwrap();
            db.commit(t).unwrap();
        };
        insert(KEY, 1);
        snap(0);
        let mut t = db.begin();
        db.delete(&mut t, 0, KEY).unwrap();
        db.commit(t).unwrap();
        for key in 0..t0.geom.slots_per_page as u64 {
            insert(10_000 + key, 2);
        }
        insert(KEY, 3);
        let rid = t0.rid_of(KEY).unwrap();
        assert_eq!(rid.page_no, 1);
        snap(1);
        db.log().flush_all().unwrap();
        let schema = db.schema();
        (db, store, schema)
    }

    #[test]
    fn a_key_in_two_page_images_resolves_to_the_newer() {
        let (db, store, schema) = key_in_two_page_images();
        let standby = standby_db(opts(), store.deep_clone(), &schema).unwrap();
        let mut reader = LogReader::new(Arc::clone(db.log().device()));
        while let Some(rec) = reader.next_record().unwrap() {
            apply_record(&standby, &rec).unwrap();
        }
        assert_eq!(
            state_fingerprint(&standby).unwrap(),
            state_fingerprint(&db).unwrap()
        );
        assert_eq!(snapshot_read(&standby, 0, KEY).unwrap().unwrap()[8], 3);
        // Restart recovery over the same images indexes the key alike.
        let mut image = db.crash();
        image.store = store;
        let recovered = crate::recovery::recover(image, opts()).unwrap();
        let mut t = recovered.begin();
        assert_eq!(recovered.read(&mut t, 0, KEY).unwrap()[8], 3);
        recovered.commit(t).unwrap();
    }

    #[test]
    fn a_base_snapshot_keeps_its_images_across_a_later_flush() {
        let (db, _, _) = primary_with_work();
        let snap = base_snapshot(&db);
        let frozen: Vec<(u64, Lsn, Vec<u8>)> = snap
            .pages
            .iter()
            .map(|(id, lsn, image)| (*id, *lsn, image.to_vec()))
            .collect();
        for k in 0..20u64 {
            let mut t = db.begin();
            db.update_with(&mut t, 0, k, |r| r[9] = 0xEE).unwrap();
            db.commit(t).unwrap();
        }
        db.flush_pages();
        let now = db.store().export();
        assert!(now.iter().zip(&frozen).all(|(n, f)| n.1 > f.1));
        for ((id, lsn, image), (fid, flsn, fbytes)) in snap.pages.iter().zip(&frozen) {
            assert_eq!((id, lsn), (fid, flsn));
            assert_eq!(&image[..], &fbytes[..], "snapshot page {id} changed");
        }
        let wire = snap.encode();
        assert_eq!(wire.len(), wire.capacity(), "encode sizes its buffer once");
        assert_eq!(BaseSnapshot::decode(&wire).unwrap(), snap);
    }

    #[test]
    fn decode_rejects_pages_that_are_not_pages_in_id_order() {
        let page = |id| (id, Lsn(1), Arc::from(vec![0u8; PAGE_SIZE]));
        let snap = |pages| BaseSnapshot {
            start_lsn: Lsn(1),
            schema: vec![(40, 20)],
            pages,
            checkpoint: CheckpointPayload::default(),
        };
        let ok = snap(vec![page(1), page(2)]);
        assert_eq!(BaseSnapshot::decode(&ok.encode()), Some(ok));
        assert_eq!(
            BaseSnapshot::decode(&snap(vec![page(2), page(1)]).encode()),
            None
        );
        assert_eq!(
            BaseSnapshot::decode(&snap(vec![page(1), page(1)]).encode()),
            None
        );
        let short = snap(vec![(1, Lsn(1), Arc::from(vec![0u8; 100]))]);
        assert_eq!(BaseSnapshot::decode(&short.encode()), None);
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
