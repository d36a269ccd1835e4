//! Continuous redo for standby replicas (log-shipping replication).
//!
//! A replica receives the primary's durable log as a byte stream and keeps a
//! **standby database** warm by following it with one [`Redo`] — the loop
//! restart recovery runs, resumed as each frame lands: an UpdateCommit
//! that ends past a target page's LSN is applied to it; the others are
//! skipped, so replay is idempotent over any prefix overlap (the base
//! backup's flushed pages already carry their page LSNs). A transaction is
//! logged once, at its commit, so the standby only ever holds committed
//! data: its state at an applied LSN is the primary's committed state
//! there.
//!
//! `redo` is the crate's one page redo: what a record read back from the
//! log does to a page is decided there and nowhere else, and only `Redo`'s
//! loop calls it. A standby, a restart and a failover therefore repeat
//! history by one routine, and a promotion, which stops the standby's loop
//! and opens the log behind it, reads no received record twice.
//!
//! The standby never originates transactions: its log manager writes to a
//! discarding device and its lock manager stays empty. Snapshot reads go
//! straight to the table frames ([`Db::snapshot_read`]).

use crate::db::{table_in, Db, DbOptions};
use crate::error::{StorageError, StorageResult};
use crate::page::{cell_key, PageId, PAGE_SIZE};
use crate::recovery::Redo;
use crate::segmented::Segmented;
use crate::store::{PageStore, StoredPage};
use crate::table::Table;
use crate::wal::UpdateCommitPayload;
use aether_core::device::NullDevice;
use aether_core::record::{Record, RecordKind};
use aether_core::runtime::{read, write};
use aether_core::{DeviceKind, Lsn};
use std::sync::Arc;

/// A checkpoint-consistent base snapshot: everything a fresh replica needs
/// to join a cluster whose log prefix has been truncated away.
///
/// `start_lsn` is the primary's truncation-safe point at capture time
/// (`min(durable, dirty-page recovery LSNs)` —
/// [`crate::db::Db::log_truncation_point`] right after a page flush): every
/// record below it is reflected in `pages`, so shipping the log from
/// `start_lsn` onward is sufficient for both continuous replay and a later
/// promotion. The dirty-page table at capture time rides along as the
/// snapshot's integrity gate ([`standby_from_snapshot`]).
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
    /// The dirty-page table at capture time: (packed page id, rec LSN).
    pub dpt: Vec<(u64, Lsn)>,
}

impl BaseSnapshot {
    /// Serialize for shipping over a replication link. Layout:
    /// `[start u64][n_schema u32][n_pages u32][n_dpt u32]` then per
    /// table `[record_size u64][dense_rows u64]`, per page
    /// `[id u64][lsn u64][len u32][bytes]`, per dirty page
    /// `[id u64][rec_lsn u64]`. One allocation, sized up front.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Bytes [`BaseSnapshot::encode`] writes.
    pub fn encoded_len(&self) -> usize {
        let pages_len: usize = self.pages.iter().map(|p| 20 + p.2.len()).sum();
        20 + 16 * (self.schema.len() + self.dpt.len()) + pages_len
    }

    /// [`BaseSnapshot::encode`] appending onto `out`: a frame around the
    /// snapshot is written in the same buffer, with no copy of the body.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.start_lsn.raw().to_le_bytes());
        out.extend_from_slice(&(self.schema.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.dpt.len() as u32).to_le_bytes());
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
        for (id, rec_lsn) in &self.dpt {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&rec_lsn.raw().to_le_bytes());
        }
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
        let n_dpt = u32::from_le_bytes(buf[16..20].try_into().ok()?) as usize;
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
        if buf.len() != at + 16 * n_dpt {
            return None;
        }
        let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
        let dpt = (0..n_dpt)
            .map(|i| (u64_at(at + 16 * i), Lsn(u64_at(at + 16 * i + 8))))
            .collect();
        Some(BaseSnapshot {
            start_lsn,
            schema,
            pages,
            dpt,
        })
    }
}

/// Capture a [`BaseSnapshot`] from a live primary: flush every dirty page,
/// checkpoint (publishing a fresh redo low-water mark), and export the
/// store, sharing its images. The returned `start_lsn` is the
/// truncation point at capture time, so the snapshot composes with any
/// *prior* truncation — the shipped stream `[start_lsn, ...)` plus the
/// pages is a complete replica seed even though the log below `start_lsn`
/// may be long gone.
pub fn base_snapshot(db: &Db) -> BaseSnapshot {
    db.flush_pages();
    let start_lsn = db.checkpoint();
    // The DPT sampled after the checkpoint: fuzzy, but every recovery LSN
    // in it is >= start_lsn (a dirty page's recovery LSN pins the
    // truncation point the start LSN was computed from).
    BaseSnapshot {
        start_lsn,
        schema: db.schema(),
        pages: db.store().export(),
        dpt: db.dpt_snapshot(),
    }
}

/// Build a standby database from a [`BaseSnapshot`] (the receiving end of a
/// replica bootstrap — fresh attach or a re-seed after the shipper fell
/// behind the truncated prefix). The snapshot's DPT is the integrity gate:
/// a dirty page whose recovery LSN lies below the snapshot's own start LSN
/// means the capture was inconsistent (the shipped stream could never redo
/// that page), so the snapshot is rejected rather than silently installed.
pub fn standby_from_snapshot(opts: DbOptions, snap: &BaseSnapshot) -> StorageResult<Arc<Db>> {
    if let Some(&(page, rec_lsn)) = snap.dpt.iter().find(|&&(_, rec)| rec < snap.start_lsn) {
        return Err(StorageError::Recovery(format!(
            "inconsistent base snapshot: dirty page {page} has recovery LSN {rec_lsn} below the snapshot start {}",
            snap.start_lsn
        )));
    }
    standby_db(opts, PageStore::from_pages(&snap.pages), &snap.schema)
}

/// Build a standby database from a base backup: the primary's flushed page
/// store plus its schema, opened over a discarding device (a standby never
/// logs); all state changes arrive by [`Redo::follow`] over its receive
/// log.
pub fn standby_db(
    opts: DbOptions,
    store: Arc<PageStore>,
    schema: &[(usize, u64)],
) -> StorageResult<Arc<Db>> {
    let opts = DbOptions {
        device: DeviceKind::Null,
        ..opts
    };
    Db::open_on(Redo::new(Arc::new(NullDevice::new())), store, schema, opts).map(|(db, _)| db)
}

/// The page redo: apply one log record to `tables`, and say whether it
/// changed a page. Only [`Redo`]'s loop calls it — over a standby's tables
/// as it follows its receive log, and over the tables [`Db::open_on`]
/// makes before the database around them exists.
///
/// Only an UpdateCommit changes pages; every other kind is a no-op. Its
/// entries come in `(table, page)` order, so one page's entries are
/// consecutive: the page-LSN test is decided once per page per record, on
/// the page's LSN before the record. A page LSN is the end of the last
/// record applied, so a page whose LSN is below the record's end gets
/// every entry of it and then the record's range as its stamp; a record
/// at LSN 0 ends past a never-logged page's LSN 0 and is applied. A second entry for a page the
/// record has just stamped is thus never mistaken for one already applied.
/// Each applied cell keeps the hash index in step, so a standby serves
/// snapshot reads for appended keys too. Decoding and applying allocate
/// nothing: the images are read in place from the record, and the index
/// sees the current cell's key, read under the frame latch. Only an
/// appended key's insert may grow the index's map.
pub(crate) fn redo(tables: &Segmented<Table>, rec: &Record) -> StorageResult<bool> {
    if rec.header.kind != RecordKind::UpdateCommit {
        return Ok(false);
    }
    let bad = || StorageError::Recovery(format!("bad update-commit payload at {}", rec.lsn));
    let mut entries = UpdateCommitPayload::entries(&rec.payload).peekable();
    let mut prev: Option<PageId> = None;
    let mut changed = false;
    while let Some(first) = entries.next() {
        let first = first.ok_or_else(bad)?;
        let page = first.page;
        if prev.is_some_and(|p| p >= page) {
            return Err(bad());
        }
        prev = Some(page);
        let t = table_in(tables, page.table)?;
        let mut g = write(t.frame(page.page_no));
        let fresh = g.page_lsn < rec.next_lsn();
        let mut entry = Some(first);
        while let Some(e) = entry {
            if e.after.len() != t.geom.cell_size || usize::from(e.slot) >= t.geom.slots_per_page {
                return Err(bad());
            }
            if fresh {
                let off = t.geom.offset(e.slot);
                let was = cell_key(&g.data[off..]);
                g.data[off..off + e.after.len()].copy_from_slice(e.after);
                t.reindex_cell(e.rid(), was, e.after);
            }
            entry = entries
                .next_if(|n| n.as_ref().is_some_and(|n| n.page == page))
                .flatten();
        }
        if fresh {
            g.stamp(rec.lsn, rec.next_lsn());
            changed = true;
        }
    }
    Ok(changed)
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
    use crate::recovery::RecoveryStats;
    use crate::txn::CommitProtocol;
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

    /// Follow `db`'s whole log into `standby` with a new [`Redo`].
    fn follow_all(db: &Db, standby: &Db) -> RecoveryStats {
        let mut redo = Redo::new(Arc::clone(db.log().device()));
        redo.follow(standby).unwrap();
        redo.stats().clone()
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
        follow_all(&db, &standby);
        assert_eq!(
            state_fingerprint(&standby).unwrap(),
            state_fingerprint(&db).unwrap()
        );
        assert_eq!(standby.snapshot_read(0, KEY).unwrap().unwrap()[8], 3);
        // Restart recovery over the same images indexes the key alike.
        let mut image = db.crash();
        image.store = store;
        let recovered = Db::recover(image, opts()).unwrap();
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
            dpt: vec![(1, Lsn(1))],
        };
        let ok = snap(vec![page(1), page(2)]);
        let wire = ok.encode();
        assert_eq!(BaseSnapshot::decode(&wire[..wire.len() - 1]), None);
        assert_eq!(BaseSnapshot::decode(&wire), Some(ok));
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
        follow_all(&db, &standby);
        assert_eq!(
            state_fingerprint(&standby).unwrap(),
            state_fingerprint(&db).unwrap()
        );
        // Snapshot reads resolve through dense mapping and the index alike.
        assert_eq!(standby.snapshot_read(0, 3).unwrap().unwrap()[8], 53);
        assert_eq!(standby.snapshot_read(0, 1000).unwrap().unwrap()[8], 9);
        assert_eq!(standby.snapshot_read(0, 777).unwrap(), None);
    }

    #[test]
    fn replay_is_idempotent_over_prefix_overlap() {
        let (db, store, schema) = primary_with_work();
        db.log().flush_all().unwrap();
        let standby = standby_db(opts(), store, &schema).unwrap();
        let first = follow_all(&db, &standby);
        assert!(first.redone > 0, "{first:?}");
        // Following the whole log again changes nothing (page LSNs skip it).
        let again = follow_all(&db, &standby);
        assert_eq!(again.scanned, first.scanned, "{again:?}");
        assert_eq!(again.redone, 0, "{again:?}");
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
        follow_all(&db, &standby);
        assert_eq!(standby.log().device().len(), before);
    }
}
