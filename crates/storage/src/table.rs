//! Tables: fixed-size records over page frames, with a hash index for
//! non-dense keys.
//!
//! The benchmark schemas (TPC-B, TATP) preload dense key ranges — subscriber
//! ids 0..100k, account ids 0..N — so the common case resolves a key to its
//! RID arithmetically. Appended rows (History, CallForwarding) go through a
//! sharded hash index. Every record embeds its key in the first 8 bytes
//! (little-endian), which lets recovery rebuild indexes by scanning pages.

use crate::error::{StorageError, StorageResult};
use crate::page::{cell_key, CellGeometry, Frame, PageId, Rid};
use crate::segmented::Segmented;
use crate::store::PageStore;
use aether_core::runtime::{lock, read, write};
use aether_core::Lsn;
use std::collections::HashMap;
use std::sync::{Mutex, RwLock};

/// Sharded hash index: key → RID.
#[derive(Debug)]
pub struct HashIndex {
    shards: Box<[RwLock<HashMap<u64, Rid>>]>,
}

impl HashIndex {
    /// Index with `shards` shards.
    pub fn new(shards: usize) -> HashIndex {
        HashIndex {
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> &RwLock<HashMap<u64, Rid>> {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Look up a key.
    pub fn get(&self, key: u64) -> Option<Rid> {
        read(self.shard(key)).get(&key).copied()
    }

    /// Insert; returns false if the key was already present.
    pub fn insert(&self, key: u64, rid: Rid) -> bool {
        write(self.shard(key)).insert(key, rid).is_none()
    }

    /// Remove `key` only while it maps to `rid`.
    pub fn remove_at(&self, key: u64, rid: Rid) {
        let mut shard = write(self.shard(key));
        if shard.get(&key) == Some(&rid) {
            shard.remove(&key);
        }
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug)]
struct AppendCursor {
    next_page: u32,
    next_slot: u16,
}

/// A table of fixed-size records.
pub struct Table {
    /// Table id (position in the catalog).
    pub id: u32,
    /// Cell geometry.
    pub geom: CellGeometry,
    /// Keys `< dense_rows` map to RIDs arithmetically.
    pub dense_rows: u64,
    /// Page frames, made on first touch and never removed: a lookup takes
    /// no table-wide lock.
    frames: Segmented<RwLock<Frame>>,
    append: Mutex<AppendCursor>,
    index: HashIndex,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("id", &self.id)
            .field("record_size", &self.geom.record_size)
            .field("pages", &self.page_count())
            .field("dense_rows", &self.dense_rows)
            .finish()
    }
}

/// The slot the first appended key goes to: one past the last dense key's.
fn first_append_slot(geom: &CellGeometry, dense_rows: u64) -> Rid {
    if dense_rows == 0 {
        return Rid {
            page_no: 0,
            slot: 0,
        };
    }
    let last = geom.rid_for_dense_key(dense_rows - 1);
    if last.slot as usize + 1 >= geom.slots_per_page {
        Rid {
            page_no: last.page_no + 1,
            slot: 0,
        }
    } else {
        Rid {
            page_no: last.page_no,
            slot: last.slot + 1,
        }
    }
}

impl Table {
    /// Create table `id` with `record_size`-byte records, preallocating
    /// frames for `dense_rows` dense keys and for every page `store` holds
    /// of it. A stored page's frame is made straight from its image (a
    /// standby's or a recovering database's tables); the rest are zeroed.
    pub fn new(id: u32, record_size: usize, dense_rows: u64, store: &PageStore) -> Table {
        let geom = CellGeometry::new(record_size);
        let stored = store.max_page_no(id).map_or(0, |p| p + 1);
        let pages = geom.pages_for(dense_rows).max(1).max(stored);
        let frames = Segmented::new(pages as usize);
        for page_no in 0..pages {
            let frame = match store.read(PageId { table: id, page_no }) {
                Some((page_lsn, image)) => Frame::from_image(page_lsn, &image),
                None => Frame::new(),
            };
            frames.get_or_init(page_no as usize, || RwLock::new(frame));
        }
        let first = first_append_slot(&geom, dense_rows);
        let append = AppendCursor {
            next_page: first.page_no,
            next_slot: first.slot,
        };
        Table {
            id,
            geom,
            dense_rows,
            frames,
            append: Mutex::new(append),
            index: HashIndex::new(16),
        }
    }

    /// Number of pages currently in the table.
    pub fn page_count(&self) -> u32 {
        self.frames.len() as u32
    }

    /// Frame for `page_no`, growing the table if needed (recovery redo may
    /// touch pages that post-crash frames don't have yet). A page below
    /// [`Table::page_count`] that nobody has touched is made zeroed and
    /// clean on its first lookup.
    pub fn frame(&self, page_no: u32) -> &RwLock<Frame> {
        self.frames.get_or_init(page_no as usize, RwLock::default)
    }

    /// Every frame made so far, `(page_no, frame)`, in page order. Pages
    /// never touched are skipped: they are zeroed and clean.
    fn each_frame(&self) -> impl Iterator<Item = (u32, &RwLock<Frame>)> {
        self.frames.iter().map(|(i, f)| (i as u32, f))
    }

    /// Resolve `key` to its RID: dense arithmetic or index probe.
    pub fn rid_of(&self, key: u64) -> Option<Rid> {
        if key < self.dense_rows {
            Some(self.geom.rid_for_dense_key(key))
        } else {
            self.index.get(key)
        }
    }

    /// Read the record bytes at `rid`; `None` if the slot is empty.
    pub fn read(&self, rid: Rid) -> Option<Vec<u8>> {
        let g = read(self.frame(rid.page_no));
        let off = self.geom.offset(rid.slot);
        if g.data[off] == 0 {
            return None;
        }
        Some(g.data[off + 1..off + 1 + self.geom.record_size].to_vec())
    }

    /// The key of the record at `rid`, `None` if the slot is empty.
    pub(crate) fn key_at(&self, rid: Rid) -> Option<u64> {
        cell_key(&read(self.frame(rid.page_no)).data[self.geom.offset(rid.slot)..])
    }

    /// Keep the hash index in step with the cell at `rid` going from one
    /// that held key `was` to `image`: a key that leaves drops out, a key
    /// that arrives goes in (redoing an insert or a delete).
    /// Dense keys are not indexed. A key leaves only if the index still
    /// maps it here: a stale copy of it in an older page image never
    /// unmaps the live one.
    pub(crate) fn reindex_cell(&self, rid: Rid, was: Option<u64>, image: &[u8]) {
        match (was, cell_key(image)) {
            (Some(key), None) if key >= self.dense_rows => {
                self.index.remove_at(key, rid);
            }
            (None, Some(key)) if key >= self.dense_rows => {
                self.index.insert(key, rid);
            }
            _ => {}
        }
    }

    /// `Ok` if `record` is this table's record size.
    pub fn check_record(&self, record: &[u8]) -> StorageResult<()> {
        if record.len() != self.geom.record_size {
            return Err(StorageError::InvalidRecord(format!(
                "record is {} bytes, table {} wants {}",
                record.len(),
                self.id,
                self.geom.record_size
            )));
        }
        Ok(())
    }

    /// Allocate the next append slot (for inserts beyond the dense region).
    pub fn allocate_slot(&self) -> Rid {
        let mut a = lock(&self.append);
        let rid = Rid {
            page_no: a.next_page,
            slot: a.next_slot,
        };
        a.next_slot += 1;
        if a.next_slot as usize >= self.geom.slots_per_page {
            a.next_page += 1;
            a.next_slot = 0;
        }
        drop(a);
        // Ensure the frame exists.
        let _ = self.frame(rid.page_no);
        rid
    }

    /// The secondary index (appended keys).
    pub fn index(&self) -> &HashIndex {
        &self.index
    }

    /// Direct-load a record during setup (unlogged bulk load; callers must
    /// checkpoint afterwards, see [`crate::db::Db::setup_complete`]): the
    /// presence byte and the record go into the frame under one lock.
    pub fn load(&self, key: u64, record: &[u8]) -> StorageResult<Rid> {
        self.check_record(record)?;
        let rid = if key < self.dense_rows {
            self.geom.rid_for_dense_key(key)
        } else {
            let rid = self.allocate_slot();
            if !self.index.insert(key, rid) {
                return Err(StorageError::DuplicateKey {
                    table: self.id,
                    key,
                });
            }
            rid
        };
        let mut g = write(self.frame(rid.page_no));
        let off = self.geom.offset(rid.slot);
        g.data[off] = 1;
        g.data[off + 1..off + self.geom.cell_size].copy_from_slice(record);
        g.stamp(Lsn::ZERO, Lsn::ZERO);
        Ok(rid)
    }

    /// Build the hash index by scanning pages: a standby's or a recovering
    /// database's page images, before any record is replayed over them.
    ///
    /// Page images flushed at different times can hold one key twice: an
    /// older image still shows it where it was deleted, a newer one where
    /// it was inserted again. A key's times in different cells do not
    /// overlap in LSN order, so the copy on the page with the higher page
    /// LSN is the later one, and the index maps it; replaying the delete over the older image then
    /// leaves the mapping alone (`Table::reindex_cell`).
    ///
    /// Appended keys never sit in the dense region, so the scan starts at
    /// the first append slot.
    pub fn rebuild_index(&self) {
        let first = first_append_slot(&self.geom, self.dense_rows);
        let mut page_lsns = Vec::new();
        for (page_no, frame) in self.each_frame().skip_while(|&(p, _)| p < first.page_no) {
            let g = read(frame);
            page_lsns.resize(page_no as usize + 1, Lsn::ZERO);
            page_lsns[page_no as usize] = g.page_lsn;
            let from = if page_no == first.page_no {
                first.slot
            } else {
                0
            };
            for slot in from..self.geom.slots_per_page as u16 {
                match cell_key(&g.data[self.geom.offset(slot)..]) {
                    Some(key) if key >= self.dense_rows => {
                        let mapped_is_newer = self.index.get(key).is_some_and(|old| {
                            page_lsns
                                .get(old.page_no as usize)
                                .is_some_and(|&lsn| lsn > g.page_lsn)
                        });
                        if !mapped_is_newer {
                            self.index.insert(key, Rid { page_no, slot });
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Put the append cursor past the last occupied slot, or past the dense
    /// region, whichever is later (the end of recovery).
    pub fn reset_append_cursor(&self) {
        let first = first_append_slot(&self.geom, self.dense_rows);
        let slots = self.geom.slots_per_page as u16;
        let mut next = (first.page_no, first.slot);
        for (page_no, frame) in self.each_frame().skip_while(|&(p, _)| p < first.page_no) {
            let g = read(frame);
            if let Some(slot) = (0..slots)
                .rev()
                .find(|&slot| g.data[self.geom.offset(slot)] == 1)
            {
                let after = if slot + 1 == slots {
                    (page_no + 1, 0)
                } else {
                    (page_no, slot + 1)
                };
                next = next.max(after);
            }
        }
        let mut a = lock(&self.append);
        (a.next_page, a.next_slot) = next;
    }

    /// Visit every dirty frame: `(page_no, &mut Frame)`.
    pub fn for_each_dirty<F: FnMut(u32, &mut Frame)>(&self, mut f: F) {
        for (page_no, frame) in self.each_frame() {
            let mut g = write(frame);
            if g.dirty {
                f(page_no, &mut g);
            }
        }
    }

    /// Visit this table's dirty-page-table entries, each under its frame's
    /// read latch: `(packed PageId, rec_lsn)` per dirty page.
    pub fn for_each_dpt_entry(&self, mut f: impl FnMut(u64, Lsn)) {
        for (page_no, frame) in self.each_frame() {
            let g = read(frame);
            if g.dirty {
                let page = PageId {
                    table: self.id,
                    page_no,
                };
                f(page.pack(), g.rec_lsn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Apply `cell` at `rid`, stamping the record `[lsn, lsn + 8)`.
    fn apply_cell(t: &Table, rid: Rid, cell: &[u8], lsn: Lsn) {
        let mut g = write(t.frame(rid.page_no));
        let off = t.geom.offset(rid.slot);
        g.data[off..off + cell.len()].copy_from_slice(cell);
        g.stamp(lsn, lsn.advance(8));
    }

    fn key_record(key: u64, size: usize, fill: u8) -> Vec<u8> {
        let mut r = vec![fill; size];
        r[..8].copy_from_slice(&key.to_le_bytes());
        r
    }

    /// A table with no stored pages.
    fn table(id: u32, record_size: usize, dense_rows: u64) -> Table {
        Table::new(id, record_size, dense_rows, &PageStore::default())
    }

    /// The cell of a present record: presence byte, then the record.
    fn cell_of(record: &[u8]) -> Vec<u8> {
        [&[1u8][..], record].concat()
    }

    #[test]
    fn dense_load_and_read() {
        let t = table(0, 40, 1000);
        for k in 0..1000u64 {
            t.load(k, &key_record(k, 40, 7)).unwrap();
        }
        for k in (0..1000u64).step_by(97) {
            let rid = t.rid_of(k).unwrap();
            let rec = t.read(rid).unwrap();
            assert_eq!(u64::from_le_bytes(rec[..8].try_into().unwrap()), k);
        }
        assert!(t.index().is_empty(), "dense keys bypass the index");
    }

    #[test]
    fn appended_rows_use_index() {
        let t = table(1, 24, 10);
        for k in 0..10u64 {
            t.load(k, &key_record(k, 24, 1)).unwrap();
        }
        let big_key = 1_000_000u64;
        t.load(big_key, &key_record(big_key, 24, 2)).unwrap();
        let rid = t.rid_of(big_key).unwrap();
        assert_eq!(t.read(rid).unwrap()[8], 2);
        assert_eq!(t.index().len(), 1);
        assert!(t.rid_of(999_999).is_none());
    }

    #[test]
    fn duplicate_appended_key_rejected() {
        let t = table(1, 16, 0);
        t.load(500, &key_record(500, 16, 1)).unwrap();
        assert!(matches!(
            t.load(500, &key_record(500, 16, 2)),
            Err(StorageError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn wrong_record_size_rejected() {
        let t = table(0, 40, 10);
        assert!(matches!(
            t.load(0, &[0u8; 39]),
            Err(StorageError::InvalidRecord(_))
        ));
    }

    #[test]
    fn cell_roundtrip_and_empty() {
        let t = table(0, 16, 10);
        let rid = t.rid_of(3).unwrap();
        assert!(t.read(rid).is_none(), "unloaded slot reads as absent");
        let cell = cell_of(&key_record(3, 16, 9));
        apply_cell(&t, rid, &cell, Lsn(77));
        assert_eq!(t.read(rid).unwrap(), cell[1..]);
        assert_eq!(t.key_at(rid), Some(3));
        assert_eq!(t.read(rid).unwrap()[8], 9);
        // Delete = empty cell.
        apply_cell(&t, rid, &vec![0; t.geom.cell_size], Lsn(78));
        assert!(t.read(rid).is_none());
        assert_eq!(t.key_at(rid), None);
    }

    #[test]
    fn frame_growth_on_demand() {
        let t = table(0, 64, 10);
        let before = t.page_count();
        let _ = t.frame(before + 5);
        assert_eq!(t.page_count(), before + 6);
    }

    #[test]
    fn allocate_slots_are_unique_and_advance_pages() {
        let t = table(0, 4000, 0); // 2 slots/page
        assert_eq!(t.geom.slots_per_page, 2);
        let rids: Vec<Rid> = (0..5).map(|_| t.allocate_slot()).collect();
        assert_eq!(
            rids[0],
            Rid {
                page_no: 0,
                slot: 0
            }
        );
        assert_eq!(
            rids[1],
            Rid {
                page_no: 0,
                slot: 1
            }
        );
        assert_eq!(
            rids[2],
            Rid {
                page_no: 1,
                slot: 0
            }
        );
        assert_eq!(
            rids[4],
            Rid {
                page_no: 2,
                slot: 0
            }
        );
    }

    #[test]
    fn a_key_in_two_images_maps_to_the_newer_page() {
        // Key 7 sits on page 1 in an image of LSN 10 and on page 0 in one
        // of LSN 20: page 0 holds the later copy, though it scans first.
        let t = table(4, 24, 0);
        let cell = cell_of(&key_record(7, 24, 1));
        let (live, stale) = (
            Rid {
                page_no: 0,
                slot: 3,
            },
            Rid {
                page_no: 1,
                slot: 0,
            },
        );
        apply_cell(&t, stale, &cell, Lsn(10));
        apply_cell(&t, live, &cell, Lsn(20));
        t.rebuild_index();
        assert_eq!(t.rid_of(7), Some(live));
        // Replaying the delete over the stale image keeps the live mapping.
        t.reindex_cell(stale, Some(7), &vec![0; t.geom.cell_size]);
        assert_eq!(t.rid_of(7), Some(live));
        t.reindex_cell(live, Some(7), &vec![0; t.geom.cell_size]);
        assert_eq!(t.rid_of(7), None);
    }

    #[test]
    fn rebuild_index_recovers_appended_keys_and_cursor() {
        let t = table(2, 24, 5);
        for k in 0..5u64 {
            t.load(k, &key_record(k, 24, 1)).unwrap();
        }
        for k in [100u64, 200, 300] {
            t.load(k, &key_record(k, 24, 3)).unwrap();
        }
        // Simulate recovery: flush the frames, make a new table from them.
        let store = PageStore::default();
        t.for_each_dirty(|page_no, f| {
            store.write(PageId { table: 2, page_no }, f.page_lsn, &f.data)
        });
        let t2 = Table::new(2, 24, 5, &store);
        assert_eq!(t2.page_count(), t.page_count());
        t2.rebuild_index();
        t2.reset_append_cursor();
        assert_eq!(t2.index().len(), 3);
        assert!(t2.rid_of(200).is_some());
        // Appends continue after the recovered rows, not on top of them.
        let rid = t2.allocate_slot();
        let existing = t2.rid_of(300).unwrap();
        assert!(rid != existing);
    }

    #[test]
    fn a_key_appended_beside_the_last_dense_row_is_indexed() {
        // Five dense rows fill page 0's first five slots; key 100 goes to
        // slot 5 of the same page, where the index rebuild must find it.
        let t = table(2, 24, 5);
        let rid = t.load(100, &key_record(100, 24, 3)).unwrap();
        assert_eq!((rid.page_no, rid.slot), (0, 5));
        let store = PageStore::default();
        t.for_each_dirty(|page_no, f| {
            store.write(PageId { table: 2, page_no }, f.page_lsn, &f.data)
        });
        let t2 = Table::new(2, 24, 5, &store);
        t2.rebuild_index();
        assert_eq!(t2.rid_of(100), Some(rid));
        t2.reset_append_cursor();
        assert_eq!(
            t2.allocate_slot(),
            Rid {
                page_no: 0,
                slot: 6
            }
        );
    }

    #[test]
    fn frames_start_from_the_stored_images() {
        let store = PageStore::default();
        let mut image = vec![0u8; crate::page::PAGE_SIZE];
        image[..17].copy_from_slice(&cell_of(&key_record(1, 16, 4)));
        store.write(
            PageId {
                table: 3,
                page_no: 0,
            },
            Lsn(40),
            &image,
        );
        store.write(
            PageId {
                table: 3,
                page_no: 5,
            },
            Lsn(50),
            &image,
        );
        store.write(
            PageId {
                table: 4,
                page_no: 9,
            },
            Lsn(60),
            &image,
        );
        let t = Table::new(3, 16, 10, &store);
        assert_eq!(t.page_count(), 6, "through the last stored page");
        for (page_no, lsn) in [(0, Lsn(40)), (5, Lsn(50))] {
            let g = read(t.frame(page_no));
            assert_eq!((g.page_lsn, g.dirty), (lsn, false));
            assert_eq!(g.data[..], image[..]);
        }
        assert_eq!(read(t.frame(1)).page_lsn, Lsn::ZERO);
        assert!(read(t.frame(1)).data.iter().all(|&b| b == 0));
    }

    #[test]
    fn dirty_tracking_and_dpt() {
        let dpt = |t: &Table| {
            let mut dpt = Vec::new();
            t.for_each_dpt_entry(|page, rec_lsn| dpt.push((page, rec_lsn)));
            dpt
        };
        let t = table(3, 16, 100);
        assert!(dpt(&t).is_empty());
        let rid = t.rid_of(0).unwrap();
        let cell = cell_of(&key_record(0, 16, 1));
        apply_cell(&t, rid, &cell, Lsn(500));
        assert_eq!(
            dpt(&t),
            [(
                PageId {
                    table: 3,
                    page_no: 0
                }
                .pack(),
                Lsn(500)
            )]
        );
        let mut cleaned = 0;
        t.for_each_dirty(|_, f| {
            f.mark_clean();
            cleaned += 1;
        });
        assert_eq!(cleaned, 1);
        assert!(dpt(&t).is_empty());
    }
}
