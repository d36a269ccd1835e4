//! Tables: fixed-size records over page frames, with a hash index for
//! non-dense keys.
//!
//! The benchmark schemas (TPC-B, TATP) preload dense key ranges — subscriber
//! ids 0..100k, account ids 0..N — so the common case resolves a key to its
//! RID arithmetically. Appended rows (History, CallForwarding) go through a
//! sharded hash index. Every record embeds its key in the first 8 bytes
//! (little-endian), which lets recovery rebuild indexes by scanning pages.

use crate::error::{StorageError, StorageResult};
use crate::page::{CellGeometry, Frame, PageId, Rid};
use aether_core::runtime::{lock, read, write};
use aether_core::Lsn;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

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

    /// Remove; returns the old RID if present.
    pub fn remove(&self, key: u64) -> Option<Rid> {
        write(self.shard(key)).remove(&key)
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
    frames: RwLock<Vec<Arc<RwLock<Frame>>>>,
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

impl Table {
    /// Create a table with `record_size`-byte records, preallocating frames
    /// for `dense_rows` dense keys.
    pub fn new(id: u32, record_size: usize, dense_rows: u64) -> Table {
        let geom = CellGeometry::new(record_size);
        let pages = geom.pages_for(dense_rows).max(1);
        let frames = (0..pages)
            .map(|_| Arc::new(RwLock::new(Frame::new())))
            .collect();
        let append = if dense_rows == 0 {
            AppendCursor {
                next_page: 0,
                next_slot: 0,
            }
        } else {
            let last = dense_rows - 1;
            let r = geom.rid_for_dense_key(last);
            let (mut p, mut s) = (r.page_no, r.slot + 1);
            if s as usize >= geom.slots_per_page {
                p += 1;
                s = 0;
            }
            AppendCursor {
                next_page: p,
                next_slot: s,
            }
        };
        Table {
            id,
            geom,
            dense_rows,
            frames: RwLock::new(frames),
            append: Mutex::new(append),
            index: HashIndex::new(16),
        }
    }

    /// Number of pages currently in the table.
    pub fn page_count(&self) -> u32 {
        read(&self.frames).len() as u32
    }

    /// Frame handle for `page_no`, growing the table if needed (recovery
    /// redo may touch pages that post-crash frames don't have yet).
    pub fn frame(&self, page_no: u32) -> Arc<RwLock<Frame>> {
        {
            let f = read(&self.frames);
            if (page_no as usize) < f.len() {
                return Arc::clone(&f[page_no as usize]);
            }
        }
        let mut f = write(&self.frames);
        while f.len() <= page_no as usize {
            f.push(Arc::new(RwLock::new(Frame::new())));
        }
        Arc::clone(&f[page_no as usize])
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
        let frame = self.frame(rid.page_no);
        let g = read(&frame);
        let off = self.geom.offset(rid.slot);
        if g.data[off] == 0 {
            return None;
        }
        Some(g.data[off + 1..off + 1 + self.geom.record_size].to_vec())
    }

    /// Read the full cell (presence byte + record) at `rid` — the
    /// before-image for WAL records.
    pub fn read_cell(&self, rid: Rid) -> Vec<u8> {
        let frame = self.frame(rid.page_no);
        let g = read(&frame);
        let off = self.geom.offset(rid.slot);
        g.data[off..off + self.geom.cell_size].to_vec()
    }

    /// Apply `cell` at `rid`, stamping `lsn` (redo and forward path share
    /// this).
    pub fn apply_cell(&self, rid: Rid, cell: &[u8], lsn: Lsn) {
        debug_assert_eq!(cell.len(), self.geom.cell_size);
        let frame = self.frame(rid.page_no);
        let mut g = write(&frame);
        let off = self.geom.offset(rid.slot);
        g.apply(off, cell, lsn);
    }

    /// Build the cell encoding of a present record.
    pub fn make_cell(&self, record: &[u8]) -> StorageResult<Vec<u8>> {
        if record.len() != self.geom.record_size {
            return Err(StorageError::InvalidRecord(format!(
                "record is {} bytes, table {} wants {}",
                record.len(),
                self.id,
                self.geom.record_size
            )));
        }
        let mut cell = Vec::with_capacity(self.geom.cell_size);
        cell.push(1u8);
        cell.extend_from_slice(record);
        Ok(cell)
    }

    /// An all-zero (absent) cell.
    pub fn empty_cell(&self) -> Vec<u8> {
        vec![0u8; self.geom.cell_size]
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
    /// checkpoint afterwards, see [`crate::db::Db::setup_complete`]).
    pub fn load(&self, key: u64, record: &[u8]) -> StorageResult<Rid> {
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
        let cell = self.make_cell(record)?;
        self.apply_cell(rid, &cell, Lsn::ZERO);
        Ok(rid)
    }

    /// Rebuild the hash index and append cursor by scanning pages (recovery).
    pub fn rebuild_index(&self) {
        let frames = read(&self.frames);
        let mut last_occupied: Option<(u32, u16)> = None;
        for (page_no, frame) in frames.iter().enumerate() {
            let g = read(frame);
            for slot in 0..self.geom.slots_per_page as u16 {
                let off = self.geom.offset(slot);
                if g.data[off] == 1 {
                    last_occupied = Some((page_no as u32, slot));
                    let key =
                        u64::from_le_bytes(g.data[off + 1..off + 9].try_into().expect("key bytes"));
                    if key >= self.dense_rows {
                        self.index.insert(
                            key,
                            Rid {
                                page_no: page_no as u32,
                                slot,
                            },
                        );
                    }
                }
            }
        }
        // Reset the append cursor past the last occupied slot (or past the
        // dense region, whichever is later).
        let dense_end = if self.dense_rows == 0 {
            (0u32, 0u16)
        } else {
            let r = self.geom.rid_for_dense_key(self.dense_rows - 1);
            (r.page_no, r.slot)
        };
        let target = match last_occupied {
            Some(lo) => lo.max(dense_end),
            None => {
                if self.dense_rows == 0 {
                    let mut a = lock(&self.append);
                    a.next_page = 0;
                    a.next_slot = 0;
                    return;
                }
                dense_end
            }
        };
        let (mut p, mut s) = (target.0, target.1 + 1);
        if s as usize >= self.geom.slots_per_page {
            p += 1;
            s = 0;
        }
        let mut a = lock(&self.append);
        a.next_page = p;
        a.next_slot = s;
    }

    /// Visit every dirty frame: `(page_no, &mut Frame)`.
    pub fn for_each_dirty<F: FnMut(u32, &mut Frame)>(&self, mut f: F) {
        let frames = read(&self.frames);
        for (page_no, frame) in frames.iter().enumerate() {
            let mut g = write(frame);
            if g.dirty {
                f(page_no as u32, &mut g);
            }
        }
    }

    /// Dirty-page-table snapshot for this table: (packed PageId, rec_lsn).
    pub fn dpt_snapshot(&self) -> Vec<(u64, Lsn)> {
        let frames = read(&self.frames);
        let mut out = Vec::new();
        for (page_no, frame) in frames.iter().enumerate() {
            let g = read(frame);
            if g.dirty {
                out.push((
                    PageId {
                        table: self.id,
                        page_no: page_no as u32,
                    }
                    .pack(),
                    g.rec_lsn,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_record(key: u64, size: usize, fill: u8) -> Vec<u8> {
        let mut r = vec![fill; size];
        r[..8].copy_from_slice(&key.to_le_bytes());
        r
    }

    #[test]
    fn dense_load_and_read() {
        let t = Table::new(0, 40, 1000);
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
        let t = Table::new(1, 24, 10);
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
        let t = Table::new(1, 16, 0);
        t.load(500, &key_record(500, 16, 1)).unwrap();
        assert!(matches!(
            t.load(500, &key_record(500, 16, 2)),
            Err(StorageError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn wrong_record_size_rejected() {
        let t = Table::new(0, 40, 10);
        assert!(matches!(
            t.load(0, &[0u8; 39]),
            Err(StorageError::InvalidRecord(_))
        ));
    }

    #[test]
    fn cell_roundtrip_and_empty() {
        let t = Table::new(0, 16, 10);
        let rid = t.rid_of(3).unwrap();
        assert!(t.read(rid).is_none(), "unloaded slot reads as absent");
        let cell = t.make_cell(&key_record(3, 16, 9)).unwrap();
        t.apply_cell(rid, &cell, Lsn(77));
        assert_eq!(t.read_cell(rid), cell);
        assert_eq!(t.read(rid).unwrap()[8], 9);
        // Delete = empty cell.
        t.apply_cell(rid, &t.empty_cell(), Lsn(78));
        assert!(t.read(rid).is_none());
    }

    #[test]
    fn frame_growth_on_demand() {
        let t = Table::new(0, 64, 10);
        let before = t.page_count();
        let _ = t.frame(before + 5);
        assert_eq!(t.page_count(), before + 6);
    }

    #[test]
    fn allocate_slots_are_unique_and_advance_pages() {
        let t = Table::new(0, 4000, 0); // 2 slots/page
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
    fn rebuild_index_recovers_appended_keys_and_cursor() {
        let t = Table::new(2, 24, 5);
        for k in 0..5u64 {
            t.load(k, &key_record(k, 24, 1)).unwrap();
        }
        for k in [100u64, 200, 300] {
            t.load(k, &key_record(k, 24, 3)).unwrap();
        }
        // Simulate recovery: new table object, copy the frames' bytes over.
        let t2 = Table::new(2, 24, 5);
        for p in 0..t.page_count() {
            let src = t.frame(p);
            let cell_bytes = read(&src).data.clone();
            let dst = t2.frame(p);
            write(&dst).data = cell_bytes;
        }
        t2.rebuild_index();
        assert_eq!(t2.index().len(), 3);
        assert!(t2.rid_of(200).is_some());
        // Appends continue after the recovered rows, not on top of them.
        let rid = t2.allocate_slot();
        let existing = t2.rid_of(300).unwrap();
        assert!(rid != existing);
    }

    #[test]
    fn dirty_tracking_and_dpt() {
        let t = Table::new(3, 16, 100);
        assert!(t.dpt_snapshot().is_empty());
        let rid = t.rid_of(0).unwrap();
        let cell = t.make_cell(&key_record(0, 16, 1)).unwrap();
        t.apply_cell(rid, &cell, Lsn(500));
        let dpt = t.dpt_snapshot();
        assert_eq!(dpt.len(), 1);
        assert_eq!(dpt[0].1, Lsn(500));
        let mut cleaned = 0;
        t.for_each_dirty(|_, f| {
            f.mark_clean();
            cleaned += 1;
        });
        assert_eq!(cleaned, 1);
        assert!(t.dpt_snapshot().is_empty());
    }
}
