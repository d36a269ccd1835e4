//! Pages and page identity.
//!
//! Tables store fixed-size records in *cells*: one presence byte followed by
//! the record bytes. Making presence part of the cell means an insert or a
//! delete is a plain cell overwrite — the same physiological update path
//! as ordinary writes, exactly what page-LSN redo wants.

use aether_core::Lsn;

/// Page size in bytes (Shore-MT's default is 8 KiB).
pub const PAGE_SIZE: usize = 8192;

/// Identifies a page: table id + page number within the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Owning table.
    pub table: u32,
    /// Page number within the table.
    pub page_no: u32,
}

impl PageId {
    /// Pack into one u64 (used as the page-store key and in WAL payloads).
    pub fn pack(self) -> u64 {
        ((self.table as u64) << 32) | self.page_no as u64
    }

    /// Inverse of [`PageId::pack`].
    pub fn unpack(v: u64) -> PageId {
        PageId {
            table: (v >> 32) as u32,
            page_no: v as u32,
        }
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.table, self.page_no)
    }
}

/// A record id: page number + slot within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rid {
    /// Page number within the owning table.
    pub page_no: u32,
    /// Slot index within the page.
    pub slot: u16,
}

/// An in-memory page frame: data + redo bookkeeping.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Raw page bytes (cell array).
    pub data: Box<[u8]>,
    /// End LSN of the last record applied to this page, zero for a page
    /// no record has touched: the redo idempotence test, and what the log
    /// must be durable to before the page is stored (the WAL rule).
    pub page_lsn: Lsn,
    /// Dirty since last flush to the page store.
    pub dirty: bool,
    /// Start LSN of the *first* record that dirtied the page: the dirty
    /// page table's entry, below which the log may not be truncated.
    pub rec_lsn: Lsn,
}

impl Frame {
    /// Fresh zeroed frame.
    pub fn new() -> Frame {
        Frame {
            data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            page_lsn: Lsn::ZERO,
            dirty: false,
            rec_lsn: Lsn::ZERO,
        }
    }

    /// A clean frame holding a stored page image: one copy of it.
    pub fn from_image(page_lsn: Lsn, image: &[u8]) -> Frame {
        Frame {
            data: image.into(),
            page_lsn,
            dirty: false,
            rec_lsn: Lsn::ZERO,
        }
    }

    /// Stamp the record `[start, end)` on a page whose bytes the caller has
    /// just changed in place: the page LSN becomes `end`, and a clean page
    /// turns dirty with `start` as its `rec_lsn`.
    pub fn stamp(&mut self, start: Lsn, end: Lsn) {
        self.page_lsn = end;
        if !self.dirty {
            self.dirty = true;
            self.rec_lsn = start;
        }
    }

    /// Mark clean (after a flush to the page store).
    pub fn mark_clean(&mut self) {
        self.dirty = false;
        self.rec_lsn = Lsn::ZERO;
    }
}

impl Default for Frame {
    fn default() -> Self {
        Frame::new()
    }
}

/// The key of the record a cell holds (the first 8 record bytes, behind the
/// presence byte), or `None` for an empty cell. `cell` starts at the cell.
pub(crate) fn cell_key(cell: &[u8]) -> Option<u64> {
    (cell[0] == 1).then(|| u64::from_le_bytes(cell[1..9].try_into().expect("key bytes")))
}

/// Cell geometry for a table with `record_size`-byte records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellGeometry {
    /// Bytes per record (excluding the presence byte).
    pub record_size: usize,
    /// Bytes per cell (record + presence byte).
    pub cell_size: usize,
    /// Cells per page.
    pub slots_per_page: usize,
}

impl CellGeometry {
    /// Geometry for `record_size`-byte records.
    pub fn new(record_size: usize) -> CellGeometry {
        assert!(record_size >= 8, "records must embed an 8-byte key");
        let cell_size = record_size + 1;
        let slots_per_page = PAGE_SIZE / cell_size;
        assert!(slots_per_page >= 1, "record too large for a page");
        CellGeometry {
            record_size,
            cell_size,
            slots_per_page,
        }
    }

    /// Byte offset of `slot`'s cell within a page.
    #[inline]
    pub fn offset(&self, slot: u16) -> usize {
        slot as usize * self.cell_size
    }

    /// Map a dense key to its home RID (preloaded tables lay keys out
    /// sequentially, so the mapping is pure arithmetic — no index probe).
    #[inline]
    pub fn rid_for_dense_key(&self, key: u64) -> Rid {
        Rid {
            page_no: (key / self.slots_per_page as u64) as u32,
            slot: (key % self.slots_per_page as u64) as u16,
        }
    }

    /// Number of pages needed to hold `n` dense records.
    pub fn pages_for(&self, n: u64) -> u32 {
        n.div_ceil(self.slots_per_page as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_pack_roundtrip() {
        let id = PageId {
            table: 7,
            page_no: 12345,
        };
        assert_eq!(PageId::unpack(id.pack()), id);
        assert_eq!(format!("{id}"), "7:12345");
    }

    #[test]
    fn geometry_basic() {
        let g = CellGeometry::new(99);
        assert_eq!(g.cell_size, 100);
        assert_eq!(g.slots_per_page, 81);
        assert_eq!(g.offset(0), 0);
        assert_eq!(g.offset(2), 200);
        assert_eq!(g.pages_for(0), 0);
        assert_eq!(g.pages_for(81), 1);
        assert_eq!(g.pages_for(82), 2);
    }

    #[test]
    fn dense_key_mapping_covers_all_slots() {
        let g = CellGeometry::new(39); // cell 40, 204 slots/page
        assert_eq!(g.slots_per_page, 204);
        let r0 = g.rid_for_dense_key(0);
        assert_eq!((r0.page_no, r0.slot), (0, 0));
        let r = g.rid_for_dense_key(203);
        assert_eq!((r.page_no, r.slot), (0, 203));
        let r = g.rid_for_dense_key(204);
        assert_eq!((r.page_no, r.slot), (1, 0));
    }

    #[test]
    fn frame_stamp_tracks_lsns_and_dirty() {
        let mut f = Frame::new();
        assert!(!f.dirty);
        f.stamp(Lsn(500), Lsn(560));
        assert!(f.dirty);
        assert_eq!(f.rec_lsn, Lsn(500), "rec_lsn is the record's start");
        assert_eq!(f.page_lsn, Lsn(560), "page_lsn is the record's end");
        f.stamp(Lsn(600), Lsn(640));
        assert_eq!(f.rec_lsn, Lsn(500), "rec_lsn pins the first dirtying LSN");
        assert_eq!(f.page_lsn, Lsn(640));
        f.mark_clean();
        assert!(!f.dirty);
        f.stamp(Lsn(700), Lsn(720));
        assert_eq!(f.rec_lsn, Lsn(700));
    }
}
