//! The page store: the "data volume" pages are flushed to.
//!
//! The paper's experiments run memory-resident datasets ("we use
//! memory-resident datasets, while disk still provides durability", §6.1) —
//! the buffer pool never evicts, and the data volume matters only for
//! checkpointing and recovery. The store is therefore an in-memory table of
//! (packed [`PageId`], page LSN, image) that *survives simulated crashes*:
//! [`crate::db::Db::crash`] drops every in-memory frame but keeps the store
//! and the log device, exactly the state a real system reboots with.
//!
//! A flush copies a frame once into an immutable image. Everything else
//! hands the image on by reference: a crash image, a base snapshot and a
//! standby's store share it, and a later flush of the page replaces the
//! store's entry, never the image, so every holder keeps its point in time.

use crate::page::{PageId, PAGE_SIZE};
use aether_core::runtime::lock;
use aether_core::Lsn;
use std::sync::{Arc, Mutex};

/// A stored page: packed [`PageId`], the page LSN at flush time, and the
/// image, which is never mutated once stored.
pub type StoredPage = (u64, Lsn, Arc<[u8]>);

/// Durable page images, sorted by packed [`PageId`].
#[derive(Debug, Default)]
pub struct PageStore {
    pages: Mutex<Vec<StoredPage>>,
}

impl PageStore {
    /// Empty store.
    pub fn new() -> Arc<PageStore> {
        Arc::new(PageStore::default())
    }

    /// Write a page image (checkpoint / background flusher): the one copy
    /// of a frame into the store.
    pub fn write(&self, id: PageId, page_lsn: Lsn, data: &[u8]) {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        let page = (id.pack(), page_lsn, Arc::from(data));
        let mut pages = lock(&self.pages);
        match pages.binary_search_by_key(&page.0, |p| p.0) {
            Ok(i) => pages[i] = page,
            Err(i) => pages.insert(i, page),
        }
    }

    /// The stored image of a page, if it was ever flushed.
    pub fn read(&self, id: PageId) -> Option<(Lsn, Arc<[u8]>)> {
        let pages = lock(&self.pages);
        let i = pages.binary_search_by_key(&id.pack(), |p| p.0).ok()?;
        Some((pages[i].1, Arc::clone(&pages[i].2)))
    }

    /// Number of stored pages.
    pub fn len(&self) -> usize {
        lock(&self.pages).len()
    }

    /// True if nothing has been flushed.
    pub fn is_empty(&self) -> bool {
        lock(&self.pages).is_empty()
    }

    /// Point-in-time copy for a crash image: a new table over the same
    /// images, so later writes to either store never show in the other.
    pub fn deep_clone(&self) -> Arc<PageStore> {
        Arc::new(PageStore {
            pages: Mutex::new(self.export()),
        })
    }

    /// Every stored page, sorted by id — the form a base snapshot ships to
    /// a bootstrapping replica. The images are shared, not copied.
    pub fn export(&self) -> Vec<StoredPage> {
        lock(&self.pages).clone()
    }

    /// A store over exported pages (the receiving end of a base snapshot),
    /// sharing their images. `pages` is sorted by id, as
    /// [`PageStore::export`] and `BaseSnapshot::decode` give it.
    pub fn from_pages(pages: &[StoredPage]) -> Arc<PageStore> {
        debug_assert!(pages.is_sorted_by_key(|p| p.0));
        Arc::new(PageStore {
            pages: Mutex::new(pages.to_vec()),
        })
    }

    /// Highest page number flushed for `table`, if any.
    pub fn max_page_no(&self, table: u32) -> Option<u32> {
        let pages = lock(&self.pages);
        let end = pages.partition_point(|p| PageId::unpack(p.0).table <= table);
        let last = PageId::unpack(pages[..end].last()?.0);
        (last.table == table).then_some(last.page_no)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let s = PageStore::new();
        assert!(s.is_empty());
        let id = PageId {
            table: 1,
            page_no: 2,
        };
        let mut data = vec![0u8; PAGE_SIZE];
        data[17] = 99;
        s.write(id, Lsn(1000), &data);
        let (lsn, back) = s.read(id).unwrap();
        assert_eq!(lsn, Lsn(1000));
        assert_eq!(back[17], 99);
        assert_eq!(s.len(), 1);
        assert!(s
            .read(PageId {
                table: 1,
                page_no: 3
            })
            .is_none());
    }

    #[test]
    fn overwrite_replaces() {
        let s = PageStore::new();
        let id = PageId {
            table: 0,
            page_no: 0,
        };
        s.write(id, Lsn(1), &vec![1u8; PAGE_SIZE]);
        s.write(id, Lsn(2), &vec![2u8; PAGE_SIZE]);
        let (lsn, data) = s.read(id).unwrap();
        assert_eq!(lsn, Lsn(2));
        assert_eq!(data[0], 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn a_clone_keeps_its_images_across_a_later_write() {
        let s = PageStore::new();
        let id = PageId {
            table: 1,
            page_no: 4,
        };
        s.write(id, Lsn(10), &vec![1u8; PAGE_SIZE]);
        let clone = s.deep_clone();
        s.write(id, Lsn(20), &vec![2u8; PAGE_SIZE]);
        let (lsn, data) = clone.read(id).unwrap();
        assert_eq!(lsn, Lsn(10));
        assert!(data.iter().all(|&b| b == 1), "the clone's image changed");
        assert_eq!(s.read(id).unwrap().0, Lsn(20));
        assert_eq!(s.read(id).unwrap().1[0], 2);
    }

    #[test]
    fn max_page_no_is_per_table() {
        let s = PageStore::new();
        for (table, page_no) in [(2, 7), (0, 3), (2, 1), (0, 9)] {
            s.write(PageId { table, page_no }, Lsn(1), &vec![0u8; PAGE_SIZE]);
        }
        assert_eq!(s.max_page_no(0), Some(9));
        assert_eq!(s.max_page_no(1), None);
        assert_eq!(s.max_page_no(2), Some(7));
        assert_eq!(s.max_page_no(3), None);
        let ids: Vec<u64> = s.export().iter().map(|p| p.0).collect();
        assert!(ids.is_sorted(), "export is sorted by id: {ids:?}");
    }
}
