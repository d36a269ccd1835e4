//! The page store: the "data volume" pages are flushed to.
//!
//! The paper's experiments run memory-resident datasets ("we use
//! memory-resident datasets, while disk still provides durability", §6.1) —
//! the buffer pool never evicts, and the data volume matters only for
//! checkpointing and recovery. The store is therefore an in-memory map from
//! packed [`PageId`] to (page LSN, bytes) that *survives simulated crashes*:
//! [`crate::db::Db::crash`] drops every in-memory frame but keeps the store
//! and the log device, exactly the state a real system reboots with.

use crate::page::{PageId, PAGE_SIZE};
use aether_core::runtime::lock;
use aether_core::Lsn;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A stored page image: the page LSN at flush time plus the bytes.
type StoredPage = (Lsn, Box<[u8]>);

/// Durable page images, keyed by packed [`PageId`].
#[derive(Debug, Default)]
pub struct PageStore {
    pages: Mutex<HashMap<u64, StoredPage>>,
}

impl PageStore {
    /// Empty store.
    pub fn new() -> Arc<PageStore> {
        Arc::new(PageStore::default())
    }

    /// Write a page image (checkpoint / background flusher).
    pub fn write(&self, id: PageId, page_lsn: Lsn, data: &[u8]) {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        lock(&self.pages).insert(id.pack(), (page_lsn, data.to_vec().into_boxed_slice()));
    }

    /// Read a page image back, if it was ever flushed.
    pub fn read(&self, id: PageId) -> Option<(Lsn, Box<[u8]>)> {
        lock(&self.pages).get(&id.pack()).cloned()
    }

    /// Number of stored pages.
    pub fn len(&self) -> usize {
        lock(&self.pages).len()
    }

    /// True if nothing has been flushed.
    pub fn is_empty(&self) -> bool {
        lock(&self.pages).is_empty()
    }

    /// Point-in-time deep copy (crash images must not alias live state).
    pub fn deep_clone(&self) -> Arc<PageStore> {
        Arc::new(PageStore {
            pages: Mutex::new(lock(&self.pages).clone()),
        })
    }

    /// Every stored page as `(packed page id, page LSN, bytes)`, sorted by
    /// id — the serializable form a base snapshot ships to a bootstrapping
    /// replica.
    pub fn export(&self) -> Vec<(u64, Lsn, Vec<u8>)> {
        let mut out: Vec<(u64, Lsn, Vec<u8>)> = lock(&self.pages)
            .iter()
            .map(|(&id, (lsn, data))| (id, *lsn, data.to_vec()))
            .collect();
        out.sort_unstable_by_key(|&(id, _, _)| id);
        out
    }

    /// Rebuild a store from exported pages (the receiving end of a base
    /// snapshot).
    pub fn from_pages(pages: &[(u64, Lsn, Vec<u8>)]) -> Arc<PageStore> {
        let store = PageStore::new();
        {
            let mut g = lock(&store.pages);
            for (id, lsn, data) in pages {
                g.insert(*id, (*lsn, data.clone().into_boxed_slice()));
            }
        }
        store
    }

    /// Highest page number flushed for `table`, if any.
    pub fn max_page_no(&self, table: u32) -> Option<u32> {
        lock(&self.pages)
            .keys()
            .map(|&k| PageId::unpack(k))
            .filter(|p| p.table == table)
            .map(|p| p.page_no)
            .max()
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
}
