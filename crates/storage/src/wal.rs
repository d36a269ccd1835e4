//! WAL payload formats for the storage manager.
//!
//! `aether-core` treats payloads as opaque bytes; this module gives them
//! meaning. All encodings are little-endian and hand-rolled (no serde on
//! the log hot path).
//!
//! The storage layer logs a transaction once, at its commit: one
//! [`aether_core::RecordKind::UpdateCommit`] record whose payload is one
//! [`UpdateCommitPayload`] entry per cell it writes, back to back. Nothing
//! is ever undone from the log, so an entry holds only the after-image.
//! Entries are written straight into the reserved log slot
//! ([`EncodePayload`]) and decoded in place ([`UpdateCommitPayload::entries`]
//! borrows the images and allocates nothing); what they do to a page is
//! the business of [`crate::replay`]'s page redo alone. It is the only
//! record the storage layer writes: a checkpoint logs nothing.

use crate::page::{PageId, Rid};
use aether_core::{EncodePayload, SlotWriter};

/// Decode the `[table u32][page u32][slot u16][len u16]` prefix an entry
/// starts with: page, slot and image length.
fn cell_prefix(buf: &[u8]) -> Option<(PageId, u16, usize)> {
    let table = u32::from_le_bytes(buf.get(0..4)?.try_into().ok()?);
    let page_no = u32::from_le_bytes(buf.get(4..8)?.try_into().ok()?);
    let slot = u16::from_le_bytes(buf.get(8..10)?.try_into().ok()?);
    let len = u16::from_le_bytes(buf.get(10..12)?.try_into().ok()?) as usize;
    Some((PageId { table, page_no }, slot, len))
}

/// One cell of a commit record: the after-image of one cell on one page,
/// self-delimiting. A record holds one or more, in `(table, page)` order,
/// so the entries of one page are consecutive. Inserts and updates write a
/// full cell (presence byte 1), deletes an empty one (all zero). The image
/// is borrowed: the commit encodes it from the page it has just written,
/// and decoding points into the record.
///
/// Layout: `[table u32][page u32][slot u16][len u16][after]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateCommitPayload<B> {
    /// Page touched.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
    /// Cell image after the update.
    pub after: B,
}

impl<B> UpdateCommitPayload<B> {
    /// The encoded length of an entry whose image is `cell_size` bytes.
    pub fn len_for(cell_size: usize) -> usize {
        12 + cell_size
    }

    /// RID touched by this entry.
    pub fn rid(&self) -> Rid {
        Rid {
            page_no: self.page.page_no,
            slot: self.slot,
        }
    }
}

impl<'a> UpdateCommitPayload<&'a [u8]> {
    /// The entries of a commit record's payload, in order, each borrowing
    /// its image from `buf`. A malformed entry is a `None` item, and the
    /// last.
    pub fn entries(buf: &'a [u8]) -> Entries<'a> {
        Entries { rest: buf }
    }
}

impl<B: AsRef<[u8]>> EncodePayload for UpdateCommitPayload<B> {
    fn encoded_len(&self) -> usize {
        Self::len_for(self.after.as_ref().len())
    }

    fn encode_into(&self, w: &mut SlotWriter<'_>) {
        w.put_u32(self.page.table);
        w.put_u32(self.page.page_no);
        w.put_u16(self.slot);
        w.put_u16(self.after.as_ref().len() as u16);
        w.put_slice(self.after.as_ref());
    }
}

/// The entries of a commit record ([`UpdateCommitPayload::entries`]).
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Entries<'a> {
    type Item = Option<UpdateCommitPayload<&'a [u8]>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let buf = std::mem::take(&mut self.rest);
        let entry = cell_prefix(buf).and_then(|(page, slot, len)| {
            let after = buf.get(12..12 + len)?;
            self.rest = &buf[12 + len..];
            Some(UpdateCommitPayload { page, slot, after })
        });
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aether_core::record::Record;
    use aether_core::{DeviceKind, LogManager, Lsn, RecordKind};

    /// Write `payloads` through the zero-copy reservation path and read the
    /// records back off the device.
    fn through_a_log(payloads: &[(RecordKind, &dyn EncodePayload)]) -> Vec<Record> {
        let log = LogManager::builder().device(DeviceKind::Ram).build();
        for &(kind, p) in payloads {
            log.insert_payload(kind, 9, Lsn::ZERO, p);
        }
        log.flush_all().unwrap();
        let mut reader = log.reader();
        std::iter::from_fn(|| reader.next_record().unwrap()).collect()
    }

    fn update_commit() -> UpdateCommitPayload<&'static [u8]> {
        UpdateCommitPayload {
            page: PageId {
                table: 2,
                page_no: 9,
            },
            slot: 4,
            after: &[1, 5, 5],
        }
    }

    /// `[table][page][slot][len][after]`, little-endian.
    const UPDATE_COMMIT_BYTES: [u8; 15] = [2, 0, 0, 0, 9, 0, 0, 0, 4, 0, 3, 0, 1, 5, 5];

    #[test]
    fn update_commit_roundtrip() {
        let u = update_commit();
        assert_eq!(u.encoded_len(), UPDATE_COMMIT_BYTES.len());
        let recs = through_a_log(&[(RecordKind::UpdateCommit, &u)]);
        assert_eq!(recs[0].header.kind, RecordKind::UpdateCommit);
        assert_eq!(recs[0].payload, UPDATE_COMMIT_BYTES);
        let decoded: Vec<_> = UpdateCommitPayload::entries(&UPDATE_COMMIT_BYTES).collect();
        assert_eq!(decoded, [Some(u.clone())]);
        assert_eq!(
            u.rid(),
            Rid {
                page_no: 9,
                slot: 4
            }
        );
        for cut in [11, 14] {
            let decoded: Vec<_> =
                UpdateCommitPayload::entries(&UPDATE_COMMIT_BYTES[..cut]).collect();
            assert_eq!(decoded, [None], "cut at {cut}");
        }
    }

    #[test]
    fn entries_are_self_delimiting() {
        // Two entries back to back, then one cut short: each whole entry
        // decodes, and the short one ends the walk as `None`.
        let mut two = UPDATE_COMMIT_BYTES.to_vec();
        two.extend_from_slice(&UPDATE_COMMIT_BYTES);
        let decoded: Vec<_> = UpdateCommitPayload::entries(&two).collect();
        assert_eq!(decoded, [Some(update_commit()), Some(update_commit())]);
        two.extend_from_slice(&UPDATE_COMMIT_BYTES[..13]);
        let decoded: Vec<_> = UpdateCommitPayload::entries(&two).collect();
        assert_eq!(
            decoded,
            [Some(update_commit()), Some(update_commit()), None]
        );
        assert_eq!(UpdateCommitPayload::entries(&[]).count(), 0);
    }
}
