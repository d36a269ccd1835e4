//! WAL payload formats for the storage manager.
//!
//! `aether-core` treats payloads as opaque bytes; this module gives them
//! ARIES meaning. All encodings are little-endian and hand-rolled (no serde
//! on the log hot path).
//!
//! Every payload implements [`EncodePayload`], so the hot path serializes
//! **directly into the reserved log slot** (`encoded_len` sizes the
//! reservation, `encode_into` streams the fields into the ring) — zero
//! intermediate `Vec`s between a transaction and the log. `encode_into` is
//! the one encoder of an update or a CLR; their `decode` borrows the images
//! from the record's payload and allocates nothing. What a decoded record
//! does to a page is [`crate::replay::apply_record`]'s business alone.
//! [`CheckpointPayload`] also appends itself to a `Vec`
//! ([`CheckpointPayload::append_to`]), because a base snapshot ships its
//! bytes.

use crate::page::{PageId, Rid};
use aether_core::{EncodePayload, Lsn, SlotWriter};

/// Decode the `[table u32][page u32][slot u16][len u16]` prefix that an
/// update and a CLR share: page, slot and image length.
fn cell_prefix(buf: &[u8]) -> Option<(PageId, u16, usize)> {
    let table = u32::from_le_bytes(buf.get(0..4)?.try_into().ok()?);
    let page_no = u32::from_le_bytes(buf.get(4..8)?.try_into().ok()?);
    let slot = u16::from_le_bytes(buf.get(8..10)?.try_into().ok()?);
    let len = u16::from_le_bytes(buf.get(10..12)?.try_into().ok()?) as usize;
    Some((PageId { table, page_no }, slot, len))
}

/// Write the prefix [`cell_prefix`] reads.
fn put_cell_prefix(w: &mut SlotWriter<'_>, page: PageId, slot: u16, len: usize) {
    w.put_u32(page.table);
    w.put_u32(page.page_no);
    w.put_u16(slot);
    w.put_u16(len as u16);
}

/// A physiological cell update: before/after images of one cell on one page.
///
/// Inserts encode `before` = zeroed cell (presence 0); deletes encode `after`
/// = zeroed cell. Redo applies `after`; undo applies `before`. The images
/// are borrowed both ways: the forward path logs them from the
/// transaction's image arena, and decoding points into the record.
///
/// Layout: `[table u32][page u32][slot u16][len u16][before][after]`, where
/// `len` is the length of each image (the cell size).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatePayload<B> {
    /// Page touched.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
    /// Cell image before the update.
    pub before: B,
    /// Cell image after the update.
    pub after: B,
}

impl<B> UpdatePayload<B> {
    /// RID touched by this update.
    pub fn rid(&self) -> Rid {
        Rid {
            page_no: self.page.page_no,
            slot: self.slot,
        }
    }
}

impl<'a> UpdatePayload<&'a [u8]> {
    /// Decode, borrowing both images from `buf`; `None` on malformed input.
    pub fn decode(buf: &'a [u8]) -> Option<UpdatePayload<&'a [u8]>> {
        let (page, slot, len) = cell_prefix(buf)?;
        if buf.len() != 12 + 2 * len {
            return None;
        }
        let (before, after) = buf[12..].split_at(len);
        Some(UpdatePayload {
            page,
            slot,
            before,
            after,
        })
    }
}

impl<B: AsRef<[u8]>> EncodePayload for UpdatePayload<B> {
    fn encoded_len(&self) -> usize {
        debug_assert_eq!(self.before.as_ref().len(), self.after.as_ref().len());
        12 + 2 * self.before.as_ref().len()
    }

    fn encode_into(&self, w: &mut SlotWriter<'_>) {
        put_cell_prefix(w, self.page, self.slot, self.before.as_ref().len());
        w.put_slice(self.before.as_ref());
        w.put_slice(self.after.as_ref());
    }
}

/// A compensation log record: the redo-only image written while undoing one
/// [`UpdatePayload`] during rollback, plus the next record to undo. Its
/// image is borrowed, as for [`UpdatePayload`].
///
/// Layout: `[table u32][page u32][slot u16][len u16][restored][undo_next u64]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClrPayload<B> {
    /// Page touched by the compensation.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
    /// Cell image the compensation restores (the original `before`).
    pub restored: B,
    /// Undo chain continuation: the `prev_lsn` of the record just undone.
    /// Recovery resumes undo here and never re-undoes compensated work.
    pub undo_next: Lsn,
}

impl<B> ClrPayload<B> {
    /// RID touched by this compensation.
    pub fn rid(&self) -> Rid {
        Rid {
            page_no: self.page.page_no,
            slot: self.slot,
        }
    }
}

impl<'a> ClrPayload<&'a [u8]> {
    /// Decode, borrowing the image from `buf`; `None` on malformed input.
    pub fn decode(buf: &'a [u8]) -> Option<ClrPayload<&'a [u8]>> {
        let (page, slot, len) = cell_prefix(buf)?;
        if buf.len() != 20 + len {
            return None;
        }
        let (restored, undo_next) = buf[12..].split_at(len);
        Some(ClrPayload {
            page,
            slot,
            restored,
            undo_next: Lsn(u64::from_le_bytes(undo_next.try_into().ok()?)),
        })
    }
}

impl<B: AsRef<[u8]>> EncodePayload for ClrPayload<B> {
    fn encoded_len(&self) -> usize {
        20 + self.restored.as_ref().len()
    }

    fn encode_into(&self, w: &mut SlotWriter<'_>) {
        put_cell_prefix(w, self.page, self.slot, self.restored.as_ref().len());
        w.put_slice(self.restored.as_ref());
        w.put_u64(self.undo_next.raw());
    }
}

/// Fuzzy-checkpoint end payload: the active-transaction table and dirty-page
/// table at checkpoint time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointPayload {
    /// Active transactions: (txn id, last LSN written).
    pub att: Vec<(u64, Lsn)>,
    /// Dirty pages: (packed page id, rec LSN).
    pub dpt: Vec<(u64, Lsn)>,
}

impl CheckpointPayload {
    /// Append the encoding to `out`: `[n_att u32][n_dpt u32][att
    /// entries][dpt entries]`, [`EncodePayload::encoded_len`] bytes.
    pub fn append_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.att.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.dpt.len() as u32).to_le_bytes());
        for (txn, lsn) in &self.att {
            out.extend_from_slice(&txn.to_le_bytes());
            out.extend_from_slice(&lsn.raw().to_le_bytes());
        }
        for (pid, lsn) in &self.dpt {
            out.extend_from_slice(&pid.to_le_bytes());
            out.extend_from_slice(&lsn.raw().to_le_bytes());
        }
    }

    /// Decode; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<CheckpointPayload> {
        if buf.len() < 8 {
            return None;
        }
        let n_att = u32::from_le_bytes(buf[0..4].try_into().ok()?) as usize;
        let n_dpt = u32::from_le_bytes(buf[4..8].try_into().ok()?) as usize;
        if buf.len() != 8 + 16 * (n_att + n_dpt) {
            return None;
        }
        let mut at = 8;
        let mut read_pair = |buf: &[u8]| {
            let a = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
            let b = u64::from_le_bytes(buf[at + 8..at + 16].try_into().unwrap());
            at += 16;
            (a, b)
        };
        let mut att = Vec::with_capacity(n_att);
        for _ in 0..n_att {
            let (t, l) = read_pair(buf);
            att.push((t, Lsn(l)));
        }
        let mut dpt = Vec::with_capacity(n_dpt);
        for _ in 0..n_dpt {
            let (p, l) = read_pair(buf);
            dpt.push((p, Lsn(l)));
        }
        Some(CheckpointPayload { att, dpt })
    }
}

impl EncodePayload for CheckpointPayload {
    fn encoded_len(&self) -> usize {
        8 + 16 * (self.att.len() + self.dpt.len())
    }

    fn encode_into(&self, w: &mut SlotWriter<'_>) {
        w.put_u32(self.att.len() as u32);
        w.put_u32(self.dpt.len() as u32);
        for (txn, lsn) in &self.att {
            w.put_u64(*txn);
            w.put_u64(lsn.raw());
        }
        for (pid, lsn) in &self.dpt {
            w.put_u64(*pid);
            w.put_u64(lsn.raw());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aether_core::record::Record;
    use aether_core::{DeviceKind, LogManager, RecordKind};

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

    fn update() -> UpdatePayload<&'static [u8]> {
        UpdatePayload {
            page: PageId {
                table: 3,
                page_no: 77,
            },
            slot: 12,
            before: &[1, 1, 1],
            after: &[2, 2, 2],
        }
    }

    fn clr() -> ClrPayload<&'static [u8]> {
        ClrPayload {
            page: PageId {
                table: 1,
                page_no: 2,
            },
            slot: 3,
            restored: &[7, 7],
            undo_next: Lsn(4096),
        }
    }

    /// `[table][page][slot][len][before][after]`, little-endian.
    const UPDATE_BYTES: [u8; 18] = [3, 0, 0, 0, 77, 0, 0, 0, 12, 0, 3, 0, 1, 1, 1, 2, 2, 2];

    /// `[table][page][slot][len][restored][undo_next]`, little-endian.
    const CLR_BYTES: [u8; 22] = [
        1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 2, 0, 7, 7, 0, 16, 0, 0, 0, 0, 0, 0,
    ];

    #[test]
    fn update_roundtrip() {
        let u = update();
        let recs = through_a_log(&[(RecordKind::Update, &u)]);
        assert_eq!(recs[0].payload, UPDATE_BYTES);
        assert_eq!(UpdatePayload::decode(&UPDATE_BYTES).unwrap(), u);
        assert_eq!(
            u.rid(),
            Rid {
                page_no: 77,
                slot: 12
            }
        );
        assert!(UpdatePayload::decode(&UPDATE_BYTES[..10]).is_none());
        assert!(UpdatePayload::decode(&[0; 13]).is_none());
    }

    #[test]
    fn clr_roundtrip() {
        let c = clr();
        let recs = through_a_log(&[(RecordKind::Clr, &c)]);
        assert_eq!(recs[0].payload, CLR_BYTES);
        assert_eq!(ClrPayload::decode(&CLR_BYTES).unwrap(), c);
        assert!(ClrPayload::decode(&CLR_BYTES[..19]).is_none());
        assert!(ClrPayload::decode(&CLR_BYTES[..21]).is_none());
    }

    #[test]
    fn encode_into_writes_the_documented_layout() {
        // Every payload through the reservation path, read back off the
        // device: the hand-written layout, byte for byte, and the same
        // payload decoded again.
        let (u, c) = (update(), clr());
        let cp = CheckpointPayload {
            att: vec![(1, Lsn(100)), (2, Lsn(200))],
            dpt: vec![(5, Lsn(50))],
        };
        // Two ATT entries against one DPT entry, so the counts differ.
        let mut cp_bytes = vec![2, 0, 0, 0, 1, 0, 0, 0];
        for v in [1u64, 100, 2, 200, 5, 50] {
            cp_bytes.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(u.encoded_len(), UPDATE_BYTES.len());
        assert_eq!(c.encoded_len(), CLR_BYTES.len());
        assert_eq!(cp.encoded_len(), cp_bytes.len());
        let recs = through_a_log(&[
            (RecordKind::Update, &u),
            (RecordKind::Clr, &c),
            (RecordKind::CheckpointEnd, &cp),
        ]);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].payload, UPDATE_BYTES);
        assert_eq!(recs[1].payload, CLR_BYTES);
        assert_eq!(recs[2].payload, cp_bytes);
        let mut appended = vec![7];
        cp.append_to(&mut appended);
        assert_eq!(appended[1..], cp_bytes, "append_to appends");
        assert_eq!(UpdatePayload::decode(&recs[0].payload).unwrap(), u);
        assert_eq!(ClrPayload::decode(&recs[1].payload).unwrap(), c);
        assert_eq!(CheckpointPayload::decode(&recs[2].payload).unwrap(), cp);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let cp = CheckpointPayload {
            att: vec![(1, Lsn(100)), (2, Lsn(200))],
            dpt: vec![(
                PageId {
                    table: 0,
                    page_no: 5,
                }
                .pack(),
                Lsn(50),
            )],
        };
        let encode = |cp: &CheckpointPayload| {
            let mut out = Vec::new();
            cp.append_to(&mut out);
            out
        };
        let enc = encode(&cp);
        assert_eq!(CheckpointPayload::decode(&enc).unwrap(), cp);
        let empty = CheckpointPayload::default();
        assert_eq!(CheckpointPayload::decode(&encode(&empty)).unwrap(), empty);
        assert!(CheckpointPayload::decode(&enc[..7]).is_none());
        assert!(CheckpointPayload::decode(&enc[..enc.len() - 1]).is_none());
    }
}
