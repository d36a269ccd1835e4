//! WAL payload formats for the storage manager.
//!
//! `aether-core` treats payloads as opaque bytes; this module gives them
//! ARIES meaning. All encodings are little-endian and hand-rolled (no serde
//! on the log hot path).
//!
//! Every payload implements [`EncodePayload`], so the hot path serializes
//! **directly into the reserved log slot** (`encoded_len` sizes the
//! reservation, `encode_into` streams the fields into the ring) — zero
//! intermediate `Vec`s between a transaction and the log. The `encode()`
//! methods build the same byte strings into owned buffers for tests,
//! recovery tooling and anything else that wants a standalone copy; unit
//! tests pin the two forms byte-identical.

use crate::page::{PageId, Rid};
use aether_core::{EncodePayload, Lsn, SlotWriter};

/// A physiological cell update: before/after images of one cell on one page.
///
/// Inserts encode `before` = zeroed cell (presence 0); deletes encode `after`
/// = zeroed cell. Redo applies `after`; undo applies `before`. Decoding
/// owns its images; the forward path logs borrowed ones
/// (`UpdatePayload<&[u8]>`) straight from the transaction's image arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatePayload<B = Vec<u8>> {
    /// Page touched.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
    /// Cell image before the update.
    pub before: B,
    /// Cell image after the update.
    pub after: B,
}

impl<B: AsRef<[u8]>> UpdatePayload<B> {
    /// Encode: `[table u32][page u32][slot u16][len u16][before][after]`.
    /// Before and after images are always the same length (the cell size).
    pub fn encode(&self) -> Vec<u8> {
        let (before, after) = (self.before.as_ref(), self.after.as_ref());
        debug_assert_eq!(before.len(), after.len());
        let len = before.len();
        let mut out = Vec::with_capacity(12 + 2 * len);
        out.extend_from_slice(&self.page.table.to_le_bytes());
        out.extend_from_slice(&self.page.page_no.to_le_bytes());
        out.extend_from_slice(&self.slot.to_le_bytes());
        out.extend_from_slice(&(len as u16).to_le_bytes());
        out.extend_from_slice(before);
        out.extend_from_slice(after);
        out
    }

    /// RID touched by this update.
    pub fn rid(&self) -> Rid {
        Rid {
            page_no: self.page.page_no,
            slot: self.slot,
        }
    }
}

impl UpdatePayload {
    /// Decode; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<UpdatePayload> {
        if buf.len() < 12 {
            return None;
        }
        let table = u32::from_le_bytes(buf[0..4].try_into().ok()?);
        let page_no = u32::from_le_bytes(buf[4..8].try_into().ok()?);
        let slot = u16::from_le_bytes(buf[8..10].try_into().ok()?);
        let len = u16::from_le_bytes(buf[10..12].try_into().ok()?) as usize;
        if buf.len() != 12 + 2 * len {
            return None;
        }
        Some(UpdatePayload {
            page: PageId { table, page_no },
            slot,
            before: buf[12..12 + len].to_vec(),
            after: buf[12 + len..].to_vec(),
        })
    }
}

impl<B: AsRef<[u8]>> EncodePayload for UpdatePayload<B> {
    fn encoded_len(&self) -> usize {
        debug_assert_eq!(self.before.as_ref().len(), self.after.as_ref().len());
        12 + 2 * self.before.as_ref().len()
    }

    fn encode_into(&self, w: &mut SlotWriter<'_>) {
        w.put_u32(self.page.table);
        w.put_u32(self.page.page_no);
        w.put_u16(self.slot);
        w.put_u16(self.before.as_ref().len() as u16);
        w.put_slice(self.before.as_ref());
        w.put_slice(self.after.as_ref());
    }
}

/// A compensation log record: the redo-only image written while undoing one
/// [`UpdatePayload`] during rollback, plus the next record to undo. Owned
/// or borrowed images, as for [`UpdatePayload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClrPayload<B = Vec<u8>> {
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

impl<B: AsRef<[u8]>> ClrPayload<B> {
    /// Encode: `[table][page][slot][len][restored][undo_next u64]`.
    pub fn encode(&self) -> Vec<u8> {
        let restored = self.restored.as_ref();
        let mut out = Vec::with_capacity(20 + restored.len());
        out.extend_from_slice(&self.page.table.to_le_bytes());
        out.extend_from_slice(&self.page.page_no.to_le_bytes());
        out.extend_from_slice(&self.slot.to_le_bytes());
        out.extend_from_slice(&(restored.len() as u16).to_le_bytes());
        out.extend_from_slice(restored);
        out.extend_from_slice(&self.undo_next.raw().to_le_bytes());
        out
    }
}

impl ClrPayload {
    /// Decode; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<ClrPayload> {
        if buf.len() < 20 {
            return None;
        }
        let table = u32::from_le_bytes(buf[0..4].try_into().ok()?);
        let page_no = u32::from_le_bytes(buf[4..8].try_into().ok()?);
        let slot = u16::from_le_bytes(buf[8..10].try_into().ok()?);
        let len = u16::from_le_bytes(buf[10..12].try_into().ok()?) as usize;
        if buf.len() != 20 + len {
            return None;
        }
        let restored = buf[12..12 + len].to_vec();
        let undo_next = Lsn(u64::from_le_bytes(buf[12 + len..20 + len].try_into().ok()?));
        Some(ClrPayload {
            page: PageId { table, page_no },
            slot,
            restored,
            undo_next,
        })
    }
}

impl<B: AsRef<[u8]>> EncodePayload for ClrPayload<B> {
    fn encoded_len(&self) -> usize {
        20 + self.restored.as_ref().len()
    }

    fn encode_into(&self, w: &mut SlotWriter<'_>) {
        w.put_u32(self.page.table);
        w.put_u32(self.page.page_no);
        w.put_u16(self.slot);
        w.put_u16(self.restored.as_ref().len() as u16);
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
    /// Encode: `[n_att u32][n_dpt u32][att entries][dpt entries]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 16 * (self.att.len() + self.dpt.len()));
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
        out
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

    #[test]
    fn update_roundtrip() {
        let u = UpdatePayload {
            page: PageId {
                table: 3,
                page_no: 77,
            },
            slot: 12,
            before: vec![1; 41],
            after: vec![2; 41],
        };
        let enc = u.encode();
        assert_eq!(UpdatePayload::decode(&enc).unwrap(), u);
        assert_eq!(
            u.rid(),
            Rid {
                page_no: 77,
                slot: 12
            }
        );
        assert!(UpdatePayload::decode(&enc[..10]).is_none());
        assert!(UpdatePayload::decode(&[0; 13]).is_none());
    }

    #[test]
    fn clr_roundtrip() {
        let c = ClrPayload {
            page: PageId {
                table: 1,
                page_no: 2,
            },
            slot: 3,
            restored: vec![7; 20],
            undo_next: Lsn(4096),
        };
        let enc = c.encode();
        assert_eq!(ClrPayload::decode(&enc).unwrap(), c);
        assert!(ClrPayload::decode(&enc[..19]).is_none());
    }

    #[test]
    fn encode_into_matches_encode_for_all_payloads() {
        // Write each payload through the zero-copy reservation path and
        // read the record back off the device: the payload bytes must be
        // byte-identical to the owned `encode()` form.
        use aether_core::{DeviceKind, LogManager, RecordKind};
        let log = LogManager::builder().device(DeviceKind::Ram).build();
        let u = UpdatePayload {
            page: PageId {
                table: 3,
                page_no: 77,
            },
            slot: 12,
            before: vec![1; 41],
            after: vec![2; 41],
        };
        let c = ClrPayload {
            page: PageId {
                table: 1,
                page_no: 2,
            },
            slot: 3,
            restored: vec![7; 20],
            undo_next: Lsn(4096),
        };
        let cp = CheckpointPayload {
            att: vec![(1, Lsn(100)), (2, Lsn(200))],
            dpt: vec![(5, Lsn(50))],
        };
        assert_eq!(u.encoded_len(), u.encode().len());
        assert_eq!(c.encoded_len(), c.encode().len());
        assert_eq!(cp.encoded_len(), cp.encode().len());
        log.insert_payload(RecordKind::Update, 9, Lsn::ZERO, &u);
        log.insert_payload(RecordKind::Clr, 9, Lsn::ZERO, &c);
        log.insert_payload(RecordKind::CheckpointEnd, 0, Lsn::ZERO, &cp);
        log.flush_all().unwrap();
        let recs = log.reader().read_all().unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].payload, u.encode());
        assert_eq!(recs[1].payload, c.encode());
        assert_eq!(recs[2].payload, cp.encode());
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
        let enc = cp.encode();
        assert_eq!(CheckpointPayload::decode(&enc).unwrap(), cp);
        let empty = CheckpointPayload::default();
        assert_eq!(CheckpointPayload::decode(&empty.encode()).unwrap(), empty);
        assert!(CheckpointPayload::decode(&enc[..7]).is_none());
        assert!(CheckpointPayload::decode(&enc[..enc.len() - 1]).is_none());
    }
}
