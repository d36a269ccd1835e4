//! Wire framing for shipped log runs and snapshot bootstraps.
//!
//! The shipper cuts the primary's durable log into byte runs and wraps each
//! in a frame carrying a sequence number (so the receiver can restore order
//! over a reordering link), the run's start LSN (so a restored stream is
//! also position-checked), and a CRC-32C over header + body (so a corrupted
//! frame is *detected and dropped* rather than appended — the replica's log
//! then simply stops advancing at the gap, the wire analogue of recovery
//! stopping at the first torn record).
//!
//! A second message kind, [`SnapshotFrame`], carries a serialized
//! [`aether_storage::replay::BaseSnapshot`]: when the primary's log has
//! been truncated past the shipper's read position, re-sending the missing
//! bytes is impossible — they no longer exist — so the shipper ships a
//! checkpoint snapshot instead and resumes log frames from its LSN. Both
//! kinds share one sequence-number space, so the replica restores a total
//! order over an arbitrarily reordering link.

use aether_core::record::{frame_check, frame_encode, frame_encode_into, FRAME_OVERHEAD};
use aether_core::Lsn;
use aether_storage::replay::BaseSnapshot;
use std::ops::Range;

/// Frame header size on the wire.
pub const FRAME_HEADER: usize = FRAME_OVERHEAD + 16;

/// Magic tag opening every frame.
pub const FRAME_MAGIC: u32 = 0xAE7E_F14E;

/// One shipped run of log bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Per-link sequence number (contiguous from 0).
    pub seq: u64,
    /// LSN of the first byte of `bytes` in the primary's log stream.
    pub start_lsn: Lsn,
    /// The raw log bytes (whole records or arbitrary splits — the replica
    /// appends bytes; record boundaries are the log reader's business).
    pub bytes: Vec<u8>,
}

impl Frame {
    /// End LSN of the run (`start_lsn + len`).
    pub fn end_lsn(&self) -> Lsn {
        self.start_lsn.advance(self.bytes.len() as u64)
    }

    /// Serialize: `[magic u32][seq u64][start_lsn u64][len u32][crc u32]`
    /// then the body. The CRC covers the header (with the CRC field zeroed)
    /// and the body.
    pub fn encode(&self) -> Vec<u8> {
        let mut fields = [0u8; 16];
        fields[..8].copy_from_slice(&self.seq.to_le_bytes());
        fields[8..].copy_from_slice(&self.start_lsn.raw().to_le_bytes());
        frame_encode(FRAME_MAGIC, &fields, &self.bytes)
    }

    /// Decode and CRC-check a frame; `None` for anything malformed.
    pub fn decode(buf: &[u8]) -> Option<Frame> {
        let (fields, body) = frame_check(FRAME_MAGIC, 16, usize::MAX, buf)?;
        Some(Frame {
            seq: u64::from_le_bytes(fields[..8].try_into().ok()?),
            start_lsn: Lsn(u64::from_le_bytes(fields[8..].try_into().ok()?)),
            bytes: body.to_vec(),
        })
    }
}

/// Frame-header size of a [`SnapshotFrame`] on the wire.
pub const SNAPSHOT_HEADER: usize = FRAME_OVERHEAD + 8;

/// Magic tag opening a snapshot frame.
pub const SNAPSHOT_MAGIC: u32 = 0xAE7E_5EED;

/// A snapshot bootstrap message: a serialized
/// [`aether_storage::replay::BaseSnapshot`] in the shipping stream's
/// sequence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFrame {
    /// Per-link sequence number, shared with log [`Frame`]s.
    pub seq: u64,
    /// The encoded base snapshot.
    pub body: Vec<u8>,
}

impl SnapshotFrame {
    /// Serialize: `[magic u32][seq u64][len u32][crc u32]` then the body;
    /// CRC-32C over header (CRC field zeroed) + body, as for [`Frame`].
    pub fn encode(&self) -> Vec<u8> {
        frame_encode(SNAPSHOT_MAGIC, &self.seq.to_le_bytes(), &self.body)
    }

    /// The frame [`SnapshotFrame::encode`] makes of `snap` encoded, with
    /// the snapshot encoded straight into the frame's buffer: one
    /// allocation, and one copy of each page.
    pub fn encode_snapshot(seq: u64, snap: &BaseSnapshot) -> Vec<u8> {
        let mut out = Vec::with_capacity(SNAPSHOT_HEADER + snap.encoded_len());
        frame_encode_into(&mut out, SNAPSHOT_MAGIC, &seq.to_le_bytes(), |out| {
            snap.encode_into(out)
        });
        out
    }
}

/// A decoded snapshot frame. It keeps the buffer it was delivered in, and
/// its body is a range of it: decoding copies nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMsg {
    /// Per-link sequence number, shared with log [`Frame`]s.
    pub seq: u64,
    buf: Vec<u8>,
    body: Range<usize>,
}

impl SnapshotMsg {
    /// The encoded base snapshot.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.clone()]
    }
}

/// Any message of the shipping stream, dispatched on the magic tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// A run of log bytes.
    Log(Frame),
    /// A snapshot bootstrap.
    Snapshot(SnapshotMsg),
}

impl WireMsg {
    /// Decode either message kind from the buffer it was delivered in;
    /// `None` for anything malformed. A snapshot keeps `buf`.
    pub fn decode(buf: Vec<u8>) -> Option<WireMsg> {
        let magic = u32::from_le_bytes(buf.get(0..4)?.try_into().ok()?);
        match magic {
            FRAME_MAGIC => Frame::decode(&buf).map(WireMsg::Log),
            SNAPSHOT_MAGIC => {
                let (fields, body) = frame_check(SNAPSHOT_MAGIC, 8, usize::MAX, &buf)?;
                let seq = u64::from_le_bytes(fields.try_into().ok()?);
                let body = buf.len() - body.len()..buf.len();
                Some(WireMsg::Snapshot(SnapshotMsg { seq, buf, body }))
            }
            _ => None,
        }
    }

    /// The message's position in the shared sequence space.
    pub fn seq(&self) -> u64 {
        match self {
            WireMsg::Log(f) => f.seq,
            WireMsg::Snapshot(s) => s.seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let f = Frame {
            seq: 42,
            start_lsn: Lsn(4096),
            bytes: (0..200u8).collect(),
        };
        let enc = f.encode();
        assert_eq!(Frame::decode(&enc).unwrap(), f);
        assert_eq!(f.end_lsn(), Lsn(4096 + 200));
    }

    /// Bitwise CRC-32C (reflected polynomial 0x82F63B78), a bit at a time:
    /// a reference that shares no code with `aether_core::record`.
    fn crc32c(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0x82F6_3B78 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// `frame` is `golden`, hex with its 4-byte CRC word at byte `crc_at`
    /// written `xxxxxxxx`, and that word is the reference CRC-32C of the
    /// frame with the word zeroed.
    fn assert_golden(frame: &[u8], golden: &str, crc_at: usize) {
        let word = crc_at..crc_at + 4;
        let mut zeroed = frame.to_vec();
        zeroed[word.clone()].fill(0);
        let crc = crc32c(&zeroed);
        assert_eq!(frame[word], crc.to_le_bytes(), "the CRC word");
        let pinned = golden.replace("xxxxxxxx", &hex(&crc.to_le_bytes()));
        assert_eq!(hex(frame), pinned, "every other byte");
    }

    /// Wire bytes pinned before the codecs moved onto
    /// `aether_core::record::frame_encode`: the layout may not drift.
    #[test]
    fn golden_frames() {
        let f = Frame {
            seq: 42,
            start_lsn: Lsn(4096),
            bytes: b"aether".to_vec(),
        };
        assert_golden(
            &f.encode(),
            "4ef17eae2a00000000000000001000000000000006000000\
             xxxxxxxx616574686572",
            FRAME_HEADER - 4,
        );
        let s = SnapshotFrame {
            seq: 9,
            body: b"snapshot".to_vec(),
        };
        assert_golden(
            &s.encode(),
            "ed5e7eae090000000000000008000000xxxxxxxx736e617073686f74",
            SNAPSHOT_HEADER - 4,
        );
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_body_roundtrips() {
        let f = Frame {
            seq: 0,
            start_lsn: Lsn::ZERO,
            bytes: vec![],
        };
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn corruption_detected_anywhere() {
        let f = Frame {
            seq: 7,
            start_lsn: Lsn(64),
            bytes: vec![0xAB; 100],
        };
        let enc = f.encode();
        for at in [0, 5, 13, 21, 25, FRAME_HEADER, enc.len() - 1] {
            let mut bad = enc.clone();
            bad[at] ^= 0x10;
            assert!(Frame::decode(&bad).is_none(), "flip at {at} undetected");
        }
        // Truncation detected.
        assert!(Frame::decode(&enc[..enc.len() - 1]).is_none());
        assert!(Frame::decode(&enc[..10]).is_none());
    }

    #[test]
    fn snapshot_frame_roundtrip_and_corruption() {
        let s = SnapshotFrame {
            seq: 9,
            body: (0..250u8).collect(),
        };
        let enc = s.encode();
        match WireMsg::decode(enc.clone()) {
            Some(WireMsg::Snapshot(m)) => assert_eq!((m.seq, m.body()), (s.seq, &s.body[..])),
            other => panic!("{other:?}"),
        }
        for at in [0, 7, 17, SNAPSHOT_HEADER, enc.len() - 1] {
            let mut bad = enc.clone();
            bad[at] ^= 0x04;
            assert!(WireMsg::decode(bad).is_none(), "flip at {at}");
        }
        assert!(WireMsg::decode(enc[..enc.len() - 1].to_vec()).is_none());
    }

    /// Encoding a snapshot into its frame writes the bytes a frame around
    /// the separately encoded snapshot has.
    #[test]
    fn a_snapshot_encodes_into_its_frame_as_its_body_would() {
        let snap = BaseSnapshot {
            start_lsn: Lsn(4096),
            schema: vec![(40, 16)],
            pages: vec![(
                1,
                Lsn(64),
                vec![7u8; aether_storage::page::PAGE_SIZE].into(),
            )],
            dpt: vec![(1, Lsn(64))],
        };
        let framed = SnapshotFrame {
            seq: 5,
            body: snap.encode(),
        };
        let enc = SnapshotFrame::encode_snapshot(5, &snap);
        assert_eq!(enc, framed.encode());
        assert_eq!(enc.capacity(), enc.len(), "sized once");
        match WireMsg::decode(enc) {
            Some(WireMsg::Snapshot(m)) => {
                assert_eq!(BaseSnapshot::decode(m.body()), Some(snap))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wire_msg_dispatches_on_magic() {
        let f = Frame {
            seq: 1,
            start_lsn: Lsn(10),
            bytes: vec![1, 2, 3],
        };
        let s = SnapshotFrame {
            seq: 2,
            body: vec![4, 5],
        };
        assert_eq!(WireMsg::decode(f.encode()), Some(WireMsg::Log(f.clone())));
        match WireMsg::decode(s.encode()) {
            Some(WireMsg::Snapshot(m)) => assert_eq!(m.body(), &s.body[..]),
            other => panic!("{other:?}"),
        }
        assert_eq!(WireMsg::decode(f.encode()).unwrap().seq(), 1);
        assert_eq!(WireMsg::decode(s.encode()).unwrap().seq(), 2);
        assert!(WireMsg::decode(vec![0u8; 40]).is_none());
        assert!(WireMsg::decode(b"ab".to_vec()).is_none());
    }
}
