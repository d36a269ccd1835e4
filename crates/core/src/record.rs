//! Log record layout.
//!
//! A log record is a fixed 32-byte header followed by an arbitrary payload
//! (§5 of the paper: "a standard header followed by an arbitrary payload").
//! Records are padded to 8-byte alignment so that headers never straddle an
//! odd boundary; the pad bytes are zero. Buffer allocation is *composable*:
//! the concatenation of two well-formed records is itself a well-formed
//! sequence — this is exactly the property the consolidation array exploits
//! when it carves one group allocation into many records.
//!
//! Shore-MT's record-size distribution (peaks at 40 B and 264 B, average
//! ~120 B, max 12 kiB, §5/§6.3.1) informs the defaults used by the
//! microbenchmarks in `aether-bench`.

use crate::lsn::Lsn;

/// Size in bytes of the on-log record header.
pub const HEADER_SIZE: usize = 32;

/// Byte offset of the checksum field within the encoded header. The frame
/// CRC is computed over the header with these four bytes zeroed, then the
/// final value is patched in place — the header is serialized exactly once.
pub const CHECKSUM_OFFSET: usize = 12;

/// Records are padded to this alignment in the log stream.
pub const RECORD_ALIGN: usize = 8;

/// Maximum payload the log accepts in one record. Shore-MT's largest record
/// is 12 kiB; we allow up to 1 MiB so the skew experiments (§A.3, Fig. 11) can
/// push outliers to 64 kiB and beyond.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Magic tag stored in the top byte of `flags` word for torn-write detection.
pub const RECORD_MAGIC: u8 = 0xA7;

/// The type of a log record.
///
/// `aether-core` itself is policy-free: it treats these as opaque tags. The
/// storage manager (`aether-storage`) writes a committed transaction as one
/// `UpdateCommit`, and nothing else. The codes of kinds no longer written
/// (1–6 and 8) decode as nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RecordKind {
    /// An opaque record: what microbenchmarks, drivers and tests insert.
    Filler = 7,
    /// A transaction's writes and its commit in one redo-only record: it is
    /// never undone, so it carries no before-image.
    UpdateCommit = 9,
}

impl RecordKind {
    /// Decode from the on-log byte.
    pub fn from_u8(v: u8) -> Option<RecordKind> {
        Some(match v {
            7 => RecordKind::Filler,
            9 => RecordKind::UpdateCommit,
            _ => return None,
        })
    }
}

/// Round `len` up to [`RECORD_ALIGN`].
#[inline]
pub const fn align_up(len: usize) -> usize {
    (len + RECORD_ALIGN - 1) & !(RECORD_ALIGN - 1)
}

/// Total on-log footprint (header + payload + pad) of a record with
/// `payload_len` bytes of payload.
#[inline]
pub const fn on_log_size(payload_len: usize) -> usize {
    align_up(HEADER_SIZE + payload_len)
}

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) lookup tables for
/// slice-by-4 processing, generated at compile time. CRC-32C is the one
/// frame check of the program: of on-log records, of the serving protocol
/// and of the replication frames. It detects every burst error up to 32
/// bits, and x86-64's SSE4.2 computes it in one instruction per 8 bytes
/// ([`crc32_update`]).
///
/// The tables serve every target without SSE4.2, and Miri.
const CRC32_TABLES: [[u32; 256]; 4] = {
    let mut tables = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            b += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// The table path of [`crc32_update`]: slice-by-4 over whole words, a byte
/// at a time over the rest.
fn crc32_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        let v = crc ^ u32::from_le_bytes(c.try_into().unwrap());
        crc = CRC32_TABLES[3][(v & 0xFF) as usize]
            ^ CRC32_TABLES[2][((v >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((v >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(v >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Feed `data` into a running (pre-finalization) CRC-32C state. Start from
/// [`CRC32_INIT`]; finalize with [`crc32_finish`]. Streaming form so callers
/// (the record frame, the wire frames) can checksum a header and a payload
/// without concatenating them.
///
/// The kernel is chosen at run time and never changes a byte: on x86-64
/// with SSE4.2 it is the `crc32` instruction, 8 bytes at a time and then
/// the tail; everything else runs the slice-by-4 table. Both compute the
/// same polynomial, so every checksum on the log and the wire is the same
/// value either way.
#[inline]
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: this CPU has SSE4.2 (std probes it once and caches it),
        // the feature `crc32_sse42` is compiled for.
        return unsafe { crc32_sse42(crc, data) };
    }
    crc32_table(crc, data)
}

/// The hardware path of [`crc32_update`]: one `crc32` a word, then at most
/// one on 4 bytes and three on single bytes.
///
/// # Safety
/// The caller must run on a CPU with SSE4.2.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "sse4.2")]
fn crc32_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u32, _mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut wide = u64::from(crc);
    for w in &mut words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    // The instruction leaves the state in the low 32 bits.
    let mut crc = wide as u32;
    let mut tail = words.remainder();
    if let Some((word, rest)) = tail.split_first_chunk::<4>() {
        crc = _mm_crc32_u32(crc, u32::from_le_bytes(*word));
        tail = rest;
    }
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Initial CRC-32C state for [`crc32_update`].
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Finalize a running CRC-32C state.
#[inline]
pub const fn crc32_finish(crc: u32) -> u32 {
    crc ^ 0xFFFF_FFFF
}

/// One-shot CRC-32C of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC32_INIT, data))
}

/// Bytes a wire frame spends on its magic, `len` and CRC words; the header
/// is this plus the codec's fixed fields.
pub const FRAME_OVERHEAD: usize = 12;

/// Serialize one CRC-framed wire message:
///
/// ```text
/// [magic u32][fields][len u32][crc u32]  then `len` body bytes
/// ```
///
/// `fields` are the codec's fixed-width header fields, already packed. The
/// CRC-32C covers the header (with the CRC word zeroed) and the body, so a
/// bit flip anywhere is detected. The replication frames and the serving
/// protocol are field packers over this one layout.
pub fn frame_encode(magic: u32, fields: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + fields.len() + body.len());
    frame_encode_into(&mut out, magic, fields, |out| out.extend_from_slice(body));
    out
}

/// [`frame_encode`] appending onto `out`, with the body written in place by
/// `body`: a codec that batches frames into one buffer allocates nothing
/// per frame.
pub fn frame_encode_into(
    out: &mut Vec<u8>,
    magic: u32,
    fields: &[u8],
    body: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    let header = start + FRAME_OVERHEAD + fields.len();
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(fields);
    out.extend_from_slice(&[0u8; 8]); // len and crc, sealed below
    body(out);
    let len = u32::try_from(out.len() - header).expect("frame body under 4 GiB");
    out[header - 8..header - 4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start..]);
    out[header - 4..header].copy_from_slice(&crc.to_le_bytes());
}

/// Validate one complete frame written by [`frame_encode`] and split it into
/// `(fields, body)`. `None` unless `buf` is exactly one frame with this
/// `magic`, `fields_len` bytes of fields, a body of at most `max_body` bytes
/// and a matching CRC.
pub fn frame_check(
    magic: u32,
    fields_len: usize,
    max_body: usize,
    buf: &[u8],
) -> Option<(&[u8], &[u8])> {
    let header = FRAME_OVERHEAD + fields_len;
    if buf.len() < header {
        return None;
    }
    let (head, body) = buf.split_at(header);
    let word = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("4 bytes"));
    if word(0) != magic {
        return None;
    }
    let len = word(header - 8) as usize;
    if len > max_body || body.len() != len {
        return None;
    }
    let crc = crc32_update(crc32_update_zeroed(CRC32_INIT, head, header - 4), body);
    (crc32_finish(crc) == word(header - 4)).then_some((&head[4..header - 8], body))
}

/// Running CRC state after `bytes` read with the 4-byte word at `at` as
/// zero: a frame's checksum, checked over the bytes that carry it with no
/// copy of them. The zero word is fed in as one `u32`.
fn crc32_update_zeroed(crc: u32, bytes: &[u8], at: usize) -> u32 {
    let crc = crc32_update(crc, &bytes[..at]);
    let crc = crc32_update(crc, &0u32.to_le_bytes());
    crc32_update(crc, &bytes[at + 4..])
}

/// Checksum over a record *frame*: the 32-byte header (with the checksum
/// field itself zeroed) followed by the payload. Covering the header — not
/// just the payload — means a torn or bit-flipped header field (kind, txn
/// id) fails verification instead of silently steering recovery or a
/// replica's redo.
pub fn checksum(header_zeroed: &[u8; HEADER_SIZE], payload: &[u8]) -> u32 {
    crc32_finish(crc32_update(
        crc32_update(CRC32_INIT, header_zeroed),
        payload,
    ))
}

/// Serialize a record header directly from its fields, with the checksum
/// bytes zeroed — the single-pass encoding used by the reservation insert
/// path. The result is both the frame-CRC input and (after patching bytes
/// [`CHECKSUM_OFFSET`]`..`[`CHECKSUM_OFFSET`]`+4` with the final CRC) the
/// on-log header; nothing is serialized twice.
#[inline]
pub fn encode_frame_header(
    kind: RecordKind,
    txn: u64,
    prev_lsn: Lsn,
    payload_len: usize,
) -> [u8; HEADER_SIZE] {
    debug_assert!(payload_len <= MAX_PAYLOAD);
    let mut out = [0u8; HEADER_SIZE];
    out[0..4].copy_from_slice(&(on_log_size(payload_len) as u32).to_le_bytes());
    out[4..8].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[8] = kind as u8;
    out[9] = RECORD_MAGIC;
    // bytes 10..12 reserved, zero; CHECKSUM_OFFSET..+4 is the checksum,
    // zero here (patched after the payload CRC is known)
    out[16..24].copy_from_slice(&txn.to_le_bytes());
    out[24..32].copy_from_slice(&prev_lsn.raw().to_le_bytes());
    out
}

/// The decoded header of a log record.
///
/// On-log layout (little-endian):
///
/// ```text
/// offset  field
/// 0       total_len   u32   header + payload + pad, multiple of 8
/// 4       payload_len u32
/// 8       kind        u8
/// 9       magic       u8    RECORD_MAGIC
/// 10      reserved    u16
/// 12      checksum    u32   CRC-32C over header (checksum zeroed) + payload
/// 16      txn         u64   transaction id (0 = none)
/// 24      prev_lsn    u64   chained LSN (0 = none; the storage layer chains none)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Total footprint of the record in the log stream (aligned).
    pub total_len: u32,
    /// Exact payload length in bytes.
    pub payload_len: u32,
    /// Record type tag.
    pub kind: RecordKind,
    /// Frame checksum: CRC-32C over the zero-checksum header plus payload.
    pub checksum: u32,
    /// Owning transaction (0 for records not tied to a transaction).
    pub txn: u64,
    /// An LSN the writer may chain the record to. A redo-only log chains
    /// nothing: the storage layer writes `Lsn::ZERO`.
    pub prev_lsn: Lsn,
}

impl RecordHeader {
    /// Build a header for `payload` (computes length fields and the frame
    /// CRC-32C over header + payload).
    pub fn new(kind: RecordKind, txn: u64, prev_lsn: Lsn, payload: &[u8]) -> RecordHeader {
        assert!(
            payload.len() <= MAX_PAYLOAD,
            "payload of {} bytes exceeds MAX_PAYLOAD",
            payload.len()
        );
        let zeroed = encode_frame_header(kind, txn, prev_lsn, payload.len());
        RecordHeader {
            total_len: on_log_size(payload.len()) as u32,
            payload_len: payload.len() as u32,
            kind,
            checksum: checksum(&zeroed, payload),
            txn,
            prev_lsn,
        }
    }

    /// Serialize into the fixed 32-byte on-log form: one field pass plus the
    /// in-place checksum patch.
    pub fn encode(&self) -> [u8; HEADER_SIZE] {
        let mut out = encode_frame_header(
            self.kind,
            self.txn,
            self.prev_lsn,
            self.payload_len as usize,
        );
        out[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Decode and validate a header. Returns `None` for anything that cannot
    /// be a live record (zeroed space, torn write, impossible lengths) — a
    /// recovery scan treats that as the end of the log.
    pub fn decode(buf: &[u8; HEADER_SIZE]) -> Option<RecordHeader> {
        let total_len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let payload_len = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let kind = RecordKind::from_u8(buf[8])?;
        if buf[9] != RECORD_MAGIC {
            return None;
        }
        if total_len as usize != on_log_size(payload_len as usize) {
            return None;
        }
        if payload_len as usize > MAX_PAYLOAD {
            return None;
        }
        let checksum = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        let txn = u64::from_le_bytes(buf[16..24].try_into().unwrap());
        let prev_lsn = Lsn(u64::from_le_bytes(buf[24..32].try_into().unwrap()));
        Some(RecordHeader {
            total_len,
            payload_len,
            kind,
            checksum,
            txn,
            prev_lsn,
        })
    }

    /// Verify the frame (header fields + `payload`) against the stored CRC.
    pub fn verify(&self, payload: &[u8]) -> bool {
        self.verify_encoded(&self.encode(), payload)
    }

    /// [`verify`](Self::verify) over `encoded`, the bytes this header was
    /// decoded from: a scan checks the header it holds, checksum word and
    /// all, without re-encoding it.
    pub(crate) fn verify_encoded(&self, encoded: &[u8; HEADER_SIZE], payload: &[u8]) -> bool {
        if payload.len() != self.payload_len as usize {
            return false;
        }
        let crc = crc32_update_zeroed(CRC32_INIT, encoded, CHECKSUM_OFFSET);
        crc32_finish(crc32_update(crc, payload)) == self.checksum
    }
}

/// A fully decoded record as produced by recovery scans ([`crate::reader`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// LSN at which the record starts.
    pub lsn: Lsn,
    /// Decoded header.
    pub header: RecordHeader,
    /// Owned copy of the payload.
    pub payload: Vec<u8>,
}

impl Record {
    /// LSN of the byte just past this record — where the next record starts.
    pub fn next_lsn(&self) -> Lsn {
        self.lsn.advance(self.header.total_len as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_multiples_of_eight() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 8);
        assert_eq!(align_up(8), 8);
        assert_eq!(align_up(9), 16);
        assert_eq!(align_up(32 + 40), 72);
    }

    #[test]
    fn on_log_size_includes_header_and_pad() {
        assert_eq!(on_log_size(0), 32);
        assert_eq!(on_log_size(1), 40);
        assert_eq!(on_log_size(8), 40);
        // the paper's two record-size peaks
        assert_eq!(on_log_size(40 - 32), 40);
        assert_eq!(on_log_size(264 - 32), 264);
    }

    #[test]
    fn frame_header_is_the_zeroed_encoding() {
        // The single-pass field encoder must agree with the struct path:
        // patching the checksum into the zeroed form yields encode().
        let payload = b"payload";
        let h = RecordHeader::new(RecordKind::Filler, 5, Lsn(640), payload);
        let mut framed = encode_frame_header(RecordKind::Filler, 5, Lsn(640), payload.len());
        assert_eq!(
            u32::from_le_bytes(
                framed[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4]
                    .try_into()
                    .unwrap()
            ),
            0
        );
        framed[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].copy_from_slice(&h.checksum.to_le_bytes());
        assert_eq!(framed, h.encode());
    }

    #[test]
    fn header_roundtrip() {
        let payload = b"some physiological redo bytes";
        let h = RecordHeader::new(RecordKind::UpdateCommit, 77, Lsn(4096), payload);
        let enc = h.encode();
        let dec = RecordHeader::decode(&enc).expect("valid header");
        assert_eq!(dec, h);
        assert!(dec.verify(payload));
        assert!(!dec.verify(b"tampered payload bytes here!!"));
    }

    #[test]
    fn decode_rejects_garbage() {
        // All zeroes: kind 0 is invalid.
        assert!(RecordHeader::decode(&[0u8; HEADER_SIZE]).is_none());
        // Valid header with the magic byte flipped.
        let h = RecordHeader::new(RecordKind::Filler, 1, Lsn::ZERO, b"x");
        let mut enc = h.encode();
        enc[9] = 0;
        assert!(RecordHeader::decode(&enc).is_none());
        // Length mismatch.
        let mut enc2 = h.encode();
        enc2[0..4].copy_from_slice(&123u32.to_le_bytes());
        assert!(RecordHeader::decode(&enc2).is_none());
    }

    #[test]
    fn all_kinds_roundtrip() {
        for k in [RecordKind::Filler, RecordKind::UpdateCommit] {
            assert_eq!(RecordKind::from_u8(k as u8), Some(k));
        }
        // The codes of the kinds no longer written decode as nothing.
        for retired in [1, 2, 3, 4, 5, 6, 8] {
            assert_eq!(RecordKind::from_u8(retired), None);
        }
        assert_eq!(RecordKind::from_u8(0), None);
        assert_eq!(RecordKind::from_u8(99), None);
    }

    /// Bitwise CRC-32C, a bit at a time: the reference both kernels are
    /// held to.
    fn reference(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0x82F6_3B78 & (crc & 1).wrapping_neg());
            }
        }
        crc
    }

    #[test]
    fn crc32_known_answers() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            // The CRC catalogue's check value for CRC-32C (iSCSI).
            (b"123456789", 0xE306_9283),
            // RFC 3720 §B.4.
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32_finish(reference(CRC32_INIT, data)), want, "{data:x?}");
            assert_eq!(
                crc32_finish(crc32_table(CRC32_INIT, data)),
                want,
                "{data:x?}"
            );
            assert_eq!(crc32(data), want, "{data:x?}");
        }
    }

    #[test]
    fn crc32_streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 3, 4, 7, 500, 999, 1000] {
            let streamed = crc32_finish(crc32_update(
                crc32_update(CRC32_INIT, &data[..split]),
                &data[split..],
            ));
            assert_eq!(streamed, crc32(&data), "split at {split}");
        }
    }

    /// Four start states: the usual one, none, and two arbitrary ones.
    const STATES: [u32; 4] = [CRC32_INIT, 0, 0x1234_5678, 0x8000_0001];

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32_kernel_matches_table() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if !std::arch::is_x86_feature_detected!("sse4.2") {
                eprintln!("this CPU lacks SSE4.2: only the table runs");
                return;
            }
            let buf = noise(2048 + 16);
            for state in STATES {
                for align in 0..16 {
                    // The reference's and the table's states after each
                    // prefix, a byte at a time.
                    let (mut bitwise, mut table) = (state, state);
                    for len in 0..=2048 {
                        let data = &buf[align..align + len];
                        if len > 0 {
                            bitwise = reference(bitwise, &data[len - 1..]);
                            table = crc32_table(table, &data[len - 1..]);
                        }
                        // SAFETY: this CPU has SSE4.2 (checked above).
                        let kernel = unsafe { crc32_sse42(state, data) };
                        assert_eq!(
                            (kernel, table),
                            (bitwise, bitwise),
                            "state {state:#x}, alignment {align}, length {len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn crc32_update_composes_at_every_split() {
        let buf = noise(300);
        for state in STATES {
            let whole = crc32_update(state, &buf);
            assert_eq!(whole, crc32_table(state, &buf));
            for split in 0..=buf.len() {
                let (a, b) = buf.split_at(split);
                assert_eq!(
                    crc32_update(crc32_update(state, a), b),
                    whole,
                    "state {state:#x}, split {split}"
                );
            }
        }
    }

    #[test]
    fn checksum_differs_on_flip() {
        let zh = [0u8; HEADER_SIZE];
        let a = vec![7u8; 1000];
        let mut b = a.clone();
        b[999] ^= 1;
        assert_ne!(checksum(&zh, &a), checksum(&zh, &b));
        b[999] ^= 1;
        assert_eq!(checksum(&zh, &a), checksum(&zh, &b));
        assert_ne!(checksum(&zh, &a[..999]), checksum(&zh, &a));
    }

    #[test]
    fn checksum_covers_header_fields() {
        // Two records with identical payloads but different txn ids must not
        // share a frame CRC: the checksum covers the header, so a corrupted
        // txn/prev_lsn field is caught even when the payload is intact.
        let h1 = RecordHeader::new(RecordKind::Filler, 1, Lsn(64), b"same payload");
        let h2 = RecordHeader::new(RecordKind::Filler, 2, Lsn(64), b"same payload");
        assert_ne!(h1.checksum, h2.checksum);
        // Tampering with an encoded header field fails verification even
        // though decode() finds the structure plausible.
        let mut enc = h1.encode();
        enc[16] ^= 0x04; // flip a txn-id bit
        let dec = RecordHeader::decode(&enc).expect("structurally valid");
        assert!(!dec.verify(b"same payload"));
    }

    #[test]
    fn record_next_lsn() {
        let payload = vec![1u8; 100];
        let h = RecordHeader::new(RecordKind::Filler, 0, Lsn::ZERO, &payload);
        let r = Record {
            lsn: Lsn(1000),
            header: h,
            payload,
        };
        assert_eq!(r.next_lsn(), Lsn(1000 + on_log_size(100) as u64));
    }
}
