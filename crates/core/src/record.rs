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
/// `UpdateCommit` and a fuzzy checkpoint as a begin/end pair. The codes of
/// kinds no longer written (1–4 and 8) decode as nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RecordKind {
    /// Fuzzy checkpoint begin.
    CheckpointBegin = 5,
    /// Fuzzy checkpoint end (carries the dirty-page table).
    CheckpointEnd = 6,
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
            5 => RecordKind::CheckpointBegin,
            6 => RecordKind::CheckpointEnd,
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

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup tables for
/// slice-by-4 processing, generated at compile time. CRC32 is the standard
/// frame check for both on-disk log records and on-wire replication frames:
/// unlike the previous xor-rotate-multiply hash, it detects all burst errors
/// up to 32 bits and has well-understood behavior under bit flips.
///
/// The tables serve inputs under 16 bytes, the tail of longer ones, and
/// every target without the folding kernel ([`crc32_update`]). On a 2-core
/// x86-64 Xeon VM they take about 1 ns a byte; the kernel takes 25 ns for
/// 120 bytes and 0.06 ns a byte at 4 KiB.
const CRC32_TABLES: [[u32; 256]; 4] = {
    let mut tables = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
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

/// Feed `data` into a running (pre-finalization) CRC32 state. Start from
/// [`CRC32_INIT`]; finalize with [`crc32_finish`]. Streaming form so callers
/// (the record frame, the replication wire frame) can checksum a header and
/// a payload without concatenating them.
///
/// The kernel is chosen at run time and never changes a byte: on x86-64
/// with `pclmulqdq` and `sse4.1`, inputs of 16 bytes and more are folded
/// with carry-less multiplies (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ", Intel 2009); everything else takes
/// the slice-by-4 table path. Both compute the same polynomial, so every
/// checksum on the log and the wire is the same value either way.
#[inline]
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if let Some(crc) = clmul::update(crc, data) {
        return crc;
    }
    crc32_table(crc, data)
}

/// The folding kernel: 4 x 16 B lanes folded 64 B at a time, then one
/// 16 B lane, then a Barrett reduction to 32 bits. The constants are those
/// of Linux's `crc32-pclmul` for the reflected polynomial 0xEDB88320, each
/// `x^n mod P` for the fold distance it serves, bit-reflected.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Bytes in one lane; shorter inputs take the table path.
    const BLOCK: usize = 16;
    /// Fold a lane across 4 lanes (512 bits): K1 for its low half, K2 for
    /// its high half.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold a lane across one lane (128 bits): K3 low, K4 high. K4 also
    /// folds 128 bits to 64.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// Fold 64 bits to 32.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P' and the Barrett constant mu = floor(x^64 / P).
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// The kernel over `data`'s whole lanes and the table over its tail;
    /// `None` if this CPU lacks the kernel's features (std caches the
    /// probe) or `data` is shorter than one lane.
    #[inline]
    pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
        if data.len() < BLOCK
            || !std::arch::is_x86_feature_detected!("pclmulqdq")
            || !std::arch::is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        let whole = data.len() - data.len() % BLOCK;
        // SAFETY: this CPU has `pclmulqdq` and `sse4.1` (checked above),
        // the features `fold` is compiled for.
        let crc = unsafe { fold(crc, &data[..whole]) };
        Some(super::crc32_table(crc, &data[whole..]))
    }

    /// Lane `i` of `data`.
    #[inline(always)]
    fn lane(data: &[u8], i: usize) -> __m128i {
        let bytes: &[u8; BLOCK] = data[i * BLOCK..(i + 1) * BLOCK]
            .try_into()
            .expect("a whole lane");
        // SAFETY: `bytes` is 16 readable bytes, and an unaligned load
        // reads exactly 16 bytes with no alignment requirement.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// Carry `x` forward by the distance `k` encodes (low half times
    /// `k`'s low, high half times `k`'s high) and add the lane it lands on.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Running CRC state after `data`, a non-empty run of whole lanes.
    ///
    /// # Safety
    /// The caller must run on a CPU with `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, data: &[u8]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4, K3);
        // The running state is XORed into the message's first 32 bits.
        let state = _mm_cvtsi32_si128(crc as i32);
        let (mut x, rest) = if data.len() >= 4 * BLOCK {
            let k1k2 = _mm_set_epi64x(K2, K1);
            let mut quads = data.chunks_exact(4 * BLOCK);
            let first = quads.next().expect("a whole quad");
            let mut acc = [0, 1, 2, 3].map(|j| lane(first, j));
            acc[0] = _mm_xor_si128(acc[0], state);
            for quad in &mut quads {
                for (j, a) in acc.iter_mut().enumerate() {
                    *a = fold_into(*a, k1k2, lane(quad, j));
                }
            }
            let mut x = acc[0];
            for a in &acc[1..] {
                x = fold_into(x, k3k4, *a);
            }
            (x, quads.remainder())
        } else {
            (_mm_xor_si128(lane(data, 0), state), &data[BLOCK..])
        };
        for next in rest.chunks_exact(BLOCK) {
            x = fold_into(x, k3k4, lane(next, 0));
        }
        // 128 -> 64 bits: the low half times K4, onto the high half (this
        // also appends the 32 zero bits the CRC definition calls for).
        let x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
        // 64 -> 32 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k5 = _mm_set_epi64x(0, K5);
        let x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
        );
        // Barrett reduction: q = (x mod x^32) * mu, keep its low 32 bits,
        // subtract q * P; the remainder sits in the second dword.
        let pmu = _mm_set_epi64x(MU, P);
        let q = _mm_and_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10),
            low32,
        );
        let r = _mm_xor_si128(x, _mm_clmulepi64_si128(q, pmu, 0x00));
        _mm_extract_epi32(r, 1) as u32
    }
}

/// Initial CRC32 state for [`crc32_update`].
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Finalize a running CRC32 state.
#[inline]
pub const fn crc32_finish(crc: u32) -> u32 {
    crc ^ 0xFFFF_FFFF
}

/// One-shot CRC32 of `data`.
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
/// CRC32 covers the header (with the CRC word zeroed) and the body, so a bit
/// flip anywhere is detected. The replication frames and the serving
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
    let mut crc = crc32_update(CRC32_INIT, &head[..header - 4]);
    crc = crc32_update(crc, &[0u8; 4]);
    crc = crc32_update(crc, body);
    (crc32_finish(crc) == word(header - 4)).then_some((&head[4..header - 8], body))
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
/// 12      checksum    u32   CRC32 over header (checksum zeroed) + payload
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
    /// Frame checksum: CRC32 over the zero-checksum header plus payload.
    pub checksum: u32,
    /// Owning transaction (0 for records not tied to a transaction).
    pub txn: u64,
    /// An LSN the writer may chain the record to. A redo-only log chains
    /// nothing: the storage layer writes `Lsn::ZERO`.
    pub prev_lsn: Lsn,
}

impl RecordHeader {
    /// Build a header for `payload` (computes length fields and the frame
    /// CRC32 over header + payload).
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
        let mut out = self.encode_zeroed();
        out[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// The on-log form with the checksum field zeroed — the byte string the
    /// frame CRC is computed over.
    fn encode_zeroed(&self) -> [u8; HEADER_SIZE] {
        encode_frame_header(
            self.kind,
            self.txn,
            self.prev_lsn,
            self.payload_len as usize,
        )
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
        payload.len() == self.payload_len as usize
            && checksum(&self.encode_zeroed(), payload) == self.checksum
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
        for k in [
            RecordKind::CheckpointBegin,
            RecordKind::CheckpointEnd,
            RecordKind::Filler,
            RecordKind::UpdateCommit,
        ] {
            assert_eq!(RecordKind::from_u8(k as u8), Some(k));
        }
        // The codes of the kinds no longer written decode as nothing.
        for retired in [1, 2, 3, 4, 8] {
            assert_eq!(RecordKind::from_u8(retired), None);
        }
        assert_eq!(RecordKind::from_u8(0), None);
        assert_eq!(RecordKind::from_u8(99), None);
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
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
            let buf = noise(2048 + 16);
            if clmul::update(CRC32_INIT, &buf).is_none() {
                eprintln!("this CPU lacks pclmulqdq or sse4.1: only the table runs");
                return;
            }
            for state in STATES {
                for align in 0..16 {
                    // The table's state after each prefix, a byte at a time.
                    let mut table = state;
                    for len in 0..=2048 {
                        let data = &buf[align..align + len];
                        if len > 0 {
                            table = crc32_table(table, &data[len - 1..]);
                        }
                        match clmul::update(state, data) {
                            Some(kernel) => assert_eq!(
                                kernel, table,
                                "state {state:#x}, alignment {align}, length {len}"
                            ),
                            None => assert!(len < 16, "the kernel declined {len} bytes"),
                        }
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
