//! The Aether wire protocol: length-prefixed, CRC32-framed request/response
//! messages, following the framing idiom of `aether-repl::frame`.
//!
//! Every message is one frame:
//!
//! ```text
//! [magic u32][req_id u64][opcode u8][len u32][crc u32]  then `len` body bytes
//! ```
//!
//! The CRC32 covers the header (with the CRC field zeroed) and the body, so
//! a bit flip anywhere — magic, id, opcode, length, payload — is detected.
//! Unlike the replication stream, the serving protocol cannot resynchronize
//! after a bad frame (the length prefix it would need to skip is itself
//! untrusted), so a corrupt frame is *fatal to the connection*: the server
//! drops the socket and aborts the connection's in-flight transactions.
//!
//! `req_id` is chosen by the client (monotonic per connection) and echoed in
//! the matching response; responses to one connection are delivered strictly
//! in request order (invariant 10 in DESIGN.md), so a pipelining client can
//! also match responses positionally.

use aether_core::record::{frame_check, frame_encode_into, FRAME_OVERHEAD};

/// Frame header size on the wire.
pub const WIRE_HEADER: usize = FRAME_OVERHEAD + FIELDS;

/// Magic tag opening a request frame.
pub const REQUEST_MAGIC: u32 = 0xAE7E_0C11;

/// Magic tag opening a response frame.
pub const RESPONSE_MAGIC: u32 = 0xAE7E_0C22;

/// Upper bound on a frame body. A length prefix larger than this is treated
/// as corruption immediately — the receiver must not buffer attacker-chosen
/// lengths before the CRC can vouch for them.
pub const MAX_BODY: usize = 1 << 20;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open an interactive transaction; the response carries its id.
    Begin,
    /// Snapshot read at a freshness floor (`at_least` = a commit token's
    /// LSN; 0 = any snapshot). The server reads the primary, which meets
    /// every floor an acked token can set.
    Read {
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
        /// Freshness floor (raw LSN of a commit token; 0 = none).
        at_least: u64,
    },
    /// Analytical scan: snapshot-read `count` keys from `start`, aggregated
    /// server-side (row count + checksum) so the response stays bounded.
    Scan {
        /// Table id.
        table: u32,
        /// First key.
        start: u64,
        /// Number of keys to visit.
        count: u32,
    },
    /// Overwrite `key`. `txn` 0 means auto-commit: the server wraps the
    /// write in its own transaction and responds `Committed` at durability,
    /// which is what feeds the group-commit gate a stream of small commits.
    Update {
        /// Transaction id from `Begin`, or 0 for auto-commit.
        txn: u64,
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
        /// New record bytes.
        value: Vec<u8>,
    },
    /// Commit an interactive transaction. Acked strictly at durability.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// Roll back an interactive transaction.
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// Liveness probe / pipeline barrier.
    Ping,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Transaction opened.
    Begun {
        /// Server-assigned transaction id.
        txn: u64,
    },
    /// Read result.
    Value {
        /// Whether the key was present at the snapshot.
        present: bool,
        /// The serving snapshot's applied watermark (raw LSN).
        applied: u64,
        /// True if a replica served the read; the server reads the primary,
        /// so always false from it.
        from_replica: bool,
        /// Record bytes (empty when absent).
        value: Vec<u8>,
    },
    /// Scan aggregate.
    ScanDone {
        /// Rows found present.
        found: u32,
        /// XOR-fold of a CRC32 per present row (order-independent).
        checksum: u64,
    },
    /// In-transaction update applied (not yet durable — that is `Commit`'s
    /// business).
    UpdateOk,
    /// Commit durable. Carries the session token for read-your-writes.
    Committed {
        /// The commit token's raw LSN (fold into later `Read.at_least`).
        token: u64,
    },
    /// Transaction rolled back.
    Aborted,
    /// Pong.
    Pong,
    /// Request failed. The connection survives; the transaction named by a
    /// failed statement has been rolled back by the server.
    Err {
        /// An [`ErrCode`] as u16.
        code: u16,
        /// Human-readable detail.
        msg: String,
    },
}

/// Error codes carried by [`Response::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrCode {
    /// Referenced transaction id is not open on this connection.
    NoSuchTxn = 1,
    /// Key not found.
    NotFound = 2,
    /// Deadlock victim (transaction rolled back).
    Deadlock = 3,
    /// Lock wait timeout (transaction rolled back).
    LockTimeout = 4,
    /// Any other storage error.
    Storage = 5,
    /// Request malformed at the semantic level (e.g. bad table).
    BadRequest = 6,
    /// Server is shutting down.
    Shutdown = 7,
    /// Admission control shed the request: the retained log footprint is
    /// over the hard disk-pressure watermark. Retry after backoff.
    LogFull = 8,
    /// Server transiently overloaded; retry after backoff.
    Busy = 9,
}

impl ErrCode {
    /// Map a storage error to a wire code.
    pub fn of(e: &aether_storage::StorageError) -> ErrCode {
        use aether_core::AetherError as L;
        use aether_storage::StorageError as E;
        match e {
            E::Deadlock { .. } => ErrCode::Deadlock,
            E::LockTimeout { .. } => ErrCode::LockTimeout,
            E::KeyNotFound { .. } => ErrCode::NotFound,
            E::Log(L::LogFull { .. }) => ErrCode::LogFull,
            E::Log(L::Busy(_)) => ErrCode::Busy,
            E::Log(L::Shutdown) => ErrCode::Shutdown,
            _ => ErrCode::Storage,
        }
    }

    /// Decode a wire `u16` back to a code (`None` for unknown values —
    /// forward compatibility demands they be treated as non-retryable).
    pub fn from_u16(code: u16) -> Option<ErrCode> {
        Some(match code {
            1 => ErrCode::NoSuchTxn,
            2 => ErrCode::NotFound,
            3 => ErrCode::Deadlock,
            4 => ErrCode::LockTimeout,
            5 => ErrCode::Storage,
            6 => ErrCode::BadRequest,
            7 => ErrCode::Shutdown,
            8 => ErrCode::LogFull,
            9 => ErrCode::Busy,
            _ => return None,
        })
    }

    /// True for codes a client may transparently retry after backoff: the
    /// condition is expected to clear without operator action.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrCode::Deadlock | ErrCode::LockTimeout | ErrCode::LogFull | ErrCode::Busy
        )
    }
}

// Request opcodes.
const OP_BEGIN: u8 = 0x01;
const OP_READ: u8 = 0x02;
const OP_SCAN: u8 = 0x03;
const OP_UPDATE: u8 = 0x04;
const OP_COMMIT: u8 = 0x05;
const OP_ABORT: u8 = 0x06;
const OP_PING: u8 = 0x07;

// Response opcodes.
const OP_BEGUN: u8 = 0x81;
const OP_VALUE: u8 = 0x82;
const OP_SCAN_DONE: u8 = 0x83;
const OP_UPDATE_OK: u8 = 0x84;
const OP_COMMITTED: u8 = 0x85;
const OP_ABORTED: u8 = 0x86;
const OP_PONG: u8 = 0x87;
const OP_ERR: u8 = 0xFF;

/// Bytes of fixed fields between the magic and `len`: `req_id`, `opcode`.
const FIELDS: usize = 9;

/// Append one frame; `body` writes the body in place.
fn frame_into(
    out: &mut Vec<u8>,
    magic: u32,
    req_id: u64,
    opcode: u8,
    body: impl FnOnce(&mut Vec<u8>),
) {
    let mut fields = [0u8; FIELDS];
    fields[..8].copy_from_slice(&req_id.to_le_bytes());
    fields[8] = opcode;
    frame_encode_into(out, magic, &fields, body)
}

/// CRC-check one complete frame and split it into `(req_id, opcode, body)`.
fn check(magic: u32, buf: &[u8]) -> Option<(u64, u8, &[u8])> {
    let (fields, body) = frame_check(magic, FIELDS, MAX_BODY, buf)?;
    let req_id = u64::from_le_bytes(fields[..8].try_into().ok()?);
    Some((req_id, fields[8], body))
}

impl Request {
    /// Serialize with the given request id.
    pub fn encode(&self, req_id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(req_id, &mut out);
        out
    }

    fn opcode(&self) -> u8 {
        match self {
            Request::Begin => OP_BEGIN,
            Request::Read { .. } => OP_READ,
            Request::Scan { .. } => OP_SCAN,
            Request::Update { .. } => OP_UPDATE,
            Request::Commit { .. } => OP_COMMIT,
            Request::Abort { .. } => OP_ABORT,
            Request::Ping => OP_PING,
        }
    }

    /// Append the frame [`Request::encode`] returns onto `out`.
    pub fn encode_into(&self, req_id: u64, out: &mut Vec<u8>) {
        frame_into(out, REQUEST_MAGIC, req_id, self.opcode(), |b| match self {
            Request::Begin | Request::Ping => {}
            Request::Read {
                table,
                key,
                at_least,
            } => {
                b.extend_from_slice(&table.to_le_bytes());
                b.extend_from_slice(&key.to_le_bytes());
                b.extend_from_slice(&at_least.to_le_bytes());
            }
            Request::Scan {
                table,
                start,
                count,
            } => {
                b.extend_from_slice(&table.to_le_bytes());
                b.extend_from_slice(&start.to_le_bytes());
                b.extend_from_slice(&count.to_le_bytes());
            }
            Request::Update {
                txn,
                table,
                key,
                value,
            } => {
                b.extend_from_slice(&txn.to_le_bytes());
                b.extend_from_slice(&table.to_le_bytes());
                b.extend_from_slice(&key.to_le_bytes());
                b.extend_from_slice(value);
            }
            Request::Commit { txn } | Request::Abort { txn } => {
                b.extend_from_slice(&txn.to_le_bytes());
            }
        })
    }

    /// Decode a complete request frame; `None` for anything malformed.
    pub fn decode(buf: &[u8]) -> Option<(u64, Request)> {
        let (req_id, opcode, b) = check(REQUEST_MAGIC, buf)?;
        let req = match opcode {
            OP_BEGIN => {
                if !b.is_empty() {
                    return None;
                }
                Request::Begin
            }
            OP_READ => {
                if b.len() != 20 {
                    return None;
                }
                Request::Read {
                    table: u32::from_le_bytes(b[0..4].try_into().ok()?),
                    key: u64::from_le_bytes(b[4..12].try_into().ok()?),
                    at_least: u64::from_le_bytes(b[12..20].try_into().ok()?),
                }
            }
            OP_SCAN => {
                if b.len() != 16 {
                    return None;
                }
                Request::Scan {
                    table: u32::from_le_bytes(b[0..4].try_into().ok()?),
                    start: u64::from_le_bytes(b[4..12].try_into().ok()?),
                    count: u32::from_le_bytes(b[12..16].try_into().ok()?),
                }
            }
            OP_UPDATE => {
                if b.len() < 20 {
                    return None;
                }
                Request::Update {
                    txn: u64::from_le_bytes(b[0..8].try_into().ok()?),
                    table: u32::from_le_bytes(b[8..12].try_into().ok()?),
                    key: u64::from_le_bytes(b[12..20].try_into().ok()?),
                    value: b[20..].to_vec(),
                }
            }
            OP_COMMIT => {
                if b.len() != 8 {
                    return None;
                }
                Request::Commit {
                    txn: u64::from_le_bytes(b[0..8].try_into().ok()?),
                }
            }
            OP_ABORT => {
                if b.len() != 8 {
                    return None;
                }
                Request::Abort {
                    txn: u64::from_le_bytes(b[0..8].try_into().ok()?),
                }
            }
            OP_PING => {
                if !b.is_empty() {
                    return None;
                }
                Request::Ping
            }
            _ => return None,
        };
        Some((req_id, req))
    }
}

impl Response {
    /// Serialize with the request id being answered.
    pub fn encode(&self, req_id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(req_id, &mut out);
        out
    }

    fn opcode(&self) -> u8 {
        match self {
            Response::Begun { .. } => OP_BEGUN,
            Response::Value { .. } => OP_VALUE,
            Response::ScanDone { .. } => OP_SCAN_DONE,
            Response::UpdateOk => OP_UPDATE_OK,
            Response::Committed { .. } => OP_COMMITTED,
            Response::Aborted => OP_ABORTED,
            Response::Pong => OP_PONG,
            Response::Err { .. } => OP_ERR,
        }
    }

    /// Append the frame [`Response::encode`] returns onto `out`.
    pub fn encode_into(&self, req_id: u64, out: &mut Vec<u8>) {
        frame_into(out, RESPONSE_MAGIC, req_id, self.opcode(), |b| match self {
            Response::UpdateOk | Response::Aborted | Response::Pong => {}
            Response::Begun { txn: word } | Response::Committed { token: word } => {
                b.extend_from_slice(&word.to_le_bytes());
            }
            Response::Value {
                present,
                applied,
                from_replica,
                value,
            } => {
                b.push(u8::from(*present) | (u8::from(*from_replica) << 1));
                b.extend_from_slice(&applied.to_le_bytes());
                b.extend_from_slice(value);
            }
            Response::ScanDone { found, checksum } => {
                b.extend_from_slice(&found.to_le_bytes());
                b.extend_from_slice(&checksum.to_le_bytes());
            }
            Response::Err { code, msg } => {
                b.extend_from_slice(&code.to_le_bytes());
                b.extend_from_slice(msg.as_bytes());
            }
        })
    }

    /// Decode a complete response frame; `None` for anything malformed.
    pub fn decode(buf: &[u8]) -> Option<(u64, Response)> {
        let (req_id, opcode, b) = check(RESPONSE_MAGIC, buf)?;
        let resp = match opcode {
            OP_BEGUN => {
                if b.len() != 8 {
                    return None;
                }
                Response::Begun {
                    txn: u64::from_le_bytes(b[0..8].try_into().ok()?),
                }
            }
            OP_VALUE => {
                if b.len() < 9 || b[0] & !0x03 != 0 {
                    return None;
                }
                Response::Value {
                    present: b[0] & 0x01 != 0,
                    from_replica: b[0] & 0x02 != 0,
                    applied: u64::from_le_bytes(b[1..9].try_into().ok()?),
                    value: b[9..].to_vec(),
                }
            }
            OP_SCAN_DONE => {
                if b.len() != 12 {
                    return None;
                }
                Response::ScanDone {
                    found: u32::from_le_bytes(b[0..4].try_into().ok()?),
                    checksum: u64::from_le_bytes(b[4..12].try_into().ok()?),
                }
            }
            OP_UPDATE_OK => {
                if !b.is_empty() {
                    return None;
                }
                Response::UpdateOk
            }
            OP_COMMITTED => {
                if b.len() != 8 {
                    return None;
                }
                Response::Committed {
                    token: u64::from_le_bytes(b[0..8].try_into().ok()?),
                }
            }
            OP_ABORTED => {
                if !b.is_empty() {
                    return None;
                }
                Response::Aborted
            }
            OP_PONG => {
                if !b.is_empty() {
                    return None;
                }
                Response::Pong
            }
            OP_ERR => {
                if b.len() < 2 {
                    return None;
                }
                Response::Err {
                    code: u16::from_le_bytes(b[0..2].try_into().ok()?),
                    msg: String::from_utf8(b[2..].to_vec()).ok()?,
                }
            }
            _ => return None,
        };
        Some((req_id, resp))
    }
}

/// Outcome of trying to pull one frame out of a byte stream's buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Extracted<T> {
    /// A complete, CRC-valid frame was decoded and consumed: removed from
    /// the buffer by `extract_*`, stepped past by `*_at`.
    Msg {
        /// The frame's request id.
        req_id: u64,
        /// The decoded message.
        msg: T,
    },
    /// The buffer holds a prefix of a valid-looking frame; read more bytes.
    NeedMore,
    /// The buffer front is not a valid frame. The stream cannot be
    /// resynchronized — the connection must be dropped.
    Corrupt,
}

fn decode_at<T>(
    magic: u32,
    buf: &[u8],
    at: &mut usize,
    decode: impl Fn(&[u8]) -> Option<(u64, T)>,
) -> Extracted<T> {
    let buf = &buf[*at..];
    if buf.len() < WIRE_HEADER {
        return Extracted::NeedMore;
    }
    if u32::from_le_bytes(buf[0..4].try_into().unwrap()) != magic {
        return Extracted::Corrupt;
    }
    let len = u32::from_le_bytes(buf[13..17].try_into().unwrap()) as usize;
    if len > MAX_BODY {
        return Extracted::Corrupt;
    }
    let total = WIRE_HEADER + len;
    if buf.len() < total {
        return Extracted::NeedMore;
    }
    match decode(&buf[..total]) {
        Some((req_id, msg)) => {
            *at += total;
            Extracted::Msg { req_id, msg }
        }
        None => Extracted::Corrupt,
    }
}

/// Decode the request frame that starts `*at` bytes into `buf` (a
/// connection's read accumulator) and, on a message, step `*at` past it.
/// A reader decodes every frame one read completed this way, then drains
/// `buf[..*at]` once: a batch of frames costs one move of the bytes left.
pub fn request_at(buf: &[u8], at: &mut usize) -> Extracted<Request> {
    decode_at(REQUEST_MAGIC, buf, at, Request::decode)
}

/// [`request_at`] for a response frame.
pub fn response_at(buf: &[u8], at: &mut usize) -> Extracted<Response> {
    decode_at(RESPONSE_MAGIC, buf, at, Response::decode)
}

/// One frame through `decode_at` at the front of `buf`, removed if decoded.
fn extract<T>(
    buf: &mut Vec<u8>,
    decode_at: impl Fn(&[u8], &mut usize) -> Extracted<T>,
) -> Extracted<T> {
    let mut at = 0;
    let got = decode_at(buf, &mut at);
    buf.drain(..at);
    got
}

/// Pull one request frame off the front of `buf` (a connection's read
/// accumulator), leaving any following bytes in place.
pub fn extract_request(buf: &mut Vec<u8>) -> Extracted<Request> {
    extract(buf, request_at)
}

/// Pull one response frame off the front of `buf`.
pub fn extract_response(buf: &mut Vec<u8>) -> Extracted<Response> {
    extract(buf, response_at)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Begin,
            Request::Read {
                table: 3,
                key: 77,
                at_least: 9000,
            },
            Request::Scan {
                table: 1,
                start: 10,
                count: 500,
            },
            Request::Update {
                txn: 0,
                table: 2,
                key: 5,
                value: vec![1, 2, 3, 4],
            },
            Request::Commit { txn: 42 },
            Request::Abort { txn: 43 },
            Request::Ping,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Begun { txn: 9 },
            Response::Value {
                present: true,
                applied: 4096,
                from_replica: true,
                value: vec![7; 32],
            },
            Response::ScanDone {
                found: 12,
                checksum: 0xDEAD_BEEF,
            },
            Response::UpdateOk,
            Response::Committed { token: 512 },
            Response::Aborted,
            Response::Pong,
            Response::Err {
                code: ErrCode::Deadlock as u16,
                msg: "victim".into(),
            },
        ]
    }

    /// Wire bytes pinned before the codec moved onto
    /// `aether_core::record::frame_encode`: the layout may not drift.
    #[test]
    fn golden_frames() {
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let req = Request::Update {
            txn: 0,
            table: 2,
            key: 5,
            value: vec![1, 2, 3, 4],
        };
        assert_eq!(
            hex(&req.encode(7)),
            "110c7eae07000000000000000418000000b5f2c91c\
             000000000000000002000000050000000000000001020304"
        );
        assert_eq!(
            hex(&Response::Committed { token: 512 }.encode(7)),
            "220c7eae070000000000000085080000000f773ffd0002000000000000"
        );
    }

    #[test]
    fn request_roundtrip() {
        for (i, r) in all_requests().into_iter().enumerate() {
            let enc = r.encode(i as u64);
            assert_eq!(Request::decode(&enc), Some((i as u64, r)));
        }
    }

    #[test]
    fn response_roundtrip() {
        for (i, r) in all_responses().into_iter().enumerate() {
            let enc = r.encode(1000 + i as u64);
            assert_eq!(Response::decode(&enc), Some((1000 + i as u64, r)));
        }
    }

    #[test]
    fn corruption_detected_anywhere() {
        let enc = Request::Update {
            txn: 1,
            table: 0,
            key: 9,
            value: vec![0xAB; 40],
        }
        .encode(7);
        for at in 0..enc.len() {
            let mut bad = enc.clone();
            bad[at] ^= 0x20;
            assert!(Request::decode(&bad).is_none(), "flip at {at} undetected");
        }
        assert!(Request::decode(&enc[..enc.len() - 1]).is_none());
        assert!(Request::decode(&enc[..5]).is_none());
    }

    #[test]
    fn extract_streams_split_frames() {
        let a = Request::Begin.encode(1);
        let b = Request::Ping.encode(2);
        let mut buf = Vec::new();
        buf.extend_from_slice(&a);
        buf.extend_from_slice(&b[..10]);
        match extract_request(&mut buf) {
            Extracted::Msg { req_id, msg } => {
                assert_eq!((req_id, msg), (1, Request::Begin));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(extract_request(&mut buf), Extracted::NeedMore);
        buf.extend_from_slice(&b[10..]);
        match extract_request(&mut buf) {
            Extracted::Msg { req_id, msg } => {
                assert_eq!((req_id, msg), (2, Request::Ping));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn extract_flags_corruption() {
        let mut buf = Request::Ping.encode(3);
        buf[2] ^= 0x01; // bad magic
        assert_eq!(extract_request(&mut buf), Extracted::Corrupt);

        // Oversized length prefix is corrupt even before the body arrives.
        let mut huge = Request::Ping.encode(4);
        huge[13..17].copy_from_slice(&(MAX_BODY as u32 + 1).to_le_bytes());
        assert_eq!(extract_request(&mut huge), Extracted::Corrupt);
    }

    /// Every frame of `batch`, delivered in two reads split at `split`:
    /// once a frame at a time through `extract`, once through `decode_at`
    /// with one drain per read. Both must see the same messages.
    fn both_ways<T: std::fmt::Debug + PartialEq>(
        batch: &[u8],
        split: usize,
        extract: impl Fn(&mut Vec<u8>) -> Extracted<T>,
        decode_at: impl Fn(&[u8], &mut usize) -> Extracted<T>,
    ) -> [Vec<(u64, T)>; 2] {
        let mut one_by_one = Vec::new();
        let mut buf = Vec::new();
        for read in [&batch[..split], &batch[split..]] {
            buf.extend_from_slice(read);
            loop {
                match extract(&mut buf) {
                    Extracted::Msg { req_id, msg } => one_by_one.push((req_id, msg)),
                    Extracted::NeedMore => break,
                    Extracted::Corrupt => panic!("corrupt at split {split}"),
                }
            }
        }
        assert!(buf.is_empty());
        let mut per_read = Vec::new();
        for read in [&batch[..split], &batch[split..]] {
            buf.extend_from_slice(read);
            let mut at = 0;
            loop {
                match decode_at(&buf, &mut at) {
                    Extracted::Msg { req_id, msg } => per_read.push((req_id, msg)),
                    Extracted::NeedMore => break,
                    Extracted::Corrupt => panic!("corrupt at split {split}"),
                }
            }
            buf.drain(..at);
        }
        assert!(buf.is_empty());
        [one_by_one, per_read]
    }

    #[test]
    fn a_batch_split_anywhere_decodes_alike_through_both_entry_points() {
        let requests: Vec<(u64, Request)> =
            (0..64u64).zip(all_requests().into_iter().cycle()).collect();
        let mut batch = Vec::new();
        for (id, r) in &requests {
            r.encode_into(*id, &mut batch);
        }
        for split in 0..=batch.len() {
            let got = both_ways(&batch, split, extract_request, request_at);
            assert_eq!(got, [requests.clone(), requests.clone()], "split {split}");
        }

        let responses: Vec<(u64, Response)> = (0..64u64)
            .zip(all_responses().into_iter().cycle())
            .collect();
        let mut batch = Vec::new();
        for (id, r) in &responses {
            r.encode_into(*id, &mut batch);
        }
        for split in 0..=batch.len() {
            let got = both_ways(&batch, split, extract_response, response_at);
            assert_eq!(got, [responses.clone(), responses.clone()], "split {split}");
        }
    }
}
