//! Rows, values and pre-generated op streams.
//!
//! Every value the benchmark writes checks itself: it carries its own key,
//! who wrote it, a sequence number and a CRC over all of that. A read
//! response, a recovered row or a replica's row can therefore be verified
//! without remembering what was written.

use crate::rng::{KeyDist, SplitMix64};
use aether_core::record::crc32;
use aether_server::Request;

/// Rows in the table (2^20 × 64 B = 64 MiB of user data). The page store
/// is in memory: the program has no cache of its own for this to exceed.
pub const ROWS: u64 = 1 << 20;
/// Record size of the table.
pub const VALUE_LEN: usize = 64;
/// Ops in one connection's pre-generated stream; the load loop cycles it.
pub const STREAM_LEN: usize = 1 << 16;
/// Every this-many ops a connection writes its next sequence number to its
/// private canary row.
pub const CANARY_EVERY: u64 = 64;

/// Writer tag of the rows loaded at set-up.
pub const LOADER: u64 = 0;

const CRC_AT: usize = VALUE_LEN - 4;

/// What a verified value says about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueInfo {
    pub key: u64,
    /// [`LOADER`], or connection index + 1.
    pub writer: u64,
    pub seq: u64,
}

/// `[key u64][writer u64][seq u64][36 filler bytes][crc32 of the first 60]`.
pub fn make_value(info: ValueInfo, filler: &mut SplitMix64) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    v[0..8].copy_from_slice(&info.key.to_le_bytes());
    v[8..16].copy_from_slice(&info.writer.to_le_bytes());
    v[16..24].copy_from_slice(&info.seq.to_le_bytes());
    for chunk in v[24..CRC_AT].chunks_mut(8) {
        let bytes = filler.next_u64().to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    let crc = crc32(&v[..CRC_AT]);
    v[CRC_AT..].copy_from_slice(&crc.to_le_bytes());
    v
}

/// Verify a value's length and embedded checksum.
pub fn check_value(v: &[u8]) -> Option<ValueInfo> {
    if v.len() != VALUE_LEN {
        return None;
    }
    let stored = u32::from_le_bytes(v[CRC_AT..].try_into().ok()?);
    if crc32(&v[..CRC_AT]) != stored {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(v[at..at + 8].try_into().expect("8 bytes"));
    Some(ValueInfo {
        key: word(0),
        writer: word(8),
        seq: word(16),
    })
}

/// The value row `key` is loaded with at set-up.
pub fn initial_value(key: u64) -> [u8; VALUE_LEN] {
    make_value(
        ValueInfo {
            key,
            writer: LOADER,
            seq: 0,
        },
        &mut SplitMix64::new(key),
    )
}

/// The private row connection `lane` writes its canaries to: past the end
/// of the key space the op streams draw from.
pub fn canary_key(lane: usize) -> u64 {
    ROWS + lane as u64
}

/// The one table's id.
pub const TABLE: u32 = 0;

/// Connection `lane`'s pre-built requests: a pure function of `(seed, lane)`
/// and the workload's mix and key distribution. A read is a snapshot read
/// with no freshness floor beyond the connection's own writes; an update is
/// auto-commit (`txn: 0`), acked at durability.
pub fn generate_stream(seed: u64, lane: usize, read_share: f64, keys: &KeyDist) -> Vec<Request> {
    let mut rng = SplitMix64::stream(seed, lane as u64);
    (0..STREAM_LEN as u64)
        .map(|seq| {
            let read = rng.unit() < read_share;
            let key = keys.sample(&mut rng);
            if read {
                Request::Read {
                    table: TABLE,
                    key,
                    at_least: 0,
                }
            } else {
                let info = ValueInfo {
                    key,
                    writer: lane as u64 + 1,
                    seq,
                };
                Request::Update {
                    txn: 0,
                    table: TABLE,
                    key,
                    value: make_value(info, &mut rng).to_vec(),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_bytes(reqs: &[Request]) -> Vec<u8> {
        reqs.iter()
            .enumerate()
            .flat_map(|(i, req)| req.encode(i as u64))
            .collect()
    }

    fn is_read(req: &Request) -> bool {
        matches!(req, Request::Read { .. })
    }

    fn key(req: &Request) -> u64 {
        match req {
            Request::Read { key, .. } | Request::Update { key, .. } => *key,
            other => panic!("stream holds {other:?}"),
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_seeds_differ() {
        let keys = KeyDist::Uniform(ROWS);
        let a = generate_stream(42, 0, 0.5, &keys);
        let b = generate_stream(42, 0, 0.5, &keys);
        assert_eq!(wire_bytes(&a), wire_bytes(&b));
        assert_ne!(a, generate_stream(43, 0, 0.5, &keys), "seeds must differ");
        assert_ne!(a, generate_stream(42, 1, 0.5, &keys), "lanes must differ");
    }

    #[test]
    fn stream_follows_the_mix_and_key_space() {
        let ops = generate_stream(1, 0, 0.6, &KeyDist::Uniform(ROWS));
        assert_eq!(ops.len(), STREAM_LEN);
        let reads = ops.iter().filter(|r| is_read(r)).count() as f64;
        let share = reads / STREAM_LEN as f64;
        assert!((0.58..0.62).contains(&share), "read share {share}");
        assert!(ops.iter().all(|r| key(r) < ROWS));
        assert!(generate_stream(1, 0, 0.0, &KeyDist::Uniform(ROWS))
            .iter()
            .all(|r| !is_read(r)));
    }

    #[test]
    fn values_verify_and_any_flipped_bit_is_caught() {
        let info = ValueInfo {
            key: 77,
            writer: 2,
            seq: 9,
        };
        let v = make_value(info, &mut SplitMix64::new(5));
        assert_eq!(check_value(&v), Some(info));
        for bit in 0..VALUE_LEN * 8 {
            let mut bad = v;
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(check_value(&bad), None, "bit {bit}");
        }
        assert_eq!(check_value(&v[..63]), None);
        assert_eq!(check_value(&initial_value(3)).map(|i| i.key), Some(3));
    }

    #[test]
    fn every_update_in_a_stream_carries_its_own_key() {
        for req in generate_stream(9, 1, 0.2, &KeyDist::Uniform(ROWS)) {
            if let Request::Update { key, value, .. } = req {
                let info = check_value(&value).expect("self-checking value");
                assert_eq!((info.key, info.writer), (key, 2));
            }
        }
    }
}
