//! Property tests for the reservation-based (zero-copy) insert path.
//!
//! A log fed through `reserve` + streamed `SlotWriter` writes split at
//! arbitrary chunk boundaries must put on the device, for every buffer kind
//! and any sequence of record sizes, exactly the **reference encoding** of
//! those records: `RecordHeader::new(..).encode()`, the payload, zeros up
//! to the record alignment. The ring is deliberately tiny (4 KiB) so
//! sequences straddle the wrap boundary many times; the flush daemon's
//! vectored drain is therefore exercised on both one-slice and two-slice
//! windows.

use aether_core::device::SimDevice;
use aether_core::record::{RecordHeader, RecordKind, HEADER_SIZE};
use aether_core::{BufferKind, LogManager, Lsn};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic payload bytes for record `i` of length `len`.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| (i * 31 + j * 7) as u8).collect()
}

/// What a record must look like on the device, built without the ring:
/// encoded header, payload, zero pad up to the record's on-log size.
fn reference_encoding(kind: RecordKind, txn: u64, prev: Lsn, payload: &[u8]) -> Vec<u8> {
    let header = RecordHeader::new(kind, txn, prev, payload);
    let mut bytes = header.encode().to_vec();
    bytes.extend_from_slice(payload);
    bytes.resize(header.total_len as usize, 0);
    bytes
}

fn build_log(kind: BufferKind, device: Arc<SimDevice>) -> LogManager {
    LogManager::builder()
        .buffer(kind)
        .config(aether_core::LogConfig::default().with_buffer_size(4096))
        .device_instance(device)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_kind_writes_the_reference_encoding(
        kind_idx in 0usize..5,
        // Payload sizes spanning 0 bytes to larger-than-half-the-ring, so
        // records straddle the 4 KiB wrap boundary in many phases.
        sizes in proptest::collection::vec(0usize..2500, 1..40),
        // Chunk split knob for the streamed writes.
        split in 1usize..64,
    ) {
        let kind = BufferKind::ALL[kind_idx];

        // Payloads streamed into the ring in `split`-byte chunks.
        let dev = Arc::new(SimDevice::new(Duration::ZERO));
        let log = build_log(kind, Arc::clone(&dev));
        let mut reference = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            let p = payload(i, len);
            let mut slot = log.reserve(RecordKind::Filler, i as u64, Lsn(i as u64), len);
            for chunk in p.chunks(split) {
                slot.write(chunk);
            }
            prop_assert_eq!(slot.writer().remaining(), 0);
            prop_assert_eq!(slot.release(), Lsn(reference.len() as u64));
            reference.extend(reference_encoding(RecordKind::Filler, i as u64, Lsn(i as u64), &p));
        }
        log.flush_all().unwrap();

        // The device stream is the reference encoding, byte for byte.
        prop_assert_eq!(&dev.contents(), &reference, "device stream diverges for {:?}", kind);

        // And the stream decodes back to exactly the inserted records.
        let recs = log.reader().read_all().unwrap();
        prop_assert_eq!(recs.len(), sizes.len());
        for (i, rec) in recs.iter().enumerate() {
            prop_assert_eq!(rec.header.kind, RecordKind::Filler);
            prop_assert_eq!(rec.header.txn, i as u64);
            prop_assert_eq!(rec.header.prev_lsn, Lsn(i as u64));
            prop_assert_eq!(&rec.payload, &payload(i, sizes[i]));
            prop_assert!(rec.header.verify(&rec.payload));
        }
    }

    #[test]
    fn slot_typed_puts_match_slice_writes(
        vals in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        // put_u8/u16/u32/u64 must be byte-equivalent to one put_slice of
        // the little-endian concatenation.
        let mut flat = Vec::new();
        for v in &vals {
            flat.push(*v as u8);
            flat.extend_from_slice(&(*v as u16).to_le_bytes());
            flat.extend_from_slice(&(*v as u32).to_le_bytes());
            flat.extend_from_slice(&v.to_le_bytes());
        }

        let dev = Arc::new(SimDevice::new(Duration::ZERO));
        let log = build_log(BufferKind::Hybrid, Arc::clone(&dev));
        let mut slot = log.reserve(RecordKind::Filler, 1, Lsn::ZERO, flat.len());
        for v in &vals {
            let w = slot.writer();
            w.put_u8(*v as u8);
            w.put_u16(*v as u16);
            w.put_u32(*v as u32);
            w.put_u64(*v);
        }
        slot.release();
        log.flush_all().unwrap();

        let reference = reference_encoding(RecordKind::Filler, 1, Lsn::ZERO, &flat);
        prop_assert_eq!(dev.contents(), reference);
    }
}

#[test]
fn dropped_slot_does_not_wedge_the_release_chain() {
    // An abandoned reservation (e.g. a panicking serializer) must still
    // publish so successors release — but NOT under its original kind: a
    // CRC-valid Update with a garbage payload would wedge replay forever.
    // The slot is neutralized to an all-zero Filler record, which every
    // log consumer skips.
    for kind in BufferKind::ALL {
        let dev = Arc::new(SimDevice::new(Duration::ZERO));
        let log = build_log(kind, Arc::clone(&dev));
        log.insert(RecordKind::Filler, 1, b"before");
        {
            let mut slot = log.reserve(RecordKind::Filler, 2, Lsn(64), 100);
            slot.write(b"partial");
            // dropped here without release()
        }
        let after = log.insert(RecordKind::Filler, 3, b"after");
        log.flush_all().unwrap();
        let recs = log.reader().read_all().unwrap();
        assert_eq!(recs.len(), 3, "{kind:?}: all three records must publish");
        assert_eq!(recs[2].lsn, after);
        // The abandoned record is a neutral, CRC-valid, all-zero Filler —
        // no trace of the half-written Update survives.
        assert_eq!(recs[1].header.kind, RecordKind::Filler);
        assert_eq!(recs[1].header.txn, 0);
        assert_eq!(recs[1].header.prev_lsn, Lsn::ZERO);
        assert_eq!(recs[1].payload, vec![0u8; 100]);
        assert!(recs[1].header.verify(&recs[1].payload));
    }
}

#[test]
fn oversized_payload_rejected_before_any_lock_is_taken() {
    // A payload beyond MAX_PAYLOAD must panic on entry to reserve — before
    // the insert mutex is locked or LSN space handed out — so the log keeps
    // working afterwards instead of wedging every later insert.
    use aether_core::record::MAX_PAYLOAD;
    for kind in BufferKind::ALL {
        let dev = Arc::new(SimDevice::new(Duration::ZERO));
        let log = Arc::new(
            LogManager::builder()
                .buffer(kind)
                .config(aether_core::LogConfig::default().with_buffer_size(1 << 22))
                .device_instance(Arc::clone(&dev) as Arc<dyn aether_core::device::LogDevice>)
                .build(),
        );
        let log2 = Arc::clone(&log);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            log2.reserve(RecordKind::Filler, 1, Lsn::ZERO, MAX_PAYLOAD + 1);
        }));
        assert!(panicked.is_err(), "{kind:?}: oversized reserve must panic");
        // The log is not wedged: an ordinary insert still completes.
        let lsn = log.insert(RecordKind::Filler, 2, b"still alive");
        log.flush_all().unwrap();
        assert!(log.durable_lsn() > lsn, "{kind:?}: log wedged after panic");
    }
}

#[test]
#[should_panic(expected = "slot overflow")]
fn overfilling_a_slot_panics() {
    let dev = Arc::new(SimDevice::new(Duration::ZERO));
    let log = build_log(BufferKind::Baseline, dev);
    let mut slot = log.reserve(RecordKind::Filler, 1, Lsn::ZERO, 8);
    slot.write(&[0u8; 9]);
}

#[test]
fn empty_payload_record_roundtrips() {
    let dev = Arc::new(SimDevice::new(Duration::ZERO));
    let log = build_log(BufferKind::Delegated, Arc::clone(&dev));
    let slot = log.reserve(RecordKind::Filler, 7, Lsn(64), 0);
    assert_eq!(slot.end_lsn().raw() - slot.lsn().raw(), HEADER_SIZE as u64);
    slot.release();
    log.flush_all().unwrap();
    let recs = log.reader().read_all().unwrap();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].header.kind, RecordKind::Filler);
    assert!(recs[0].payload.is_empty());
}
