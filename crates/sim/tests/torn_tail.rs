//! Exhaustive torn-write recovery: clip the durable log mid-frame at
//! *every byte offset* of the last record and assert recovery always
//! truncates cleanly at the preceding record boundary — never a partial
//! record, never a dead tail, never a state that differs from the
//! boundary-clipped reference.

use aether_core::device::{LogDevice, SimDevice};
use aether_core::{BufferKind, LogConfig};
use aether_storage::recovery::recover_with_stats;
use aether_storage::replay::state_fingerprint;
use aether_storage::{CommitProtocol, CrashImage, Db, DbOptions};
use std::sync::Arc;
use std::time::Duration;

fn opts() -> DbOptions {
    DbOptions {
        protocol: CommitProtocol::Baseline,
        buffer: BufferKind::Hybrid,
        log_config: LogConfig::default().with_buffer_size(1 << 20),
        ..DbOptions::default()
    }
}

fn record(key: u64, counter: u64) -> Vec<u8> {
    let mut r = vec![0u8; 40];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&counter.to_le_bytes());
    r
}

fn counter_of(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[8..16].try_into().unwrap())
}

/// Crash image with the log clipped to `cut` stream bytes — the torn-write
/// model: the device lost everything at and beyond the tear.
fn clipped_image(db: &Db, cut: u64) -> CrashImage {
    let mut image = db.crash();
    let keep = (cut - image.log_start.raw()) as usize;
    image.log_bytes.truncate(keep);
    image
}

#[test]
fn every_tear_offset_in_last_record_recovers_to_the_boundary() {
    let device = Arc::new(SimDevice::new(Duration::ZERO));
    let db = Db::open_with_device(opts(), Arc::clone(&device) as Arc<dyn LogDevice>);
    db.create_table(40, 4);
    for k in 0..4u64 {
        db.load(0, k, &record(k, 0)).unwrap();
    }
    db.setup_complete();
    // A few committed rounds; the final commit record is the tear target.
    for round in 1..=3u64 {
        for k in 0..4u64 {
            let mut txn = db.begin();
            db.update(&mut txn, 0, k, &record(k, round)).unwrap();
            db.commit(txn).unwrap();
        }
    }
    db.log().flush_all().unwrap();

    let records = db.log().reader().read_all().unwrap();
    let last = records.last().expect("log has records");
    let boundary = last.lsn.raw();
    let end = last.next_lsn().raw();
    assert!(end > boundary + 1, "last record must span multiple bytes");

    // Reference: recovery from the log clipped exactly at the boundary —
    // the last record cleanly absent.
    let (reference, ref_stats) = recover_with_stats(clipped_image(&db, boundary), opts()).unwrap();
    let ref_fp = state_fingerprint(&reference).unwrap();

    // Every tear offset strictly inside the last record must recover to
    // exactly the reference: a partial record is indistinguishable from no
    // record.
    for cut in boundary + 1..end {
        let (recovered, stats) = recover_with_stats(clipped_image(&db, cut), opts())
            .unwrap_or_else(|e| panic!("cut at byte {cut}: recovery failed: {e:?}"));
        assert_eq!(
            stats.scanned, ref_stats.scanned,
            "cut at byte {cut}: torn record partially scanned"
        );
        assert_eq!(
            state_fingerprint(&recovered).unwrap(),
            ref_fp,
            "cut at byte {cut}: state differs from boundary-clipped reference"
        );
        // The recovered log was truncated at the boundary: a fresh scan
        // parses cleanly and the first post-recovery append lands at the
        // boundary, not after dead tail bytes.
        let recovered_records =
            recovered.log().reader().read_all().unwrap_or_else(|e| {
                panic!("cut at byte {cut}: recovered log has a dead tail: {e:?}")
            });
        for w in recovered_records.windows(2) {
            assert_eq!(
                w[1].lsn,
                w[0].next_lsn(),
                "cut at byte {cut}: recovered log is not dense"
            );
        }
        if let Some(first_new) = recovered_records.iter().find(|r| r.lsn.raw() >= boundary) {
            assert_eq!(
                first_new.lsn.raw(),
                boundary,
                "cut at byte {cut}: post-recovery records must start at the truncation boundary"
            );
        }
    }

    // Sanity: a cut at the full length keeps the last record (the winner
    // stays a winner), so the final round's values survive.
    let (full, _) = recover_with_stats(clipped_image(&db, end), opts()).unwrap();
    for k in 0..4u64 {
        assert_eq!(
            counter_of(&full.snapshot_read(0, k).unwrap().unwrap()),
            3,
            "full-length image must recover the final round"
        );
    }
    assert_ne!(
        state_fingerprint(&full).unwrap(),
        ref_fp,
        "the last record must be semantically meaningful for this test to bite"
    );
}
