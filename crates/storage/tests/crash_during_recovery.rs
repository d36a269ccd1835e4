//! Crash during recovery: power-cut the log of a recovering database at
//! every byte and prove recovery converges.
//!
//! A transaction is logged once, at its commit, as one redo-only record
//! that holds every cell it writes, and recovery only redoes: it appends
//! nothing, so a crash during recovery leaves the log it started from, and
//! recovering that again is the same scan. What a crash can cut is the
//! redo-only suffix itself: the commit records past the last flushed
//! page. These tests cut that suffix at *every byte* and assert that each
//! cut recovers to the state of the commits whole before it — each
//! multi-key transaction all or nothing, open transactions nowhere — and
//! that recovering the recovered image again changes nothing.

use aether_core::{BufferKind, DeviceKind, LogConfig};
use aether_storage::recovery::recover_with_stats;
use aether_storage::replay::state_fingerprint;
use aether_storage::{CommitProtocol, CrashImage, Db, DbOptions};
use std::sync::Arc;

const VAL: usize = 40;
/// Committed transactions, two keys each, on one page.
const COMMITS: u64 = 4;

fn opts() -> DbOptions {
    DbOptions {
        protocol: CommitProtocol::Baseline,
        device: DeviceKind::Ram,
        buffer: BufferKind::Hybrid,
        log_config: LogConfig::default().with_buffer_size(1 << 20),
        ..DbOptions::default()
    }
}

fn rec(fill: u8) -> Vec<u8> {
    vec![fill; VAL]
}

/// A database whose last `COMMITS` transactions each committed two keys
/// in one record, past the last page flush, with two multi-update
/// transactions still open at the crash. Returns it and the log's length
/// before those commits.
fn crashed_db() -> (Arc<Db>, usize) {
    let db = Db::open(opts());
    db.create_table(VAL, 16);
    for k in 0..16u64 {
        db.load(0, k, &rec(1)).unwrap();
    }
    db.setup_complete();
    let base_len = db.crash().log_bytes.len();
    for i in 0..COMMITS {
        let mut t = db.begin();
        for k in [2 * i, 2 * i + 1] {
            db.update_with(&mut t, 0, k, |r| r[8] = 100 + i as u8)
                .unwrap();
        }
        db.commit(t).unwrap();
    }
    // Two open transactions, three updates each: nothing of them is
    // logged or applied.
    let mut o1 = db.begin();
    let mut o2 = db.begin();
    for k in 8..11u64 {
        db.update_with(&mut o1, 0, k, |r| r[8] = 200).unwrap();
        db.update_with(&mut o2, 0, k + 3, |r| r[8] = 201).unwrap();
    }
    db.log().flush_all().unwrap();
    std::mem::forget(o1);
    std::mem::forget(o2);
    (db, base_len)
}

/// The image with its log cut to `len` bytes.
fn cut(image: &CrashImage, len: usize) -> CrashImage {
    CrashImage {
        log_start: image.log_start,
        log_bytes: image.log_bytes[..len].to_vec(),
        store: image.store.deep_clone(),
        schema: image.schema.clone(),
    }
}

#[test]
fn recovery_of_a_recovered_image_is_idempotent() {
    let (db, _) = crashed_db();
    let image = db.crash();
    let full_len = image.log_bytes.len();
    let (r1, s1) = recover_with_stats(image, opts()).unwrap();
    assert_eq!(s1.winners, COMMITS as usize);
    let want = state_fingerprint(&r1).unwrap();
    for k in 8..14u64 {
        assert_eq!(r1.snapshot_read(0, k).unwrap().unwrap()[8], 1, "key {k}");
    }

    // Recovery wrote nothing: a crash right after it recovers the same
    // log by the same scan to the same state.
    let image = r1.crash();
    assert_eq!(
        image.log_bytes.len(),
        full_len,
        "recovery appended to the log"
    );
    let (r2, s2) = recover_with_stats(image, opts()).unwrap();
    assert_eq!(s2, s1);
    assert_eq!(state_fingerprint(&r2).unwrap(), want);
}

#[test]
fn crash_at_every_byte_of_a_redo_only_suffix_converges() {
    let (db, base_len) = crashed_db();
    let whole = db.crash();
    let full_len = whole.log_bytes.len();
    assert!(full_len > base_len, "the commits logged");
    let (_, full) = recover_with_stats(cut(&whole, full_len), opts()).unwrap();

    for len in base_len..=full_len {
        let (r1, s1) = recover_with_stats(cut(&whole, len), opts())
            .unwrap_or_else(|e| panic!("cut at byte {len}/{full_len}: recovery failed: {e:?}"));
        // The commits whole before the cut, and only those, are in.
        let done = s1.winners - (full.winners - COMMITS as usize);
        for i in 0..COMMITS {
            let want = if i < done as u64 { 100 + i as u8 } else { 1 };
            for k in [2 * i, 2 * i + 1] {
                let v = r1.snapshot_read(0, k).unwrap().unwrap();
                assert_eq!(v[8], want, "key {k} at cut {len} ({s1:?})");
            }
        }
        let state = state_fingerprint(&r1).unwrap();
        let (r2, s2) = recover_with_stats(r1.crash(), opts()).unwrap();
        assert_eq!(s2.winners, s1.winners, "cut at {len}");
        assert_eq!(state_fingerprint(&r2).unwrap(), state, "cut at {len}");
    }
}

#[test]
fn a_cut_suffix_recovers_deterministically_and_accepts_new_work() {
    let (db, base_len) = crashed_db();
    let whole = db.crash();
    let len = base_len + (whole.log_bytes.len() - base_len) / 2;
    let (r2a, s2a) = recover_with_stats(cut(&whole, len), opts()).unwrap();
    let (r2b, s2b) = recover_with_stats(cut(&whole, len), opts()).unwrap();
    assert_eq!(s2a, s2b, "same image must recover by the same path");
    assert_eq!(
        state_fingerprint(&r2a).unwrap(),
        state_fingerprint(&r2b).unwrap()
    );
    // And the result is a fully live database.
    let mut t = r2a.begin();
    r2a.update_with(&mut t, 0, 15, |r| r[8] = 7).unwrap();
    r2a.commit(t).unwrap();
    assert_eq!(r2a.snapshot_read(0, 15).unwrap().unwrap()[8], 7);
}
