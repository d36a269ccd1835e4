//! A transaction is logged once, at its commit: one redo-only
//! `UpdateCommit` record that holds every cell it writes. Its bytes are an
//! auto-commit's, its cells reach the pages only with it, recovery and a
//! standby apply every cell of it, and a write set one record cannot hold
//! is refused at the write that would overflow it.

use aether_core::device::SimDevice;
use aether_core::record::Record;
use aether_core::{LogConfig, Lsn, RecordKind};
use aether_storage::recovery::recover_with_stats;
use aether_storage::replay::{apply_record, standby_db, state_fingerprint};
use aether_storage::{CommitProtocol, CommitToken, Db, DbOptions, StorageError};
use std::sync::Arc;
use std::time::Duration;

const RECORD: usize = 40;
const ROWS: u64 = 400;

fn rec(key: u64, fill: u8) -> Vec<u8> {
    let mut r = vec![fill; RECORD];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r
}

fn opts(ring: usize) -> DbOptions {
    DbOptions {
        protocol: CommitProtocol::Baseline,
        log_config: LogConfig::default().with_buffer_size(ring),
        ..DbOptions::default()
    }
}

/// A loaded database over a device that keeps its bytes: keys `0..ROWS`
/// hold fill 1.
fn loaded(ring: usize) -> Arc<Db> {
    let db = Db::open_with_device(opts(ring), Arc::new(SimDevice::new(Duration::ZERO)));
    db.create_table(RECORD, ROWS);
    for k in 0..ROWS {
        db.load(0, k, &rec(k, 1)).unwrap();
    }
    db.setup_complete();
    db
}

/// The records logged from `from` on.
fn records_from(db: &Db, from: Lsn) -> Vec<Record> {
    db.log().flush_all().unwrap();
    db.log()
        .reader()
        .read_all()
        .unwrap()
        .into_iter()
        .filter(|r| r.lsn >= from)
        .collect()
}

/// The on-log bytes of `r`, its transaction id and checksum zeroed (the
/// checksum covers the id).
fn bytes_but_txn(db: &Db, r: &Record) -> Vec<u8> {
    let mut out = vec![0u8; r.header.total_len as usize];
    db.log().device().read_at(r.lsn.raw(), &mut out).unwrap();
    out[12..16].fill(0);
    out[16..24].fill(0);
    out
}

#[test]
fn a_one_update_transaction_logs_an_auto_commits_record() {
    let db = loaded(1 << 20);
    let mark = db.log().released_lsn();
    let mut txn = db.begin();
    let id = txn.id;
    db.update(&mut txn, 0, 7, &rec(7, 9)).unwrap();
    assert_eq!(
        db.log().released_lsn(),
        mark,
        "an update logged before commit"
    );
    assert_eq!(
        db.snapshot_read(0, 7).unwrap().unwrap()[8],
        1,
        "applied early"
    );
    db.commit(txn).unwrap();
    let interactive = records_from(&db, mark);
    assert_eq!(interactive.len(), 1, "{interactive:?}");
    assert_eq!(interactive[0].header.kind, RecordKind::UpdateCommit);
    assert_eq!(interactive[0].header.txn, id);

    let mark = db.log().released_lsn();
    let mut out = [Ok(CommitToken::ZERO)];
    db.update_commit_run(0, &[(7, rec(7, 9).as_slice())], &mut out);
    out[0].as_ref().unwrap();
    let auto = records_from(&db, mark);
    assert_eq!(auto.len(), 1);
    assert_ne!(auto[0].header.txn, id);
    assert_eq!(
        bytes_but_txn(&db, &interactive[0]),
        bytes_but_txn(&db, &auto[0]),
        "an interactive commit's record differs from an auto-commit's"
    );
}

#[test]
fn a_recovered_two_key_transaction_on_one_page_applies_both_cells() {
    let db = loaded(1 << 20);
    let base = db.store().deep_clone();
    let schema = db.schema();
    let mark = db.log().released_lsn();
    let mut txn = db.begin();
    // Keys 5 and 6 share page 0; key 300 is on another page.
    for (k, fill) in [(6, 60), (300, 30), (5, 50)] {
        db.update(&mut txn, 0, k, &rec(k, fill)).unwrap();
    }
    db.commit(txn).unwrap();
    let logged = records_from(&db, mark);
    assert_eq!(logged.len(), 1, "one record a transaction");

    // Restart recovery over the stored pages, which predate the record.
    let (recovered, stats) = recover_with_stats(db.crash(), opts(1 << 20)).unwrap();
    assert_eq!(stats.redone, 1);
    for (k, fill) in [(5, 50), (6, 60), (300, 30)] {
        assert_eq!(
            recovered.snapshot_read(0, k).unwrap().unwrap()[8],
            fill,
            "key {k} not redone"
        );
    }
    assert_eq!(
        state_fingerprint(&recovered).unwrap(),
        state_fingerprint(&db).unwrap()
    );

    // A standby applies it once, and skips it the second time.
    let standby = standby_db(opts(1 << 20), base, &schema).unwrap();
    let all = db.log().reader().read_all().unwrap();
    for r in &all {
        apply_record(&standby, r).unwrap();
    }
    assert_eq!(
        state_fingerprint(&standby).unwrap(),
        state_fingerprint(&db).unwrap()
    );
    assert!(
        !apply_record(&standby, &logged[0]).unwrap(),
        "applied twice"
    );
}

#[test]
fn a_write_set_one_record_cannot_hold_is_refused_at_the_overflowing_write() {
    // A 64 KiB ring: one reservation takes at most 8 KiB, so a commit
    // record holds 8160 payload bytes, 153 entries of 12 + 41 bytes.
    let db = loaded(64 << 10);
    let mark = db.log().released_lsn();
    let mut txn = db.begin();
    let mut written = 0;
    let refused = loop {
        match db.update(&mut txn, 0, written, &rec(written, 7)) {
            Ok(()) => written += 1,
            Err(e) => break e,
        }
    };
    assert_eq!(written, 153);
    assert!(
        matches!(
            refused,
            StorageError::WriteSetFull {
                bytes: 8162,
                limit: 8160
            }
        ),
        "{refused:?}"
    );
    assert!(!refused.is_retryable());
    // A refused write ends nothing, and nothing of it was kept: the
    // transaction reads the committed value, and an overwrite of a key it
    // holds still fits.
    assert_eq!(db.read(&mut txn, 0, written).unwrap()[8], 1);
    db.update(&mut txn, 0, 0, &rec(0, 8)).unwrap();
    assert_eq!(db.log().released_lsn(), mark, "logged before commit");
    db.commit(txn).unwrap();

    let logged = records_from(&db, mark);
    assert_eq!(logged.len(), 1);
    assert_eq!(logged[0].header.payload_len, 8109);
    assert_eq!(db.snapshot_read(0, 0).unwrap().unwrap()[8], 8);
    assert_eq!(db.snapshot_read(0, 152).unwrap().unwrap()[8], 7);
    assert_eq!(db.snapshot_read(0, written).unwrap().unwrap()[8], 1);
    assert_eq!(db.locks().granted_count(), 0);
}
