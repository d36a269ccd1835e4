//! One-record transactions (`Db::update_commit_run`, a `RecordKind::UpdateCommit`
//! record each) against crashes, torn tails, standbys and row locks, and the WAL
//! rule they depend on: a page is stored only once the log is durable past
//! its page LSN, because a redo-only record can never be undone.

use aether_core::device::{DeviceFault, FaultDevice, LogDevice, SimDevice};
use aether_core::{LogConfig, Lsn, RecordKind};
use aether_storage::lock::LockConfig;
use aether_storage::page::PageId;
use aether_storage::recovery::{recover_with_stats, Redo};
use aether_storage::replay::{standby_db, state_fingerprint};
use aether_storage::{
    CommitOutcome, CommitProtocol, CommitToken, CrashImage, Db, DbOptions, StorageError,
    StorageResult,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECORD: usize = 40;
const ROWS: u64 = 16;

fn rec(key: u64, fill: u8) -> Vec<u8> {
    let mut r = vec![fill; RECORD];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r
}

/// `key`'s overwrite as a one-record transaction, a run of one: its token,
/// and whether it still waits for the log.
fn update_commit(db: &Arc<Db>, key: u64, record: &[u8]) -> StorageResult<(CommitToken, bool)> {
    let mut out = [Ok(CommitToken::ZERO)];
    let run = db.update_commit_run(0, &[(key, record)], &mut out);
    let [done] = out;
    done.map(|token| (token, run.pending))
}

fn opts(protocol: CommitProtocol) -> DbOptions {
    DbOptions {
        protocol,
        log_config: LogConfig::default().with_buffer_size(1 << 20),
        ..DbOptions::default()
    }
}

/// A loaded database over `device`: keys `0..ROWS` hold fill 1.
fn loaded(opts: DbOptions, device: Arc<dyn LogDevice>) -> Arc<Db> {
    let db = Db::open_with_device(opts, device);
    db.create_table(RECORD, ROWS);
    for k in 0..ROWS {
        db.load(0, k, &rec(k, 1)).unwrap();
    }
    db.setup_complete();
    db
}

fn held_device() -> Arc<FaultDevice> {
    Arc::new(FaultDevice::new(
        Arc::new(SimDevice::new(Duration::ZERO)),
        &[],
    ))
}

/// The fill byte of `key` in a recovered database.
fn fill_after(image: CrashImage, protocol: CommitProtocol, key: u64) -> u8 {
    let (db, _) = recover_with_stats(image, opts(protocol)).unwrap();
    let v = db.snapshot_read(0, key).unwrap().unwrap()[8];
    db.log().shutdown();
    v
}

/// The page LSN the store holds for `key`'s page.
fn stored_lsn(db: &Db, key: u64) -> Lsn {
    let rid = db.table(0).unwrap().rid_of(key).unwrap();
    let page = PageId {
        table: 0,
        page_no: rid.page_no,
    };
    db.store().read(page).map_or(Lsn::ZERO, |(lsn, _)| lsn)
}

/// An update whose record is written but never synced, by an interactive
/// transaction's commit or by a one-record commit, then a page flush
/// (alone, or as part of a checkpoint cycle) while the sync is held, then a
/// crash: the flush waits for the log instead of storing the page, so the
/// crash image holds neither the record nor the page, and the row recovers
/// its old value.
#[test]
fn a_page_is_not_stored_before_its_log_record_is_durable() {
    for one_record in [false, true] {
        for checkpoint in [false, true] {
            let case = format!("one_record {one_record}, checkpoint {checkpoint}");
            let device = held_device();
            let db = loaded(opts(CommitProtocol::Pipelined), device.clone());
            let before = stored_lsn(&db, 1);
            device.arm(DeviceFault::HoldSync(None));
            let pending = if one_record {
                update_commit(&db, 1, &rec(1, 9)).unwrap().1
            } else {
                let mut txn = db.begin();
                db.update(&mut txn, 0, 1, &rec(1, 9)).unwrap();
                matches!(db.commit(txn).unwrap(), CommitOutcome::Pipelined(_))
            };
            assert!(pending, "{case}");
            let flusher = {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    if checkpoint {
                        db.checkpoint_and_truncate();
                    } else {
                        db.flush_pages();
                    }
                })
            };
            // The flush must still be waiting for the log when the bound
            // runs out; an early return shows at once.
            let bound = Instant::now() + Duration::from_millis(100);
            while !flusher.is_finished() && Instant::now() < bound {
                std::thread::sleep(Duration::from_millis(1));
            }
            let waited = !flusher.is_finished();
            let early = stored_lsn(&db, 1);
            let image = db.crash();
            // Released before any assertion: a held sync outlives a panic.
            device.release();
            flusher.join().unwrap();
            assert!(waited, "{case}: the flush did not wait for the log");
            assert_eq!(early, before, "{case}: page stored early");
            assert!(stored_lsn(&db, 1) > before, "{case}: stored once durable");
            assert_eq!(
                fill_after(image, CommitProtocol::Pipelined, 1),
                1,
                "{case}: an unsynced update reached the stored page"
            );
            db.log().shutdown();
        }
    }
}

/// On a poisoned log a dirty page whose record never hardened stays dirty
/// and unstored: its LSN can never be made durable.
#[test]
fn a_poisoned_log_stores_no_page_past_its_durable_end() {
    let device = held_device();
    let db = loaded(opts(CommitProtocol::Pipelined), device.clone());
    let before = stored_lsn(&db, 2);
    device.arm(DeviceFault::FailSync {
        nth: 1,
        times: u64::MAX,
        transient: false,
    });
    update_commit(&db, 2, &rec(2, 7)).unwrap();
    assert!(db.log().flush_all().is_err(), "the log poisons");
    db.flush_pages();
    assert_eq!(stored_lsn(&db, 2), before);
    assert_eq!(db.dpt_snapshot().len(), 1, "the page stays dirty");
    db.log().shutdown();
}

/// Interactive transactions and one-record commits over keys 0..ROWS,
/// then a last record, a one-record commit of `key`: returns its start and
/// end LSN and `key`'s fill byte before it.
fn mixed_work(db: &Arc<Db>, key: u64) -> (Lsn, Lsn, u8) {
    for i in 0..12u64 {
        let k = (i * 5) % ROWS;
        if i % 3 == 0 {
            let mut txn = db.begin();
            db.update(&mut txn, 0, k, &rec(k, 20 + i as u8)).unwrap();
            db.update(&mut txn, 0, (k + 1) % ROWS, &rec((k + 1) % ROWS, 40))
                .unwrap();
            if i % 2 == 0 {
                db.commit(txn).unwrap();
            } else {
                db.abort(txn).unwrap();
            }
        } else {
            update_commit(db, k, &rec(k, 60 + i as u8)).unwrap();
        }
    }
    let earlier = db.snapshot_read(0, key).unwrap().unwrap()[8];
    let start = db.log().released_lsn();
    let (token, pending) = update_commit(db, key, &rec(key, 99)).unwrap();
    assert!(!pending, "Baseline commits are durable on return");
    (start, token.lsn(), earlier)
}

/// Cut the log inside the final `UpdateCommit` at every byte: recovery
/// drops the torn record (the key keeps its earlier value, one winner
/// fewer), and a second crash and recovery give the same state.
#[test]
fn a_torn_final_update_commit_is_dropped_at_every_byte() {
    let db = loaded(
        opts(CommitProtocol::Baseline),
        Arc::new(SimDevice::new(Duration::ZERO)),
    );
    let key = 3;
    let (start, end, earlier) = mixed_work(&db, key);
    let whole = db.crash();
    let at = |lsn: Lsn| (lsn.raw() - whole.log_start.raw()) as usize;
    let cut_image = |len: usize| CrashImage {
        log_start: whole.log_start,
        log_bytes: whole.log_bytes[..len].to_vec(),
        store: whole.store.deep_clone(),
        schema: whole.schema.clone(),
    };
    let (_, full) = recover_with_stats(cut_image(at(end)), opts(CommitProtocol::Baseline)).unwrap();
    for cut in at(start)..at(end) {
        let (first, stats) =
            recover_with_stats(cut_image(cut), opts(CommitProtocol::Baseline)).unwrap();
        assert_eq!(stats.winners + 1, full.winners, "cut at {cut}");
        assert_eq!(first.snapshot_read(0, key).unwrap().unwrap()[8], earlier);
        let state = state_fingerprint(&first).unwrap();
        let image = first.crash();
        first.log().shutdown();
        let (second, _) = recover_with_stats(image, opts(CommitProtocol::Baseline)).unwrap();
        assert_eq!(state_fingerprint(&second).unwrap(), state, "cut at {cut}");
        second.log().shutdown();
    }
    db.log().shutdown();
}

/// A standby that replays a log of one-record commits and interactive
/// transactions (committed and rolled back) ends in the primary's state,
/// and so does restart recovery.
#[test]
fn a_standby_replaying_one_record_commits_matches_the_primary() {
    for protocol in CommitProtocol::ALL {
        let db = loaded(opts(protocol), Arc::new(SimDevice::new(Duration::ZERO)));
        let base = db.store().deep_clone();
        for i in 0..40u64 {
            let k = (i * 7) % ROWS;
            if i % 4 == 0 {
                let mut txn = db.begin();
                db.update(&mut txn, 0, k, &rec(k, i as u8)).unwrap();
                db.commit(txn).unwrap();
            } else {
                update_commit(&db, k, &rec(k, 100 + i as u8)).unwrap();
            }
        }
        db.log().flush_all().unwrap();
        let standby = standby_db(opts(protocol), base, &db.schema()).unwrap();
        let mut redo = Redo::new(Arc::clone(db.log().device()));
        redo.follow(&standby).unwrap();
        assert_eq!(
            redo.stats().winners,
            40,
            "{protocol:?}: one record a commit"
        );
        let primary = state_fingerprint(&db).unwrap();
        assert_eq!(
            state_fingerprint(&standby).unwrap(),
            primary,
            "{protocol:?}"
        );
        let (recovered, stats) = recover_with_stats(db.crash(), opts(protocol)).unwrap();
        assert_eq!(
            state_fingerprint(&recovered).unwrap(),
            primary,
            "{protocol:?}"
        );
        assert_eq!(stats.winners, 40, "{protocol:?}");
        recovered.log().shutdown();
        db.log().shutdown();
    }
}

/// A one-record write of a row an interactive transaction holds waits for
/// its X lock, and logs only once it has it: after the holder's commit.
#[test]
fn a_one_record_write_waits_for_the_row_lock() {
    let db = loaded(
        opts(CommitProtocol::Baseline),
        Arc::new(SimDevice::new(Duration::ZERO)),
    );
    let mut holder = db.begin();
    let holder_id = holder.id;
    db.update(&mut holder, 0, 5, &rec(5, 30)).unwrap();
    std::thread::scope(|s| {
        let writer = s.spawn(|| update_commit(&db, 5, &rec(5, 31)).unwrap());
        while db.locks().blocked_acquires() == 0 {
            std::thread::yield_now();
        }
        let logged = db.log().released_lsn();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(db.log().released_lsn(), logged, "logged while waiting");
        db.commit(holder).unwrap();
        let (token, _) = writer.join().unwrap();
        assert!(token.lsn() > logged);
    });
    assert_eq!(db.snapshot_read(0, 5).unwrap().unwrap()[8], 31);
    let last: Vec<(RecordKind, u64)> = db
        .log()
        .reader()
        .read_all()
        .unwrap()
        .iter()
        .map(|r| (r.header.kind, r.header.txn))
        .rev()
        .take(2)
        .collect();
    assert_eq!(last[0].0, RecordKind::UpdateCommit);
    assert_eq!(last[1], (RecordKind::UpdateCommit, holder_id));
    assert_eq!(db.locks().granted_count(), 0);
    db.log().shutdown();
}

/// A one-record write that times out on the row lock logs nothing and
/// leaves the holder's value.
#[test]
fn a_one_record_write_that_times_out_logs_nothing() {
    let o = DbOptions {
        lock_config: LockConfig {
            timeout: Duration::from_millis(30),
        },
        ..opts(CommitProtocol::Elr)
    };
    let db = loaded(o, Arc::new(SimDevice::new(Duration::ZERO)));
    let mut holder = db.begin();
    db.update(&mut holder, 0, 6, &rec(6, 50)).unwrap();
    let logged = db.log().released_lsn();
    let refused = update_commit(&db, 6, &rec(6, 51));
    assert!(
        matches!(refused, Err(StorageError::LockTimeout { .. })),
        "{refused:?}"
    );
    assert_eq!(
        db.log().released_lsn(),
        logged,
        "a refused write logs nothing"
    );
    assert_eq!(db.locks().granted_count(), 1, "only the holder's lock");
    db.commit(holder).unwrap();
    assert_eq!(db.snapshot_read(0, 6).unwrap().unwrap()[8], 50);
    // A missing key and a wrong-sized record are refused before any record.
    assert!(matches!(
        update_commit(&db, ROWS + 5, &rec(ROWS + 5, 1)),
        Err(StorageError::KeyNotFound { .. })
    ));
    assert!(update_commit(&db, 1, &[0u8; 3]).is_err());
    assert_eq!(db.locks().granted_count(), 0);
    db.log().shutdown();
}
