//! Runs of one-record transactions (`Db::update_commit_run`): statements
//! that fail log nothing, a run never waits on a lock behind its own, a
//! checkpoint never captures a run's page clean behind its records, and a
//! torn tail inside a run's range recovers its prefix.

use aether_core::device::{DeviceFault, FaultDevice, LogDevice, SimDevice};
use aether_core::record::on_log_size;
use aether_core::runtime::read;
use aether_core::{LogConfig, Lsn};
use aether_storage::recovery::recover_with_stats;
use aether_storage::replay::state_fingerprint;
use aether_storage::{
    CommitProtocol, CommitToken, Db, DbOptions, StorageError, StorageResult, RUN_MAX,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECORD: usize = 40;
const ROWS: u64 = 64;
/// An `UpdateCommit` record's bytes on the log for a `RECORD`-byte row.
const REC_LEN: u64 = on_log_size(12 + 1 + RECORD) as u64;

fn rec(key: u64, fill: u8) -> Vec<u8> {
    let mut r = vec![fill; RECORD];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r
}

fn opts(protocol: CommitProtocol) -> DbOptions {
    DbOptions {
        protocol,
        log_config: LogConfig::default().with_buffer_size(1 << 20),
        ..DbOptions::default()
    }
}

/// A loaded database over `device`: keys `0..ROWS` hold fill 1, every page
/// stored and clean.
fn loaded(opts: DbOptions, device: Arc<dyn LogDevice>) -> Arc<Db> {
    let db = Db::open_with_device(opts, device);
    db.create_table(RECORD, ROWS);
    for k in 0..ROWS {
        db.load(0, k, &rec(k, 1)).unwrap();
    }
    db.setup_complete();
    db
}

fn fill(db: &Db, key: u64) -> u8 {
    db.snapshot_read(0, key).unwrap().unwrap()[8]
}

fn inserts(db: &Db) -> u64 {
    db.telemetry_snapshot("runs")
        .counter("log.inserts")
        .unwrap()
}

fn outcomes() -> [StorageResult<CommitToken>; RUN_MAX] {
    std::array::from_fn(|_| Ok(CommitToken::ZERO))
}

/// A key the table does not hold, in the middle of a run: that statement
/// fails with `KeyNotFound` and logs nothing; every other one commits.
#[test]
fn a_missing_key_in_a_run_logs_nothing_and_the_rest_commit() {
    for protocol in CommitProtocol::ALL {
        let db = loaded(opts(protocol), Arc::new(SimDevice::new(Duration::ZERO)));
        let records: Vec<Vec<u8>> = (0..5).map(|k| rec(k, 7)).collect();
        let keys = [0, 1, ROWS + 5, 3, 4];
        let items: Vec<(u64, &[u8])> = keys
            .iter()
            .zip(&records)
            .map(|(&k, r)| (k, &r[..]))
            .collect();
        let before = inserts(&db);
        let mut out = outcomes();
        let run = db.update_commit_run(0, &items, &mut out);
        assert_eq!(run.done, 5, "{protocol:?}");
        assert_eq!(
            inserts(&db) - before,
            4,
            "{protocol:?}: one record a commit"
        );
        assert!(
            matches!(out[2], Err(StorageError::KeyNotFound { key, .. }) if key == ROWS + 5),
            "{protocol:?}: {:?}",
            out[2]
        );
        let mut last = Lsn::ZERO;
        for i in [0, 1, 3, 4] {
            let token = out[i].as_ref().unwrap().lsn();
            assert!(token > last, "{protocol:?}: tokens in statement order");
            last = token;
        }
        db.log().flush_all().unwrap();
        for k in [0, 1, 3, 4] {
            assert_eq!(fill(&db, k), 7, "{protocol:?}: key {k}");
        }
        assert_eq!(db.locks().granted_count(), 0, "{protocol:?}");
        db.log().shutdown();
    }
}

/// The same key twice: the second statement's lock is refused, not queued
/// behind the run's own, so the run ends before it and it runs next.
#[test]
fn a_key_twice_ends_the_run_before_the_second() {
    let db = loaded(
        opts(CommitProtocol::Pipelined),
        Arc::new(SimDevice::new(Duration::ZERO)),
    );
    let (a, b, c) = (rec(5, 2), rec(6, 3), rec(5, 4));
    let items: [(u64, &[u8]); 3] = [(5, &a), (6, &b), (5, &c)];
    let started = Instant::now();
    let mut out = outcomes();
    let run = db.update_commit_run(0, &items, &mut out);
    assert_eq!(run.done, 2);
    assert!(out[..2].iter().all(|o| o.is_ok()), "{out:?}");
    let run = db.update_commit_run(0, &items[2..], &mut out);
    assert_eq!(run.done, 1);
    assert!(out[0].is_ok(), "{:?}", out[0]);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "waited on itself"
    );
    db.log().flush_all().unwrap();
    assert_eq!((fill(&db, 5), fill(&db, 6)), (4, 3));
    db.log().shutdown();
}

/// A checkpoint begun while a run waits for its page latch: the run's
/// records must come after the checkpoint's begin, because the checkpoint
/// may capture the page clean, and redo starts at its begin for a page it
/// did not list. A run that reserves its log range before it latches its
/// pages puts its records before that begin, and a crash then loses them
/// whenever the capture wins the latch. Then a crash and recovery keep
/// both acked commits.
#[test]
fn a_checkpoint_begun_while_a_run_waits_for_its_latch_keeps_its_commits() {
    let device = Arc::new(SimDevice::new(Duration::ZERO));
    let db = loaded(opts(CommitProtocol::Baseline), device);
    let page = db.table(0).unwrap().rid_of(1).unwrap().page_no;
    let latch = read(db.table(0).unwrap().frame(page));
    let run = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let (a, b) = (rec(1, 9), rec(2, 9));
            let mut out = outcomes();
            let run = db.update_commit_run(0, &[(1, &a[..]), (2, &b[..])], &mut out);
            assert_eq!(run.done, 2);
            let [first, second, ..] = out;
            (first.unwrap().lsn(), second.unwrap().lsn())
        })
    };
    // The run holds its row locks, so it has got as far as its latches.
    let bound = Instant::now() + Duration::from_secs(5);
    while db.locks().granted_count() < 2 && Instant::now() < bound {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(20));
    let before = inserts(&db);
    let checkpoint = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || db.checkpoint())
    };
    // Its begin record is in; its capture waits for the page.
    while inserts(&db) == before && Instant::now() < bound {
        std::thread::yield_now();
    }
    drop(latch);
    let (first_end, _) = run.join().unwrap();
    let begin = checkpoint.join().unwrap();
    let first = Lsn(first_end.raw() - REC_LEN);
    assert!(
        begin < first,
        "checkpoint begin {begin:?} follows the run's first record at {first:?}"
    );
    let (recovered, _) = recover_with_stats(db.crash(), opts(CommitProtocol::Baseline)).unwrap();
    assert_eq!((fill(&recovered, 1), fill(&recovered, 2)), (9, 9));
    recovered.log().shutdown();
    db.log().shutdown();
}

/// A run acked whole, then a run whose bytes are written and not synced,
/// and a crash that keeps every prefix of them: recovery keeps each record
/// the crash kept whole and drops the rest, every acked statement is
/// present, and recovering the recovered state again changes nothing.
#[test]
fn a_torn_tail_inside_a_run_recovers_its_prefix() {
    const N: u64 = 6;
    let device = Arc::new(FaultDevice::new(
        Arc::new(SimDevice::new(Duration::ZERO)),
        &[],
    ));
    let opts = opts(CommitProtocol::Pipelined);
    let db = loaded(opts.clone(), device.clone() as Arc<dyn LogDevice>);
    let run_of = |fill: u8| {
        let records: Vec<Vec<u8>> = (0..N).map(|k| rec(k, fill)).collect();
        let items: Vec<(u64, &[u8])> = (0..N).zip(&records).map(|(k, r)| (k, &r[..])).collect();
        let mut out = outcomes();
        let run = db.update_commit_run(0, &items, &mut out);
        assert_eq!(run.done, N as usize);
        assert!(run.pending);
        out.map(|o| o.unwrap())
    };
    let acked = run_of(2);
    db.log().flush_until(acked[N as usize - 1].lsn()).unwrap();
    assert_eq!(device.unsynced_len(), 0, "an acked commit is synced");
    device.arm(DeviceFault::HoldSync(None));
    let synced = device.len();
    let torn = run_of(3);
    device.wait_blocked(1);
    let written = device.len();
    assert_eq!(written - synced, N * REC_LEN, "the run is written whole");
    for keep in 0..=written - synced {
        device.arm(DeviceFault::CrashKeeps(keep));
        let (r1, _) = recover_with_stats(db.crash(), opts.clone()).unwrap();
        for k in 0..N {
            let whole = torn[k as usize].lsn().raw() <= synced + keep;
            let want = if whole { 3 } else { 2 };
            assert_eq!(fill(&r1, k), want, "key {k}, crash keeps {keep}");
        }
        let (r2, _) = recover_with_stats(r1.crash(), opts.clone()).unwrap();
        assert_eq!(
            state_fingerprint(&r2).unwrap(),
            state_fingerprint(&r1).unwrap(),
            "crash keeps {keep}: recovery is not a fixed point"
        );
        r1.log().shutdown();
        r2.log().shutdown();
    }
    device.release();
    db.log().shutdown();
}
