//! Allocations per replayed and recovered record, counted: a counting
//! global allocator brackets the standby's redo, restart recovery and a
//! rollback, and checks what moved.
//!
//! The log is a checkpoint, then auto-commit updates with an aborted
//! two-key transaction every `ABORT_EVERY`, which logs nothing. A
//! standby's redo (`Redo::follow`) reads the log through `LogReader`, whose
//! copy of each non-empty payload is one allocation; the page redo decodes
//! each commit record in place and reads the current cell's key under the
//! frame lock, so beyond those copies it allocates nothing. Restart
//! recovery runs the same loop, and opening the recovered database is the
//! rest: about one allocation per record. A rollback drops the
//! transaction's write set and allocates nothing.
//!
//! Its own integration-test binary, like `alloc_txn.rs`: the counting
//! allocator is process-global, and a single `#[test]` keeps other tests'
//! allocations out of the window.

use aether_core::device::NullDevice;
use aether_core::reader::LogReader;
use aether_core::record::{Record, RecordKind};
use aether_core::{DeviceKind, LogConfig};
use aether_storage::recovery::{recover_with_stats, Redo};
use aether_storage::replay::{standby_db, state_fingerprint};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator wrapper that counts allocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) made while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (
        out,
        ALLOCS.load(Ordering::SeqCst) + REALLOCS.load(Ordering::SeqCst),
    )
}

const RECORD: usize = 100;
const ROWS: u64 = 4096;
const UPDATES: u64 = 20_000;
const ABORT_EVERY: u64 = 100;
const WARM_UP: u64 = 256;
const ABORTS: u64 = 2000;

fn record(key: u64, fill: u8) -> Vec<u8> {
    let mut r = vec![fill; RECORD];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r
}

/// A scattered key for transaction `i`: consecutive transactions touch
/// different pages.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % ROWS
}

fn opts(device: DeviceKind) -> DbOptions {
    DbOptions {
        protocol: CommitProtocol::Baseline,
        device,
        log_config: LogConfig::default().with_buffer_size(8 << 20),
        ..DbOptions::default()
    }
}

fn loaded(db: &Db) {
    db.create_table(RECORD, ROWS);
    for k in 0..ROWS {
        db.load(0, k, &record(k, 1)).unwrap();
    }
    db.setup_complete();
}

/// A two-key transaction `i`, left open.
fn two_keys(db: &Db, i: u64, rec: &[u8]) -> aether_storage::Transaction {
    let mut txn = db.begin();
    db.update(&mut txn, 0, key(i), rec).unwrap();
    db.update(&mut txn, 0, (key(i) + 1) % ROWS, rec).unwrap();
    txn
}

/// Allocations per commit record a standby applies beyond the reader's
/// payload copies, and per record restart recovery scans, over one log.
fn replay_and_recovery() -> (f64, f64) {
    let primary = Db::open(opts(DeviceKind::Ram));
    loaded(&primary);
    let base = primary.store().deep_clone();
    let schema = primary.schema();
    for i in 0..UPDATES {
        let rec = record(key(i), (i % 200) as u8);
        let mut txn = primary.begin();
        primary.update(&mut txn, 0, key(i), &rec).unwrap();
        primary.commit(txn).unwrap();
        if i % ABORT_EVERY == 0 {
            primary.abort(two_keys(&primary, i, &rec)).unwrap();
        }
    }
    primary.log().flush_all().unwrap();
    let mut reader = LogReader::new(Arc::clone(primary.log().device()));
    let records: Vec<Record> = std::iter::from_fn(|| reader.next_record().unwrap()).collect();
    let cells = records
        .iter()
        .filter(|r| r.header.kind == RecordKind::UpdateCommit)
        .count();
    assert_eq!(cells as u64, UPDATES, "a rollback logs nothing");

    let copies = records.iter().filter(|r| !r.payload.is_empty()).count() as u64;
    let standby = standby_db(opts(DeviceKind::Ram), base, &schema).unwrap();
    let mut redo = Redo::new(Arc::clone(primary.log().device()));
    let ((), n) = counted(|| redo.follow(&standby).unwrap());
    assert_eq!(redo.stats().scanned, records.len());
    assert_eq!(
        redo.stats().redone,
        cells,
        "every cell record is newer than the base"
    );
    assert_eq!(
        state_fingerprint(&standby).unwrap(),
        state_fingerprint(&primary).unwrap()
    );
    let per_replayed = n.saturating_sub(copies) as f64 / cells as f64;

    let image = primary.crash();
    let ((recovered, stats), n) =
        counted(|| recover_with_stats(image, opts(DeviceKind::Ram)).unwrap());
    assert_eq!(stats.scanned, records.len());
    assert_eq!(
        state_fingerprint(&recovered).unwrap(),
        state_fingerprint(&primary).unwrap()
    );
    (per_replayed, n as f64 / stats.scanned as f64)
}

/// Allocations per `Db::abort` of a two-key transaction, counted around
/// the abort only, over a discarding device.
fn per_abort() -> f64 {
    let db = Db::open_with_device(opts(DeviceKind::Null), Arc::new(NullDevice::new()));
    loaded(&db);
    let rec = record(0, 7);
    for i in 0..WARM_UP {
        db.abort(two_keys(&db, i, &rec)).unwrap();
    }
    let mut total = 0;
    for i in WARM_UP..WARM_UP + ABORTS {
        let txn = two_keys(&db, i, &rec);
        let ((), n) = counted(|| db.abort(txn).unwrap());
        total += n;
    }
    total as f64 / ABORTS as f64
}

#[test]
fn replay_recovery_and_rollback_allocate_only_the_readers_copy() {
    let (replayed, recovered) = replay_and_recovery();
    let aborted = per_abort();
    // (what, measured, ceiling): recovery's one is `LogReader`'s payload
    // copy, made once per record it scans.
    let table = [
        (
            "standby redo beyond the reader's copies, per commit record",
            replayed,
            0.0,
        ),
        ("recover_with_stats, per scanned record", recovered, 1.05),
        ("Db::abort of a two-key transaction", aborted, 0.0),
    ];
    let mut failed = Vec::new();
    for (what, measured, ceiling) in table {
        println!("{what}: {measured:.3} allocations (ceiling {ceiling})");
        if measured > ceiling {
            failed.push(format!("{what}: {measured:.3} > {ceiling}"));
        }
    }
    assert!(failed.is_empty(), "over the ceiling: {failed:?}");
}
