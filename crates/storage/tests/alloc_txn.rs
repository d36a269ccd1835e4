//! Allocations per transaction, counted: a counting global allocator
//! brackets a burst of transactions on every commit protocol and checks
//! what the thread that runs them allocated.
//!
//! Once a thread has run a few transactions, an auto-commit update, a
//! one-record commit (a run of one, `Db::update_commit_run`), a run of
//! them and a two-key interactive transaction allocate nothing under every
//! protocol, and a read-only transaction allocates only the value it
//! returns. The asynchronous protocols register nothing with the log: a
//! commit settles by the durable watermark, and a `Pipelined` commit's
//! `CommitHandle` is its LSN and a shared pointer to the log's watermark.
//!
//! Only the measured thread's allocations count (a thread-local flag): on
//! a loaded host a flusher thread may first run during the burst, and
//! std's thread start allocates on it, which read 1.001 on a read-only
//! row.
//!
//! Its own integration-test binary, like `aether-core`'s `alloc_zero.rs`:
//! the counting allocator is process-global, and a single `#[test]` keeps
//! other tests' allocations out of the window. The blocking protocols run
//! over a discarding device, whose writes allocate nothing; the
//! asynchronous ones over a `FaultDevice` wrapping one, its syncs held for
//! the burst (the wrapper does not report `discards`, so a flush daemon
//! runs), so the whole burst completes in a handful of flushes however fast
//! the host is. The warm-up runs one held burst too, so the measured burst
//! finds what a held burst grows already grown.

use aether_core::device::{DeviceFault, FaultDevice, LogDevice, NullDevice};
use aether_core::LogConfig;
use aether_storage::{CommitOutcome, CommitProtocol, CommitToken, Db, DbOptions, RUN_MAX};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator wrapper that counts the measured thread's allocations
/// while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that runs the measured burst.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

/// Whether an allocation now counts.
fn counting() -> bool {
    ARMED.load(Ordering::Relaxed) && MEASURED.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const RECORD: usize = 100;
const ROWS: u64 = 4096;
const WARM_UP: u64 = 256;
const BURST: u64 = 2000;

fn record(key: u64, fill: u8) -> Vec<u8> {
    let mut r = vec![fill; RECORD];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r
}

/// A scattered key for transaction `i`: consecutive transactions touch
/// different pages and lock shards.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % ROWS
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `try_begin`, one update, commit.
    AutoCommitUpdate,
    /// `try_begin`, two updates on different keys, commit.
    TwoKeyInteractive,
    /// `try_begin`, one read, commit.
    ReadOnly,
    /// A one-record commit: `update_commit_run` of one statement.
    OneRecord,
    /// `update_commit_run` of `RUN_MAX` one-record transactions: counted
    /// per statement.
    Run,
}

impl Shape {
    /// Transactions one call of `run` makes.
    fn statements(self) -> u64 {
        match self {
            Shape::Run => RUN_MAX as u64,
            _ => 1,
        }
    }
}

/// Run transaction `i` of `shape`; the outcome of its commit.
fn run(db: &Arc<Db>, shape: Shape, i: u64, rec: &[u8]) -> CommitOutcome {
    if let Shape::OneRecord = shape {
        // Settled by the log's watermark: `settle` flushes everything.
        let mut out = [Ok(CommitToken::ZERO)];
        db.update_commit_run(0, &[(key(i), rec)], &mut out);
        out[0].as_ref().unwrap();
        return CommitOutcome::Durable(CommitToken::ZERO);
    }
    if let Shape::Run = shape {
        let base = i * RUN_MAX as u64;
        let items: [(u64, &[u8]); RUN_MAX] = std::array::from_fn(|j| (key(base + j as u64), rec));
        let mut out = std::array::from_fn::<_, RUN_MAX, _>(|_| Ok(CommitToken::ZERO));
        // A key twice ends a run before the second: run the rest next.
        let mut at = 0;
        while at < RUN_MAX {
            let run = db.update_commit_run(0, &items[at..], &mut out);
            assert!(out[..run.done].iter().all(|o| o.is_ok()));
            at += run.done;
        }
        return CommitOutcome::Durable(CommitToken::ZERO);
    }
    let mut txn = db.try_begin().unwrap();
    match shape {
        Shape::AutoCommitUpdate => db.update(&mut txn, 0, key(i), rec).unwrap(),
        Shape::TwoKeyInteractive => {
            db.update(&mut txn, 0, key(i), rec).unwrap();
            db.update(&mut txn, 0, (key(i) + 1) % ROWS, rec).unwrap();
        }
        Shape::ReadOnly => {
            db.read(&mut txn, 0, key(i)).unwrap();
        }
        Shape::OneRecord | Shape::Run => unreachable!("no transaction handle"),
    }
    db.commit(txn).unwrap()
}

/// Wait until every commit so far is durable and finished.
fn settle(db: &Db, last: CommitOutcome) {
    if let CommitOutcome::Pipelined(h) = last {
        assert!(h.wait());
    }
    db.log().flush_all().unwrap();
    while db.txn_manager().active_count() > 0 {
        std::thread::yield_now();
    }
}

/// Allocations per transaction of `shape` under `protocol`, on the thread
/// that runs them.
fn allocs_per_txn(protocol: CommitProtocol, shape: Shape) -> f64 {
    let stall = matches!(
        protocol,
        CommitProtocol::AsyncCommit | CommitProtocol::Pipelined
    )
    .then(|| Arc::new(FaultDevice::new(Arc::new(NullDevice::new()), &[])));
    let device: Arc<dyn LogDevice> = match &stall {
        Some(s) => s.clone(),
        None => Arc::new(NullDevice::new()),
    };
    let opts = DbOptions {
        protocol,
        log_config: LogConfig::default().with_buffer_size(8 << 20),
        ..DbOptions::default()
    };
    let db = Db::open_with_device(opts, device);
    db.create_table(RECORD, ROWS);
    for k in 0..ROWS {
        db.load(0, k, &record(k, 1)).unwrap();
    }
    db.setup_complete();
    let rec = record(0, 7);

    let mut last = CommitOutcome::Durable(CommitToken::ZERO);
    for i in 0..WARM_UP {
        last = run(&db, shape, i, &rec);
    }
    settle(&db, last);
    if let Some(s) = &stall {
        s.arm(DeviceFault::HoldSync(None));
        let mut last = CommitOutcome::Durable(CommitToken::ZERO);
        for i in 0..BURST {
            last = run(&db, shape, i, &rec);
        }
        s.release();
        settle(&db, last);
        s.arm(DeviceFault::HoldSync(None));
    }

    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    MEASURED.with(|m| m.set(true));
    ARMED.store(true, Ordering::SeqCst);
    let mut last = CommitOutcome::Durable(CommitToken::ZERO);
    for i in WARM_UP..WARM_UP + BURST {
        last = run(&db, shape, i, &rec);
    }
    if let Some(s) = &stall {
        s.release();
    }
    settle(&db, last);
    ARMED.store(false, Ordering::SeqCst);
    MEASURED.with(|m| m.set(false));
    let total = ALLOCS.load(Ordering::SeqCst) + REALLOCS.load(Ordering::SeqCst);
    total as f64 / (BURST * shape.statements()) as f64
}

#[test]
fn a_transaction_allocates_only_what_it_returns() {
    // (protocol, shape, ceiling): the read-only transaction's one is the
    // value `read` returns.
    use CommitProtocol::*;
    use Shape::*;
    let table = [
        (Baseline, AutoCommitUpdate, 0.0),
        (Baseline, TwoKeyInteractive, 0.0),
        (Baseline, ReadOnly, 1.0),
        (Elr, AutoCommitUpdate, 0.0),
        (Elr, TwoKeyInteractive, 0.0),
        (Elr, ReadOnly, 1.0),
        (AsyncCommit, AutoCommitUpdate, 0.0),
        (AsyncCommit, TwoKeyInteractive, 0.0),
        (AsyncCommit, ReadOnly, 1.0),
        (Pipelined, AutoCommitUpdate, 0.0),
        (Pipelined, TwoKeyInteractive, 0.0),
        (Pipelined, ReadOnly, 1.0),
        (Baseline, OneRecord, 0.0),
        (Elr, OneRecord, 0.0),
        (AsyncCommit, OneRecord, 0.0),
        (Pipelined, OneRecord, 0.0),
        (Baseline, Run, 0.0),
        (Elr, Run, 0.0),
        (AsyncCommit, Run, 0.0),
        (Pipelined, Run, 0.0),
    ];
    let mut failed = Vec::new();
    for (protocol, shape, ceiling) in table {
        let per_txn = allocs_per_txn(protocol, shape);
        println!(
            "{protocol:?} {shape:?}: {per_txn:.3} allocations per transaction (ceiling {ceiling})"
        );
        if per_txn > ceiling {
            failed.push(format!("{protocol:?} {shape:?}: {per_txn:.3} > {ceiling}"));
        }
    }
    assert!(failed.is_empty(), "over the ceiling: {failed:?}");
}
