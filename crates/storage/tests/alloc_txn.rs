//! Allocations per transaction, counted: a counting global allocator
//! brackets a burst of transactions on every commit protocol and checks
//! what moved.
//!
//! Once a thread has run a few transactions, an auto-commit update and a
//! two-key interactive transaction allocate nothing under every protocol,
//! and a read-only transaction allocates only the value it returns. The
//! asynchronous protocols register nothing with the log: the ATT slot
//! settles by the durable watermark, and a `Pipelined` commit's
//! `CommitHandle` is its LSN and a shared pointer to the log's watermark.
//!
//! Its own integration-test binary, like `aether-core`'s `alloc_zero.rs`:
//! the counting allocator is process-global (the flush daemon's
//! allocations count too), and a single `#[test]` keeps other tests'
//! allocations out of the window. The blocking protocols run over a
//! discarding device, whose writes allocate nothing; the asynchronous ones
//! over a `FaultDevice` wrapping one, its syncs held for the burst (the
//! wrapper does not report `discards`, so a flush daemon runs), so the whole burst
//! completes in a handful of flushes however fast the host is. A held burst
//! keeps its transactions in the ATT until it is released, so the warm-up
//! runs one held burst too: the measured one finds the slots it needs.

use aether_core::device::{DeviceFault, FaultDevice, LogDevice, NullDevice};
use aether_core::LogConfig;
use aether_storage::{CommitOutcome, CommitProtocol, Db, DbOptions};
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
}

/// Run transaction `i` of `shape`; the outcome of its commit.
fn run(db: &Arc<Db>, shape: Shape, i: u64, rec: &[u8]) -> CommitOutcome {
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

/// Allocations per transaction of `shape` under `protocol`, flush daemon
/// included.
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

    let mut last = CommitOutcome::Durable;
    for i in 0..WARM_UP {
        last = run(&db, shape, i, &rec);
    }
    settle(&db, last);
    if let Some(s) = &stall {
        s.arm(DeviceFault::HoldSync(None));
        let mut last = CommitOutcome::Durable;
        for i in 0..BURST {
            last = run(&db, shape, i, &rec);
        }
        s.release();
        settle(&db, last);
        s.arm(DeviceFault::HoldSync(None));
    }

    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let mut last = CommitOutcome::Durable;
    for i in WARM_UP..WARM_UP + BURST {
        last = run(&db, shape, i, &rec);
    }
    if let Some(s) = &stall {
        s.release();
    }
    settle(&db, last);
    ARMED.store(false, Ordering::SeqCst);
    let total = ALLOCS.load(Ordering::SeqCst) + REALLOCS.load(Ordering::SeqCst);
    total as f64 / BURST as f64
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
