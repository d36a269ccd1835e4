//! The heap a promotion needs, measured: a counting global allocator tracks
//! live bytes, and the peak above the level at entry and the allocations
//! the promoting thread makes are recorded while `ReplicatedDb::promote`
//! runs. Other threads (links, flushers) allocate when the scheduler lets
//! them, a few times either way, so only the promoting thread counts.
//!
//! Promotion stops the standby's redo and opens the receive log behind it,
//! in place: the standby has applied every record it received, so the open
//! reads none of them again. Its peak is the promoted database (ring,
//! frames, page table) and its allocations are the pages and the log's
//! parts; neither grows with the log the replica received. Two runs, one
//! with four times the auto-commit updates of the other, must peak within
//! 10 % and allocate within 1 % of each other (reading the log again would
//! add one allocation per record, the reader's payload copy). A 1 MiB ring
//! keeps the constant part from hiding a copy of the log.
//!
//! Its own integration-test binary, like `alloc_router.rs`: the counting
//! allocator is process-global, and a single `#[test]` keeps other tests'
//! allocations out of the window.

use aether_core::{BufferKind, DeviceKind, LogConfig};
use aether_repl::prelude::*;
use aether_storage::{CommitProtocol, CommitToken, Db, DbOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// System allocator wrapper that tracks live bytes, and their peak and the
/// measured thread's allocations (and reallocations) while armed.
struct PeakAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that promotes.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn grew(by: i64, allocates: bool) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    if ARMED.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
        if allocates && MEASURED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as i64, true);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as i64, true);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grew(-(layout.size() as i64), false);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as i64 - layout.size() as i64, true);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: PeakAlloc = PeakAlloc;

/// What a promotion took: peak live bytes above the level at entry,
/// allocations, and wall time.
struct Taken {
    peak: i64,
    allocs: u64,
    elapsed: Duration,
}

/// Run `f`, measuring what it takes.
fn measured<T>(f: impl FnOnce() -> T) -> (T, Taken) {
    let entry = LIVE.load(Ordering::SeqCst);
    PEAK.store(entry, Ordering::SeqCst);
    ALLOCS.store(0, Ordering::SeqCst);
    let start = Instant::now();
    MEASURED.with(|m| m.set(true));
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    MEASURED.with(|m| m.set(false));
    let taken = Taken {
        peak: PEAK.load(Ordering::SeqCst) - entry,
        allocs: ALLOCS.load(Ordering::SeqCst),
        elapsed: start.elapsed(),
    };
    (out, taken)
}

const RECORD: usize = 100;
const ROWS: u64 = 1024;

fn record(key: u64, fill: u8) -> Vec<u8> {
    let mut r = vec![fill; RECORD];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r
}

fn opts() -> DbOptions {
    DbOptions {
        protocol: CommitProtocol::Baseline,
        buffer: BufferKind::Hybrid,
        device: DeviceKind::Ram,
        log_config: LogConfig::default().with_buffer_size(1 << 20),
        ..DbOptions::default()
    }
}

/// What promoting a replica that received `updates` auto-commit updates
/// takes.
fn promote(updates: u64) -> Taken {
    let primary = Db::open(opts());
    primary.create_table(RECORD, ROWS);
    for k in 0..ROWS {
        primary.load(0, k, &record(k, 1)).unwrap();
    }
    primary.setup_complete();
    let mut cluster = ReplicatedDb::attach(
        Arc::clone(&primary),
        ReplicationConfig {
            replicas: 1,
            policy: DurabilityPolicy::Async,
            link: LinkConfig::default(),
            ..ReplicationConfig::default()
        },
    )
    .unwrap();
    for i in 0..updates {
        let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % ROWS;
        let mut out = [Ok(CommitToken::ZERO)];
        primary.update_commit_run(
            0,
            &[(key, record(key, (i % 200) as u8).as_slice())],
            &mut out,
        );
        out[0].as_ref().unwrap();
    }
    primary.log().flush_all().unwrap();
    assert!(
        cluster.wait_catchup(Duration::from_secs(30)),
        "replica caught up"
    );
    cluster.kill_primary();
    let ((promoted, stats), taken) = measured(|| cluster.promote(0).unwrap());
    assert_eq!(stats.winners as u64, updates, "{stats:?}");
    promoted.log().shutdown();
    primary.log().shutdown();
    taken
}

#[test]
fn promotion_peak_heap_does_not_grow_with_the_received_log() {
    let small = promote(20_000);
    let large = promote(80_000);
    let ratio = large.peak as f64 / small.peak as f64;
    let allocs = large.allocs as f64 / small.allocs as f64;
    println!(
        "promote peak heap above entry: 20k updates {} B, 80k updates {} B, ratio {ratio:.3}",
        small.peak, large.peak
    );
    println!(
        "promote allocations: 20k updates {} ({:?}), 80k updates {} ({:?}), ratio {allocs:.3}",
        small.allocs, small.elapsed, large.allocs, large.elapsed
    );
    assert!(
        ratio <= 1.1,
        "promotion's peak heap grows with the received log: {} B -> {} B ({ratio:.3}x)",
        small.peak,
        large.peak
    );
    assert!(
        allocs <= 1.01,
        "promotion's allocations grow with the received log: {} -> {} ({allocs:.3}x)",
        small.allocs,
        large.allocs
    );
}
