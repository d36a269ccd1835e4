//! The heap a promotion needs, measured: a counting global allocator tracks
//! live bytes, and the peak above the level at entry is recorded while
//! `ReplicatedDb::promote` runs.
//!
//! Promotion recovers over the replica's own receive log in place, so its
//! peak is the recovered database (ring, frames, page table) and does not
//! grow with the log the replica received. Two runs, one with four times
//! the auto-commit updates of the other, must peak within 10 % of each
//! other. A 1 MiB ring keeps the constant part from hiding a copy of the
//! log.
//!
//! Its own integration-test binary, like `alloc_router.rs`: the counting
//! allocator is process-global, and a single `#[test]` keeps other tests'
//! allocations out of the window.

use aether_core::{BufferKind, DeviceKind, LogConfig};
use aether_repl::prelude::*;
use aether_storage::{CommitProtocol, CommitToken, Db, DbOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// System allocator wrapper that tracks live bytes, and their peak while
/// armed.
struct PeakAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(by: i64) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    if ARMED.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grew(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: PeakAlloc = PeakAlloc;

/// Peak live bytes above the level at entry while `f` runs.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let entry = LIVE.load(Ordering::SeqCst);
    PEAK.store(entry, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::SeqCst) - entry)
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

/// Peak heap above entry while a replica that received `updates`
/// auto-commit updates is promoted.
fn promote_peak(updates: u64) -> i64 {
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
    let ((promoted, stats), peak) = peak_above_entry(|| cluster.promote(0).unwrap());
    assert_eq!(stats.winners as u64, updates, "{stats:?}");
    promoted.log().shutdown();
    primary.log().shutdown();
    peak
}

#[test]
fn promotion_peak_heap_does_not_grow_with_the_received_log() {
    let small = promote_peak(20_000);
    let large = promote_peak(80_000);
    let ratio = large as f64 / small as f64;
    println!(
        "promote peak heap above entry: 20k updates {small} B, 80k updates {large} B, ratio {ratio:.3}"
    );
    assert!(
        ratio <= 1.1,
        "promotion's peak heap grows with the received log: {small} B -> {large} B ({ratio:.3}x)"
    );
}
