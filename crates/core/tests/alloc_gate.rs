//! Proof that the commit watermark is read without an allocation under a
//! replication policy: with `SemiSync(1)` and two replicas registered,
//! `LogManager::commit_lsn` — what every pipelined commit looks at when it
//! registers — must not touch the heap. The gate keeps the required ack
//! count in an atomic and finds the k-th highest ack by counting, not by
//! collecting and sorting the acks.
//!
//! Its own integration-test binary, like `alloc_zero.rs`: the counting
//! allocator is process-global, and a single `#[test]` keeps other tests'
//! allocations out of the window. The log runs over a discarding device,
//! so no flush daemon runs beside the count.

use aether_core::commit::DurabilityPolicy;
use aether_core::record::RecordKind;
use aether_core::{DeviceKind, LogManager, Lsn};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

#[test]
fn the_commit_watermark_under_semisync_is_alloc_free() {
    let log = LogManager::builder().device(DeviceKind::Null).build();
    log.set_durability_policy(DurabilityPolicy::SemiSync(1));
    let (a, b) = (
        log.commit_gate().register_replica(),
        log.commit_gate().register_replica(),
    );
    log.insert(RecordKind::Filler, 1, &[0; 64]);
    a.advance(Lsn(40));
    b.advance(Lsn(24));
    assert_eq!(log.commit_lsn(), Lsn(40), "the highest of two acks");

    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for i in 0..10_000u64 {
        b.advance(Lsn(24 + i % 32));
        black_box(log.commit_lsn());
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst) + REALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "commit_lsn under SemiSync(1) with two replicas allocated {allocs} times in 10k calls"
    );
}
