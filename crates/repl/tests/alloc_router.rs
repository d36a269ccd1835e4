//! Proof that a routed read allocates only its value: with two caught-up
//! replicas and no writer, 10 000 `ReadRouter::read`s must allocate exactly
//! as often as 10 000 primary `snapshot_read`s of the same keys — once each,
//! for the returned record. Picking the replica counts the admitted ones
//! instead of collecting them.
//!
//! Its own integration-test binary, like `aether-core`'s `alloc_gate.rs`:
//! the counting allocator is process-global, and a single `#[test]` keeps
//! other tests' allocations out of the window. With nothing committed the
//! ship, link and flush threads stay parked through the count.

use aether_repl::prelude::*;
use aether_storage::{Db, DbOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// System allocator wrapper that counts allocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

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
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const KEYS: u64 = 16;
const READS: u64 = 10_000;

/// Allocations `read` makes over `READS` calls, one key after another.
fn count(mut read: impl FnMut(u64)) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for i in 0..READS {
        read(i % KEYS);
    }
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn a_routed_read_allocates_only_its_value() {
    let db = Db::open(DbOptions::default());
    db.create_table(16, KEYS);
    for k in 0..KEYS {
        db.load(0, k, &[k as u8; 16]).unwrap();
    }
    db.setup_complete();
    let cluster = ReplicatedDb::attach(
        Arc::clone(&db),
        ReplicationConfig {
            replicas: 2,
            policy: DurabilityPolicy::SemiSync(1),
            ..ReplicationConfig::default()
        },
    )
    .unwrap();
    assert!(cluster.wait_catchup(Duration::from_secs(10)));
    let router = cluster.router(RouterConfig::default());
    // What is set up once, on a first read or after the catch-up, stays
    // out of the count: one uncounted round of each first.
    for k in 0..READS {
        db.snapshot_read(0, k % KEYS).unwrap();
        router.read(0, k % KEYS).unwrap();
    }
    let before = router.stats();

    let primary = count(|k| {
        black_box(db.snapshot_read(0, k).unwrap());
    });
    let routed = count(|k| {
        black_box(router.read(0, k).unwrap());
    });
    let st = router.stats();
    assert_eq!(
        st.routed - before.routed,
        READS,
        "every read served by a replica: {st:?}"
    );
    assert_eq!(
        routed, primary,
        "{READS} routed reads allocated {routed} times, {READS} primary reads {primary}"
    );
}
