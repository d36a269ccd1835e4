//! Proof that the steady-state insert path performs **zero heap
//! allocations**: a counting global allocator brackets a burst of
//! reservation-based inserts on every buffer variant and asserts the
//! allocation count did not move.
//!
//! This file is its own integration-test binary on purpose: the counting
//! allocator is process-global, and a single `#[test]` keeps other tests'
//! allocations out of the measurement window. The buffers run over a
//! discarding core (auto-reclaim, no flush daemon), matching the fig8
//! microbenchmark configuration — the paper's "log insertions without
//! flushes to disk".

use aether_core::buffer::{BufferCore, BufferKind};
use aether_core::record::RecordKind;
use aether_core::{LogConfig, Lsn};
use std::alloc::{GlobalAlloc, Layout, System};
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

fn count_insert_allocs(kind: BufferKind, inserts: usize, payload: &[u8]) -> u64 {
    let cfg = LogConfig::default().with_buffer_size(1 << 20);
    let core = BufferCore::new(&cfg);
    core.set_auto_reclaim(true);
    let buffer = kind.build(core, &cfg);

    // Warm up: first calls may lazily initialize (thread-local RNG seed,
    // parking_lot statics); steady state is what the claim is about.
    for _ in 0..64 {
        let mut slot = buffer.reserve(RecordKind::Filler, 1, Lsn::ZERO, payload.len());
        slot.write(payload);
        slot.release();
    }

    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for i in 0..inserts {
        let mut slot = buffer.reserve(RecordKind::Filler, i as u64, Lsn::ZERO, payload.len());
        // Stream in two chunks to exercise the chunked writer too.
        let mid = payload.len() / 2;
        slot.write(&payload[..mid]);
        slot.write(&payload[mid..]);
        slot.release();
    }
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst) + REALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_insert_path_is_alloc_free() {
    // 120-byte records (the paper's workload average) across sizes that
    // wrap the 1 MiB ring several times, on every variant.
    let payload = vec![0xA7u8; 120 - aether_core::record::HEADER_SIZE];
    for kind in BufferKind::ALL {
        let allocs = count_insert_allocs(kind, 20_000, &payload);
        assert_eq!(
            allocs, 0,
            "{kind:?}: steady-state reserve/fill/release must not touch the heap \
             ({allocs} allocations in 20k inserts)"
        );
    }
}
