//! Bytes allocated by each hand-off of the page volume, counted: a counting
//! global allocator brackets the bulk load, a base snapshot, its encoding,
//! a standby built from it and a crash image, and checks what moved.
//!
//! A flushed page is one immutable image that the store, base snapshots,
//! crash images and standbys share. So capturing a snapshot or a crash
//! image copies no page (only the page table, a few dozen bytes a page),
//! and a standby copies each page once, into its frame. The log ring is
//! small (1 MiB) so the page bytes dominate what a standby allocates.
//!
//! Its own integration-test binary, like `alloc_replay.rs`: the counting
//! allocator is process-global, and a single `#[test]` keeps other tests'
//! allocations out of the window.

use aether_core::{DeviceKind, LogConfig};
use aether_storage::page::PAGE_SIZE;
use aether_storage::replay::{base_snapshot, standby_from_snapshot, state_fingerprint};
use aether_storage::{CommitProtocol, Db, DbOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// System allocator wrapper that counts allocations and their bytes while
/// armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// What `f` allocated while it ran: (allocations, bytes).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (
        out,
        ALLOCS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    )
}

const RECORD: usize = 100;
const ROWS: u64 = 200_000;
const UPDATES: u64 = 2_000;

fn opts() -> DbOptions {
    DbOptions {
        protocol: CommitProtocol::Baseline,
        device: DeviceKind::Ram,
        log_config: LogConfig::default().with_buffer_size(1 << 20),
        ..DbOptions::default()
    }
}

#[test]
fn page_hand_offs_share_images_and_copy_each_page_at_most_once() {
    let db = Db::open(opts());
    db.create_table(RECORD, ROWS);
    let mut rec = vec![1u8; RECORD];
    let ((), load_allocs, _) = counted(|| {
        for k in 0..ROWS {
            rec[..8].copy_from_slice(&k.to_le_bytes());
            db.load(0, k, &rec).unwrap();
        }
    });
    db.setup_complete();
    let page_bytes = (db.store().len() * PAGE_SIZE) as u64;

    let (snap, _, snapshot_bytes) = counted(|| base_snapshot(&db));
    let (_, encode_allocs, _) = counted(|| snap.encode());
    let (standby, _, standby_bytes) = counted(|| standby_from_snapshot(opts(), &snap).unwrap());
    assert_eq!(
        state_fingerprint(&standby).unwrap(),
        state_fingerprint(&db).unwrap()
    );

    // Some logged work, so the crash image carries a log.
    for i in 0..UPDATES {
        let mut txn = db.begin();
        db.update_with(&mut txn, 0, (i * 97) % ROWS, |r| r[8] = i as u8)
            .unwrap();
        db.commit(txn).unwrap();
    }
    db.flush_pages();
    let (image, _, crash_bytes) = counted(|| db.crash());
    let pages = image.store.len() as u64;
    let log_bytes = image.log_bytes.len() as u64;

    println!("page bytes: {page_bytes} in {pages} pages; retained log {log_bytes} B");
    // (what, measured, ceiling), in bytes except where named.
    let table = [
        ("Db::load, allocations over all rows", load_allocs, 0),
        ("base_snapshot, bytes", snapshot_bytes, page_bytes / 100),
        ("BaseSnapshot::encode, allocations", encode_allocs, 1),
        (
            "standby_from_snapshot, bytes",
            standby_bytes,
            page_bytes + page_bytes / 4,
        ),
        ("Db::crash, bytes", crash_bytes, log_bytes + 64 * pages),
    ];
    let mut failed = Vec::new();
    for (what, measured, ceiling) in table {
        println!("{what}: {measured} (ceiling {ceiling})");
        if measured > ceiling {
            failed.push(format!("{what}: {measured} > {ceiling}"));
        }
    }
    assert!(failed.is_empty(), "over the ceiling: {failed:?}");
}
