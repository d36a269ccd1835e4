//! The bytes one wire re-seed allocates, counted: a counting global
//! allocator sums the bytes of every allocation while a shipper whose
//! cursor lies below the primary's low-water mark re-seeds a replica with
//! a checkpoint snapshot, until the replica has installed it and caught up.
//!
//! The snapshot is encoded straight into its frame's buffer, and the
//! replica decodes the frame in the buffer it was delivered in, so the
//! encoded snapshot is copied once on its way (the frame) and once more
//! into the standby's page images, and each image once into its frame.
//! Encoding the body on its own, then the frame around it, and decoding the
//! body into a buffer of its own cost two more copies.
//!
//! Its own integration-test binary, like `alloc_promote.rs`: the counting
//! allocator is process-global, and a single `#[test]` keeps other tests'
//! allocations out of the window.

use aether_core::partition::{MemSegmentFactory, SegmentedDevice};
use aether_core::{BufferKind, LogConfig, Lsn};
use aether_repl::prelude::*;
use aether_repl::{ack_link, Shipper};
use aether_storage::replay::{base_snapshot, state_fingerprint};
use aether_storage::store::PageStore;
use aether_storage::{CommitProtocol, CommitToken, Db, DbOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// System allocator wrapper that sums allocated bytes while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const RECORD: usize = 100;
const ROWS: u64 = 20_000;

fn record(key: u64, fill: u8) -> Vec<u8> {
    let mut r = vec![fill; RECORD];
    r[..8].copy_from_slice(&key.to_le_bytes());
    r
}

/// A primary whose log below its low-water mark is recycled: every page
/// stored, two checkpoint-and-truncate cycles behind it. A 64 KiB ring
/// keeps the standby's own log small beside the pages.
fn truncated_primary() -> Arc<Db> {
    let segments = Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 8 * 1024).unwrap());
    let db = Db::open_with_device(
        DbOptions {
            protocol: CommitProtocol::Baseline,
            buffer: BufferKind::Hybrid,
            log_config: LogConfig::default().with_buffer_size(1 << 16),
            ..DbOptions::default()
        },
        segments,
    );
    db.create_table(RECORD, ROWS);
    for k in 0..ROWS {
        db.load(0, k, &record(k, 1)).unwrap();
    }
    db.setup_complete();
    for round in 2..4u8 {
        for k in 0..64 {
            let mut out = [Ok(CommitToken::ZERO)];
            db.update_commit_run(0, &[(k * 97, record(k * 97, round).as_slice())], &mut out);
            out[0].as_ref().unwrap();
        }
        db.checkpoint_and_truncate();
    }
    db
}

#[test]
fn a_wire_reseed_copies_the_snapshot_twice() {
    let primary = truncated_primary();
    assert!(primary.log().low_water() > Lsn::ZERO);
    let encoded = base_snapshot(&primary).encode().len() as u64;
    let ack = primary.log().commit_gate().register_replica();
    let ack_tx = ack_link(primary.log(), ack, LinkConfig::default());
    let (replica, frame_tx) = Replica::spawn(
        primary.options().clone(),
        PageStore::new(),
        &[],
        LinkConfig::default(),
        ack_tx,
    )
    .unwrap();

    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let mut shipper = Shipper::spawn(
        Arc::clone(&primary),
        frame_tx,
        Lsn::ZERO,
        ShipperConfig::default(),
    );
    let caught_up = replica.wait_replay(primary.log().durable_lsn(), Duration::from_secs(10));
    ARMED.store(false, Ordering::SeqCst);
    let bytes = BYTES.load(Ordering::SeqCst);

    assert!(caught_up, "the re-seeded replica catches up");
    assert_eq!(replica.status().bootstraps, 1, "one re-seed over the wire");
    assert_eq!(
        state_fingerprint(&replica.db()).unwrap(),
        state_fingerprint(&primary).unwrap()
    );
    shipper.stop();
    let per_byte = bytes as f64 / encoded as f64;
    println!(
        "re-seed: {bytes} bytes allocated for a {encoded}-byte snapshot: {per_byte:.2} per byte"
    );
    // The frame, the page images and their frames, and the rest of the
    // standby: 3.46. Either extra copy of the body adds one (5.46 with
    // both).
    assert!(
        per_byte <= 4.0,
        "{per_byte:.2} bytes allocated per snapshot byte"
    );
}
