//! One contract, every log device: the same checks run over each row of
//! [`rows`]. A device holds stream offsets `[low_water, len)`; whatever it
//! is built from, a vectored write equals the sequential appends, reads are
//! addressed in stream offsets, the snapshot starts at the low-water mark,
//! and a device rebuilt from what survived reads back the same bytes and
//! appends where the old one ended.

use aether_core::device::{DeviceKind, FileDevice, LogDevice, SimDevice, StallDevice};
use aether_core::partition::{MemSegmentFactory, SegmentFactory, SegmentedDevice};
use aether_core::runtime::lock;
use aether_core::{Lsn, Result};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SEGMENT: u64 = 4096;

/// Builds a device; `tag` keeps file-backed instances apart.
type Make = fn(tag: &str) -> Arc<dyn LogDevice>;

struct Row {
    name: &'static str,
    /// A fresh instance.
    make: Make,
    /// `low_water()` of a fresh instance.
    low: u64,
    /// Bytes a fresh instance already holds at `[low, len)`.
    pre: Vec<u8>,
    /// Storage below this offset is gone: reads there return nothing. (A
    /// segmented device keeps the segment the mark falls in.)
    gone_below: u64,
    /// How a device with no `snapshot()` comes back after a restart.
    reopen: Option<Make>,
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

fn file_path(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("device_contract");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.bin"))
}

fn segmented() -> SegmentedDevice {
    SegmentedDevice::new(Box::new(MemSegmentFactory), SEGMENT).unwrap()
}

fn rows() -> Vec<Row> {
    vec![
        Row {
            name: "SimDevice (DeviceKind::Ram)",
            make: |_| DeviceKind::Ram.build().unwrap(),
            low: 0,
            pre: vec![],
            gone_below: 0,
            reopen: None,
        },
        Row {
            name: "SimDevice at base 1000",
            make: |_| Arc::new(SimDevice::from_image(Lsn(1000), pattern(300, 7))),
            low: 1000,
            pre: pattern(300, 7),
            gone_below: 1000,
            reopen: None,
        },
        Row {
            name: "StallDevice",
            make: |_| Arc::new(StallDevice::new(Duration::ZERO)),
            low: 0,
            pre: vec![],
            gone_below: 0,
            reopen: None,
        },
        Row {
            name: "FileDevice (DeviceKind::File)",
            make: |tag| DeviceKind::File(file_path(tag)).build().unwrap(),
            low: 0,
            pre: vec![],
            gone_below: 0,
            reopen: Some(|tag| {
                let f = FileDevice::open(file_path(tag)).unwrap();
                assert_eq!(f.path(), file_path(tag));
                Arc::new(f)
            }),
        },
        Row {
            name: "SegmentedDevice",
            make: |_| Arc::new(segmented()),
            low: 0,
            pre: vec![],
            gone_below: 0,
            reopen: None,
        },
        Row {
            name: "SegmentedDevice after truncate_before",
            make: |_| {
                let d = segmented();
                d.append(&pattern(9000, 3)).unwrap();
                assert_eq!(d.truncate_before(Lsn(8500)).unwrap(), 2);
                Arc::new(d)
            },
            low: 8500,
            pre: pattern(9000, 3)[8500..].to_vec(),
            gone_below: 2 * SEGMENT,
            reopen: None,
        },
    ]
}

/// Read `[from, from + want)` in one call.
fn read(d: &dyn LogDevice, from: u64, want: usize) -> Vec<u8> {
    let mut out = vec![0u8; want];
    let n = d.read_at(from, &mut out).unwrap();
    out.truncate(n);
    out
}

#[test]
fn every_device_keeps_the_contract() {
    // `b` alone is longer than a segment: wherever it starts, one run of the
    // vectored write crosses a segment boundary.
    let (a, b) = (pattern(3000, 0x55), pattern(6000, 0xAA));
    for row in rows() {
        let name = row.name;
        let d = (row.make)("vectored");
        let start = d.len();
        assert_eq!(d.low_water().raw(), row.low, "{name}: low_water");
        assert_eq!(start, row.low + row.pre.len() as u64, "{name}: len");
        let stream = [&row.pre[..], &a, &b].concat();
        let end = row.low + stream.len() as u64;

        // One vectored write leaves what the sequential appends leave.
        d.write_vectored(&[&a, &b]).unwrap();
        let seq = (row.make)("sequential");
        seq.append(&a).unwrap();
        seq.append(&b).unwrap();
        assert_eq!(d.len(), end, "{name}: len is base + bytes");
        assert_eq!(seq.len(), end, "{name}: len after appends");
        assert_eq!(read(&*d, row.low, stream.len()), stream, "{name}");
        assert_eq!(read(&*seq, row.low, stream.len()), stream, "{name}");

        // Reads speak stream offsets: nothing where storage was dropped,
        // nothing at the end, a short read up to it, and one read stitches
        // across a segment boundary.
        if row.gone_below > 0 {
            assert!(read(&*d, 0, 8).is_empty(), "{name}: read at 0");
            assert!(read(&*d, row.gone_below - 1, 8).is_empty(), "{name}");
        }
        assert!(read(&*d, end, 8).is_empty(), "{name}: read at the end");
        assert_eq!(read(&*d, end - 3, 8), stream[stream.len() - 3..], "{name}");
        let boundary = (start / SEGMENT + 1) * SEGMENT;
        let at = (boundary - 50 - row.low) as usize;
        assert_eq!(
            read(&*d, boundary - 50, 100),
            stream[at..at + 100],
            "{name}"
        );

        // A second sync has nothing left to do.
        d.sync().unwrap();
        d.sync().unwrap();
        assert_eq!(d.len(), end, "{name}: len after sync");

        // What survives starts at the low-water mark, and the device rebuilt
        // from it is the same stream.
        let rebuilt: Arc<dyn LogDevice> = match row.reopen {
            Some(reopen) => {
                assert!(d.snapshot().is_none(), "{name}");
                drop(d);
                reopen("vectored")
            }
            None => {
                let (at, bytes) = d.snapshot().expect("snapshot-capable");
                assert_eq!(at.raw(), row.low, "{name}: snapshot start");
                assert_eq!(bytes, stream, "{name}: snapshot bytes");
                Arc::new(SimDevice::from_image(at, bytes))
            }
        };
        assert_eq!(rebuilt.low_water().raw(), row.low, "{name}: rebuilt");
        assert_eq!(rebuilt.len(), end, "{name}: rebuilt len");
        assert_eq!(read(&*rebuilt, row.low, stream.len()), stream, "{name}");
        rebuilt.append(b"after restart").unwrap();
        assert_eq!(rebuilt.len(), end + 13, "{name}: rebuilt append");
        assert_eq!(read(&*rebuilt, end, 64), b"after restart", "{name}");
    }
}

#[test]
fn a_sync_beside_appends_leaves_the_same_stream() {
    // The flush daemon syncs one group while it writes the next: syncs on
    // one thread and appends on another leave what the appends alone leave.
    let chunks: Vec<Vec<u8>> = (0..64).map(|i| pattern(300 + i * 7, i as u8)).collect();
    for row in rows() {
        let name = row.name;
        let d = (row.make)("concurrent");
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    d.sync().unwrap();
                }
            });
            for c in &chunks {
                d.append(c).unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        d.sync().unwrap();
        let stream = [&row.pre[..], &chunks.concat()].concat();
        assert_eq!(d.len(), row.low + stream.len() as u64, "{name}: len");
        assert_eq!(read(&*d, row.low, stream.len()), stream, "{name}");
    }
}

/// A segment that counts the syncs it is asked for.
struct CountedSegment {
    store: SimDevice,
    syncs: AtomicU64,
}

impl LogDevice for CountedSegment {
    fn write_vectored(&self, bufs: &[&[u8]]) -> Result<()> {
        self.store.write_vectored(bufs)
    }
    fn sync(&self) -> Result<()> {
        self.syncs.fetch_add(1, Ordering::SeqCst);
        self.store.sync()
    }
    fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<usize> {
        self.store.read_at(offset, dst)
    }
    fn len(&self) -> u64 {
        self.store.len()
    }
}

/// Hands out counted segments and keeps them, in segment order.
#[derive(Clone, Default)]
struct CountingFactory(Arc<Mutex<Vec<Arc<CountedSegment>>>>);

impl SegmentFactory for CountingFactory {
    fn create(&self, _seg_no: u64) -> Result<Arc<dyn LogDevice>> {
        let seg = Arc::new(CountedSegment {
            store: SimDevice::new(Duration::ZERO),
            syncs: AtomicU64::new(0),
        });
        lock(&self.0).push(Arc::clone(&seg));
        Ok(seg)
    }
}

#[test]
fn a_segmented_sync_covers_the_segments_an_append_sealed() {
    let factory = CountingFactory::default();
    let d = SegmentedDevice::new(Box::new(factory.clone()), SEGMENT).unwrap();
    let syncs = || -> Vec<u64> {
        let segs = lock(&factory.0);
        segs.iter()
            .map(|s| s.syncs.load(Ordering::SeqCst))
            .collect()
    };
    d.append(&pattern(1000, 1)).unwrap();
    d.sync().unwrap();
    // One append crosses two boundaries: segments 0 and 1 are sealed holding
    // bytes no sync has covered yet.
    d.append(&pattern(2 * SEGMENT as usize, 2)).unwrap();
    d.sync().unwrap();
    assert_eq!(syncs(), [2, 1, 1]);
    // Nothing was sealed since: the next sync is the open segment's alone.
    d.append(b"tail").unwrap();
    d.sync().unwrap();
    assert_eq!(syncs(), [2, 1, 2]);
}

#[test]
fn device_kind_selects_the_class() {
    assert!(DeviceKind::Null.build().unwrap().discards());
    assert!(!DeviceKind::Flash.build().unwrap().discards());
    assert!(DeviceKind::Ram.build().unwrap().is_empty());
    // The latency classes charge their latency on sync.
    let d = DeviceKind::CustomUs(250).build().unwrap();
    let t = aether_core::runtime::monotonic_ns();
    d.sync().unwrap();
    assert!(aether_core::runtime::monotonic_ns() - t >= 250_000);
}
