//! Segmented (partitioned) log storage.
//!
//! Production log managers split the log stream into fixed-size partition
//! files that are created, sealed, archived and deleted as the log advances;
//! §A.3 notes that these "buffer and log file wraparounds complicate
//! matters... because they impose extra work at log flush time, such as
//! closing and opening log files". This module implements that machinery
//! over any inner [`LogDevice`] factory:
//!
//! * the stream position maps to `(segment number, offset)` by division;
//! * appends that straddle a boundary are split, sealing the old segment and
//!   opening the next;
//! * sealed segments below the *truncation point* (computed by the storage
//!   layer as `min(durable checkpoint redo point, oldest active txn LSN)`)
//!   can be recycled;
//! * reads stitch segments back together, so recovery code is oblivious.

use crate::device::LogDevice;
use crate::error::Result;
use crate::lsn::Lsn;
use crate::runtime::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Factory for segment backing stores (e.g. one [`crate::device::SimDevice`]
/// or one file per segment).
pub trait SegmentFactory: Send + Sync {
    /// Create the backing device for segment `seg_no`.
    fn create(&self, seg_no: u64) -> Result<Arc<dyn LogDevice>>;
}

/// In-memory segment factory (tests, simulations).
#[derive(Debug, Default)]
pub struct MemSegmentFactory;

impl SegmentFactory for MemSegmentFactory {
    fn create(&self, _seg_no: u64) -> Result<Arc<dyn LogDevice>> {
        Ok(Arc::new(crate::device::SimDevice::new(
            std::time::Duration::ZERO,
        )))
    }
}

struct Segment {
    seg_no: u64,
    device: Arc<dyn LogDevice>,
    sealed: bool,
}

/// A log device built from fixed-size segments.
pub struct SegmentedDevice {
    factory: Box<dyn SegmentFactory>,
    segment_size: u64,
    segments: Mutex<Vec<Segment>>,
    /// Total bytes appended (stream length).
    len: AtomicU64,
    /// Lowest segment that may hold bytes no completed sync covers (an
    /// append that crosses a boundary seals one holding unsynced bytes).
    unsynced: AtomicU64,
    /// Stream offset one past the last byte a completed sync covers.
    synced: AtomicU64,
    /// The logical low-water mark: the highest truncation LSN applied so
    /// far. Always a record boundary (callers pass redo points). Whole
    /// segments entirely below it are recycled; the first retained segment
    /// may still physically hold a few bytes below the mark, which no scan
    /// ever reads.
    truncated: AtomicU64,
    /// Segments recycled so far (metric).
    recycled: AtomicU64,
}

impl std::fmt::Debug for SegmentedDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedDevice")
            .field("segment_size", &self.segment_size)
            .field("len", &self.len.load(Ordering::Relaxed))
            .field("segments", &lock(&self.segments).len())
            .finish()
    }
}

impl SegmentedDevice {
    /// New segmented device with `segment_size`-byte segments.
    pub fn new(factory: Box<dyn SegmentFactory>, segment_size: u64) -> Result<SegmentedDevice> {
        assert!(segment_size >= 4096, "segments must be at least 4 KiB");
        let first = factory.create(0)?;
        Ok(SegmentedDevice {
            factory,
            segment_size,
            segments: Mutex::new(vec![Segment {
                seg_no: 0,
                device: first,
                sealed: false,
            }]),
            len: AtomicU64::new(0),
            unsynced: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
        })
    }

    /// Number of live (unrecycled) segments.
    pub fn live_segments(&self) -> usize {
        lock(&self.segments).len()
    }

    /// Segments recycled by truncation.
    pub fn recycled_segments(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    fn seg_of(&self, offset: u64) -> u64 {
        offset / self.segment_size
    }
}

impl LogDevice for SegmentedDevice {
    fn write_vectored(&self, bufs: &[&[u8]]) -> Result<()> {
        let mut segments = lock(&self.segments);
        let mut at = self.len.load(Ordering::Relaxed);
        for mut data in bufs.iter().copied() {
            while !data.is_empty() {
                let seg_no = self.seg_of(at);
                // Open the segment if the append crossed a boundary.
                if segments.last().map(|s| s.seg_no) != Some(seg_no) {
                    if let Some(last) = segments.last_mut() {
                        last.sealed = true;
                    }
                    segments.push(Segment {
                        seg_no,
                        device: self.factory.create(seg_no)?,
                        sealed: false,
                    });
                }
                let seg = segments.last().expect("segment just ensured");
                let room = (seg_no + 1) * self.segment_size - at;
                let n = (room as usize).min(data.len());
                seg.device.append(&data[..n])?;
                data = &data[n..];
                at += n as u64;
                self.len.store(at, Ordering::Release);
            }
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        let covered = self.len.load(Ordering::Acquire);
        // Every segment written since the last completed sync — the open one
        // and any an append sealed since — each synced outside the segments
        // lock: a latency-modeling segment parks in `sync`, and appends and
        // readers must be able to take the lock meanwhile.
        let from = self.unsynced.load(Ordering::Acquire);
        let last = lock(&self.segments).last().map_or(from, |s| s.seg_no);
        for seg_no in from..=last {
            let segments = lock(&self.segments);
            let seg = segments.iter().find(|s| s.seg_no == seg_no);
            let device = seg.map(|s| Arc::clone(&s.device)); // none if recycled
            drop(segments);
            if let Some(device) = device {
                device.sync()?;
            }
        }
        self.unsynced.fetch_max(last, Ordering::AcqRel);
        self.synced.fetch_max(covered, Ordering::AcqRel);
        Ok(())
    }

    fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<usize> {
        let end = self.len.load(Ordering::Acquire);
        if offset >= end {
            return Ok(0);
        }
        let want = dst.len().min((end - offset) as usize);
        let mut done = 0usize;
        let segments = lock(&self.segments);
        while done < want {
            let at = offset + done as u64;
            let seg_no = self.seg_of(at);
            let seg = match segments.iter().find(|s| s.seg_no == seg_no) {
                Some(s) => s,
                None => break, // truncated away
            };
            let within = at - seg_no * self.segment_size;
            let room = (self.segment_size - within) as usize;
            let n = room.min(want - done);
            let got = seg.device.read_at(within, &mut dst[done..done + n])?;
            if got == 0 {
                break;
            }
            done += got;
            if got < n {
                break;
            }
        }
        Ok(done)
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    fn low_water(&self) -> Lsn {
        Lsn(self.truncated.load(Ordering::Relaxed))
    }

    /// Advance the low-water mark to `upto` (a record boundary computed by
    /// the storage layer) and recycle every sealed segment that lies
    /// entirely below it. The mark advances even when no whole segment can
    /// be dropped yet — the *next* truncation, or a recovery scan, picks up
    /// from it. Returns how many segments were recycled.
    fn truncate_before(&self, upto: Lsn) -> Result<usize> {
        let mut segments = lock(&self.segments);
        // Clamp to the stream length: the mark must stay a valid scan start.
        let upto = upto.raw().min(self.len.load(Ordering::Acquire));
        self.truncated.fetch_max(upto, Ordering::AcqRel);
        let mut dropped = 0;
        while let Some(first) = segments.first() {
            let seg_end = (first.seg_no + 1) * self.segment_size;
            if first.sealed && seg_end <= upto {
                segments.remove(0);
                dropped += 1;
            } else {
                break;
            }
        }
        if dropped > 0 {
            self.recycled.fetch_add(dropped as u64, Ordering::Relaxed);
        }
        Ok(dropped)
    }

    /// The synced prefix from the low-water mark on.
    fn snapshot(&self) -> Option<(Lsn, Vec<u8>)> {
        let start = self.low_water();
        let want = self
            .synced
            .load(Ordering::Acquire)
            .saturating_sub(start.raw()) as usize;
        let mut out = vec![0u8; want];
        match self.read_at(start.raw(), &mut out) {
            Ok(n) if n == want => Some((start, out)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(seg: u64) -> SegmentedDevice {
        SegmentedDevice::new(Box::new(MemSegmentFactory), seg).unwrap()
    }

    #[test]
    fn append_within_one_segment() {
        let d = dev(4096);
        d.append(b"hello world").unwrap();
        d.sync().unwrap();
        assert_eq!(d.len(), 11);
        assert_eq!(d.live_segments(), 1);
        let mut out = vec![0u8; 11];
        assert_eq!(d.read_at(0, &mut out).unwrap(), 11);
        assert_eq!(&out, b"hello world");
    }

    #[test]
    fn append_straddles_segments_and_reads_stitch() {
        let d = dev(4096);
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        d.append(&data).unwrap();
        assert_eq!(d.len(), 10_000);
        assert_eq!(d.live_segments(), 3);
        let mut out = vec![0u8; 10_000];
        assert_eq!(d.read_at(0, &mut out).unwrap(), 10_000);
        assert_eq!(out, data);
        // Read spanning a boundary only.
        let mut mid = vec![0u8; 100];
        assert_eq!(d.read_at(4096 - 50, &mut mid).unwrap(), 100);
        assert_eq!(&mid[..], &data[4096 - 50..4096 + 50]);
    }

    #[test]
    fn many_small_appends_seal_segments() {
        let d = dev(4096);
        for i in 0..1000u32 {
            d.append(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(d.len(), 4000);
        assert_eq!(d.live_segments(), 1);
        d.append(&[0u8; 200]).unwrap();
        assert_eq!(d.live_segments(), 2);
    }

    #[test]
    fn truncation_recycles_sealed_segments_only() {
        let d = dev(4096);
        d.append(&vec![7u8; 12_000]).unwrap();
        assert_eq!(d.live_segments(), 3);
        // Truncate below 9000: segments 0 and 1 (ends 4096, 8192) qualify.
        assert_eq!(d.truncate_before(Lsn(9000)).unwrap(), 2);
        assert_eq!(d.live_segments(), 1);
        assert_eq!(d.recycled_segments(), 2);
        // The low-water mark is the requested (record-boundary) LSN, not
        // the coarser segment boundary.
        assert_eq!(d.low_water(), Lsn(9000));
        // Reads in recycled segments return nothing.
        let mut out = vec![0u8; 10];
        assert_eq!(d.read_at(0, &mut out).unwrap(), 0);
        // Reads above the mark still work.
        assert_eq!(d.read_at(9000, &mut out).unwrap(), 10);
        // The open segment never recycles, however far the mark advances.
        assert_eq!(d.truncate_before(Lsn::MAX).unwrap(), 0);
        assert_eq!(d.live_segments(), 1);
    }

    #[test]
    fn tail_snapshot_survives_truncation() {
        let d = dev(4096);
        let data: Vec<u8> = (0..12_000).map(|i| (i % 113) as u8).collect();
        d.append(&data).unwrap();
        d.sync().unwrap();
        d.truncate_before(Lsn(5000)).unwrap();
        let (start, bytes) = d.snapshot().unwrap();
        assert_eq!(start, Lsn(5000));
        assert_eq!(bytes, &data[5000..]);
        // Mark advance without a whole droppable segment still moves the
        // scan start.
        let d2 = dev(4096);
        d2.append(&vec![3u8; 3000]).unwrap();
        d2.sync().unwrap();
        assert_eq!(d2.truncate_before(Lsn(1000)).unwrap(), 0);
        assert_eq!(d2.low_water(), Lsn(1000));
        let (start, bytes) = d2.snapshot().unwrap();
        assert_eq!((start, bytes.len()), (Lsn(1000), 2000));
    }

    #[test]
    fn log_manager_runs_over_segmented_device() {
        use crate::manager::LogManager;
        use crate::record::RecordKind;
        let seg = Arc::new(dev(1 << 16));
        let log = LogManager::builder()
            .device_instance(Arc::clone(&seg) as Arc<dyn LogDevice>)
            .build();
        for i in 0..2000u64 {
            log.insert(RecordKind::Filler, i, &[i as u8; 100]);
        }
        log.flush_all().unwrap();
        assert!(seg.live_segments() > 2, "stream must span segments");
        let records = log.reader().read_all().unwrap();
        assert_eq!(records.len(), 2000);
        // Recycle old segments; the tail is still readable.
        let keep_from = seg.live_segments() as u64 / 2 * (1 << 16);
        seg.truncate_before(Lsn(keep_from)).unwrap();
        assert!(seg.recycled_segments() > 0);
    }
}
