//! Log devices: where flushed bytes go.
//!
//! §3.2 and §6.1 of the paper evaluate four latency classes, created "by
//! using a combination of asynchronous I/O and high resolution timers to
//! impose additional response times": ramdisk (~0), fast flash (100 µs), fast
//! magnetic disk (1 ms) and slow magnetic disk (10 ms). [`SimDevice`] does the
//! same — an in-memory append store plus an injected synchronous `sync()`
//! latency. [`FileDevice`] writes a real file with `fdatasync` for users who
//! want actual durability, and [`NullDevice`] discards writes so the
//! log-insert microbenchmarks (§6.3) measure pure buffer performance.

use crate::error::Result;
use crate::lsn::Lsn;
use crate::runtime::lock;
use std::io::{Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Abstraction over the durable end of the log.
///
/// The flush daemon appends byte runs in LSN order and calls [`LogDevice::sync`]
/// to make them durable; recovery reads them back with
/// [`LogDevice::read_at`].
pub trait LogDevice: Send + Sync {
    /// Append several byte runs as one logical append — the vectored drain.
    /// The flush daemon hands the ring's released window here as at most two
    /// slices (tail + wrapped head), so bytes go ring → device with no
    /// scratch copy in between. The runs are one contiguous span of the log
    /// stream; a partial failure leaves a prefix (a torn append).
    fn write_vectored(&self, bufs: &[&[u8]]) -> Result<()>;

    /// Append `data` at the device's write offset: a one-run
    /// [`LogDevice::write_vectored`]. Implementors do not override it.
    fn append(&self, data: &[u8]) -> Result<()> {
        self.write_vectored(&[data])
    }

    /// Make durable every byte appended before the call. This is where
    /// simulated write latency is charged, mirroring the paper's
    /// methodology. It may run concurrently with `write_vectored` and with
    /// other `sync` calls: the flush daemon syncs one group while it writes
    /// the next.
    fn sync(&self) -> Result<()>;

    /// Read up to `dst.len()` bytes starting at stream offset `offset`;
    /// returns the number of bytes read (0 at end of log and below
    /// [`LogDevice::low_water`]).
    fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<usize>;

    /// Stream length: the offset one past the last appended byte.
    fn len(&self) -> u64;

    /// True if the device has no content.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if writes are discarded (microbenchmark mode): the log manager
    /// then runs no flush daemon and reclaims ring space directly.
    fn discards(&self) -> bool {
        false
    }

    /// Stream offset of the first byte a scan may rely on (the log's
    /// low-water mark). Everything below has been truncated/recycled; on a
    /// device that never reclaims and starts at zero this is [`Lsn::ZERO`].
    /// Always a record boundary: truncation only ever lands on the LSN of a
    /// record start.
    fn low_water(&self) -> Lsn {
        Lsn::ZERO
    }

    /// Reclaim storage wholly below stream offset `upto`, if the device
    /// supports it; returns the number of storage units (segments) recycled.
    /// Devices without reclamation ignore the call. Callers must guarantee
    /// that no reader — recovery, replica shipping — still needs a byte
    /// below `upto` (see `LogManager::truncate_to`, which enforces this).
    /// Fallible: recycling may itself need I/O (renaming/unlinking segment
    /// files, rewriting a manifest) that can hit ENOSPC — the
    /// disk-full-on-truncate double fault the sim injects.
    fn truncate_before(&self, _upto: Lsn) -> Result<usize> {
        Ok(0)
    }

    /// Point-in-time copy of the *retained* durable contents together with
    /// the stream offset of the first returned byte ([`LogDevice::low_water`]),
    /// if the device supports it. Crash-injection tests use this to capture
    /// exactly the bytes that survived (ring contents are lost, as in a real
    /// crash); [`SimDevice::from_image`] rebuilds a device from the pair.
    fn snapshot(&self) -> Option<(Lsn, Vec<u8>)> {
        None
    }
}

pub use crate::runtime::precise_sleep;

/// Discards everything; tracks only length. Used by the Figure-8/11/12
/// microbenchmarks ("log insertions without flushes to disk").
#[derive(Debug, Default)]
pub struct NullDevice {
    len: AtomicU64,
}

impl NullDevice {
    /// New discarding device.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LogDevice for NullDevice {
    fn write_vectored(&self, bufs: &[&[u8]]) -> Result<()> {
        let total: u64 = bufs.iter().map(|b| b.len() as u64).sum();
        self.len.fetch_add(total, Ordering::Relaxed);
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        Ok(())
    }
    fn read_at(&self, _offset: u64, _dst: &mut [u8]) -> Result<usize> {
        Ok(0)
    }
    fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }
    fn discards(&self) -> bool {
        true
    }
}

/// In-memory append store with injected sync latency. `latency == 0` models
/// the paper's ramdisk; 100 µs a fast flash drive; 1 ms / 10 ms magnetic
/// drives.
///
/// The stored bytes are `[base, base + stored)` of the log stream. `base` is
/// zero for a fresh log and non-zero for a log rebuilt without its truncated
/// prefix: recovery from a crash image (materializing `base` zero bytes would
/// make recovery O(uptime) instead of O(retained)) and a replica's receive
/// log after a snapshot bootstrap (the shipped stream begins at the snapshot
/// LSN, not at zero).
#[derive(Debug)]
pub struct SimDevice {
    base: Lsn,
    data: Mutex<Vec<u8>>,
    latency: Duration,
}

impl SimDevice {
    /// New empty device at stream offset zero with the given per-sync latency.
    pub fn new(latency: Duration) -> Self {
        SimDevice {
            base: Lsn::ZERO,
            data: Mutex::new(Vec::new()),
            latency,
        }
    }

    /// Rebuild a device from what [`LogDevice::snapshot`] returned: `bytes`
    /// live at stream offsets `[start, start + bytes.len())`, nothing below
    /// `start` is readable, and appends continue at the end. No sync latency.
    pub fn from_image(start: Lsn, bytes: Vec<u8>) -> Self {
        SimDevice {
            base: start,
            data: Mutex::new(bytes),
            latency: Duration::ZERO,
        }
    }

    /// Copy of the stored bytes (stream offsets `[low_water, len)`).
    pub fn contents(&self) -> Vec<u8> {
        lock(&self.data).clone()
    }

    /// Cut the stream off at `stream_len` — crash-injection tests and
    /// recovery clip a torn tail this way.
    pub fn truncate(&self, stream_len: u64) {
        let keep = stream_len.saturating_sub(self.base.raw());
        lock(&self.data).truncate(keep as usize);
    }
}

impl LogDevice for SimDevice {
    fn write_vectored(&self, bufs: &[&[u8]]) -> Result<()> {
        let mut data = lock(&self.data);
        data.reserve(bufs.iter().map(|b| b.len()).sum());
        for b in bufs {
            data.extend_from_slice(b);
        }
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        precise_sleep(self.latency);
        Ok(())
    }
    fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<usize> {
        let data = lock(&self.data);
        // Below the base is the truncated prefix: nothing to read.
        let start = match offset.checked_sub(self.base.raw()) {
            Some(s) if s < data.len() as u64 => s as usize,
            _ => return Ok(0),
        };
        let n = dst.len().min(data.len() - start);
        dst[..n].copy_from_slice(&data[start..start + n]);
        Ok(n)
    }
    fn len(&self) -> u64 {
        self.base.raw() + lock(&self.data).len() as u64
    }
    fn low_water(&self) -> Lsn {
        self.base
    }
    fn snapshot(&self) -> Option<(Lsn, Vec<u8>)> {
        Some((self.base, self.contents()))
    }
}

/// An in-memory device that models durability honestly and whose `sync` can
/// be held: appended bytes become part of the crash snapshot only once a
/// `sync` completes, and while the device is held every `sync` blocks at the
/// gate. Tests use it to keep log bytes from becoming durable — a flush
/// daemon that flushes at once leaves no trigger to starve — and to line
/// commits up behind a flush that is in flight. Works under both runtimes.
#[derive(Debug)]
pub struct StallDevice {
    /// The appended bytes; charges the sync latency.
    store: SimDevice,
    gate: Mutex<StallGate>,
    cv: crate::runtime::RtCondvar,
}

#[derive(Debug, Default)]
struct StallGate {
    /// Prefix of the store covered by a completed `sync`.
    durable_len: usize,
    held: bool,
    /// `sync` calls currently blocked at the gate.
    blocked: usize,
}

impl StallDevice {
    /// New device, not held, charging `latency` on every `sync` that passes
    /// the gate.
    pub fn new(latency: Duration) -> StallDevice {
        StallDevice {
            store: SimDevice::new(latency),
            gate: Mutex::new(StallGate::default()),
            cv: crate::runtime::RtCondvar::new(),
        }
    }

    /// Hold the device: from now on `sync` blocks until [`StallDevice::release`].
    pub fn hold(&self) {
        lock(&self.gate).held = true;
    }

    /// Let blocked and future `sync` calls through.
    pub fn release(&self) {
        lock(&self.gate).held = false;
        self.cv.notify_all();
    }

    /// Block until `syncs` calls to `sync` are waiting at the gate: the
    /// flushes in flight have written their bytes and nothing more can
    /// become durable until release.
    pub fn wait_blocked(&self, syncs: usize) {
        let mut g = lock(&self.gate);
        while g.blocked < syncs {
            g = self.cv.wait(&self.gate, g);
        }
    }
}

impl LogDevice for StallDevice {
    fn write_vectored(&self, bufs: &[&[u8]]) -> Result<()> {
        self.store.write_vectored(bufs)
    }
    fn sync(&self) -> Result<()> {
        let mut g = lock(&self.gate);
        if g.held {
            g.blocked += 1;
            self.cv.notify_all();
            while g.held {
                g = self.cv.wait(&self.gate, g);
            }
            g.blocked -= 1;
        }
        drop(g);
        // This sync covers what was appended before it passed the gate.
        let covered = self.store.len() as usize;
        self.store.sync()?;
        let mut g = lock(&self.gate);
        g.durable_len = g.durable_len.max(covered);
        Ok(())
    }
    fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<usize> {
        self.store.read_at(offset, dst)
    }
    fn len(&self) -> u64 {
        self.store.len()
    }
    fn snapshot(&self) -> Option<(Lsn, Vec<u8>)> {
        let mut bytes = self.store.contents();
        bytes.truncate(lock(&self.gate).durable_len);
        Some((Lsn::ZERO, bytes))
    }
}

/// A real log file: appends then `fdatasync`s.
#[derive(Debug)]
pub struct FileDevice {
    file: Mutex<std::fs::File>,
    /// A second handle on the same file: `fdatasync` through it does not
    /// hold up the next append behind the append mutex.
    sync_handle: std::fs::File,
    len: AtomicU64,
    path: std::path::PathBuf,
}

impl FileDevice {
    /// Open (create/truncate) the log file at `path`.
    pub fn create(path: impl Into<std::path::PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(FileDevice {
            sync_handle: file.try_clone()?,
            file: Mutex::new(file),
            len: AtomicU64::new(0),
            path,
        })
    }

    /// Open an existing log file for recovery.
    pub fn open(path: impl Into<std::path::PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)?;
        let len = file.metadata()?.len();
        Ok(FileDevice {
            sync_handle: file.try_clone()?,
            file: Mutex::new(file),
            len: AtomicU64::new(len),
            path,
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl LogDevice for FileDevice {
    fn write_vectored(&self, bufs: &[&[u8]]) -> Result<()> {
        let mut f = lock(&self.file);
        f.seek(SeekFrom::End(0))?;
        // One seek, then gathered writes. `Write::write_vectored` may write
        // short, so drive each run with write_all — the bytes still go
        // straight from the ring to the file with no staging buffer.
        let mut written = 0u64;
        for b in bufs {
            f.write_all(b)?;
            written += b.len() as u64;
        }
        self.len.fetch_add(written, Ordering::Relaxed);
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        self.sync_handle.sync_data()?;
        Ok(())
    }
    fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<usize> {
        use std::io::Read;
        let mut f = lock(&self.file);
        f.seek(SeekFrom::Start(offset))?;
        let mut total = 0;
        while total < dst.len() {
            let n = f.read(&mut dst[total..])?;
            if n == 0 {
                break;
            }
            total += n;
        }
        Ok(total)
    }
    fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }
}

/// Convenience selector mirroring the paper's device classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceKind {
    /// Discard writes (microbenchmark mode).
    Null,
    /// In-memory, zero injected latency (ramdisk, the paper's "0 ms" series).
    Ram,
    /// 100 µs per sync (fast flash drive).
    Flash,
    /// 1 ms per sync (fast magnetic disk).
    FastDisk,
    /// 10 ms per sync (slow magnetic disk).
    SlowDisk,
    /// Arbitrary injected latency in microseconds.
    CustomUs(u64),
    /// Real file at the given path.
    File(std::path::PathBuf),
}

impl DeviceKind {
    /// Instantiate the device.
    pub fn build(&self) -> Result<std::sync::Arc<dyn LogDevice>> {
        Ok(match self {
            DeviceKind::Null => std::sync::Arc::new(NullDevice::new()),
            DeviceKind::Ram => std::sync::Arc::new(SimDevice::new(Duration::ZERO)),
            DeviceKind::Flash => std::sync::Arc::new(SimDevice::new(Duration::from_micros(100))),
            DeviceKind::FastDisk => std::sync::Arc::new(SimDevice::new(Duration::from_millis(1))),
            DeviceKind::SlowDisk => std::sync::Arc::new(SimDevice::new(Duration::from_millis(10))),
            DeviceKind::CustomUs(us) => {
                std::sync::Arc::new(SimDevice::new(Duration::from_micros(*us)))
            }
            DeviceKind::File(p) => std::sync::Arc::new(FileDevice::create(p)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_device_discards() {
        let d = NullDevice::new();
        d.append(b"hello").unwrap();
        assert_eq!(d.len(), 5);
        assert!(d.discards());
        let mut buf = [0u8; 4];
        assert_eq!(d.read_at(0, &mut buf).unwrap(), 0);
    }

    #[test]
    fn sim_device_latency_charged_on_sync() {
        let d = SimDevice::new(Duration::from_millis(2));
        d.append(b"x").unwrap();
        let t = crate::runtime::monotonic_ns();
        d.sync().unwrap();
        assert!(crate::runtime::monotonic_ns() - t >= 2_000_000);
    }

    #[test]
    fn sim_device_truncate_models_torn_tail() {
        let d = SimDevice::new(Duration::ZERO);
        d.append(b"0123456789").unwrap();
        d.truncate(4);
        assert_eq!(d.len(), 4);
        assert_eq!(d.contents(), b"0123".to_vec());
        // A rebased device clips in stream lengths too.
        let o = SimDevice::from_image(Lsn(1000), b"hello world".to_vec());
        o.truncate(1005);
        assert_eq!((o.len(), o.contents()), (1005, b"hello".to_vec()));
    }

    #[test]
    fn precise_sleep_is_never_early_and_rarely_late() {
        precise_sleep(Duration::ZERO); // no-op
        for us in [100u64, 200, 1000] {
            let mut over: Vec<u64> = (0..200)
                .map(|_| {
                    let t = crate::runtime::monotonic_ns();
                    precise_sleep(Duration::from_micros(us));
                    let dt = crate::runtime::monotonic_ns() - t;
                    assert!(dt >= us * 1000, "{us} µs sleep returned after {dt} ns");
                    dt - us * 1000
                })
                .collect();
            over.sort_unstable();
            assert!(
                over[100] <= if us < 1000 { 15_000 } else { 50_000 },
                "median overshoot of a {us} µs sleep is {} ns",
                over[100]
            );
        }
    }

    #[test]
    fn precise_sleep_is_exact_in_virtual_time() {
        let rt = crate::runtime::Runtime::sim(5);
        let _guard = rt.enter();
        for us in [100u64, 200, 1000] {
            let t = crate::runtime::monotonic_ns();
            precise_sleep(Duration::from_micros(us));
            assert_eq!(crate::runtime::monotonic_ns() - t, us * 1000);
        }
    }

    #[test]
    fn stall_device_holds_syncs_and_snapshots_only_synced_bytes() {
        let d = std::sync::Arc::new(StallDevice::new(Duration::ZERO));
        d.append(b"synced").unwrap();
        d.sync().unwrap();
        d.hold();
        d.append(b" pending").unwrap();
        let d2 = std::sync::Arc::clone(&d);
        let t = std::thread::spawn(move || d2.sync().unwrap());
        d.wait_blocked(1);
        assert_eq!(d.len(), 14);
        assert_eq!(d.snapshot().unwrap().1, b"synced");
        d.release();
        t.join().unwrap();
        assert_eq!(d.snapshot().unwrap().1, b"synced pending");
    }
}
