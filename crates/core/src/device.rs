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
//! [`FaultDevice`] wraps any of them and injects the device faults the tests
//! and the simulator need, from a script of [`DeviceFault`] lines.

use crate::error::Result;
use crate::lsn::Lsn;
use crate::runtime::{lock, WaitSet};
use std::io::{Seek, SeekFrom, Write};
use std::mem::discriminant;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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

    /// What a crash leaves, if the device can say: the synced prefix of the
    /// retained stream (every byte a completed [`LogDevice::sync`] covers,
    /// from [`LogDevice::low_water`] on) with the offset of its first byte.
    /// Written-but-unsynced bytes are lost, as are the ring's contents;
    /// [`SimDevice::from_image`] rebuilds a device from the pair.
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
/// A `sync` covers every byte appended before it started, and a crash
/// ([`LogDevice::snapshot`]) keeps only the synced prefix.
#[derive(Debug)]
pub struct SimDevice {
    base: Lsn,
    data: Mutex<Vec<u8>>,
    /// Stream length, stored under `data`: a sync reads it without waiting
    /// behind the next group's copy.
    len: AtomicU64,
    /// Stream offset one past the last byte a completed `sync` covers.
    synced: AtomicU64,
    latency: Duration,
}

impl SimDevice {
    /// New empty device at stream offset zero with the given per-sync latency.
    pub fn new(latency: Duration) -> Self {
        SimDevice {
            base: Lsn::ZERO,
            data: Mutex::new(Vec::new()),
            len: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            latency,
        }
    }

    /// Rebuild a device from what [`LogDevice::snapshot`] returned: `bytes`
    /// are synced at stream offsets `[start, start + bytes.len())`, nothing
    /// below `start` is readable, and appends continue at the end.
    pub fn from_image(start: Lsn, bytes: Vec<u8>) -> Self {
        let end = start.raw() + bytes.len() as u64;
        SimDevice {
            base: start,
            data: Mutex::new(bytes),
            len: AtomicU64::new(end),
            synced: AtomicU64::new(end),
            latency: Duration::ZERO,
        }
    }

    /// Copy of the stored bytes, synced or not: `[low_water, len)`.
    pub fn contents(&self) -> Vec<u8> {
        lock(&self.data).clone()
    }

    /// Cut the stream off at `stream_len` — crash-injection tests and
    /// recovery clip a torn tail this way.
    pub fn truncate(&self, stream_len: u64) {
        let mut data = lock(&self.data);
        data.truncate(stream_len.saturating_sub(self.base.raw()) as usize);
        let len = self.base.raw() + data.len() as u64;
        self.len.store(len, Ordering::Release);
        self.synced.fetch_min(len, Ordering::AcqRel);
    }
}

impl LogDevice for SimDevice {
    fn write_vectored(&self, bufs: &[&[u8]]) -> Result<()> {
        let mut data = lock(&self.data);
        data.reserve(bufs.iter().map(|b| b.len()).sum());
        for b in bufs {
            data.extend_from_slice(b);
        }
        self.len
            .store(self.base.raw() + data.len() as u64, Ordering::Release);
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        let covered = self.len.load(Ordering::Acquire);
        precise_sleep(self.latency);
        self.synced.fetch_max(covered, Ordering::AcqRel);
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
        self.len.load(Ordering::Acquire)
    }
    fn low_water(&self) -> Lsn {
        self.base
    }
    fn snapshot(&self) -> Option<(Lsn, Vec<u8>)> {
        let data = lock(&self.data);
        let synced = self.synced.load(Ordering::Acquire) - self.base.raw();
        Some((self.base, data[..synced as usize].to_vec()))
    }
}

/// One line of a [`FaultDevice`]'s script; arming a line replaces the armed
/// line of its kind. "The nth sync" counts the syncs started after arming,
/// from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFault {
    /// Fail `times` syncs from the `nth` on (`times: u64::MAX`: for good),
    /// with `ErrorKind::Interrupted`, which the flush daemon retries, if
    /// `transient`, else with EIO.
    #[allow(missing_docs)]
    FailSync {
        nth: u64,
        times: u64,
        transient: bool,
    },
    /// Park the nth sync (`None`: every sync) until [`FaultDevice::release`].
    HoldSync(Option<u64>),
    /// The next write lands its first this many bytes, then the device goes
    /// dark: later writes are dropped, and syncs succeed and persist nothing.
    TearWrite(u64),
    /// `truncate_before` recycles nothing (a wedged recycler).
    TruncateStuck,
    /// `truncate_before` fails with `DiskFull` (the recycler hits ENOSPC).
    TruncateFull,
    /// `read_at` returns at most this many bytes, as the contract allows.
    ShortReads(usize),
    /// A crash ([`LogDevice::snapshot`]) keeps the synced prefix and the
    /// first this many written-but-unsynced bytes: a torn in-flight group.
    CrashKeeps(u64),
}

/// The one fault-injecting device: wraps any [`LogDevice`] and misbehaves as
/// its armed [`DeviceFault`] lines say. It counts its syncs, and never
/// reports [`LogDevice::discards`], so over a [`NullDevice`] it keeps nothing
/// yet runs a flush daemon. Works under both runtimes.
pub struct FaultDevice {
    inner: Arc<dyn LogDevice>,
    /// Armed lines, each with the count of syncs started when it was armed.
    script: Mutex<Vec<(u64, DeviceFault)>>,
    started: AtomicU64,
    /// Syncs that returned `Ok`.
    synced: AtomicU64,
    /// Syncs parked at the hold gate.
    blocked: AtomicUsize,
    dark: AtomicBool,
    /// Held syncs park here, and so do [`FaultDevice::wait_blocked`] callers.
    gate: WaitSet,
}

impl FaultDevice {
    /// Wrap `inner` with `script` armed.
    pub fn new(inner: Arc<dyn LogDevice>, script: &[DeviceFault]) -> FaultDevice {
        FaultDevice {
            inner,
            script: Mutex::new(script.iter().map(|&f| (0, f)).collect()),
            started: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            blocked: AtomicUsize::new(0),
            dark: AtomicBool::new(false),
            gate: WaitSet::new(),
        }
    }

    /// Arm `fault`, replacing the armed line of its kind.
    pub fn arm(&self, fault: DeviceFault) {
        let from = self.started.load(Ordering::SeqCst);
        let mut script = lock(&self.script);
        script.retain(|(_, l)| discriminant(l) != discriminant(&fault));
        script.push((from, fault));
    }

    /// Disarm the line of `fault`'s kind; a disarmed hold lets its syncs go.
    pub fn disarm(&self, fault: DeviceFault) {
        lock(&self.script).retain(|(_, l)| discriminant(l) != discriminant(&fault));
        fence(Ordering::SeqCst);
        self.gate.notify();
    }

    /// Let held syncs through and hold no more.
    pub fn release(&self) {
        self.disarm(DeviceFault::HoldSync(None));
    }

    /// Block until `syncs` syncs are parked at the hold gate.
    pub fn wait_blocked(&self, syncs: usize) {
        let parked = || (self.blocked.load(Ordering::SeqCst) >= syncs).then_some(());
        self.gate.wait_until(None, parked);
    }

    /// Syncs that returned `Ok` so far.
    pub fn syncs(&self) -> u64 {
        self.synced.load(Ordering::SeqCst)
    }

    /// True once a torn write has fired.
    pub fn is_dark(&self) -> bool {
        self.dark.load(Ordering::SeqCst)
    }

    /// Bytes written past the synced prefix: the most a crash can keep.
    pub fn unsynced_len(&self) -> u64 {
        let (start, bytes) = self.inner.snapshot().unwrap_or_default();
        self.inner.len() - start.raw() - bytes.len() as u64
    }

    /// What the first armed line `pick` maps says, given the sync count at
    /// its arming.
    fn armed<T>(&self, pick: impl Fn(u64, DeviceFault) -> Option<T>) -> Option<T> {
        lock(&self.script)
            .iter()
            .find_map(|&(from, l)| pick(from, l))
    }

    /// Whether sync number `n` waits at the gate.
    fn holds(&self, n: u64) -> bool {
        self.armed(|from, l| match l {
            DeviceFault::HoldSync(nth) => nth.map_or(n > from, |k| n == from + k).then_some(()),
            _ => None,
        })
        .is_some()
    }
}

impl LogDevice for FaultDevice {
    fn write_vectored(&self, bufs: &[&[u8]]) -> Result<()> {
        let tear = self.armed(|_, l| match l {
            DeviceFault::TearWrite(keep) => Some(keep as usize),
            _ => None,
        });
        match tear {
            _ if self.is_dark() => Ok(()),
            None => self.inner.write_vectored(bufs),
            Some(keep) => {
                self.dark.store(true, Ordering::SeqCst);
                let all = bufs.concat();
                self.inner.append(&all[..keep.min(all.len())])
            }
        }
    }
    fn sync(&self) -> Result<()> {
        let n = self.started.fetch_add(1, Ordering::SeqCst) + 1;
        if self.holds(n) {
            self.blocked.fetch_add(1, Ordering::SeqCst);
            self.gate.notify();
            self.gate
                .wait_until(None, || (!self.holds(n)).then_some(()));
            self.blocked.fetch_sub(1, Ordering::SeqCst);
        }
        let fail = self.armed(|from, l| match l {
            DeviceFault::FailSync {
                nth,
                times,
                transient,
            } => (n.checked_sub(from.saturating_add(nth))? < times).then_some(transient),
            _ => None,
        });
        match fail {
            Some(true) => Err(std::io::Error::from(std::io::ErrorKind::Interrupted).into()),
            Some(false) => Err(std::io::Error::from_raw_os_error(5).into()),
            None => {
                if !self.is_dark() {
                    self.inner.sync()?;
                }
                self.synced.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }
    }
    fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<usize> {
        let most = self.armed(|_, l| match l {
            DeviceFault::ShortReads(most) => Some(most),
            _ => None,
        });
        let n = dst.len().min(most.unwrap_or(usize::MAX));
        self.inner.read_at(offset, &mut dst[..n])
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn low_water(&self) -> Lsn {
        self.inner.low_water()
    }
    fn truncate_before(&self, upto: Lsn) -> Result<usize> {
        let wedged = self.armed(|_, l| match l {
            DeviceFault::TruncateStuck => Some(Ok(0)),
            DeviceFault::TruncateFull => Some(Err(crate::error::AetherError::DiskFull)),
            _ => None,
        });
        wedged.unwrap_or_else(|| self.inner.truncate_before(upto))
    }
    /// The inner device's synced prefix, and what an armed
    /// [`DeviceFault::CrashKeeps`] keeps of the written bytes after it.
    fn snapshot(&self) -> Option<(Lsn, Vec<u8>)> {
        let (start, mut bytes) = self.inner.snapshot()?;
        let keep = self.armed(|_, l| match l {
            DeviceFault::CrashKeeps(n) => Some(n),
            _ => None,
        });
        let synced = bytes.len();
        let end = start.raw() + synced as u64;
        bytes.resize(
            synced + keep.unwrap_or(0).min(self.inner.len() - end) as usize,
            0,
        );
        let got = self.inner.read_at(end, &mut bytes[synced..]).ok()?;
        bytes.truncate(synced + got);
        Some((start, bytes))
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
    pub fn build(&self) -> Result<Arc<dyn LogDevice>> {
        Ok(match self {
            DeviceKind::Null => Arc::new(NullDevice::new()),
            DeviceKind::Ram => Arc::new(SimDevice::new(Duration::ZERO)),
            DeviceKind::Flash => Arc::new(SimDevice::new(Duration::from_micros(100))),
            DeviceKind::FastDisk => Arc::new(SimDevice::new(Duration::from_millis(1))),
            DeviceKind::SlowDisk => Arc::new(SimDevice::new(Duration::from_millis(10))),
            DeviceKind::CustomUs(us) => Arc::new(SimDevice::new(Duration::from_micros(*us))),
            DeviceKind::File(p) => Arc::new(FileDevice::create(p)?),
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
    fn sim_device_crash_keeps_only_synced_bytes() {
        let d = SimDevice::new(Duration::ZERO);
        d.append(b"synced").unwrap();
        d.sync().unwrap();
        d.append(b" pending").unwrap();
        assert_eq!(d.len(), 14);
        assert_eq!(d.snapshot().unwrap(), (Lsn::ZERO, b"synced".to_vec()));
        // A clipped tail takes the synced mark down with it.
        d.truncate(3);
        assert_eq!(d.snapshot().unwrap().1, b"syn");
        // The bytes of an image are synced.
        let o = SimDevice::from_image(Lsn(1000), b"image".to_vec());
        o.append(b" lost").unwrap();
        assert_eq!(o.snapshot().unwrap(), (Lsn(1000), b"image".to_vec()));
    }

    fn faulty() -> Arc<FaultDevice> {
        Arc::new(FaultDevice::new(
            Arc::new(SimDevice::new(Duration::ZERO)),
            &[],
        ))
    }

    #[test]
    fn fault_device_holds_syncs_every_one_or_the_nth() {
        let d = faulty();
        d.append(b"synced").unwrap();
        d.sync().unwrap();
        d.arm(DeviceFault::HoldSync(None));
        d.append(b" pending").unwrap();
        let d2 = Arc::clone(&d);
        let t = std::thread::spawn(move || d2.sync().unwrap());
        d.wait_blocked(1);
        assert_eq!(d.len(), 14);
        assert_eq!(d.snapshot().unwrap().1, b"synced");
        d.release();
        t.join().unwrap();
        assert_eq!(d.snapshot().unwrap().1, b"synced pending");
        // Only the second sync from now waits; the third passes it.
        d.arm(DeviceFault::HoldSync(Some(2)));
        d.sync().unwrap();
        let d2 = Arc::clone(&d);
        let t = std::thread::spawn(move || d2.sync().unwrap());
        d.wait_blocked(1);
        d.sync().unwrap();
        assert_eq!(d.syncs(), 4);
        d.release();
        t.join().unwrap();
        assert_eq!(d.syncs(), 5);
    }

    #[test]
    fn fault_device_fails_syncs_transiently_or_for_good() {
        let d = faulty();
        d.arm(DeviceFault::FailSync {
            nth: 2,
            times: 2,
            transient: true,
        });
        d.sync().unwrap();
        assert!(d.sync().unwrap_err().is_transient());
        assert!(d.sync().is_err());
        d.sync().unwrap();
        d.arm(DeviceFault::FailSync {
            nth: 1,
            times: u64::MAX,
            transient: false,
        });
        for _ in 0..3 {
            assert!(!d.sync().unwrap_err().is_transient());
        }
        assert_eq!(d.syncs(), 2);
    }

    #[test]
    fn a_torn_write_goes_dark_and_a_crash_keeps_a_chosen_prefix() {
        let d = faulty();
        d.append(b"abcdef").unwrap();
        d.sync().unwrap();
        d.append(b"gh").unwrap();
        d.arm(DeviceFault::TearWrite(4));
        d.write_vectored(&[b"ijk", b"lmn"]).unwrap(); // lands "ijkl"
        assert!(d.is_dark());
        d.append(b"never").unwrap();
        d.sync().unwrap(); // acks, persists nothing
        assert_eq!(d.len(), 12);
        assert_eq!(d.unsynced_len(), 6);
        assert_eq!(d.snapshot().unwrap().1, b"abcdef");
        d.arm(DeviceFault::CrashKeeps(3));
        assert_eq!(d.snapshot().unwrap().1, b"abcdefghi");
        d.arm(DeviceFault::CrashKeeps(100));
        assert_eq!(d.snapshot().unwrap().1, b"abcdefghijkl");
    }

    #[test]
    fn fault_device_wedges_or_fails_truncation_and_shortens_reads() {
        use crate::partition::{MemSegmentFactory, SegmentedDevice};
        let seg = SegmentedDevice::new(Box::new(MemSegmentFactory), 4096).unwrap();
        let d = FaultDevice::new(Arc::new(seg), &[DeviceFault::TruncateStuck]);
        d.append(&[7u8; 4 * 4096]).unwrap();
        assert_eq!(d.truncate_before(Lsn(4096)).unwrap(), 0);
        d.disarm(DeviceFault::TruncateStuck);
        d.arm(DeviceFault::TruncateFull);
        assert!(matches!(
            d.truncate_before(Lsn(4096)),
            Err(crate::error::AetherError::DiskFull)
        ));
        assert_eq!(d.low_water(), Lsn::ZERO, "nothing dropped on failure");
        d.disarm(DeviceFault::TruncateFull);
        assert_eq!(d.truncate_before(Lsn(4096)).unwrap(), 1);
        d.arm(DeviceFault::ShortReads(7));
        assert_eq!(d.read_at(4096, &mut [0u8; 100]).unwrap(), 7);
    }
}
