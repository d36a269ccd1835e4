//! A fault-injecting [`LogDevice`] wrapper.
//!
//! [`FaultDevice`] sits between the flush daemon and the real device and
//! misbehaves on command:
//!
//! * **Torn write + power loss** ([`FaultDevice::arm_torn_write`]): the next
//!   append lands only a prefix, then the device goes dark — every later
//!   append is silently dropped and syncs succeed without persisting
//!   anything. This is the lying-disk model: the upper layers keep acking,
//!   but the bytes are gone, exactly like a crash after a torn sector.
//! * **Stuck truncation** ([`FaultDevice::set_truncate_stuck`]):
//!   `truncate_before` reports zero recycled segments, modeling a recycler
//!   wedged on a full metadata store. Correctness must not depend on
//!   reclamation ever succeeding — only boundedness does.
//!
//! Reads always pass through, so a crash image taken from a torn device
//! reflects precisely the bytes that "survived".

use aether_core::device::LogDevice;
use aether_core::error::Result;
use aether_core::Lsn;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Wraps an inner log device with switchable write/truncate faults.
pub struct FaultDevice {
    inner: Arc<dyn LogDevice>,
    /// When set, the next write keeps at most this many bytes, then the
    /// device freezes. `u64::MAX` = disarmed.
    tear_keep: AtomicU64,
    /// Dark-device mode: appends dropped, syncs lie.
    frozen: AtomicBool,
    /// Truncation wedged: `truncate_before` recycles nothing.
    truncate_stuck: AtomicBool,
    /// Truncation fails with `AetherError::DiskFull` (recycler needs scratch
    /// space it cannot get — the ENOSPC-on-truncate paradox).
    truncate_enospc: AtomicBool,
    /// The next N syncs fail with a *transient* I/O error
    /// (`ErrorKind::Interrupted`) — the flush daemon's retry fodder.
    sync_fails: AtomicU64,
    /// Appends (fully or partially) dropped since the freeze.
    dropped_writes: AtomicU64,
}

impl std::fmt::Debug for FaultDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultDevice")
            .field("frozen", &self.frozen.load(Ordering::Relaxed))
            .field(
                "dropped_writes",
                &self.dropped_writes.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl FaultDevice {
    /// Wrap `inner`; all faults start disarmed.
    pub fn new(inner: Arc<dyn LogDevice>) -> Arc<FaultDevice> {
        Arc::new(FaultDevice {
            inner,
            tear_keep: AtomicU64::new(u64::MAX),
            frozen: AtomicBool::new(false),
            truncate_stuck: AtomicBool::new(false),
            truncate_enospc: AtomicBool::new(false),
            sync_fails: AtomicU64::new(0),
            dropped_writes: AtomicU64::new(0),
        })
    }

    /// Arm the torn-write fault: the next write keeps at most `keep` bytes
    /// and the device then goes dark.
    pub fn arm_torn_write(&self, keep: u64) {
        self.tear_keep.store(keep, Ordering::SeqCst);
    }

    /// Go dark immediately (a clean power cut at a write boundary).
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::SeqCst);
    }

    /// True once a tear or freeze has fired.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::SeqCst)
    }

    /// Wedge (or unwedge) truncation.
    pub fn set_truncate_stuck(&self, stuck: bool) {
        self.truncate_stuck.store(stuck, Ordering::SeqCst);
    }

    /// Make (or stop making) truncation fail with `DiskFull`: the recycler
    /// itself hits ENOSPC. Distinct from [`FaultDevice::set_truncate_stuck`]
    /// — this arm surfaces a typed *error*, not a silent zero.
    pub fn set_truncate_enospc(&self, on: bool) {
        self.truncate_enospc.store(on, Ordering::SeqCst);
    }

    /// Fail the next `n` syncs with a transient I/O error
    /// (`ErrorKind::Interrupted`). The flush daemon's bounded retry should
    /// absorb `n` below its attempt budget; above it, the log poisons.
    pub fn fail_syncs(&self, n: u64) {
        self.sync_fails.store(n, Ordering::SeqCst);
    }

    /// Writes fully or partially dropped since the device went dark.
    pub fn dropped_writes(&self) -> u64 {
        self.dropped_writes.load(Ordering::Relaxed)
    }
}

impl LogDevice for FaultDevice {
    /// Apply the armed tear to the first run it covers, drop everything
    /// once frozen.
    fn write_vectored(&self, bufs: &[&[u8]]) -> Result<()> {
        if self.frozen.load(Ordering::SeqCst) {
            self.dropped_writes.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let keep = self.tear_keep.swap(u64::MAX, Ordering::SeqCst);
        if keep == u64::MAX {
            return self.inner.write_vectored(bufs);
        }
        // Tear fires on this write: land `keep` bytes, then go dark.
        let mut budget = keep as usize;
        for b in bufs {
            let n = b.len().min(budget);
            if n > 0 {
                self.inner.append(&b[..n])?;
                budget -= n;
            }
        }
        self.frozen.store(true, Ordering::SeqCst);
        self.dropped_writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn sync(&self) -> Result<()> {
        if self.frozen.load(Ordering::SeqCst) {
            // A dark device acks syncs instantly: the lie that makes torn
            // tails interesting.
            return Ok(());
        }
        if self
            .sync_fails
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(
                std::io::Error::new(std::io::ErrorKind::Interrupted, "injected sync blip").into(),
            );
        }
        self.inner.sync()
    }
    fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<usize> {
        self.inner.read_at(offset, dst)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn snapshot(&self) -> Option<(Lsn, Vec<u8>)> {
        self.inner.snapshot()
    }
    fn low_water(&self) -> Lsn {
        self.inner.low_water()
    }
    fn truncate_before(&self, upto: Lsn) -> Result<usize> {
        if self.truncate_enospc.load(Ordering::SeqCst) {
            return Err(aether_core::AetherError::DiskFull);
        }
        if self.truncate_stuck.load(Ordering::SeqCst) {
            return Ok(0);
        }
        self.inner.truncate_before(upto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aether_core::device::SimDevice;
    use std::time::Duration;

    fn dev() -> (Arc<SimDevice>, Arc<FaultDevice>) {
        let inner = Arc::new(SimDevice::new(Duration::ZERO));
        let f = FaultDevice::new(Arc::clone(&inner) as Arc<dyn LogDevice>);
        (inner, f)
    }

    #[test]
    fn passthrough_until_armed() {
        let (_, f) = dev();
        f.append(b"hello ").unwrap();
        f.write_vectored(&[b"wo", b"rld"]).unwrap();
        f.sync().unwrap();
        assert_eq!(f.len(), 11);
        assert_eq!(f.snapshot().unwrap().1, b"hello world");
        assert_eq!(f.dropped_writes(), 0);
    }

    #[test]
    fn torn_write_keeps_prefix_then_goes_dark() {
        let (inner, f) = dev();
        f.append(b"abcdef").unwrap();
        f.arm_torn_write(4);
        f.write_vectored(&[b"ghi", b"jkl"]).unwrap(); // lands "ghij"
        assert!(f.is_frozen());
        f.append(b"never").unwrap(); // dropped
        f.sync().unwrap(); // lies
        assert_eq!(inner.contents(), b"abcdefghij");
        assert_eq!(f.dropped_writes(), 2);
    }

    #[test]
    fn tear_larger_than_write_still_freezes() {
        let (inner, f) = dev();
        f.arm_torn_write(1000);
        f.append(b"all of it").unwrap();
        assert!(f.is_frozen());
        assert_eq!(inner.contents(), b"all of it");
    }

    #[test]
    fn stuck_truncation_recycles_nothing() {
        use aether_core::partition::{MemSegmentFactory, SegmentedDevice};
        let seg = Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 4096).unwrap());
        let f = FaultDevice::new(Arc::clone(&seg) as Arc<dyn LogDevice>);
        for _ in 0..8 {
            f.append(&[7u8; 4096]).unwrap();
        }
        f.set_truncate_stuck(true);
        assert_eq!(f.truncate_before(Lsn(2 * 4096)).unwrap(), 0);
        assert_eq!(f.low_water(), Lsn::ZERO);
        f.set_truncate_stuck(false);
        assert!(f.truncate_before(Lsn(2 * 4096)).unwrap() > 0);
    }

    #[test]
    fn enospc_truncation_surfaces_typed_error() {
        use aether_core::partition::{MemSegmentFactory, SegmentedDevice};
        let seg = Arc::new(SegmentedDevice::new(Box::new(MemSegmentFactory), 4096).unwrap());
        let f = FaultDevice::new(Arc::clone(&seg) as Arc<dyn LogDevice>);
        for _ in 0..4 {
            f.append(&[7u8; 4096]).unwrap();
        }
        f.set_truncate_enospc(true);
        assert!(matches!(
            f.truncate_before(Lsn(4096)),
            Err(aether_core::AetherError::DiskFull)
        ));
        assert_eq!(f.low_water(), Lsn::ZERO, "nothing dropped on failure");
        f.set_truncate_enospc(false);
        assert!(f.truncate_before(Lsn(4096)).unwrap() > 0);
    }

    #[test]
    fn sync_blips_are_transient_and_bounded() {
        let (_, f) = dev();
        f.append(b"x").unwrap();
        f.fail_syncs(2);
        let e = f.sync().unwrap_err();
        assert!(e.is_transient(), "injected blip must classify transient");
        assert!(f.sync().is_err());
        f.sync().unwrap();
    }
}
