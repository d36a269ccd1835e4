//! Log sequence numbers.
//!
//! Aether (like ARIES) assigns every log record a unique, totally-ordered log
//! sequence number. Following §5 of the paper, the LSN doubles as the record's
//! byte address in the logical log stream, so *generating an LSN also reserves
//! buffer space*: the record that starts at `Lsn(n)` occupies bytes
//! `[n, n + len)` of the stream, and its position in the in-memory ring buffer
//! is `n mod capacity`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A log sequence number: a byte offset into the unbounded logical log stream.
///
/// `Lsn` is a strictly monotonic currency throughout the crate: buffer
/// reservations, release ordering, durability watermarks and recovery scans
/// all speak LSNs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The zero LSN: start of the log stream, and the "none" a record
    /// header's chain field holds.
    pub const ZERO: Lsn = Lsn(0);

    /// Largest representable LSN, used as a sentinel for "flush everything".
    pub const MAX: Lsn = Lsn(u64::MAX);

    /// Raw byte offset.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// True iff this is [`Lsn::ZERO`].
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The LSN `len` bytes past `self` — the end of a record of length `len`
    /// that starts here, i.e. the start LSN of the next record.
    #[inline]
    pub const fn advance(self, len: u64) -> Lsn {
        Lsn(self.0 + len)
    }

    /// Distance in bytes from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier > self`.
    #[inline]
    pub fn since(self, earlier: Lsn) -> u64 {
        debug_assert!(earlier.0 <= self.0, "LSN arithmetic went backwards");
        self.0 - earlier.0
    }

    /// Ring-buffer index of this LSN for a power-of-two capacity.
    #[inline]
    pub const fn ring_index(self, capacity_mask: u64) -> usize {
        (self.0 & capacity_mask) as usize
    }
}

impl Add<u64> for Lsn {
    type Output = Lsn;
    #[inline]
    fn add(self, rhs: u64) -> Lsn {
        Lsn(self.0 + rhs)
    }
}

impl AddAssign<u64> for Lsn {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Lsn> for Lsn {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Lsn) -> u64 {
        self.since(rhs)
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lsn({})", self.0)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Lsn {
    fn from(v: u64) -> Self {
        Lsn(v)
    }
}

/// An atomic LSN watermark (e.g. `released`, `durable`).
///
/// Thin wrapper over `AtomicU64` so call sites document *which* memory
/// ordering contract they rely on. Watermarks only move forward.
#[derive(Debug, Default)]
pub struct AtomicLsn(std::sync::atomic::AtomicU64);

impl AtomicLsn {
    /// New watermark starting at `lsn`.
    pub const fn new(lsn: Lsn) -> Self {
        AtomicLsn(std::sync::atomic::AtomicU64::new(lsn.0))
    }

    /// Acquire-load: pairs with [`AtomicLsn::fetch_max`] so that all byte
    /// writes performed before the advance are visible after this load.
    #[inline]
    pub fn load(&self) -> Lsn {
        Lsn(self.0.load(std::sync::atomic::Ordering::Acquire))
    }

    /// Advance to `max(current, lsn)` atomically; returns the new value.
    /// `SeqCst`: the durable watermark and the replica acks are waited on
    /// through a [`crate::runtime::WaitSet`], which needs its notifiers to
    /// publish that way.
    pub fn fetch_max(&self, lsn: Lsn) -> Lsn {
        let prev = self.0.fetch_max(lsn.0, std::sync::atomic::Ordering::SeqCst);
        Lsn(prev.max(lsn.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_since_roundtrip() {
        let a = Lsn(100);
        let b = a.advance(28);
        assert_eq!(b, Lsn(128));
        assert_eq!(b.since(a), 28);
        assert_eq!(b - a, 28);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Lsn(1) < Lsn(2));
        assert!(Lsn::ZERO < Lsn::MAX);
        assert_eq!(Lsn::default(), Lsn::ZERO);
    }

    #[test]
    fn ring_index_wraps_power_of_two() {
        let mask = 1024 - 1;
        assert_eq!(Lsn(0).ring_index(mask), 0);
        assert_eq!(Lsn(1023).ring_index(mask), 1023);
        assert_eq!(Lsn(1024).ring_index(mask), 0);
        assert_eq!(Lsn(1030).ring_index(mask), 6);
    }

    #[test]
    fn atomic_watermark_advances() {
        let w = AtomicLsn::new(Lsn(10));
        assert_eq!(w.load(), Lsn(10));
        assert_eq!(w.fetch_max(Lsn(20)), Lsn(20));
        assert_eq!(w.load(), Lsn(20));
        assert_eq!(w.fetch_max(Lsn(15)), Lsn(20));
        assert_eq!(w.fetch_max(Lsn(25)), Lsn(25));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn since_panics_backwards_in_debug() {
        let _ = Lsn(5).since(Lsn(6));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Lsn(7)), "7");
        assert_eq!(format!("{:?}", Lsn(7)), "Lsn(7)");
        assert_eq!(Lsn::from(9u64), Lsn(9));
        assert!(Lsn::ZERO.is_zero());
        assert!(!Lsn(3).is_zero());
        assert_eq!(Lsn(3).raw(), 3);
    }

    #[test]
    fn add_assign_works() {
        let mut l = Lsn(1);
        l += 9;
        assert_eq!(l, Lsn(10));
        assert_eq!(l + 5, Lsn(15));
    }
}
