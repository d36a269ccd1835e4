//! [`Segmented`]: append-only storage whose elements never move.
//!
//! Tables, page frames and ATT slots are made as the database grows and are
//! never removed, so looking one up needs no lock and writes nothing shared:
//! the elements live in segments of doubling size, each allocated once and
//! freed only with the whole container, and a reference into one stays
//! valid for as long as the container lives.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Segment `k` holds `base << k` elements: 40 segments outgrow any memory.
const SEGMENTS: usize = 40;

/// Append-only, lock-free-to-read storage indexed from 0.
pub(crate) struct Segmented<T> {
    /// Elements in segment 0, a power of two.
    base: usize,
    segments: [OnceLock<Box<[OnceLock<T>]>>; SEGMENTS],
    /// One past the highest index initialized so far.
    len: AtomicUsize,
}

impl<T> Segmented<T> {
    /// Empty storage whose first segment holds at least `base` elements.
    pub(crate) fn new(base: usize) -> Self {
        Segmented {
            base: base.max(1).next_power_of_two(),
            segments: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Segment and offset of index `i`: segment `k` starts at
    /// `base * (2^k - 1)`.
    fn locate(&self, i: usize) -> (usize, usize) {
        let q = i / self.base + 1;
        let k = q.ilog2() as usize;
        (k, i - self.base * ((1 << k) - 1))
    }

    /// One past the highest index initialized.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The element at `i`, if it has been initialized.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        let (k, off) = self.locate(i);
        self.segments.get(k)?.get()?[off].get()
    }

    /// The element at `i`, made by `init` if nobody has made it yet.
    pub(crate) fn get_or_init(&self, i: usize, init: impl FnOnce() -> T) -> &T {
        if let Some(v) = self.get(i) {
            return v;
        }
        let (k, off) = self.locate(i);
        let segment =
            self.segments[k].get_or_init(|| (0..self.base << k).map(|_| OnceLock::new()).collect());
        let v = segment[off].get_or_init(init);
        self.len.fetch_max(i + 1, Ordering::AcqRel);
        v
    }

    /// Append `make(index)` at the first index nobody has taken; returns
    /// the index. Concurrent pushers each get their own.
    pub(crate) fn push_with(&self, make: impl Fn(usize) -> T) -> usize {
        let mut i = self.len();
        loop {
            let mut mine = false;
            self.get_or_init(i, || {
                mine = true;
                make(i)
            });
            if mine {
                return i;
            }
            i += 1;
        }
    }

    /// Every initialized element, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        (0..self.len()).filter_map(|i| self.get(i).map(|v| (i, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_map_onto_doubling_segments() {
        let s = Segmented::<u32>::new(3); // base 4: segments of 4, 8, 16, ...
        assert_eq!(s.locate(0), (0, 0));
        assert_eq!(s.locate(3), (0, 3));
        assert_eq!(s.locate(4), (1, 0));
        assert_eq!(s.locate(11), (1, 7));
        assert_eq!(s.locate(12), (2, 0));
        for i in 0..100 {
            assert_eq!(*s.get_or_init(i, || i as u32), i as u32);
        }
        assert_eq!(s.len(), 100);
        assert!(s.iter().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn elements_stay_put_and_gaps_read_as_absent() {
        let s = Segmented::<String>::new(2);
        let first = s.get_or_init(0, || "a".into()) as *const String;
        s.get_or_init(50, || "b".into());
        assert_eq!(s.get(0).unwrap() as *const String, first);
        assert!(s.get(10).is_none());
        assert_eq!(s.len(), 51);
        assert_eq!(s.iter().count(), 2);
        assert_eq!(s.push_with(|i| i.to_string()), 51);
    }
}
