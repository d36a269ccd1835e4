//! The circular in-memory log buffer.
//!
//! The ring is a power-of-two byte array addressed directly by LSN
//! (`index = lsn & mask`). The key concurrency property — the reason the
//! decoupled designs of §5.2 are sound — is that **reserved regions never
//! overlap**: LSN generation hands each thread a disjoint `[start, end)`
//! byte range, so concurrent fills touch disjoint memory and need no
//! synchronization beyond the publication of the `released` watermark.
//!
//! The ring therefore exposes `unsafe` read/write primitives whose safety
//! contract is exactly that reservation discipline; every buffer variant in
//! [`crate::buffer`] upholds it by construction.

use std::cell::UnsafeCell;

/// A fixed-capacity circular byte buffer indexed by LSN.
pub struct Ring {
    buf: Box<[UnsafeCell<u8>]>,
    mask: u64,
}

// SAFETY: all access to the interior bytes goes through `write_at`/`read_at`,
// whose contracts require callers to guarantee exclusive (for writes) or
// stable (for reads) access to the byte ranges involved. The buffer variants
// enforce this via LSN-space reservation.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    /// Create a ring with `capacity` bytes. `capacity` must be a power of two
    /// (checked) so LSN masking is a single AND.
    pub fn new(capacity: usize) -> Ring {
        assert!(
            capacity.is_power_of_two() && capacity >= 64,
            "ring capacity must be a power of two >= 64, got {capacity}"
        );
        // A zeroed allocation, not a fill: the OS hands out zeroed pages.
        let zeroed = Box::into_raw(vec![0u8; capacity].into_boxed_slice());
        // SAFETY: `UnsafeCell<u8>` is `repr(transparent)` over `u8`, so the
        // slice has the same layout, and the box's ownership moves over.
        let buf = unsafe { Box::from_raw(zeroed as *mut [UnsafeCell<u8>]) };
        Ring {
            buf,
            mask: (capacity - 1) as u64,
        }
    }

    /// Capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// Mask for LSN → index translation.
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Copy `src` into the ring at stream offset `at` (wrapping as needed).
    ///
    /// # Safety
    /// The byte range `[at, at + src.len())` of the log stream must be
    /// exclusively reserved by the caller: no concurrent `write_at` may
    /// target an overlapping range, and no concurrent `read_at` may read it
    /// until the caller publishes the range (release-store of a watermark
    /// covering it).
    ///
    /// # Panics
    /// Panics if `src.len()` exceeds the ring capacity.
    #[inline]
    pub unsafe fn write_at(&self, at: u64, src: &[u8]) {
        assert!(
            src.len() as u64 <= self.capacity(),
            "write larger than ring"
        );
        let idx = (at & self.mask) as usize;
        let cap = self.capacity() as usize;
        let first = src.len().min(cap - idx);
        // SAFETY: per the function contract the target range is exclusively
        // owned by this thread; UnsafeCell grants interior mutability.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.buf[idx].get(), first);
            if first < src.len() {
                // wrapped: remainder goes to the start of the ring
                std::ptr::copy_nonoverlapping(
                    src.as_ptr().add(first),
                    self.buf[0].get(),
                    src.len() - first,
                );
            }
        }
    }

    /// Borrow the bytes `[at, at + len)` of the log stream directly out of
    /// the ring, as at most two contiguous slices (the second is empty when
    /// the range does not wrap). This is the zero-copy counterpart of
    /// [`Ring::read_at`]: the flush daemon hands these slices straight to
    /// [`crate::device::LogDevice::write_vectored`] instead of staging them
    /// through a scratch buffer.
    ///
    /// # Safety
    /// As for [`Ring::read_at`], the range must have been published and not
    /// yet reclaimed — and additionally it must remain unreclaimed for the
    /// whole lifetime of the returned slices, since they alias the ring's
    /// storage. In practice only the single reclaimer (the flush daemon) can
    /// uphold this: it does not advance the durable watermark until it is
    /// done with the slices.
    ///
    /// # Panics
    /// Panics if `len` exceeds the ring capacity.
    #[inline]
    pub unsafe fn read_slices(&self, at: u64, len: usize) -> (&[u8], &[u8]) {
        assert!(len as u64 <= self.capacity(), "read larger than ring");
        let idx = (at & self.mask) as usize;
        let cap = self.capacity() as usize;
        let first = len.min(cap - idx);
        // SAFETY: per the function contract the range is published, stable
        // and stays unreclaimed while the borrows live.
        unsafe {
            (
                std::slice::from_raw_parts(self.buf[idx].get(), first),
                std::slice::from_raw_parts(self.buf[0].get(), len - first),
            )
        }
    }

    /// Copy `dst.len()` bytes out of the ring starting at stream offset `at`.
    ///
    /// # Safety
    /// The byte range `[at, at + dst.len())` must have been published (an
    /// acquire-load of a watermark covering it must have been observed) and
    /// must not yet have been reclaimed for overwriting (i.e. it is within
    /// `capacity` bytes of the current reservation frontier).
    #[inline]
    pub unsafe fn read_at(&self, at: u64, dst: &mut [u8]) {
        assert!(dst.len() as u64 <= self.capacity(), "read larger than ring");
        let idx = (at & self.mask) as usize;
        let cap = self.capacity() as usize;
        let first = dst.len().min(cap - idx);
        // SAFETY: per the function contract the range is stable (published,
        // not reclaimed) for the duration of the copy.
        unsafe {
            std::ptr::copy_nonoverlapping(self.buf[idx].get(), dst.as_mut_ptr(), first);
            if first < dst.len() {
                std::ptr::copy_nonoverlapping(
                    self.buf[0].get(),
                    dst.as_mut_ptr().add(first),
                    dst.len() - first,
                );
            }
        }
    }
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_no_wrap() {
        let r = Ring::new(256);
        let data = b"hello ring buffer";
        unsafe { r.write_at(10, data) };
        let mut out = vec![0u8; data.len()];
        unsafe { r.read_at(10, &mut out) };
        assert_eq!(&out, data);
    }

    #[test]
    fn roundtrip_wrapping() {
        let r = Ring::new(64);
        let data: Vec<u8> = (0..50).collect();
        // offset 40 in a 64-byte ring: 24 bytes fit, 26 wrap
        unsafe { r.write_at(1000 * 64 + 40, &data) };
        let mut out = vec![0u8; 50];
        unsafe { r.read_at(1000 * 64 + 40, &mut out) };
        assert_eq!(out, data);
    }

    #[test]
    fn read_slices_match_copying_reads() {
        let r = Ring::new(64);
        let data: Vec<u8> = (0..50).collect();
        unsafe { r.write_at(40, &data) };
        // Wrapping range: 24 bytes at the tail, 26 at the head.
        let (a, b) = unsafe { r.read_slices(40, 50) };
        assert_eq!(a.len(), 24);
        assert_eq!(b.len(), 26);
        let joined: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(joined, data);
        // Non-wrapping range: second slice empty.
        let (a, b) = unsafe { r.read_slices(0, 30) };
        assert_eq!(a.len(), 30);
        assert!(b.is_empty());
        // Zero-length range.
        let (a, b) = unsafe { r.read_slices(17, 0) };
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn exact_capacity_write() {
        let r = Ring::new(64);
        let data: Vec<u8> = (0..64).collect();
        unsafe { r.write_at(7, &data) };
        let mut out = vec![0u8; 64];
        unsafe { r.read_at(7, &mut out) };
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic]
    fn oversized_write_panics() {
        let r = Ring::new(64);
        let data = vec![0u8; 65];
        unsafe { r.write_at(0, &data) };
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_panics() {
        let _ = Ring::new(100);
    }

    #[test]
    fn disjoint_concurrent_writes() {
        use std::sync::Arc;
        let r = Arc::new(Ring::new(1 << 16));
        let mut handles = vec![];
        for t in 0..8u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let pattern = vec![t as u8 + 1; 512];
                for i in 0..16 {
                    let at = t * 8192 + i * 512;
                    unsafe { r.write_at(at, &pattern) };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u64 {
            let mut out = vec![0u8; 512];
            unsafe { r.read_at(t * 8192, &mut out) };
            assert!(out.iter().all(|&b| b == t as u8 + 1));
        }
    }
}
