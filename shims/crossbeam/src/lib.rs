//! Offline shim for the `crossbeam` crate: just the piece Aether uses,
//! `utils::CachePadded`.

/// Utilities: cache-line padding.
pub mod utils {
    use std::fmt;
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to 128 bytes so neighbouring values never
    /// share a cache line (avoids false sharing between per-thread counters).
    #[derive(Default, Clone, Copy, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Pad `value`.
        pub const fn new(value: T) -> Self {
            CachePadded { value }
        }

        /// Unwrap, returning the inner value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            CachePadded::new(value)
        }
    }

    impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.value.fmt(f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::utils::CachePadded;

    #[test]
    fn cache_padded_is_aligned_and_transparent() {
        let p = CachePadded::new(42u64);
        assert_eq!(*p, 42);
        assert!(std::mem::align_of::<CachePadded<u64>>() >= 128);
        assert_eq!(p.into_inner(), 42);
    }
}
