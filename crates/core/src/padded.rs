//! [`CachePadded`]: a value on cache lines of its own.

use std::ops::Deref;

/// Pads and aligns a value to 128 bytes so neighbouring values never share a
/// cache line (avoids false sharing between per-thread counters).
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    pub(crate) const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::CachePadded;

    #[test]
    fn padded_values_own_their_lines() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(*CachePadded::new(42u64), 42);
    }
}
