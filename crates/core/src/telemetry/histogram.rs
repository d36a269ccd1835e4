//! Log-bucketed, sharded latency histogram (HDR-style).
//!
//! Values are bucketed on a log scale: the first [`SUB_COUNT`] buckets are
//! exact (one value each), and every power-of-two range above that is split
//! into [`SUB_COUNT`] equal-width sub-buckets. With 5 sub-bucket bits the
//! relative quantization error is bounded by `1/32` (~3.1%) for any value up
//! to `2^MAX_BITS` (≈18 minutes in nanoseconds); larger values clamp into the
//! top bucket while the exact maximum is still tracked separately.
//!
//! The record path is wait-free and allocation-free: each recording thread
//! hashes to one of a fixed set of cache-padded shards (assigned round-robin
//! at first use) and performs four relaxed atomic RMWs. Shards are merged
//! only at snapshot time; because the merge is a commutative sum, the merged
//! result is independent of shard assignment — which is what makes snapshots
//! byte-deterministic under `Runtime::sim` even though thread→shard mapping
//! varies run to run in real time.

use crate::padded::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of sub-bucket bits: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets.
pub const SUB_BITS: u32 = 5;
/// Sub-buckets per power-of-two range (`2^SUB_BITS`).
pub const SUB_COUNT: usize = 1 << SUB_BITS;
/// Values at or above `2^MAX_BITS` clamp into the final bucket.
pub const MAX_BITS: u32 = 40;
const SCALES: usize = (MAX_BITS - SUB_BITS) as usize;
/// Total bucket count.
pub const BUCKET_COUNT: usize = SUB_COUNT + SCALES * SUB_COUNT;

/// Map a value to its bucket index. Total order preserving: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    if msb >= MAX_BITS {
        return BUCKET_COUNT - 1;
    }
    let scale = (msb - SUB_BITS) as usize;
    let sub = (v >> (msb - SUB_BITS)) as usize - SUB_COUNT;
    SUB_COUNT + scale * SUB_COUNT + sub
}

/// Smallest value that maps into bucket `i`.
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    debug_assert!(i < BUCKET_COUNT);
    if i < SUB_COUNT {
        return i as u64;
    }
    let j = i - SUB_COUNT;
    let scale = j / SUB_COUNT;
    let sub = j % SUB_COUNT;
    ((SUB_COUNT + sub) as u64) << scale
}

/// Largest value that maps into bucket `i` (`u64::MAX` for the top bucket).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= BUCKET_COUNT {
        u64::MAX
    } else {
        bucket_lower(i + 1) - 1
    }
}

struct Shard {
    count: CachePadded<AtomicU64>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Shard {
    fn new() -> Self {
        let buckets = (0..BUCKET_COUNT)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Shard {
            count: CachePadded::new(AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets,
        }
    }
}

/// A sharded, lock-free, log-bucketed histogram.
pub struct Histogram {
    shards: Box<[Shard]>,
    mask: usize,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.merged();
        write!(f, "Histogram(count={}, max={})", s.count, s.max)
    }
}

impl Histogram {
    /// Allocate a histogram with `shards` cache-padded shards (rounded up to
    /// a power of two, at least 1). All memory is allocated here; recording
    /// never allocates.
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| Shard::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Histogram {
            mask: n - 1,
            shards,
        }
    }

    /// Record one observation. Wait-free: four relaxed RMWs on this thread's
    /// shard, no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        let shard = &self.shards[super::thread_shard() & self.mask];
        shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        shard.min.fetch_min(v, Ordering::Relaxed);
        shard.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Merge all shards into a point-in-time snapshot. The merge is a
    /// commutative sum, so the result does not depend on which shard each
    /// thread recorded into.
    pub fn merged(&self) -> HistSnapshot {
        let mut buckets = vec![0u64; BUCKET_COUNT];
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for shard in self.shards.iter() {
            count += shard.count.load(Ordering::Relaxed);
            sum = sum.wrapping_add(shard.sum.load(Ordering::Relaxed));
            min = min.min(shard.min.load(Ordering::Relaxed));
            max = max.max(shard.max.load(Ordering::Relaxed));
            for (acc, b) in buckets.iter_mut().zip(shard.buckets.iter()) {
                *acc += b.load(Ordering::Relaxed);
            }
        }
        if count == 0 {
            min = 0;
        }
        HistSnapshot {
            count,
            sum,
            min,
            max,
            buckets,
        }
    }
}

/// Merged, point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations (wrapping).
    pub sum: u64,
    /// Exact minimum observation (0 when empty).
    pub min: u64,
    /// Exact maximum observation.
    pub max: u64,
    /// Per-bucket counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Value at quantile `q` in `[0, 1]`. Returns the upper bound of the
    /// bucket containing the rank-`ceil(q*count)` observation, clamped to the
    /// exact observed maximum, so the error is bounded by the bucket width
    /// (≤ ~3.1% relative). Returns 0 for an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_below_sub_count() {
        for v in 0..SUB_COUNT as u64 {
            let i = bucket_index(v);
            assert_eq!(bucket_lower(i), v);
            assert_eq!(bucket_upper(i), v);
        }
    }

    #[test]
    fn bucket_bounds_are_tight_and_monotone() {
        // Every bucket's bounds must round-trip through bucket_index, and
        // consecutive buckets must tile the value space with no gaps.
        for i in 0..BUCKET_COUNT {
            let lo = bucket_lower(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            let hi = bucket_upper(i);
            if i + 1 < BUCKET_COUNT {
                assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
                assert_eq!(bucket_lower(i + 1), hi + 1, "gap after bucket {i}");
            }
        }
    }

    #[test]
    fn boundary_values_around_powers_of_two() {
        for bits in SUB_BITS..MAX_BITS {
            let p = 1u64 << bits;
            assert_eq!(bucket_index(p), bucket_index(p), "self-consistency");
            assert!(bucket_index(p - 1) < bucket_index(p));
            assert_eq!(
                bucket_lower(bucket_index(p)),
                p,
                "2^{bits} starts its bucket"
            );
        }
        // Values at and beyond the clamp land in the top bucket.
        assert_eq!(bucket_index(1 << MAX_BITS), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn relative_error_bounded() {
        let mut v = SUB_COUNT as u64;
        while v < (1 << MAX_BITS) {
            let i = bucket_index(v);
            let width = bucket_upper(i) - bucket_lower(i);
            assert!(
                (width as f64) / (bucket_lower(i) as f64) <= 1.0 / SUB_COUNT as f64 + 1e-9,
                "bucket {i} width {width} too wide for lower {}",
                bucket_lower(i)
            );
            v = v.wrapping_mul(3) / 2 + 1;
        }
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = Histogram::new(4);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.merged();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // 3.2% tolerance: one sub-bucket of slack.
        let p50 = s.p50();
        assert!((468..=532).contains(&p50), "p50={p50}");
        let p99 = s.p99();
        assert!((980..=1000).contains(&p99), "p99={p99}");
        assert_eq!(s.value_at_quantile(1.0), 1000);
        assert_eq!(s.value_at_quantile(0.0), 1);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new(1);
        let s = h.merged();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn snapshot_is_idempotent() {
        let h = Histogram::new(8);
        for v in [0, 1, 31, 32, 33, 1_000_000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.merged(), h.merged());
    }
}
