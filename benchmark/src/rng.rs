//! The benchmark's own generator and key distributions.
//!
//! Op streams must be a pure function of `--seed`, at this commit and at
//! every later one, so the generator lives here and not in a shim the
//! repository may change.

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, one output per
/// step, every seed valid.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent stream for `(seed, lane)` — one per connection.
    pub fn stream(seed: u64, lane: u64) -> SplitMix64 {
        let mut s = SplitMix64(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-44 for the
    /// key-space sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How a workload picks keys out of `0..n`.
#[derive(Debug, Clone)]
pub enum KeyDist {
    Uniform(u64),
    Zipf(Zipf),
}

impl KeyDist {
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match self {
            KeyDist::Uniform(n) => rng.below(*n),
            KeyDist::Zipf(z) => z.sample(rng),
        }
    }
}

/// Exact zipfian over `0..n`: the cumulative distribution is built once and
/// sampled by binary search, which stays exact near exponent 1 where the
/// closed-form approximations do not. Rank `r` maps to key
/// `r * STRIDE mod n`, so the hot keys are spread over the table's pages
/// and not packed into the first one.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

/// Odd, so multiplying by it permutes `0..n` for the power-of-two `n` used.
const STRIDE: u64 = 0x9E37_79B1;

impl Zipf {
    pub fn new(n: u64, exponent: f64) -> Zipf {
        assert!(n.is_power_of_two(), "zipf key space must be a power of two");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += (i as f64).powf(-exponent);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u) as u64;
        let n = self.cdf.len() as u64;
        rank.min(n - 1).wrapping_mul(STRIDE) & (n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_lanes_differ() {
        let a: Vec<u64> = (0..8)
            .scan(SplitMix64::stream(7, 0), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(SplitMix64::stream(7, 0), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(SplitMix64::stream(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1);
        assert!((0..10_000).all(|_| r.below(37) < 37));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let n = 1u64 << 12;
        let z = Zipf::new(n, 0.99);
        let mut r = SplitMix64::new(3);
        let hottest = 0u64; // rank 0 maps to key 0
        let mut hits = 0;
        for _ in 0..20_000 {
            let k = z.sample(&mut r);
            assert!(k < n);
            hits += u32::from(k == hottest);
        }
        // Rank 0 carries 1/H(n) of the mass: about 11 % at n = 4096.
        assert!((1_500..3_000).contains(&hits), "hottest key drew {hits}");
    }
}
