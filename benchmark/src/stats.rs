//! Percentiles within a window and the midmean across windows.
//!
//! Every reported number is computed per measured window and then reduced
//! to the midmean across windows — the mean of the middle half. Like the
//! median, it ignores a slow window (a log-vector regrowth, a scheduler
//! hiccup): up to a quarter of the windows may be spoilt on either side.
//! Unlike the median, it does not jump when the windows fall into two
//! groups of about equal size, which is what a 99th percentile does here
//! whenever some delay hits about one op in a hundred.

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[u64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64)
}

/// Median of `values` (mean of the two middle ones for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Mean of the middle half of `values`: the lowest and the highest quarter
/// (rounded down) are left out. `None` when empty.
pub fn midmean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// One metric reduced across windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcrossWindows {
    pub midmean: f64,
    pub min: f64,
    pub max: f64,
    /// Windows that had a value.
    pub windows: usize,
    /// Samples behind those values, summed over windows.
    pub samples: u64,
}

/// Reduce per-window `(value, samples)` pairs; windows without samples carry
/// `None` and are left out. `None` when no window had a value.
pub fn across_windows(per_window: &[Option<(f64, u64)>]) -> Option<AcrossWindows> {
    let present: Vec<(f64, u64)> = per_window.iter().flatten().copied().collect();
    let values: Vec<f64> = present.iter().map(|p| p.0).collect();
    Some(AcrossWindows {
        midmean: midmean(&values)?,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        windows: values.len(),
        samples: present.iter().map(|p| p.1).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The definition, spelled out: count how many samples are at or below
    /// each candidate.
    fn oracle(sorted: &[u64], p: f64) -> u64 {
        let need = p / 100.0 * sorted.len() as f64;
        *sorted
            .iter()
            .find(|&&c| sorted.iter().filter(|&&v| v <= c).count() as f64 >= need)
            .unwrap_or(sorted.last().unwrap())
    }

    #[test]
    fn percentile_matches_sorted_vector_oracle() {
        let mut rng = SplitMix64::new(11);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let mut v: Vec<u64> = (0..n).map(|_| rng.below(500)).collect();
            v.sort_unstable();
            for p in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(percentile(&v, p), Some(oracle(&v, p)), "n={n} p={p}");
            }
        }
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_known_values() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn midmean_matches_sorted_vector_oracle() {
        // 8 values: the lowest two and the highest two are left out.
        let v = [9.0, 1.0, 100.0, 4.0, 5.0, 6.0, 7.0, -50.0];
        assert_eq!(midmean(&v), Some((4.0 + 5.0 + 6.0 + 7.0) / 4.0));
        // Fewer than four values: nothing to leave out.
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(midmean(&[5.0, 1.0, 2.0, 3.0, 100.0]), Some(10.0 / 3.0));
        assert_eq!(midmean(&[]), None);
    }

    #[test]
    fn midmean_moves_gradually_between_two_groups_of_windows() {
        let mixed = |high: usize| -> Vec<f64> {
            (0..32)
                .map(|w| if w < high { 41.0 } else { 31.0 })
                .collect()
        };
        let (a, b) = (midmean(&mixed(15)).unwrap(), midmean(&mixed(17)).unwrap());
        assert!(
            b - a < 1.5,
            "two windows changing sides moved it from {a} to {b}"
        );
        let (ma, mb) = (median(&mixed(15)).unwrap(), median(&mixed(17)).unwrap());
        assert_eq!(mb - ma, 10.0, "the median jumps the whole gap");
    }

    #[test]
    fn reduction_across_windows_ignores_slow_windows() {
        let mut w: Vec<Option<(f64, u64)>> = (0..9).map(|_| Some((100.0, 10))).collect();
        w.push(Some((10_000.0, 10)));
        w.push(None);
        let r = across_windows(&w).unwrap();
        assert_eq!(r.midmean, 100.0);
        assert_eq!((r.min, r.max), (100.0, 10_000.0));
        assert_eq!((r.windows, r.samples), (10, 100));
        assert_eq!(across_windows(&[None, None]), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1, 2, 6]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
