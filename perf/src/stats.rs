//! Order statistics and hashing shared by every part of the benchmark.

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((sorted.len() as f64 * p / 100.0).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n);
    n - rank
}

/// A percentile is reported only when at least ten samples lie beyond
/// it; this is the highest of the usual ones that qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0, 50.0].into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

/// Median and quartiles of a handful of repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Quartiles by the exclusive method (what Python's
    /// `statistics.quantiles(values, n=4)` computes), so the spread
    /// printed here is the spread the acceptance check computes.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "quartiles of no samples");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |i: i64| {
            let ld = v.len() as i64;
            if ld == 1 {
                return v[0];
            }
            // Python's arithmetic, extrapolation at the ends included.
            let m = ld + 1;
            let j = (i * m / 4).clamp(1, ld - 1);
            let delta = (i * m - j * 4) as f64;
            (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
        };
        Self { q1: at(1), median: at(2), q3: at(3), n: v.len() }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of a handful of values.
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// The best of a run's repetitions: the fastest time, the highest
/// rate. Every timing metric reports this. Other tenants of the host
/// only ever add time, in bursts and in stretches of a minute or so, so
/// the best of many short repetitions repeats from run to run where
/// their median does not (see `README.md`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best of no samples");
    if higher_is_better {
        values.iter().copied().fold(f64::MIN, f64::max)
    } else {
        values.iter().copied().fold(f64::MAX, f64::min)
    }
}

/// 64-bit FNV-1a, the digest every correctness check compares.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// SplitMix64 step: how one workload seed becomes many input seeds.
pub fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        // Nearest rank never interpolates: 4 samples, p50 is the 2nd.
        assert_eq!(percentile(&[1, 2, 30, 40], 50.0), 2);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 240 display frames: 12 lie beyond p95, only 2 beyond p99.
        assert_eq!(samples_beyond(240, 95.0), 12);
        assert_eq!(samples_beyond(240, 99.0), 2);
        assert_eq!(highest_supported_percentile(240), Some(95.0));
        // 120 frames support p90 (12 beyond), not p95 (6 beyond).
        assert_eq!(samples_beyond(120, 90.0), 12);
        assert_eq!(highest_supported_percentile(120), Some(90.0));
        assert_eq!(highest_supported_percentile(7680), Some(99.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert!((q.iqr_share() - 1.0).abs() < 1e-12);
        // Two values: the method extrapolates, as Python does.
        let q = Quartiles::of(&[2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        assert_eq!(Quartiles::of(&[3.0]).iqr_share(), 0.0);
    }

    #[test]
    fn best_follows_the_metric_direction() {
        let v = [3.0, 1.0, 2.0, 10.0];
        assert_eq!(best(&v, false), 1.0);
        assert_eq!(best(&v, true), 10.0);
        assert_eq!(best(&[4.5], false), 4.5);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix_spreads_seeds() {
        let a: Vec<u64> = (0..4).map(|i| splitmix(11, i)).collect();
        assert_eq!(a, (0..4).map(|i| splitmix(11, i)).collect::<Vec<_>>());
        assert!(a.windows(2).all(|w| w[0] != w[1]));
        assert_ne!(splitmix(11, 0), splitmix(12, 0));
    }
}
