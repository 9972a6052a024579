//! Fixed-bucket log-scale latency histograms.
//!
//! Buckets are geometric with ratio 2^(1/4) (four buckets per octave,
//! ≈19% relative resolution) starting at 1 µs. Bucket 0 is the
//! underflow bucket `(0, 1 µs]`; the last bucket absorbs overflow.
//! Quantiles are nearest-rank over the bucket counts and report the
//! bucket's upper boundary (clamped to the observed maximum), which
//! makes them deterministic, monotone in `q`, and exact whenever the
//! recorded values sit on bucket boundaries.

use std::sync::OnceLock;

/// Buckets per octave (ratio 2^(1/4) ≈ 1.189).
pub(crate) const SUB_BUCKETS: u32 = 4;
/// Octaves covered above the 1 µs floor (2^36 µs ≈ 19 hours).
pub(crate) const OCTAVES: u32 = 36;
/// Total bucket count: underflow + `OCTAVES * SUB_BUCKETS` geometric buckets.
pub(crate) const NUM_BUCKETS: usize = 1 + (OCTAVES * SUB_BUCKETS) as usize;
/// Upper bound of the underflow bucket, in nanoseconds.
pub(crate) const FLOOR_NS: u64 = 1_000;

fn boundaries() -> &'static [u64; NUM_BUCKETS] {
    static TABLE: OnceLock<[u64; NUM_BUCKETS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u64; NUM_BUCKETS];
        for (i, slot) in t.iter_mut().enumerate() {
            *slot = (FLOOR_NS as f64 * 2f64.powf(i as f64 / f64::from(SUB_BUCKETS))).round() as u64;
        }
        t
    })
}

/// Upper boundary (inclusive) of bucket `idx`, in nanoseconds.
///
/// # Panics
///
/// Panics when `idx >= NUM_BUCKETS`.
pub(crate) fn bucket_upper_bound_ns(idx: usize) -> u64 {
    boundaries()[idx]
}

/// Index of the bucket that `ns` falls into. Buckets are half-open
/// `(lower, upper]`; values above the top boundary land in the last
/// (overflow) bucket.
pub(crate) fn bucket_index(ns: u64) -> usize {
    let table = boundaries();
    match table.binary_search(&ns) {
        Ok(i) => i,
        Err(i) if i < NUM_BUCKETS => i,
        Err(_) => NUM_BUCKETS - 1,
    }
}

/// A point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub sum_ns: u128,
    /// Smallest recorded sample (0 when empty).
    pub min_ns: u64,
    /// Largest recorded sample (0 when empty).
    pub max_ns: u64,
    /// Median estimate (bucket upper bound, clamped to `max_ns`).
    pub p50_ns: u64,
    /// 90th percentile estimate.
    pub p90_ns: u64,
    /// 99th percentile estimate.
    pub p99_ns: u64,
}

impl HistogramSnapshot {
    /// Mean sample value in nanoseconds (integer division; 0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_ns / u128::from(self.count)) as u64
        }
    }
}

/// Fixed-bucket log-scale histogram of nanosecond latencies.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub(crate) fn new() -> Self {
        Self { counts: vec![0; NUM_BUCKETS], count: 0, sum_ns: 0, min_ns: u64::MAX, max_ns: 0 }
    }

    /// Records one sample.
    pub(crate) fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Nearest-rank quantile estimate for `q` in `[0, 1]`: the upper
    /// boundary of the bucket containing rank `ceil(q·count)`, clamped
    /// to the observed maximum. Returns 0 on an empty histogram.
    pub(crate) fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound_ns(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Summarises the histogram.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum_ns: self.sum_ns,
            min_ns: if self.count == 0 { 0 } else { self.min_ns },
            max_ns: self.max_ns,
            p50_ns: self.quantile_ns(0.50),
            p90_ns: self.quantile_ns(0.90),
            p99_ns: self.quantile_ns(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_geometric_per_octave() {
        // Every SUB_BUCKETS steps the boundary exactly doubles (before
        // rounding error can accumulate, each is computed independently).
        assert_eq!(bucket_upper_bound_ns(0), 1_000);
        assert_eq!(bucket_upper_bound_ns(SUB_BUCKETS as usize), 2_000);
        assert_eq!(bucket_upper_bound_ns(2 * SUB_BUCKETS as usize), 4_000);
        assert_eq!(bucket_upper_bound_ns(12), 8_000);
        assert_eq!(bucket_upper_bound_ns(40), 1_024_000); // 2^10 µs
                                                          // Within an octave the ratio is 2^(1/4) ≈ 1.1892.
        let r = bucket_upper_bound_ns(1) as f64 / bucket_upper_bound_ns(0) as f64;
        assert!((r - 2f64.powf(0.25)).abs() < 1e-3, "ratio {r}");
    }

    #[test]
    fn bucket_index_half_open_intervals() {
        // (0, 1000] → bucket 0; values just above a boundary go up.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(1_000), 0);
        assert_eq!(bucket_index(1_001), 1);
        assert_eq!(bucket_index(2_000), SUB_BUCKETS as usize);
        assert_eq!(bucket_index(2_001), SUB_BUCKETS as usize + 1);
        // Far beyond the table → overflow bucket.
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_exact_on_boundary_samples() {
        // 50×1 µs, 40×8 µs, 10×64 µs — all on bucket boundaries, so the
        // nearest-rank estimates equal the exact sample quantiles.
        let mut h = LatencyHistogram::new();
        for _ in 0..50 {
            h.record_ns(1_000);
        }
        for _ in 0..40 {
            h.record_ns(8_000);
        }
        for _ in 0..10 {
            h.record_ns(64_000);
        }
        assert_eq!(h.quantile_ns(0.50), 1_000);
        assert_eq!(h.quantile_ns(0.90), 8_000);
        assert_eq!(h.quantile_ns(0.99), 64_000);
        let s = h.snapshot();
        assert_eq!((s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns), (1_000, 8_000, 64_000, 64_000));
        assert_eq!(s.min_ns, 1_000);
        assert_eq!(s.mean_ns(), (50 * 1_000 + 40 * 8_000 + 10 * 64_000) / 100);
    }

    #[test]
    fn quantiles_within_bucket_resolution() {
        // Arbitrary values: the estimate may exceed the exact quantile
        // by at most one bucket ratio (2^(1/4)) and never undershoots.
        let mut h = LatencyHistogram::new();
        let mut values: Vec<u64> = (0..1_000).map(|i| 1_500 + 977 * i).collect();
        for &v in &values {
            h.record_ns(v);
        }
        values.sort_unstable();
        for &(q, rank) in &[(0.50, 500usize), (0.90, 900), (0.99, 990)] {
            let exact = values[rank - 1];
            let est = h.quantile_ns(q);
            assert!(est >= exact, "q={q}: est {est} < exact {exact}");
            assert!(
                (est as f64) <= exact as f64 * 2f64.powf(0.25) + 1.0,
                "q={q}: est {est} too far above exact {exact}"
            );
        }
    }

    #[test]
    fn single_value_is_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record_ns(123_456);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 123_456);
        }
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!((s.min_ns, s.max_ns, s.p50_ns, s.mean_ns()), (0, 0, 0, 0));
    }
}
