//! Streaming and batch statistics used by the telemetry and QoE layers.

use crate::Real;

/// Numerically stable streaming mean/variance accumulator (Welford).
///
/// # Examples
///
/// ```
/// use illixr_math::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: Real,
    m2: Real,
    min: Real,
    max: Real,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: Real::INFINITY, max: Real::NEG_INFINITY }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: Real) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as Real;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> Real {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`).
    pub(crate) fn population_variance(&self) -> Real {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as Real
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> Real {
        self.population_variance().sqrt()
    }

    /// Minimum sample (`+∞` when empty).
    pub fn min(&self) -> Real {
        self.min
    }

    /// Maximum sample (`-∞` when empty).
    pub fn max(&self) -> Real {
        self.max
    }
}

/// Returns the `p`-th percentile (0–100) of `data` by linear interpolation.
///
/// Returns `None` when `data` is empty. The input does not need to be sorted.
pub fn percentile(data: &[Real], p: Real) -> Option<Real> {
    if data.is_empty() {
        return None;
    }
    let mut sorted: Vec<Real> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as Real;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as Real;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Batch mean of a slice, the oracle for the streaming mean.
    fn mean(data: &[Real]) -> Real {
        data.iter().sum::<Real>() / data.len() as Real
    }

    #[test]
    fn online_stats_matches_batch() {
        let data = [1.5, 2.5, 3.5, -1.0, 0.0, 10.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert!((s.mean() - mean(&data)).abs() < 1e-12);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn percentile_basics() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 100.0), Some(5.0));
        assert_eq!(percentile(&data, 50.0), Some(3.0));
        assert_eq!(percentile(&data, 25.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
    }
}
