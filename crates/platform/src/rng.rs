//! A tiny deterministic RNG (SplitMix64) for the timing model's jitter.
//!
//! The timing model needs per-invocation noise that is (a) reproducible
//! across runs and machines and (b) independent of call ordering between
//! components. SplitMix64 seeded per `(component, invocation)` gives both
//! without threading RNG state through the scheduler.
//!
//! A stated exception to "one FNV-1a, one SplitMix64" (both live in
//! `illixr-trace`): `seed_from` is not FNV-1a — its multiplier differs
//! and every jitter draw is pinned to it — and the generator's three-line
//! step does not justify a platform → trace dependency edge.

/// SplitMix64 pseudo-random generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal sample (Box-Muller).
    pub(crate) fn next_gaussian(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = self.next_f64().max(1e-300);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal sample with median 1 and the given sigma of the
    /// underlying normal.
    pub fn next_lognormal(&mut self, sigma: f64) -> f64 {
        (self.next_gaussian() * sigma).exp()
    }
}

/// Mixes a string and counter into a seed: an FNV-style fold over the
/// name, then the counter folded in. The multiplier is 2⁴⁴ + 0x1b3, not
/// the FNV prime (2⁴⁰ + 0x1b3), and it is pinned: every timing-model
/// jitter draw, and so every tracked `results/*.txt` and every digest,
/// depends on the value as written.
pub(crate) fn seed_from(name: &str, counter: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequences() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gaussian_has_reasonable_moments() {
        let mut rng = SplitMix64::new(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median_near_one() {
        let mut rng = SplitMix64::new(11);
        let mut samples: Vec<f64> = (0..10_001).map(|_| rng.next_lognormal(0.3)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[5000];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn seed_differs_by_name_and_counter() {
        assert_ne!(seed_from("vio", 0), seed_from("vio", 1));
        assert_ne!(seed_from("vio", 0), seed_from("app", 0));
    }

    /// Pins the multiplier as written (see [`seed_from`]): "repairing"
    /// it to the FNV prime moves every jitter draw.
    #[test]
    fn seed_values_are_pinned() {
        assert_eq!(seed_from("vio", 0), 0x35b8_eb19_4eba_753d);
        assert_eq!(seed_from("timewarp", 7), 0x4d2b_9f18_7a57_6879);
    }
}
