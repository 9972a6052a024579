//! Stateless pseudo-randomness for fault decisions.
//!
//! Every stochastic fault decision is a pure function of
//! `(plan seed, fault kind, target, event index)`: the plan hashes the
//! tuple through a SplitMix64 finalizer and compares the result against
//! the configured probability. Statelessness is what makes fault
//! injection composable with determinism — a consumer may query the
//! same decision zero, one or many times, in any order, from any
//! thread, and always observe the same answer, so instrumenting a run
//! (which changes how often code paths execute) can never change which
//! faults fire.

/// The SplitMix64 output function: a strong 64-bit mixer.
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string, for hashing target names into the key.
#[inline]
pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A uniform sample in `[0, 1)` derived from the mixed key.
#[inline]
pub(crate) fn unit(key: u64) -> f64 {
    // 53 bits of mantissa, the standard u64 → f64 construction.
    (mix(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic Bernoulli trial: true with probability `p`.
#[inline]
pub(crate) fn chance(key: u64, p: f64) -> bool {
    p > 0.0 && unit(key) < p
}

/// A deterministic sample in `[-1, 1]`, for bounded perturbations.
#[inline]
pub(crate) fn signed_unit(key: u64) -> f64 {
    unit(key) * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_stable_and_spreads() {
        assert_eq!(mix(0), mix(0));
        assert_ne!(mix(1), mix(2));
        // Avalanche smoke test: flipping one input bit flips many output bits.
        let d = (mix(7) ^ mix(7 | 1 << 40)).count_ones();
        assert!(d > 16, "only {d} bits differ");
    }

    #[test]
    fn unit_is_in_range_and_deterministic() {
        for k in 0..1000 {
            let u = unit(k);
            assert!((0.0..1.0).contains(&u));
            assert_eq!(u, unit(k));
        }
    }

    #[test]
    fn chance_edges() {
        assert!(!chance(42, 0.0));
        assert!(chance(42, 1.0));
        let hits = (0..10_000).filter(|&k| chance(k, 0.25)).count();
        assert!((2000..3000).contains(&hits), "p=0.25 hit {hits}/10000");
    }

    #[test]
    fn hash_str_distinguishes_targets() {
        assert_ne!(hash_str("camera"), hash_str("imu"));
        assert_eq!(hash_str("vio"), hash_str("vio"));
    }
}
