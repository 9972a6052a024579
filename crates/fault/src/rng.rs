//! Stateless pseudo-randomness for fault decisions.
//!
//! Every stochastic fault decision is a pure function of
//! `(plan seed, fault kind, target, event index)`: the plan hashes the
//! tuple through [`splitmix64`] and compares the result against
//! the configured probability. Statelessness is what makes fault
//! injection composable with determinism — a consumer may query the
//! same decision zero, one or many times, in any order, from any
//! thread, and always observe the same answer, so instrumenting a run
//! (which changes how often code paths execute) can never change which
//! faults fire.

use illixr_trace::{splitmix64, unit_f64};

/// A uniform sample in `[0, 1)` derived from the mixed key.
#[inline]
pub(crate) fn unit(key: u64) -> f64 {
    unit_f64(splitmix64(key))
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
}
