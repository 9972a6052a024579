//! Fan-out transforms: one recorded session → N synthetic sessions.
//!
//! Each synthetic session replays the same trace through a
//! [`SessionTransform`] — a phase offset (sessions don't start in
//! lockstep) plus a time dilation (users don't move at identical
//! rates). Tags *and* intra-payload time deltas are scaled by the same
//! dilation so payload timestamps keep tracking delivery times and
//! derived metrics (pose age, motion-to-photon) stay meaningful;
//! payload *values* (gyro, accel, poses) are deliberately left
//! untouched, a fidelity tradeoff that keeps the generator a pure
//! byte-replayer.
//!
//! Derivation is a stateless SplitMix64 hash of `(seed, index)`, so a
//! fan-out is reproducible across reruns and machines; session 0 is
//! always the identity so the original run is a member of every fleet
//! it generates.

use crate::hash::{splitmix64, unit_f64};

/// Per-session time transform applied at replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionTransform {
    /// Phase offset added after dilation, in nanoseconds.
    pub offset_ns: u64,
    /// Time-dilation factor applied to tags and payload deltas.
    pub dilation: f64,
}

impl SessionTransform {
    pub const IDENTITY: Self = Self { offset_ns: 0, dilation: 1.0 };

    pub(crate) fn is_identity(&self) -> bool {
        *self == Self::IDENTITY
    }

    /// Transform a recorded tag into this session's timeline:
    /// `tag' = offset + round(dilation · tag)`.
    pub(crate) fn apply(&self, tag_ns: u64) -> u64 {
        if self.is_identity() {
            return tag_ns;
        }
        self.offset_ns.saturating_add((self.dilation * tag_ns as f64).round() as u64)
    }

    /// Scale an intra-payload time delta (e.g. payload timestamp minus
    /// record tag) by the session's dilation.
    pub fn scale_delta(&self, delta_ns: i64) -> i64 {
        if self.is_identity() {
            return delta_ns;
        }
        (self.dilation * delta_ns as f64).round() as i64
    }
}

impl Default for SessionTransform {
    fn default() -> Self {
        Self::IDENTITY
    }
}

/// Uniform draw in `[0, 1)` from a hash of `(seed, index, salt)`.
fn unit(seed: u64, index: u64, salt: u64) -> f64 {
    unit_f64(splitmix64(splitmix64(seed ^ salt).wrapping_add(index)))
}

/// Deterministic transform for synthetic session `index` of a fan-out.
///
/// * `max_jitter_ns` — phase offsets are uniform in `[0, max_jitter_ns)`.
/// * `dilation_spread` — dilations are uniform in
///   `[1 - spread, 1 + spread)` (clamped to stay positive).
///
/// Session 0 is always [`SessionTransform::IDENTITY`].
pub fn fan_out_transform(
    seed: u64,
    index: usize,
    max_jitter_ns: u64,
    dilation_spread: f64,
) -> SessionTransform {
    if index == 0 {
        return SessionTransform::IDENTITY;
    }
    let index = index as u64;
    let offset_ns = (unit(seed, index, 0x6A17) * max_jitter_ns as f64) as u64;
    let spread = dilation_spread.clamp(0.0, 0.5);
    let dilation = 1.0 - spread + 2.0 * spread * unit(seed, index, 0xD11A);
    SessionTransform { offset_ns, dilation }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_exact_even_for_huge_tags() {
        let id = SessionTransform::IDENTITY;
        assert_eq!(id.apply(u64::MAX), u64::MAX);
        assert_eq!(id.scale_delta(i64::MIN + 1), i64::MIN + 1);
    }

    #[test]
    fn session_zero_is_identity_and_others_are_stable() {
        assert!(fan_out_transform(99, 0, 1_000_000, 0.2).is_identity());
        let a = fan_out_transform(99, 7, 1_000_000, 0.2);
        let b = fan_out_transform(99, 7, 1_000_000, 0.2);
        assert_eq!(a, b);
        assert!(a.offset_ns < 1_000_000);
        assert!(a.dilation > 0.8 && a.dilation < 1.2);
        // Different indices land on different transforms.
        assert_ne!(a, fan_out_transform(99, 8, 1_000_000, 0.2));
        // Pinned across commits: a fan-out fleet replays on these timelines.
        let got = [a, fan_out_transform(11, 3, 50_000_000, 0.1)];
        let want = [
            SessionTransform { offset_ns: 337_820, dilation: 1.1417391659995801 },
            SessionTransform { offset_ns: 1_288_438, dilation: 1.0566861752845982 },
        ];
        assert_eq!(got, want, "got {got:?}");
    }

    #[test]
    fn dilation_scales_tags_and_deltas_consistently() {
        let t = SessionTransform { offset_ns: 500, dilation: 2.0 };
        assert_eq!(t.apply(1_000), 2_500);
        assert_eq!(t.scale_delta(-300), -600);
    }
}
