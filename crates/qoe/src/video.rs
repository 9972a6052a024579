//! Temporal video-quality metrics.
//!
//! §II-C: *"both SSIM and FLIP are image metrics, whereas the final
//! output of the visual pipeline is a video, requiring consideration of
//! aspects such as temporal coherence and smoothness (jitter) as well."*
//! This module provides the testbed's first temporal metric: a
//! pose-judder score over the displayed pose sequence (the quantity users
//! perceive when frames are dropped or reprojection works from stale
//! poses).

use illixr_math::Pose;

/// Pose judder: root-mean-square second difference of displayed
/// positions, meters — a discrete acceleration measure. A smoothly
/// tracked display has near-zero judder; every dropped pose update
/// contributes a spike.
///
/// Returns `None` for fewer than three poses.
pub fn pose_judder(displayed: &[Pose]) -> Option<f64> {
    if displayed.len() < 3 {
        return None;
    }
    let mut acc = 0.0;
    let mut n = 0;
    for w in displayed.windows(3) {
        let second_diff = (w[2].position - w[1].position) - (w[1].position - w[0].position);
        acc += second_diff.norm_squared();
        n += 1;
    }
    Some((acc / n as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_math::{Quat, Vec3};

    #[test]
    fn constant_velocity_has_zero_judder() {
        let poses: Vec<Pose> = (0..10)
            .map(|k| Pose::new(Vec3::new(k as f64 * 0.01, 0.0, 0.0), Quat::IDENTITY))
            .collect();
        assert!(pose_judder(&poses).unwrap() < 1e-12);
    }

    #[test]
    fn held_poses_produce_judder() {
        // Pose updates arrive every other display frame.
        let held: Vec<Pose> = (0..10)
            .map(|k| Pose::new(Vec3::new((k / 2 * 2) as f64 * 0.01, 0.0, 0.0), Quat::IDENTITY))
            .collect();
        let j = pose_judder(&held).unwrap();
        assert!(j > 0.005, "judder {j}");
    }

    #[test]
    fn short_sequences_return_none() {
        assert!(pose_judder(&[Pose::IDENTITY, Pose::IDENTITY]).is_none());
    }
}
