//! Trajectory accuracy metrics for the VIO ablation (§V-E reports
//! average trajectory error in centimeters).

use illixr_math::Pose;

/// Mean absolute trajectory error (translation) over paired
/// estimated/ground-truth poses, meters.
///
/// Returns `None` for empty input.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn absolute_trajectory_error(estimated: &[Pose], ground_truth: &[Pose]) -> Option<f64> {
    assert_eq!(estimated.len(), ground_truth.len(), "trajectory length mismatch");
    if estimated.is_empty() {
        return None;
    }
    let sum: f64 = estimated.iter().zip(ground_truth).map(|(e, g)| e.translation_distance(g)).sum();
    Some(sum / estimated.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_math::{Quat, Vec3};

    fn line(n: usize, offset: f64) -> Vec<Pose> {
        (0..n)
            .map(|i| Pose::new(Vec3::new(i as f64 * 0.1 + offset, 0.0, 0.0), Quat::IDENTITY))
            .collect()
    }

    #[test]
    fn perfect_estimate_has_zero_error() {
        let gt = line(10, 0.0);
        assert_eq!(absolute_trajectory_error(&gt, &gt), Some(0.0));
    }

    #[test]
    fn constant_offset_shows_in_ate() {
        let gt = line(10, 0.0);
        let est = line(10, 0.05);
        assert!((absolute_trajectory_error(&est, &gt).unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn growing_drift_shows_in_ate() {
        let gt = line(10, 0.0);
        let est: Vec<Pose> = gt
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Pose::new(p.position + Vec3::new(0.0, 0.01 * i as f64, 0.0), p.orientation)
            })
            .collect();
        assert!(absolute_trajectory_error(&est, &gt).unwrap() > 0.01);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(absolute_trajectory_error(&[], &[]), None);
    }
}
