//! Gaze extraction from the segmentation mask.

use crate::eye::{EyeParams, MAX_GAZE_RAD};
use crate::net::EyeClass;

/// A gaze estimate for one eye.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GazeEstimate {
    /// Horizontal gaze angle, radians.
    pub gaze_x: f64,
    /// Vertical gaze angle, radians.
    pub gaze_y: f64,
    /// Number of pupil pixels the estimate is based on (0 = no pupil
    /// found; the angles are then 0).
    pub pupil_pixels: usize,
}

/// Estimates gaze from a segmentation mask by inverting the
/// pupil-centroid → gaze mapping of the synthetic eye model.
pub(crate) fn estimate_gaze(mask: &[EyeClass], width: usize, height: usize) -> GazeEstimate {
    assert_eq!(mask.len(), width * height, "mask size mismatch");
    let mut sum_x = 0.0f64;
    let mut sum_y = 0.0f64;
    let mut count = 0usize;
    for y in 0..height {
        for x in 0..width {
            if mask[y * width + x] == EyeClass::Pupil {
                sum_x += x as f64;
                sum_y += y as f64;
                count += 1;
            }
        }
    }
    if count == 0 {
        return GazeEstimate { gaze_x: 0.0, gaze_y: 0.0, pupil_pixels: 0 };
    }
    let cx = width as f64 / 2.0;
    let cy = height as f64 / 2.0;
    let dx = sum_x / count as f64 - cx;
    let dy = sum_y / count as f64 - cy;
    // Invert `gaze_to_offset`.
    let scale_x = width as f64 * 0.25 / MAX_GAZE_RAD;
    let scale_y = height as f64 * 0.25 / MAX_GAZE_RAD;
    GazeEstimate { gaze_x: dx / scale_x, gaze_y: dy / scale_y, pupil_pixels: count }
}

/// End-to-end accuracy helper: renders an eye at `params`, segments it
/// with `net`, and returns the gaze error in radians.
pub fn gaze_error(net: &crate::net::SegmentationNet, params: &EyeParams) -> f64 {
    let img = crate::eye::render_eye(params);
    let mask = net.segment(&img);
    let est = estimate_gaze(&mask, params.width, params.height);
    ((est.gaze_x - params.gaze_x).powi(2) + (est.gaze_y - params.gaze_y).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::SegmentationNet;

    #[test]
    fn recovers_center_gaze() {
        let net = SegmentationNet::new();
        let err = gaze_error(&net, &EyeParams::default());
        assert!(err < 0.08, "gaze error {err} rad");
    }

    #[test]
    fn recovers_offset_gaze() {
        let net = SegmentationNet::new();
        for (gx, gy) in [(0.25, 0.0), (-0.25, 0.1), (0.0, -0.2), (0.3, 0.2)] {
            let err = gaze_error(&net, &EyeParams { gaze_x: gx, gaze_y: gy, ..Default::default() });
            assert!(err < 0.1, "gaze ({gx}, {gy}) error {err} rad");
        }
    }

    #[test]
    fn empty_mask_yields_zero_gaze() {
        let mask = vec![EyeClass::Background; 16 * 16];
        let est = estimate_gaze(&mask, 16, 16);
        assert_eq!(est.pupil_pixels, 0);
        assert_eq!(est.gaze_x, 0.0);
    }

    #[test]
    #[should_panic]
    fn mask_size_mismatch_panics() {
        let mask = vec![EyeClass::Background; 10];
        let _ = estimate_gaze(&mask, 16, 16);
    }
}
