//! Synthetic eye-image generation — the OpenEDS dataset stand-in.

use illixr_image::draw::fill_ellipse_gray;
use illixr_image::{gaussian_blur, GrayImage};

/// Parameters of a rendered eye.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EyeParams {
    /// Image width (multiple of 4 for the CNN).
    pub width: usize,
    /// Image height (multiple of 4).
    pub height: usize,
    /// Horizontal gaze angle, radians (positive = looking right).
    pub gaze_x: f64,
    /// Vertical gaze angle, radians (positive = looking down).
    pub gaze_y: f64,
    /// Pupil dilation factor (1.0 nominal).
    pub pupil_dilation: f64,
}

impl Default for EyeParams {
    fn default() -> Self {
        Self { width: 96, height: 64, gaze_x: 0.0, gaze_y: 0.0, pupil_dilation: 1.0 }
    }
}

/// Maximum gaze magnitude (radians) that maps inside the eye opening.
pub(crate) const MAX_GAZE_RAD: f64 = 0.5;

/// Pixel offset of the iris center for a gaze angle.
pub(crate) fn gaze_to_offset(params: &EyeParams) -> (f64, f64) {
    let scale_x = params.width as f64 * 0.25 / MAX_GAZE_RAD;
    let scale_y = params.height as f64 * 0.25 / MAX_GAZE_RAD;
    (params.gaze_x * scale_x, params.gaze_y * scale_y)
}

/// Renders an IR-style eye image with the intensity layering the
/// segmentation CNN expects: skin ≈ 0.95, sclera ≈ 0.65, iris ≈ 0.38,
/// pupil ≈ 0.05.
pub fn render_eye(params: &EyeParams) -> GrayImage {
    let (w, h) = (params.width as f32, params.height as f32);
    let (cx, cy) = (w / 2.0, h / 2.0);
    let mut img = GrayImage::from_fn(params.width, params.height, |_, _| 0.95);
    // Eye opening (sclera): a wide ellipse.
    fill_ellipse_gray(&mut img, cx, cy, w * 0.42, h * 0.38, 0.65);
    // Iris and pupil shift with gaze.
    let (dx, dy) = gaze_to_offset(params);
    let ix = cx + dx as f32;
    let iy = cy + dy as f32;
    let iris_r = h * 0.26;
    fill_ellipse_gray(&mut img, ix, iy, iris_r, iris_r, 0.38);
    let pupil_r = (iris_r * 0.45 * params.pupil_dilation as f32).max(2.0);
    fill_ellipse_gray(&mut img, ix, iy, pupil_r, pupil_r, 0.05);
    gaussian_blur(&img, 0.8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_gaze_puts_pupil_in_middle() {
        let img = render_eye(&EyeParams::default());
        // Darkest pixel should be near the center.
        let (mut min_v, mut min_x, mut min_y) = (f32::INFINITY, 0, 0);
        for y in 0..img.height() {
            for x in 0..img.width() {
                if img.get(x, y) < min_v {
                    min_v = img.get(x, y);
                    min_x = x;
                    min_y = y;
                }
            }
        }
        assert!((min_x as f64 - 48.0).abs() < 6.0, "pupil x {min_x}");
        assert!((min_y as f64 - 32.0).abs() < 6.0, "pupil y {min_y}");
        assert!(min_v < 0.2);
    }

    #[test]
    fn gaze_shifts_pupil() {
        let left = render_eye(&EyeParams { gaze_x: -0.3, ..Default::default() });
        let right = render_eye(&EyeParams { gaze_x: 0.3, ..Default::default() });
        let darkest_x = |img: &GrayImage| {
            let mut best = (f32::INFINITY, 0usize);
            for y in 0..img.height() {
                for x in 0..img.width() {
                    if img.get(x, y) < best.0 {
                        best = (img.get(x, y), x);
                    }
                }
            }
            best.1
        };
        assert!(darkest_x(&right) > darkest_x(&left) + 10);
    }

    #[test]
    fn dilation_grows_dark_area() {
        let small = render_eye(&EyeParams { pupil_dilation: 0.7, ..Default::default() });
        let large = render_eye(&EyeParams { pupil_dilation: 1.5, ..Default::default() });
        let dark_count = |img: &GrayImage| img.as_slice().iter().filter(|&&v| v < 0.2).count();
        assert!(dark_count(&large) > dark_count(&small));
    }

    #[test]
    fn intensity_bands_present() {
        let img = render_eye(&EyeParams::default());
        let has_near = |target: f32| img.as_slice().iter().any(|&v| (v - target).abs() < 0.1);
        assert!(has_near(0.95)); // skin
        assert!(has_near(0.65)); // sclera
        assert!(has_near(0.38)); // iris
        assert!(has_near(0.05)); // pupil
    }
}
