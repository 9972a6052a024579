//! Structural Similarity Index Measure (SSIM), Wang et al. 2004 — one of
//! the two offline image-quality metrics ILLIXR reports (Table V).

use crate::gray::GrayImage;

const C1: f32 = (0.01 * 1.0) * (0.01 * 1.0); // (k1·L)², L = 1.0 dynamic range
const C2: f32 = (0.03 * 1.0) * (0.03 * 1.0); // (k2·L)²
const WINDOW_RADIUS: isize = 5; // 11×11 window as in the reference implementation

/// Mean SSIM between two same-sized grayscale images in `[0, 1]`.
///
/// Uses an 11×11 uniform window. Values near 1 mean the images are
/// structurally identical.
///
/// # Panics
///
/// Panics when the image sizes differ.
///
/// # Examples
///
/// ```
/// use illixr_image::{GrayImage, ssim};
/// let a = GrayImage::from_fn(32, 32, |x, y| ((x * y) % 13) as f32 / 13.0);
/// let b = a.map(|v| (v + 0.2).min(1.0));
/// assert!(ssim(&a, &a) > ssim(&a, &b));
/// ```
pub fn ssim(a: &GrayImage, b: &GrayImage) -> f32 {
    let map = ssim_map(a, b);
    map.mean()
}

/// Per-pixel SSIM map (same size as the inputs).
///
/// # Panics
///
/// Panics when the image sizes differ.
pub(crate) fn ssim_map(a: &GrayImage, b: &GrayImage) -> GrayImage {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()), "SSIM: image size mismatch");
    let (w, h) = (a.width(), a.height());
    let mut out = GrayImage::new(w, h);
    let win_count = ((2 * WINDOW_RADIUS + 1) * (2 * WINDOW_RADIUS + 1)) as f32;
    for y in 0..h {
        for x in 0..w {
            // Window statistics (border-clamped).
            let mut sum_a = 0.0;
            let mut sum_b = 0.0;
            let mut sum_aa = 0.0;
            let mut sum_bb = 0.0;
            let mut sum_ab = 0.0;
            for dy in -WINDOW_RADIUS..=WINDOW_RADIUS {
                for dx in -WINDOW_RADIUS..=WINDOW_RADIUS {
                    let va = a.get_clamped(x as isize + dx, y as isize + dy);
                    let vb = b.get_clamped(x as isize + dx, y as isize + dy);
                    sum_a += va;
                    sum_b += vb;
                    sum_aa += va * va;
                    sum_bb += vb * vb;
                    sum_ab += va * vb;
                }
            }
            let mu_a = sum_a / win_count;
            let mu_b = sum_b / win_count;
            let var_a = (sum_aa / win_count - mu_a * mu_a).max(0.0);
            let var_b = (sum_bb / win_count - mu_b * mu_b).max(0.0);
            let cov = sum_ab / win_count - mu_a * mu_b;
            let num = (2.0 * mu_a * mu_b + C1) * (2.0 * cov + C2);
            let den = (mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2);
            out.set(x, y, num / den);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            (0.5 + 0.3 * ((x as f32) * 0.35).sin() + 0.2 * ((y as f32) * 0.22).cos())
                .clamp(0.0, 1.0)
        })
    }

    #[test]
    fn identical_images_score_one() {
        let img = textured(48, 48);
        assert!((ssim(&img, &img) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn noise_reduces_ssim() {
        let img = textured(48, 48);
        let noisy = GrayImage::from_fn(48, 48, |x, y| {
            (img.get(x, y) + 0.25 * (((x * 7919 + y * 104729) % 17) as f32 / 17.0 - 0.5))
                .clamp(0.0, 1.0)
        });
        let s = ssim(&img, &noisy);
        assert!(s < 0.95, "expected noticeable degradation, got {s}");
        assert!(s > 0.0);
    }

    #[test]
    fn more_distortion_scores_lower() {
        let img = textured(48, 48);
        let mild = img.map(|v| (v * 0.95).clamp(0.0, 1.0));
        let severe = GrayImage::from_fn(48, 48, |x, _| (x % 2) as f32);
        assert!(ssim(&img, &mild) > ssim(&img, &severe));
    }

    #[test]
    fn constant_vs_constant() {
        let a = GrayImage::from_fn(16, 16, |_, _| 0.5);
        let b = GrayImage::from_fn(16, 16, |_, _| 0.5);
        assert!((ssim(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        let a = GrayImage::new(8, 8);
        let b = GrayImage::new(9, 8);
        let _ = ssim(&a, &b);
    }
}
