//! ꟻLIP difference evaluator (Andersson et al. 2020), the second offline
//! image-quality metric ILLIXR reports (Table V, printed as 1−FLIP).
//!
//! This is a faithful-in-structure, simplified-in-constants implementation
//! of FLIP for low-dynamic-range images. It follows the published
//! pipeline — contrast-sensitivity spatial filtering, a perceptually
//! uniform color difference, and a feature (edge/point) difference that
//! amplifies errors near structure — with Gaussian approximations of the
//! CSFs. Like the reference, it returns per-pixel errors in `[0, 1]` whose
//! mean is the image's FLIP value (0 = identical, 1 = maximally
//! different).

use crate::gray::GrayImage;
use crate::rgb::RgbImage;
use crate::stencil::{gaussian_blur, sobel_gradients};

/// Exponent of the final color/feature combination, from the FLIP paper.
const QC: f32 = 0.7;
/// Feature amplification exponent.
const QF: f32 = 0.5;

/// Mean FLIP error between a `reference` and a `test` image, in `[0, 1]`.
///
/// # Panics
///
/// Panics when image sizes differ.
///
/// # Examples
///
/// ```
/// use illixr_image::{RgbImage, flip};
/// let img = RgbImage::from_fn(32, 32, |x, y| [x as f32 / 32.0, y as f32 / 32.0, 0.5]);
/// assert!(flip(&img, &img) < 1e-6);
/// ```
pub fn flip(reference: &RgbImage, test: &RgbImage) -> f32 {
    flip_map(reference, test).mean()
}

/// Per-pixel FLIP error map.
///
/// # Panics
///
/// Panics when image sizes differ.
pub(crate) fn flip_map(reference: &RgbImage, test: &RgbImage) -> GrayImage {
    assert_eq!(
        (reference.width(), reference.height()),
        (test.width(), test.height()),
        "FLIP: image size mismatch"
    );
    let (w, h) = (reference.width(), reference.height());

    // --- Color pipeline -------------------------------------------------
    // Spatially filter each channel with a CSF-approximating Gaussian
    // (chroma channels are filtered more heavily, as in the paper).
    let sigma_luma = 0.8;
    let sigma_chroma = 1.6;
    let opp_ref = to_opponent(reference);
    let opp_test = to_opponent(test);
    let filt = |img: &GrayImage, sigma: f32| gaussian_blur(img, sigma);
    let ref_filtered = [
        filt(&opp_ref[0], sigma_luma),
        filt(&opp_ref[1], sigma_chroma),
        filt(&opp_ref[2], sigma_chroma),
    ];
    let test_filtered = [
        filt(&opp_test[0], sigma_luma),
        filt(&opp_test[1], sigma_chroma),
        filt(&opp_test[2], sigma_chroma),
    ];

    // HyAB-style color difference: L1 on achromatic + L2 on chromatic.
    let mut color_err = GrayImage::new(w, h);
    // Normalization: the largest error the pipeline can produce for
    // in-gamut inputs (achromatic range 1 + chromatic diagonal).
    let max_err: f32 = 1.0 + (2.0f32).sqrt();
    for y in 0..h {
        for x in 0..w {
            let dl = (ref_filtered[0].get(x, y) - test_filtered[0].get(x, y)).abs();
            let da = ref_filtered[1].get(x, y) - test_filtered[1].get(x, y);
            let db = ref_filtered[2].get(x, y) - test_filtered[2].get(x, y);
            let de = dl + (da * da + db * db).sqrt();
            color_err.set(x, y, (de / max_err).clamp(0.0, 1.0).powf(QC));
        }
    }

    // --- Feature pipeline -----------------------------------------------
    // Edge and point feature magnitudes from the luminance channel; the
    // feature difference amplifies color errors near structure that
    // appears or disappears.
    let feat_ref = feature_magnitude(&opp_ref[0]);
    let feat_test = feature_magnitude(&opp_test[0]);
    let mut out = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let df = (feat_ref.get(x, y) - feat_test.get(x, y)).abs().clamp(0.0, 1.0).powf(QF);
            let ce = color_err.get(x, y);
            // Final FLIP combination: color error raised to (1 - feature
            // difference), so structural changes push the error toward 1.
            let e = ce.powf(1.0 - df);
            out.set(x, y, e.clamp(0.0, 1.0));
        }
    }
    out
}

/// Converts sRGB-ish `[0,1]` RGB to a simple opponent space
/// (achromatic, red-green, blue-yellow), each channel in `[-1, 1]`.
fn to_opponent(img: &RgbImage) -> [GrayImage; 3] {
    let (w, h) = (img.width(), img.height());
    let mut a = GrayImage::new(w, h);
    let mut rg = GrayImage::new(w, h);
    let mut by = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let [r, g, b] = img.get(x, y);
            // Linearize with gamma 2.2 (cheap sRGB approximation).
            let rl = r.max(0.0).powf(2.2);
            let gl = g.max(0.0).powf(2.2);
            let bl = b.max(0.0).powf(2.2);
            a.set(x, y, 0.2126 * rl + 0.7152 * gl + 0.0722 * bl);
            rg.set(x, y, rl - gl);
            by.set(x, y, 0.5 * (rl + gl) - bl);
        }
    }
    [a, rg, by]
}

/// Normalized edge+point feature magnitude of a luminance image.
fn feature_magnitude(luma: &GrayImage) -> GrayImage {
    let smoothed = gaussian_blur(luma, 1.0);
    let (gx, gy) = sobel_gradients(&smoothed);
    let (w, h) = (luma.width(), luma.height());
    GrayImage::from_fn(w, h, |x, y| {
        let g = (gx.get(x, y).powi(2) + gy.get(x, y).powi(2)).sqrt();
        // Sobel magnitude on unit-range images tops out around 4√2.
        (g / (4.0 * std::f32::consts::SQRT_2)).clamp(0.0, 1.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_image(w: usize, h: usize) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            [x as f32 / w as f32, y as f32 / h as f32, 0.3 + 0.2 * ((x ^ y) % 5) as f32 / 5.0]
        })
    }

    #[test]
    fn identical_images_have_zero_flip() {
        let img = gradient_image(32, 32);
        assert!(flip(&img, &img) < 1e-6);
    }

    #[test]
    fn inverted_image_has_large_flip() {
        let img = gradient_image(32, 32);
        let inv = RgbImage::from_fn(32, 32, |x, y| {
            let [r, g, b] = img.get(x, y);
            [1.0 - r, 1.0 - g, 1.0 - b]
        });
        assert!(flip(&img, &inv) > 0.2);
    }

    #[test]
    fn flip_increases_with_distortion() {
        let img = gradient_image(32, 32);
        let mild = RgbImage::from_fn(32, 32, |x, y| {
            let [r, g, b] = img.get(x, y);
            [(r + 0.05).min(1.0), g, b]
        });
        let severe = RgbImage::from_fn(32, 32, |x, y| {
            let [r, g, b] = img.get(x, y);
            [(r + 0.4).min(1.0), (g + 0.4).min(1.0), b]
        });
        let f_mild = flip(&img, &mild);
        let f_severe = flip(&img, &severe);
        assert!(f_mild < f_severe, "mild {f_mild} severe {f_severe}");
    }

    #[test]
    fn flip_map_in_unit_range() {
        let a = gradient_image(24, 24);
        let b = RgbImage::from_fn(24, 24, |x, y| {
            if (x / 4 + y / 4) % 2 == 0 {
                [1.0, 1.0, 1.0]
            } else {
                [0.0, 0.0, 0.0]
            }
        });
        let map = flip_map(&a, &b);
        assert!(map.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn structural_change_flagged_more_than_uniform_shift() {
        // A shifted edge (structure change) should score at least as high
        // as a small uniform brightness shift of similar magnitude.
        let edge = RgbImage::from_fn(32, 32, |x, _| if x < 16 { [0.2; 3] } else { [0.8; 3] });
        let moved = RgbImage::from_fn(32, 32, |x, _| if x < 20 { [0.2; 3] } else { [0.8; 3] });
        let shifted = RgbImage::from_fn(32, 32, |x, _| if x < 16 { [0.25; 3] } else { [0.85; 3] });
        assert!(flip(&edge, &moved) > flip(&edge, &shifted));
    }
}
