//! Three-channel floating-point images.

use core::fmt;

use crate::gray::{bilinear_blend, tap_indices, AxisTerm, GrayImage};

/// An RGB color with `f32` channels in `[0, 1]`.
pub(crate) type Rgb = [f32; 3];

/// An RGB image with `f32` channels, row-major.
///
/// This is the frame format the application renderer produces and the
/// visual pipeline (reprojection, distortion correction, chromatic
/// aberration) consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct RgbImage {
    width: usize,
    height: usize,
    data: Vec<Rgb>,
}

impl RgbImage {
    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Self {
        Self { width, height, data: vec![[0.0; 3]; width * height] }
    }

    /// Creates an image by evaluating `f(x, y)` per pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> Rgb) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.data[y * width + x] = f(x, y);
            }
        }
        img
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw pixel slice.
    #[inline]
    pub fn as_slice(&self) -> &[Rgb] {
        &self.data
    }

    /// Mutable raw pixel slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Rgb] {
        &mut self.data
    }

    /// Returns the pixel at `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Rgb {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: Rgb) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Bilinear sample at floating-point coordinates (border-clamped).
    #[inline]
    pub fn sample_bilinear(&self, x: f32, y: f32) -> Rgb {
        self.bilinear(AxisTerm::new(x, self.width), AxisTerm::new(y, self.height))
    }

    /// The sample whose axis terms are `tx` (made from this image's
    /// width) and `ty` (from its height): each channel blended as
    /// [`GrayImage::bilinear`] blends its one.
    ///
    /// Terms made for another size read other pixels or panic.
    #[inline]
    pub fn bilinear(&self, tx: AxisTerm, ty: AxisTerm) -> Rgb {
        let [i00, i10, i01, i11] = tap_indices(self.width, tx, ty);
        let (p00, p10, p01, p11) = (self.data[i00], self.data[i10], self.data[i01], self.data[i11]);
        core::array::from_fn(|c| bilinear_blend([p00[c], p10[c], p01[c], p11[c]], tx, ty))
    }

    /// One channel of [`bilinear`](Self::bilinear) — for the chromatic
    /// aberration pass, which warps each channel differently.
    ///
    /// # Panics
    ///
    /// Panics when `channel > 2`, and as `bilinear` does.
    #[inline]
    pub fn bilinear_channel(&self, tx: AxisTerm, ty: AxisTerm, channel: usize) -> f32 {
        let [i00, i10, i01, i11] = tap_indices(self.width, tx, ty);
        let taps = [
            self.data[i00][channel],
            self.data[i10][channel],
            self.data[i01][channel],
            self.data[i11][channel],
        ];
        bilinear_blend(taps, tx, ty)
    }

    /// Converts to grayscale using Rec. 709 luma weights.
    pub fn to_luma(&self) -> GrayImage {
        GrayImage::from_vec(
            self.width,
            self.height,
            self.data.iter().map(|p| 0.2126 * p[0] + 0.7152 * p[1] + 0.0722 * p[2]).collect(),
        )
    }

    /// Extracts one channel as a grayscale image.
    pub fn channel(&self, c: usize) -> GrayImage {
        assert!(c < 3, "channel index out of range");
        GrayImage::from_vec(self.width, self.height, self.data.iter().map(|p| p[c]).collect())
    }

    /// Mean per-channel absolute difference with another image.
    ///
    /// # Panics
    ///
    /// Panics when dimensions differ.
    pub fn mean_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!((self.width, self.height), (other.width, other.height), "image size mismatch");
        if self.data.is_empty() {
            return 0.0;
        }
        let total: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a[0] - b[0]).abs() + (a[1] - b[1]).abs() + (a[2] - b[2]).abs())
            .sum();
        total / (3 * self.data.len()) as f32
    }
}

impl fmt::Display for RgbImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RgbImage {}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_extraction() {
        let img = RgbImage::from_fn(2, 2, |x, y| [x as f32, y as f32, 0.5]);
        assert_eq!(img.channel(0).get(1, 0), 1.0);
        assert_eq!(img.channel(1).get(0, 1), 1.0);
        assert_eq!(img.channel(2).get(0, 0), 0.5);
    }

    #[test]
    fn luma_weights_sum_to_one() {
        let img = RgbImage::from_fn(1, 1, |_, _| [1.0, 1.0, 1.0]);
        assert!((img.to_luma().get(0, 0) - 1.0).abs() < 1e-6);
    }

    /// Every RGB sampler is the gray sampler of each channel, bit for
    /// bit, inside the image and beyond every border.
    #[test]
    fn bilinear_samplers_match_the_gray_sample_of_each_channel() {
        let img = RgbImage::from_fn(4, 3, |x, y| [(x + y) as f32 - 2.5, x as f32 / 3.0, y as f32]);
        let planes = [0, 1, 2].map(|c| img.channel(c));
        for (x, y) in [(1.3, 2.7), (0.0, 0.0), (-2.4, 1.1), (3.0, 2.0), (3.6, -0.2), (7.5, 9.25)] {
            let (tx, ty) = (AxisTerm::new(x, 4), AxisTerm::new(y, 3));
            let (full, by_terms) = (img.sample_bilinear(x, y), img.bilinear(tx, ty));
            for (c, plane) in planes.iter().enumerate() {
                let want = plane.sample_bilinear(x, y).to_bits();
                assert_eq!(full[c].to_bits(), want, "({x}, {y}) channel {c}");
                assert_eq!(by_terms[c].to_bits(), want);
                assert_eq!(img.bilinear_channel(tx, ty, c).to_bits(), want);
            }
        }
    }

    #[test]
    fn bilinear_of_non_finite_and_huge_coordinates_does_not_panic() {
        let img = RgbImage::from_fn(4, 3, |x, y| [x as f32, y as f32, 0.5]);
        let channel_at =
            |x: f32, y: f32, c| img.bilinear_channel(AxisTerm::new(x, 4), AxisTerm::new(y, 3), c);
        assert!(img.sample_bilinear(f32::INFINITY, 0.0).iter().all(|v| v.is_nan()));
        assert!(channel_at(0.0, f32::NEG_INFINITY, 1).is_nan());
        assert_eq!(img.sample_bilinear(f32::MAX, 1.0), img.get(3, 1));
        assert_eq!(channel_at(1.0, 1.0e30, 1), 2.0);
    }

    #[test]
    fn mean_abs_diff_detects_difference() {
        let a = RgbImage::from_fn(2, 2, |_, _| [0.0, 0.0, 0.0]);
        let b = RgbImage::from_fn(2, 2, |_, _| [0.3, 0.3, 0.3]);
        assert!((a.mean_abs_diff(&b) - 0.3).abs() < 1e-6);
    }
}
