//! Single-channel floating-point images.

use core::fmt;

/// One axis of a border-clamped bilinear sample: the two pixel indices
/// a coordinate falls between and their weights.
///
/// A sample is two of these (one from `x` and the width, one from `y`
/// and the height) and a [`GrayImage::bilinear`] over them. Neither
/// depends on the other axis, so code that samples a window derives one
/// term per column and one per row rather than two per pixel.
///
/// Indices are `u32`, so a term is 16 bytes: the display passes keep one
/// pair per pixel (and per channel) in their tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisTerm {
    /// Index of the pixel at or below the coordinate, clamped to the axis.
    pub(crate) i0: u32,
    /// Index of the next pixel, clamped to the axis.
    pub(crate) i1: u32,
    /// Weight of `i1`: the coordinate's fractional part.
    pub(crate) f: f32,
    /// Weight of `i0`: `1.0 - f`.
    pub(crate) g: f32,
}

impl AxisTerm {
    /// The term of coordinate `v` on an axis of `len` pixels.
    ///
    /// `±∞` and NaN give a NaN weight and so a NaN sample; a finite
    /// coordinate beyond the axis, however far, gives the edge pixel.
    ///
    /// # Panics
    ///
    /// Panics when `len` is zero or above 2³².
    #[inline]
    pub fn new(v: f32, len: usize) -> Self {
        let last = len.checked_sub(1).and_then(|l| u32::try_from(l).ok());
        let last = i64::from(last.expect("an axis has 1 to 2³² pixels"));
        let v0 = v.floor();
        let f = v - v0;
        // The cast saturates, so the neighbour's index must too.
        let i = v0 as i64;
        Self {
            i0: i.clamp(0, last) as u32,
            i1: i.saturating_add(1).clamp(0, last) as u32,
            f,
            g: 1.0 - f,
        }
    }
}

/// Where the four neighbours of a sample sit in a row-major buffer
/// `width` pixels wide, in the order [`bilinear_blend`] takes them.
#[inline]
pub(crate) fn tap_indices(width: usize, tx: AxisTerm, ty: AxisTerm) -> [usize; 4] {
    let (top, bottom) = (ty.i0 as usize * width, ty.i1 as usize * width);
    let (left, right) = (tx.i0 as usize, tx.i1 as usize);
    [top + left, top + right, bottom + left, bottom + right]
}

/// The bilinear blend of four neighbours under two axis terms — the one
/// place its association is written, for gray and RGB samples alike.
#[inline]
pub(crate) fn bilinear_blend([p00, p10, p01, p11]: [f32; 4], tx: AxisTerm, ty: AxisTerm) -> f32 {
    p00 * tx.g * ty.g + p10 * tx.f * ty.g + p01 * tx.g * ty.f + p11 * tx.f * ty.f
}

/// A grayscale image with `f32` pixels, row-major.
///
/// Pixel values are nominally in `[0, 1]` but the container does not
/// enforce a range (intermediate results of filters may exceed it).
///
/// # Examples
///
/// ```
/// use illixr_image::GrayImage;
/// let img = GrayImage::from_fn(4, 4, |x, y| (x * y) as f32);
/// assert_eq!(img.get(2, 3), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Self {
        Self { width, height, data: vec![0.0; width * height] }
    }

    /// Creates an image by evaluating `f(x, y)` per pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.data[y * width + x] = f(x, y);
            }
        }
        img
    }

    /// Creates an image from row-major data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != width * height`.
    pub(crate) fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "pixel buffer size mismatch");
        Self { width, height, data }
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

    /// Raw row-major pixel slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw pixel slice.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `y` as a mutable slice of `width` pixels, for code that fills
    /// or updates a run of pixels without per-pixel index arithmetic.
    ///
    /// # Panics
    ///
    /// Panics when `y >= height`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [f32] {
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Returns the pixel at `(x, y)` clamping coordinates to the border.
    ///
    /// For stencils that step over the border a pixel at a time
    /// (`sobel_gradients`, `bilateral_filter`'s border path, `ssim_map`'s
    /// windows). The blur, the pyramid and the bilinear samplers do their
    /// own, cheaper clamping — a padded row, an [`AxisTerm`] — and do not
    /// come here.
    #[inline]
    pub(crate) fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Bilinear sample at floating-point coordinates (border-clamped).
    #[inline]
    pub fn sample_bilinear(&self, x: f32, y: f32) -> f32 {
        self.bilinear(AxisTerm::new(x, self.width), AxisTerm::new(y, self.height))
    }

    /// The sample whose axis terms are `tx` (made from this image's
    /// width) and `ty` (from its height): four loads and one blend.
    ///
    /// Terms made for another size read other pixels or panic.
    #[inline]
    pub fn bilinear(&self, tx: AxisTerm, ty: AxisTerm) -> f32 {
        let [i00, i10, i01, i11] = tap_indices(self.width, tx, ty);
        bilinear_blend([self.data[i00], self.data[i10], self.data[i01], self.data[i11]], tx, ty)
    }

    /// Half-resolution downsample by 2×2 box averaging.
    pub(crate) fn downsample_2x(&self) -> Self {
        let w = (self.width / 2).max(1);
        let h = (self.height / 2).max(1);
        // Offset of the second tap on each axis. `2·(n/2) − 1 ≤ n − 1`, so
        // no tap leaves the image unless the axis is one pixel long, and
        // there the border-clamped neighbour is the pixel itself.
        let (sx, sy) = (usize::from(self.width > 1), usize::from(self.height > 1));
        let mut out = Self::new(w, h);
        for (y, dst) in out.data.chunks_exact_mut(w).enumerate() {
            let top = &self.data[2 * y * self.width..][..self.width];
            let bottom = &self.data[(2 * y + sy) * self.width..][..self.width];
            for (x, d) in dst.iter_mut().enumerate() {
                *d = (top[2 * x] + top[2 * x + sx] + bottom[2 * x] + bottom[2 * x + sx]) * 0.25;
            }
        }
        out
    }

    /// Mean pixel value (0 for empty images).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Applies `f` to every pixel, returning a new image.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Mean absolute difference with another image of identical size.
    ///
    /// # Panics
    ///
    /// Panics when dimensions differ.
    pub fn mean_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!((self.width, self.height), (other.width, other.height), "image size mismatch");
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).sum::<f32>()
            / self.data.len() as f32
    }
}

impl fmt::Display for GrayImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GrayImage {}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let img = GrayImage::from_fn(3, 2, |x, y| (10 * y + x) as f32);
        assert_eq!(img.get(2, 1), 12.0);
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
    }

    #[test]
    fn row_mut_is_exactly_one_row() {
        let mut img = GrayImage::new(3, 2);
        img.row_mut(1).fill(7.0);
        assert_eq!(img.as_slice(), [0.0, 0.0, 0.0, 7.0, 7.0, 7.0]);
    }

    #[test]
    fn clamped_access_at_borders() {
        let img = GrayImage::from_fn(2, 2, |x, y| (x + 2 * y) as f32);
        assert_eq!(img.get_clamped(-5, -5), img.get(0, 0));
        assert_eq!(img.get_clamped(10, 10), img.get(1, 1));
    }

    #[test]
    fn bilinear_interpolates_midpoint() {
        let img = GrayImage::from_fn(2, 1, |x, _| x as f32);
        assert!((img.sample_bilinear(0.5, 0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn bilinear_at_integer_coords_is_exact() {
        let img = GrayImage::from_fn(4, 4, |x, y| (x * y) as f32);
        assert_eq!(img.sample_bilinear(2.0, 3.0), 6.0);
    }

    /// The sample as first written, kept verbatim as the bit reference
    /// for `sample_bilinear` and for everything built from its parts.
    fn reference_sample_bilinear(img: &GrayImage, x: f32, y: f32) -> f32 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = x - x0;
        let fy = y - y0;
        let (xi, yi) = (x0 as isize, y0 as isize);
        let p00 = img.get_clamped(xi, yi);
        let p10 = img.get_clamped(xi + 1, yi);
        let p01 = img.get_clamped(xi, yi + 1);
        let p11 = img.get_clamped(xi + 1, yi + 1);
        p00 * (1.0 - fx) * (1.0 - fy)
            + p10 * fx * (1.0 - fy)
            + p01 * (1.0 - fx) * fy
            + p11 * fx * fy
    }

    /// Inside, on the border, beyond it on every side, and on a 1×1
    /// image where all four taps are the same pixel.
    #[test]
    fn bilinear_is_bit_exact_against_the_reference() {
        for (w, h) in [(1, 1), (2, 1), (7, 5), (32, 24)] {
            let img = GrayImage::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 23) as f32 / 23.0 - 0.4);
            let steps = |n: usize| {
                (0..).map(|k| -3.25 + 0.37 * k as f32).take_while(move |&v| v < n as f32 + 3.0)
            };
            for y in steps(h) {
                for x in steps(w).chain([0.0, -0.0, w as f32 - 1.0, -1.0e9, 1.0e9]) {
                    let (got, want) =
                        (img.sample_bilinear(x, y), reference_sample_bilinear(&img, x, y));
                    assert_eq!(got.to_bits(), want.to_bits(), "({x}, {y}) on {w}x{h}");
                }
            }
        }
    }

    /// `|x| ≥ 2⁶³` saturates the index cast, and the neighbour's `+ 1`
    /// must saturate with it, or debug builds panic where release builds
    /// wrap. Both profiles return NaN for `±∞` and the edge pixel for a
    /// huge finite coordinate.
    #[test]
    fn bilinear_of_non_finite_and_huge_coordinates_does_not_panic() {
        let img = GrayImage::from_fn(4, 3, |x, y| (x + 4 * y) as f32);
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            assert!(img.sample_bilinear(bad, 1.0).is_nan());
            assert!(img.sample_bilinear(1.0, bad).is_nan());
        }
        assert_eq!(img.sample_bilinear(1.0e30, 1.0), img.get(3, 1));
        assert_eq!(img.sample_bilinear(-1.0e30, 1.0), img.get(0, 1));
        assert_eq!(img.sample_bilinear(f32::MAX, f32::MAX), img.get(3, 2));
        assert_eq!(img.sample_bilinear(f32::MIN, f32::MIN), img.get(0, 0));
    }

    /// Indices are `u32`: the longest axis a term takes is 2³² pixels...
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn axis_terms_take_an_axis_of_two_to_the_thirty_second_pixels() {
        let term = AxisTerm::new(5.0e9, 1 << 32);
        assert_eq!((term.i0, term.i1), (u32::MAX, u32::MAX));
    }

    /// ...and a longer one is refused, not read at a truncated index.
    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "an axis has 1 to 2³² pixels")]
    fn axis_terms_refuse_a_longer_axis() {
        AxisTerm::new(0.5, (1 << 32) + 1);
    }

    #[test]
    fn downsample_halves_dimensions() {
        let img = GrayImage::from_fn(8, 6, |_, _| 0.5);
        let half = img.downsample_2x();
        assert_eq!((half.width(), half.height()), (4, 3));
        assert!((half.get(1, 1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn mean_abs_diff_zero_for_identical() {
        let img = GrayImage::from_fn(5, 5, |x, y| (x ^ y) as f32);
        assert_eq!(img.mean_abs_diff(&img), 0.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_size_mismatch_panics() {
        let _ = GrayImage::from_vec(3, 3, vec![0.0; 8]);
    }
}
