//! Stencil kernels: Gaussian blur, Sobel gradients and the bilateral
//! filter (the depth-preprocessing stage of scene reconstruction,
//! Table VI "camera processing").
//!
//! # The blur's tap order is pinned
//!
//! Every pyramid level, so every KLT track and every `real_vio` pose,
//! depends on the last bit of [`gaussian_blur`]. Its definition is the
//! per-pixel one: each output of each pass starts from `0.0` and adds
//! `kernel[i] * tap(i)` for `i` ascending, a tap beyond the border being
//! the border pixel. The code runs that sum one tap at a time over a
//! whole row instead of one pixel at a time over all taps, which changes
//! which pixel is updated when and nothing about any pixel's own sequence
//! of additions — so the output is the same to the bit, signed zeros
//! included, and the inner loop has no clamp, branch or index multiply.
//! Horizontally the border is paid once a row: the row is copied into a
//! buffer with `radius` copies of its first pixel before it and of its
//! last after it, which is exactly what a clamped read returned, and tap
//! `i` of pixel `x` is then `padded[i + x]`. Vertically a tap is a whole
//! row and the clamp is one `min`/`saturating_sub` a row; an output row
//! reads only the `2·radius + 1` rows around it, so the horizontal pass
//! keeps that many rows in a ring instead of a second whole image (whose
//! fresh pages cost more than the arithmetic). No `mul_add`, no
//! reassociation: a fused or reordered sum rounds differently. The tests
//! keep the per-pixel loops verbatim as `reference_gaussian_blur` and
//! compare every bit.
//!
//! [`bilateral_filter`] is pinned the same way — `preprocess_depth` feeds
//! every ICP pose and surfel — and swept the same way: one of its
//! `(2r + 1)²` taps at a time across a whole interior row. Its section
//! states the argument.
//!
//! Both kernels run through [`wide::run`], so on a CPU with AVX-512 the
//! loops above run as a second copy compiled for 512-bit vectors. The
//! argument holds for that copy unchanged: it is the same source, each
//! vector lane performs one pixel's IEEE operations in the order written,
//! and rustc marks no float operation contractible or reassociable, so
//! `kernel[i] * tap(i)` and the sum it joins round separately there too.
//! The tests compare the two copies bit for bit.

use crate::gray::GrayImage;
use crate::wide::{self, Kernel};

/// Builds a normalized 1-D Gaussian kernel with radius `⌈3σ⌉`.
fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    assert!(sigma > 0.0, "sigma must be positive");
    let radius = (3.0 * sigma).ceil() as isize;
    let mut k: Vec<f32> =
        (-radius..=radius).map(|i| (-((i * i) as f32) / (2.0 * sigma * sigma)).exp()).collect();
    let sum: f32 = k.iter().sum();
    k.iter_mut().for_each(|v| *v /= sum);
    k
}

/// `dst[x] += k * src[x]` over a whole row: the one loop both blur passes
/// are made of, with the pixel innermost so it runs as vector code.
#[inline(always)]
fn add_scaled(dst: &mut [f32], k: f32, src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += k * s;
    }
}

/// Separable Gaussian blur with standard deviation `sigma`.
///
/// # Panics
///
/// Panics when `sigma <= 0`.
pub fn gaussian_blur(img: &GrayImage, sigma: f32) -> GrayImage {
    wide::run(Blur { img, sigma })
}

/// [`gaussian_blur`] as a [`Kernel`].
struct Blur<'a> {
    img: &'a GrayImage,
    sigma: f32,
}

impl Kernel for Blur<'_> {
    type Output = GrayImage;

    #[inline(always)]
    fn run(self) -> GrayImage {
        blur(self.img, self.sigma)
    }
}

#[inline(always)]
fn blur(img: &GrayImage, sigma: f32) -> GrayImage {
    let kernel = gaussian_kernel(sigma);
    let (taps, radius) = (kernel.len(), kernel.len() / 2);
    let (w, h) = (img.width(), img.height());
    let mut out = GrayImage::new(w, h);
    if w == 0 || h == 0 {
        return out;
    }
    let src = img.as_slice();
    let mut padded = vec![0.0f32; w + 2 * radius];
    // Output row `y` reads rows `y − radius ..= y + radius` of the
    // horizontal pass, `taps` consecutive rows, so row `j` is kept in slot
    // `j % taps` and the pass runs `radius` rows ahead of the output.
    let mut rows = vec![0.0f32; taps * w];
    let mut swept = 0;
    for (y, dst) in out.as_mut_slice().chunks_exact_mut(w).enumerate() {
        // Horizontal pass: tap `i` of pixel `x` is `padded[i + x]`.
        while swept <= (y + radius).min(h - 1) {
            let line = &src[swept * w..][..w];
            padded[..radius].fill(line[0]);
            padded[radius..radius + w].copy_from_slice(line);
            padded[radius + w..].fill(line[w - 1]);
            let row = &mut rows[swept % taps * w..][..w];
            row.fill(0.0);
            for (i, &kv) in kernel.iter().enumerate() {
                add_scaled(row, kv, &padded[i..i + w]);
            }
            swept += 1;
        }
        // Vertical pass: tap `i` of row `y` is row `y + i − radius`, clamped.
        for (i, &kv) in kernel.iter().enumerate() {
            let sy = (y + i).saturating_sub(radius).min(h - 1);
            add_scaled(dst, kv, &rows[sy % taps * w..][..w]);
        }
    }
    out
}

/// Sobel gradients: returns `(gx, gy)` images.
pub(crate) fn sobel_gradients(img: &GrayImage) -> (GrayImage, GrayImage) {
    let (w, h) = (img.width(), img.height());
    let mut gx = GrayImage::new(w, h);
    let mut gy = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let (xi, yi) = (x as isize, y as isize);
            let tl = img.get_clamped(xi - 1, yi - 1);
            let tc = img.get_clamped(xi, yi - 1);
            let tr = img.get_clamped(xi + 1, yi - 1);
            let ml = img.get_clamped(xi - 1, yi);
            let mr = img.get_clamped(xi + 1, yi);
            let bl = img.get_clamped(xi - 1, yi + 1);
            let bc = img.get_clamped(xi, yi + 1);
            let br = img.get_clamped(xi + 1, yi + 1);
            gx.set(x, y, (tr + 2.0 * mr + br) - (tl + 2.0 * ml + bl));
            gy.set(x, y, (bl + 2.0 * bc + br) - (tl + 2.0 * tc + tr));
        }
    }
    (gx, gy)
}

/// Entries of the bilateral filter's range table over `|Δv| ∈ [0, 4σ)`;
/// entry `RANGE_LUT_SIZE` is the zero weight of everything beyond.
const RANGE_LUT_SIZE: usize = 256;

/// The range-table entry of every pixel of `src` against the pixel of
/// `center` under it: `⌊|v − c| / max_dr · 255⌋`, or the zero entry from
/// `max_dr` on.
///
/// This is the per-pixel filter's `(a / max_dr * 255.0) as usize` without
/// the cast, which saturates and so compiles to scalar code. Below `max_dr`
/// the quotient is in `[0, 255]`, and a NaN (the cast's `0`) fails `> 0.0`,
/// so after the clamp `q + 2²³` is exact to the integer: its mantissa is
/// `q` rounded to nearest, one more than the floor exactly when taking 2²³
/// off again leaves more than `q`. Compares, adds and a mask — the loop
/// runs as vector code.
#[inline(always)]
fn range_indices(idx: &mut [u32], src: &[f32], center: &[f32], max_dr: f32) {
    const ROUND: f32 = 8_388_608.0; // 2²³
    for ((i, &v), &c) in idx.iter_mut().zip(src).zip(center) {
        let a = (v - c).abs();
        let q = a / max_dr * (RANGE_LUT_SIZE - 1) as f32;
        let q = if q > 0.0 { q } else { 0.0 };
        let q = if q < (RANGE_LUT_SIZE - 1) as f32 { q } else { (RANGE_LUT_SIZE - 1) as f32 };
        let t = q + ROUND;
        let floor = (t.to_bits() & 0x007f_ffff) - u32::from(t - ROUND > q);
        *i = if a >= max_dr { RANGE_LUT_SIZE as u32 } else { floor };
    }
}

/// One tap of the bilateral filter across a whole interior row: `wgt =
/// spatial · lut[idx]`, added to a pixel's sums unless the tap is invalid.
///
/// [`range_indices`] writes no index above `RANGE_LUT_SIZE`; the `min`
/// says so to the compiler, so the table read has no bounds check.
#[inline(always)]
fn add_tap(
    acc: &mut [f32],
    weight: &mut [f32],
    spatial: f32,
    lut: &[f32; RANGE_LUT_SIZE + 1],
    idx: &[u32],
    src: &[f32],
    invalid_below: f32,
) {
    for (((a, wt), &i), &v) in acc.iter_mut().zip(weight.iter_mut()).zip(idx).zip(src) {
        let wgt = spatial * lut[(i as usize).min(RANGE_LUT_SIZE)];
        let valid = v > invalid_below;
        *a = if valid { *a + wgt * v } else { *a };
        *wt = if valid { *wt + wgt } else { *wt };
    }
}

/// Edge-preserving bilateral filter.
///
/// `sigma_space` controls the spatial footprint, `sigma_range` the
/// intensity similarity. Pixels with value `<= invalid_below` are treated
/// as invalid (depth holes) and skipped, matching ElasticFusion's
/// invalid-depth rejection.
///
/// # The tap order is pinned
///
/// A pixel's output is `acc / weight`, both sums starting from `0.0` and
/// taking the `(2r + 1)²` taps row by row, left to right. Away from the
/// border the code runs that one tap at a time across a whole row into
/// per-row `acc`/`weight` buffers — the order of pixels changes, no
/// pixel's own sequence of additions does — and a skipped tap is a select
/// that keeps the old sum, so the output equals the per-pixel loop's to the
/// bit. Border pixels, and every pixel of an image narrower than the
/// kernel, take the clamped per-pixel loop as before. The tests keep that
/// loop verbatim as `reference_bilateral_filter` and compare every bit,
/// and compare the AVX-512 copy with the portable one (module docs).
///
/// # Panics
///
/// Panics when either sigma is non-positive.
pub fn bilateral_filter(
    img: &GrayImage,
    sigma_space: f32,
    sigma_range: f32,
    invalid_below: f32,
) -> GrayImage {
    wide::run(Bilateral { img, sigma_space, sigma_range, invalid_below })
}

/// [`bilateral_filter`] as a [`Kernel`].
struct Bilateral<'a> {
    img: &'a GrayImage,
    sigma_space: f32,
    sigma_range: f32,
    invalid_below: f32,
}

impl Kernel for Bilateral<'_> {
    type Output = GrayImage;

    #[inline(always)]
    fn run(self) -> GrayImage {
        bilateral(self.img, self.sigma_space, self.sigma_range, self.invalid_below)
    }
}

#[inline(always)]
fn bilateral(img: &GrayImage, sigma_space: f32, sigma_range: f32, invalid_below: f32) -> GrayImage {
    assert!(sigma_space > 0.0 && sigma_range > 0.0, "sigmas must be positive");
    let radius = (2.0 * sigma_space).ceil() as isize;
    let (w, h) = (img.width(), img.height());
    let inv_2ss = 1.0 / (2.0 * sigma_space * sigma_space);
    let inv_2sr = 1.0 / (2.0 * sigma_range * sigma_range);
    // Precompute the spatial kernel; only the range term depends on
    // pixel values.
    let side = (2 * radius + 1) as usize;
    let mut spatial = vec![0.0f32; side * side];
    for dy in -radius..=radius {
        for dx in -radius..=radius {
            let ds = (dx * dx + dy * dy) as f32;
            spatial[((dy + radius) * side as isize + dx + radius) as usize] = (-ds * inv_2ss).exp();
        }
    }
    // Range weights from a lookup table over |Δv| up to 4σ (the standard
    // real-time bilateral optimization; beyond 4σ the weight is ~0).
    let max_dr = 4.0 * sigma_range;
    let mut lut = [0.0f32; RANGE_LUT_SIZE + 1];
    for (i, entry) in lut[..RANGE_LUT_SIZE].iter_mut().enumerate() {
        let dr = i as f32 / (RANGE_LUT_SIZE - 1) as f32 * max_dr;
        *entry = (-dr * dr * inv_2sr).exp();
    }
    let range_weight = |dr: f32| -> f32 {
        let a = dr.abs();
        if a >= max_dr {
            0.0
        } else {
            lut[(a / max_dr * (RANGE_LUT_SIZE - 1) as f32) as usize]
        }
    };
    // The per-pixel filter, every tap clamped to the image.
    let clamped = |x: usize, y: usize| -> f32 {
        let center = img.get(x, y);
        if center <= invalid_below {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut weight = 0.0;
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                let v = img.get_clamped(x as isize + dx, y as isize + dy);
                if v <= invalid_below {
                    continue;
                }
                let wgt = spatial[((dy + radius) * side as isize + dx + radius) as usize]
                    * range_weight(v - center);
                acc += wgt * v;
                weight += wgt;
            }
        }
        if weight > 0.0 {
            acc / weight
        } else {
            0.0
        }
    };
    let mut out = GrayImage::new(w, h);
    let data = img.as_slice();
    let r = radius as usize;
    // Pixels `r .. w − r` of rows `r .. h − r` read no pixel off the image.
    let inner = w.saturating_sub(2 * r);
    let mut acc = vec![0.0f32; inner];
    let mut weight = vec![0.0f32; inner];
    let mut idx = vec![0u32; inner];
    for y in 0..h {
        let dst = out.row_mut(y);
        if inner == 0 || y < r || y + r >= h {
            for (x, d) in dst.iter_mut().enumerate() {
                *d = clamped(x, y);
            }
            continue;
        }
        for x in (0..r).chain(w - r..w) {
            dst[x] = clamped(x, y);
        }
        // Tap `(dy, dx)` of interior pixel `r + j` is pixel `dx + j` of row
        // `y + dy − r`.
        let center = &data[y * w + r..][..inner];
        acc.fill(0.0);
        weight.fill(0.0);
        for (k, &sk) in spatial.iter().enumerate() {
            let src = &data[(y + k / side - r) * w + k % side..][..inner];
            range_indices(&mut idx, src, center, max_dr);
            add_tap(&mut acc, &mut weight, sk, &lut, &idx, src, invalid_below);
        }
        for (((d, &c), &a), &wt) in dst[r..].iter_mut().zip(center).zip(&acc).zip(&weight) {
            // A NaN centre is not `<= invalid_below`: it is filtered.
            *d = if c <= invalid_below {
                0.0
            } else if wt > 0.0 {
                a / wt
            } else {
                0.0
            };
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pyramid::Pyramid;
    use illixr_trace::fnv1a;

    /// The blur as first written, kept verbatim as the bit reference: the
    /// output pixel outermost, every tap read through `get_clamped`.
    /// `gaussian_blur` must equal it bit for bit, so each pixel of each
    /// pass starts from `0.0` and receives its taps in ascending `i`.
    fn reference_gaussian_blur(img: &GrayImage, sigma: f32) -> GrayImage {
        let kernel = gaussian_kernel(sigma);
        let radius = (kernel.len() / 2) as isize;
        let (w, h) = (img.width(), img.height());
        // Horizontal pass.
        let mut tmp = GrayImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                for (i, &kv) in kernel.iter().enumerate() {
                    acc += kv * img.get_clamped(x as isize + i as isize - radius, y as isize);
                }
                tmp.set(x, y, acc);
            }
        }
        // Vertical pass.
        let mut out = GrayImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                for (i, &kv) in kernel.iter().enumerate() {
                    acc += kv * tmp.get_clamped(x as isize, y as isize + i as isize - radius);
                }
                out.set(x, y, acc);
            }
        }
        out
    }

    /// The 2×2 box average as first written: every tap clamped.
    fn reference_downsample_2x(img: &GrayImage) -> GrayImage {
        let w = (img.width() / 2).max(1);
        let h = (img.height() / 2).max(1);
        GrayImage::from_fn(w, h, |x, y| {
            let (x2, y2) = (2 * x, 2 * y);
            let a = img.get_clamped(x2 as isize, y2 as isize);
            let b = img.get_clamped(x2 as isize + 1, y2 as isize);
            let c = img.get_clamped(x2 as isize, y2 as isize + 1);
            let d = img.get_clamped(x2 as isize + 1, y2 as isize + 1);
            (a + b + c + d) * 0.25
        })
    }

    /// The bilateral filter as first written, kept verbatim as the bit
    /// reference: the output pixel outermost, its taps row by row, the range
    /// weight through a saturating `as usize` cast. `bilateral_filter` must
    /// equal it bit for bit.
    fn reference_bilateral_filter(
        img: &GrayImage,
        sigma_space: f32,
        sigma_range: f32,
        invalid_below: f32,
    ) -> GrayImage {
        assert!(sigma_space > 0.0 && sigma_range > 0.0, "sigmas must be positive");
        let radius = (2.0 * sigma_space).ceil() as isize;
        let (w, h) = (img.width(), img.height());
        let inv_2ss = 1.0 / (2.0 * sigma_space * sigma_space);
        let inv_2sr = 1.0 / (2.0 * sigma_range * sigma_range);
        // Precompute the spatial kernel; only the range term depends on
        // pixel values.
        let side = (2 * radius + 1) as usize;
        let mut spatial = vec![0.0f32; side * side];
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                let ds = (dx * dx + dy * dy) as f32;
                spatial[((dy + radius) * side as isize + dx + radius) as usize] =
                    (-ds * inv_2ss).exp();
            }
        }
        // Range weights from a lookup table over |Δv| up to 4σ (the standard
        // real-time bilateral optimization; beyond 4σ the weight is ~0).
        const LUT_SIZE: usize = 256;
        let max_dr = 4.0 * sigma_range;
        let lut: Vec<f32> = (0..LUT_SIZE)
            .map(|i| {
                let dr = i as f32 / (LUT_SIZE - 1) as f32 * max_dr;
                (-dr * dr * inv_2sr).exp()
            })
            .collect();
        let range_weight = |dr: f32| -> f32 {
            let a = dr.abs();
            if a >= max_dr {
                0.0
            } else {
                lut[(a / max_dr * (LUT_SIZE - 1) as f32) as usize]
            }
        };
        let mut out = GrayImage::new(w, h);
        let data = img.as_slice();
        let r = radius as usize;
        for y in 0..h {
            let interior_y = y >= r && y + r < h;
            for x in 0..w {
                let center = img.get(x, y);
                if center <= invalid_below {
                    out.set(x, y, 0.0);
                    continue;
                }
                let mut acc = 0.0;
                let mut weight = 0.0;
                if interior_y && x >= r && x + r < w {
                    // Interior fast path: direct indexing, no clamping.
                    let mut k = 0;
                    for dy in 0..side {
                        let row = (y + dy - r) * w + (x - r);
                        for v in &data[row..row + side] {
                            let wgt = spatial[k] * range_weight(v - center);
                            if *v > invalid_below {
                                acc += wgt * v;
                                weight += wgt;
                            }
                            k += 1;
                        }
                    }
                } else {
                    for dy in -radius..=radius {
                        for dx in -radius..=radius {
                            let v = img.get_clamped(x as isize + dx, y as isize + dy);
                            if v <= invalid_below {
                                continue;
                            }
                            let wgt = spatial
                                [((dy + radius) * side as isize + dx + radius) as usize]
                                * range_weight(v - center);
                            acc += wgt * v;
                            weight += wgt;
                        }
                    }
                }
                out.set(x, y, if weight > 0.0 { acc / weight } else { 0.0 });
            }
        }
        out
    }

    /// A hashed texture in `[-0.5, 0.5)`: negative values, no two
    /// neighbours alike, the same on every platform.
    fn texture(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            let mut v = (x as u32).wrapping_mul(0x9e37_79b1) ^ (y as u32).wrapping_mul(0x85eb_ca6b);
            v ^= v >> 15;
            v = v.wrapping_mul(0xc2b2_ae35);
            (v >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        })
    }

    fn bits(img: &GrayImage) -> Vec<u32> {
        img.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn digest(img: &GrayImage) -> u64 {
        fnv1a(img.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()))
    }

    /// A depth-like frame in metres: two slanted walls meeting in a step of
    /// 1.3 m (more than 4σ of every range sigma below), millimetre noise so
    /// neighbours land all over the range table, and with `holes` a
    /// scattering of `0.0` and negative pixels, some of them adjacent.
    fn depth_scene(w: usize, h: usize, holes: bool) -> GrayImage {
        let noise = texture(w, h);
        GrayImage::from_fn(w, h, |x, y| {
            let wall = if 3 * x < 2 * w { 1.6 } else { 2.9 };
            let v = wall + 0.004 * x as f32 + 0.0025 * y as f32 + 0.03 * noise.get(x, y);
            match (holes, (x * 7 + y * 13) % 29) {
                (true, 0 | 1) => 0.0,
                (true, 2) => -0.25,
                _ => v,
            }
        })
    }

    /// Narrower than every kernel, exactly one kernel, wider than one and
    /// narrower than another, and the QVGA frame the pipeline filters.
    const BILATERAL_SIZES: [(usize, usize); 5] = [(1, 1), (5, 4), (7, 7), (9, 40), (320, 240)];

    /// `preprocess_depth`'s sigmas, then a radius-2 and a radius-5 kernel.
    const BILATERAL_SIGMAS: [(f32, f32); 3] = [(1.5, 0.08), (0.8, 0.05), (2.5, 0.2)];

    #[test]
    fn bilateral_filter_is_bit_exact_against_the_reference() {
        for (sigma_space, sigma_range) in BILATERAL_SIGMAS {
            for (w, h) in BILATERAL_SIZES {
                for holes in [false, true] {
                    let img = depth_scene(w, h, holes);
                    let got = bilateral_filter(&img, sigma_space, sigma_range, 0.0);
                    let want = reference_bilateral_filter(&img, sigma_space, sigma_range, 0.0);
                    assert_eq!((got.width(), got.height()), (w, h));
                    assert!(
                        bits(&got) == bits(&want),
                        "sigmas {sigma_space}/{sigma_range} differ on {w}x{h}, holes {holes}"
                    );
                }
            }
            // Negative pixels that are valid: nothing is at or below −1.
            let img = texture(40, 23);
            let got = bilateral_filter(&img, sigma_space, sigma_range, -1.0);
            let want = reference_bilateral_filter(&img, sigma_space, sigma_range, -1.0);
            assert!(bits(&got) == bits(&want), "sigmas {sigma_space}/{sigma_range}: texture");
        }
    }

    /// Values the range table never sees in a depth frame must still take
    /// the reference's entry: NaN and infinite pixels, as a neighbour and as
    /// the centre.
    #[test]
    fn bilateral_filter_matches_the_reference_on_non_finite_pixels() {
        let mut img = depth_scene(24, 16, true);
        img.set(8, 8, f32::NAN);
        img.set(15, 6, f32::INFINITY);
        img.set(4, 11, f32::NEG_INFINITY);
        let got = bilateral_filter(&img, 1.5, 0.08, 0.0);
        let want = reference_bilateral_filter(&img, 1.5, 0.08, 0.0);
        assert!(bits(&got) == bits(&want));
    }

    /// Taken from the first implementation, so the reference itself cannot
    /// drift: the QVGA frame with holes under `preprocess_depth`'s sigmas.
    #[test]
    fn bilateral_qvga_output_is_pinned() {
        let img = depth_scene(320, 240, true);
        let want = 0x43a3_fad2_d40a_117c;
        assert_eq!(digest(&reference_bilateral_filter(&img, 1.5, 0.08, 0.0)), want);
        assert_eq!(digest(&bilateral_filter(&img, 1.5, 0.08, 0.0)), want);
    }

    /// The pins' depth frames, with NaN and −0.0 pixels added beside the
    /// holes: a `max`, a compare or a select is where two lowerings of the
    /// same source could part.
    fn special_depth() -> GrayImage {
        let mut img = depth_scene(40, 23, true);
        for (x, y, v) in [(8, 8, f32::NAN), (9, 8, -0.0), (3, 1, f32::NAN), (30, 12, -0.0)] {
            img.set(x, y, v);
        }
        img
    }

    /// Both copies of the filter, bit for bit: [`Kernel::run`] called
    /// directly is the portable one, [`bilateral_filter`] the one
    /// `wide::run` picks (the same one on a host without AVX-512).
    #[test]
    fn bilateral_filter_copies_agree_to_the_bit() {
        let mut cases: Vec<(GrayImage, f32)> = BILATERAL_SIZES
            .iter()
            .flat_map(|&(w, h)| [false, true].map(|holes| (depth_scene(w, h, holes), 0.0)))
            .collect();
        cases.extend([(texture(40, 23), -1.0), (special_depth(), 0.0)]);
        for (sigma_space, sigma_range) in BILATERAL_SIGMAS {
            for &(ref img, invalid_below) in &cases {
                let portable = Bilateral { img, sigma_space, sigma_range, invalid_below }.run();
                let dispatched = bilateral_filter(img, sigma_space, sigma_range, invalid_below);
                assert!(
                    bits(&portable) == bits(&dispatched),
                    "sigmas {sigma_space}/{sigma_range} differ on {}x{}",
                    img.width(),
                    img.height()
                );
            }
        }
    }

    /// Sizes below, at and above the kernel radius in either direction.
    const BLUR_SIZES: [(usize, usize); 7] =
        [(1, 1), (2, 7), (5, 3), (17, 9), (96, 64), (160, 120), (320, 240)];

    #[test]
    fn gaussian_blur_is_bit_exact_against_the_reference() {
        for sigma in [0.8, 1.0, 2.5] {
            for (w, h) in BLUR_SIZES {
                let img = texture(w, h);
                let (got, want) =
                    (gaussian_blur(&img, sigma), reference_gaussian_blur(&img, sigma));
                assert_eq!((got.width(), got.height()), (w, h));
                assert!(bits(&got) == bits(&want), "sigma {sigma} differs on {w}x{h}");
            }
        }
    }

    /// Both copies of the blur, bit for bit, as for the bilateral filter;
    /// the pyramid's levels are the blur of each level above.
    #[test]
    fn gaussian_blur_copies_agree_to_the_bit() {
        let mut images: Vec<GrayImage> = BLUR_SIZES.iter().map(|&(w, h)| texture(w, h)).collect();
        images.push(special_depth());
        let pyr = Pyramid::new(&texture(320, 240), 4);
        images.extend((0..pyr.num_levels()).map(|i| pyr.level(i).clone()));
        for sigma in [0.8, 1.0, 2.5] {
            for img in &images {
                let portable = Blur { img, sigma }.run();
                let dispatched = gaussian_blur(img, sigma);
                assert!(
                    bits(&portable) == bits(&dispatched),
                    "sigma {sigma} differs on {}x{}",
                    img.width(),
                    img.height()
                );
            }
        }
    }

    #[test]
    fn gaussian_blur_of_an_empty_image_is_empty() {
        for (w, h) in [(0, 0), (0, 5), (5, 0)] {
            let out = gaussian_blur(&GrayImage::new(w, h), 1.0);
            assert_eq!((out.width(), out.height(), out.as_slice().len()), (w, h, 0));
        }
    }

    #[test]
    fn downsample_is_bit_exact_against_the_clamped_closure() {
        for (w, h) in [(1, 1), (1, 6), (7, 1), (5, 3), (6, 4), (320, 240)] {
            let img = texture(w, h);
            let (got, want) = (img.downsample_2x(), reference_downsample_2x(&img));
            assert_eq!((got.width(), got.height()), (want.width(), want.height()));
            assert!(bits(&got) == bits(&want), "downsample differs on {w}x{h}");
        }
    }

    /// Taken from the first implementation, so the references themselves
    /// cannot drift: one QVGA blur and every level of the two pyramids
    /// the trackers build (the MSCKF front end's 3, the alternative's 4).
    #[test]
    fn blur_and_pyramid_levels_are_pinned() {
        let base = texture(320, 240);
        let levels = |n| {
            let pyr = Pyramid::new(&base, n);
            (0..pyr.num_levels()).map(|i| digest(pyr.level(i))).collect::<Vec<u64>>()
        };
        assert_eq!(digest(&reference_gaussian_blur(&base, 1.0)), 0x8b6d_0204_de34_f710);
        let want = [
            0x4773_30f5_e1b4_5dae,
            0x9b88_28cd_73a9_f8b9,
            0xd97a_f19c_9770_1009,
            0xfb91_3e56_33b1_fc1b,
        ];
        let (three, four) = (levels(3), levels(4));
        assert_eq!(four, want, "got {four:#018x?}");
        assert_eq!(three, want[..3], "got {three:#018x?}");
    }

    #[test]
    fn gaussian_preserves_constant_image() {
        let img = GrayImage::from_fn(16, 16, |_, _| 0.7);
        let blurred = gaussian_blur(&img, 1.5);
        for y in 0..16 {
            for x in 0..16 {
                assert!((blurred.get(x, y) - 0.7).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gaussian_smooths_impulse() {
        let mut img = GrayImage::new(9, 9);
        img.set(4, 4, 1.0);
        let blurred = gaussian_blur(&img, 1.0);
        assert!(blurred.get(4, 4) < 1.0);
        assert!(blurred.get(3, 4) > 0.0);
        // Total mass preserved (interior impulse, kernel sums to 1).
        let total: f32 = blurred.as_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-4);
    }

    #[test]
    fn sobel_detects_vertical_edge() {
        let img = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 0.0 } else { 1.0 });
        let (gx, gy) = sobel_gradients(&img);
        assert!(gx.get(4, 4).abs() > 1.0);
        assert!(gy.get(4, 4).abs() < 1e-6);
    }

    #[test]
    fn bilateral_preserves_edges_better_than_gaussian() {
        let img = GrayImage::from_fn(16, 16, |x, _| if x < 8 { 0.2 } else { 0.8 });
        let b = bilateral_filter(&img, 2.0, 0.05, -1.0);
        let g = gaussian_blur(&img, 2.0);
        // Just next to the edge the bilateral output stays close to the
        // original while the Gaussian smears.
        let edge_err_b = (b.get(6, 8) - 0.2).abs();
        let edge_err_g = (g.get(6, 8) - 0.2).abs();
        assert!(edge_err_b < edge_err_g, "bilateral {edge_err_b} vs gaussian {edge_err_g}");
    }

    #[test]
    fn bilateral_skips_invalid_depth() {
        let mut img = GrayImage::from_fn(8, 8, |_, _| 1.0);
        img.set(3, 3, 0.0); // hole
        let out = bilateral_filter(&img, 1.0, 0.1, 0.01);
        assert_eq!(out.get(3, 3), 0.0);
        assert!((out.get(4, 4) - 1.0).abs() < 1e-5);
    }
}
