//! Mesh-based radial lens distortion and chromatic-aberration
//! correction (paper Table II: "mesh-based radial distortion").
//!
//! HMD lenses pincushion-distort the displayed image and refract each
//! wavelength differently; the runtime pre-applies the inverse barrel
//! distortion, per color channel. Like the reference implementation we
//! evaluate the distortion polynomial only at the vertices of a coarse
//! mesh and bilinearly interpolate between them — the "mesh-based"
//! optimization that makes the pass cheap.
//!
//! Where an output pixel reads each channel depends on the mesh and the
//! image size, not on the image. [`DistortionMesh::apply`] keeps those reads
//! for the size it saw last as a table of [`AxisTerm`] pairs, one per pixel
//! and channel, so a frame costs three four-tap blends a pixel: no mesh
//! interpolation, floor, cast or border clamp. The tests pin its output
//! bits with digests taken from the first implementation, which did all of
//! that per pixel per frame.

use std::cell::RefCell;

use illixr_image::{AxisTerm, RgbImage};
use illixr_math::Vec2;

/// Radial distortion parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistortionParams {
    /// Quadratic radial coefficient.
    pub k1: f64,
    /// Quartic radial coefficient.
    pub k2: f64,
    /// Per-channel scale of the distortion (chromatic aberration):
    /// red, green, blue. Green is the reference (1.0).
    pub channel_scale: [f64; 3],
    /// Warp-mesh resolution (vertices per side).
    pub mesh_resolution: usize,
}

impl Default for DistortionParams {
    /// Mild barrel pre-distortion with visible chromatic separation,
    /// North-Star-like.
    fn default() -> Self {
        Self { k1: 0.22, k2: 0.05, channel_scale: [0.985, 1.0, 1.015], mesh_resolution: 32 }
    }
}

/// A precomputed warp mesh: for each channel, the source UV at each
/// mesh vertex.
#[derive(Debug, Clone)]
pub struct DistortionMesh {
    resolution: usize,
    /// `[channel][vy * (res+1) + vx]` source UVs in `[0,1]²`.
    uvs: [Vec<Vec2>; 3],
    /// The taps of the image size [`apply`](Self::apply) saw last. They
    /// depend on the mesh and the size only, and a display keeps its size.
    taps: RefCell<TapTable>,
}

/// Where [`DistortionMesh::apply`] reads a `width × height` image.
#[derive(Debug, Clone, Default)]
struct TapTable {
    width: usize,
    height: usize,
    /// `[y * width + x][channel]`: the axis terms of the source pixel
    /// coordinates of that destination pixel, `None` when they fall
    /// outside the image.
    taps: Vec<[Option<(AxisTerm, AxisTerm)>; 3]>,
}

impl DistortionMesh {
    /// Precomputes the warp mesh for `params`.
    ///
    /// # Panics
    ///
    /// Panics when `mesh_resolution < 2`.
    pub fn new(params: &DistortionParams) -> Self {
        assert!(params.mesh_resolution >= 2, "mesh resolution too small");
        let res = params.mesh_resolution;
        let mut uvs: [Vec<Vec2>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (c, uv) in uvs.iter_mut().enumerate() {
            uv.reserve((res + 1) * (res + 1));
            for vy in 0..=res {
                for vx in 0..=res {
                    let u = vx as f64 / res as f64;
                    let v = vy as f64 / res as f64;
                    // Centered coordinates in [-1, 1].
                    let cx = u * 2.0 - 1.0;
                    let cy = v * 2.0 - 1.0;
                    let r2 =
                        (cx * cx + cy * cy) * params.channel_scale[c] * params.channel_scale[c];
                    let factor = 1.0 + params.k1 * r2 + params.k2 * r2 * r2;
                    let sx = cx * factor * params.channel_scale[c];
                    let sy = cy * factor * params.channel_scale[c];
                    uv.push(Vec2::new((sx + 1.0) * 0.5, (sy + 1.0) * 0.5));
                }
            }
        }
        Self { resolution: res, uvs, taps: RefCell::default() }
    }

    /// Source UV for `channel` at normalized destination `(u, v)`,
    /// bilinearly interpolated from the mesh.
    pub fn sample(&self, channel: usize, u: f64, v: f64) -> Vec2 {
        let res = self.resolution;
        let fx = (u.clamp(0.0, 1.0)) * res as f64;
        let fy = (v.clamp(0.0, 1.0)) * res as f64;
        let x0 = (fx.floor() as usize).min(res - 1);
        let y0 = (fy.floor() as usize).min(res - 1);
        let tx = fx - x0 as f64;
        let ty = fy - y0 as f64;
        let stride = res + 1;
        let p00 = self.uvs[channel][y0 * stride + x0];
        let p10 = self.uvs[channel][y0 * stride + x0 + 1];
        let p01 = self.uvs[channel][(y0 + 1) * stride + x0];
        let p11 = self.uvs[channel][(y0 + 1) * stride + x0 + 1];
        p00 * (1.0 - tx) * (1.0 - ty)
            + p10 * tx * (1.0 - ty)
            + p01 * (1.0 - tx) * ty
            + p11 * tx * ty
    }

    /// The source taps for a `w × h` image: per destination pixel centre
    /// and channel, the axis terms of the mesh's source UV in pixel
    /// coordinates.
    fn tap_table(&self, w: usize, h: usize) -> TapTable {
        let mut taps = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let u = (x as f64 + 0.5) / w as f64;
                let v = (y as f64 + 0.5) / h as f64;
                taps.push(std::array::from_fn(|c| {
                    let src = self.sample(c, u, v);
                    if !(0.0..=1.0).contains(&src.x) || !(0.0..=1.0).contains(&src.y) {
                        return None;
                    }
                    let (sx, sy) =
                        ((src.x * w as f64 - 0.5) as f32, (src.y * h as f64 - 0.5) as f32);
                    Some((AxisTerm::new(sx, w), AxisTerm::new(sy, h)))
                }));
            }
        }
        TapTable { width: w, height: h, taps }
    }

    /// Applies the distortion + chromatic-aberration correction to an
    /// image. Out-of-range source samples are black.
    pub fn apply(&self, img: &RgbImage) -> RgbImage {
        let (w, h) = (img.width(), img.height());
        let mut table = self.taps.borrow_mut();
        if (table.width, table.height) != (w, h) {
            *table = self.tap_table(w, h);
        }
        let mut out = RgbImage::new(w, h);
        for (dst, taps) in out.as_mut_slice().iter_mut().zip(&table.taps) {
            *dst = std::array::from_fn(|c| {
                taps[c].map_or(0.0, |(tx, ty)| img.bilinear_channel(tx, ty, c))
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_core::boundary::fnv1a;
    use illixr_image::draw::checkerboard;

    #[test]
    fn center_is_fixed_point() {
        let mesh = DistortionMesh::new(&DistortionParams::default());
        let c = mesh.sample(1, 0.5, 0.5);
        assert!((c - Vec2::new(0.5, 0.5)).norm() < 1e-9);
    }

    #[test]
    fn distortion_grows_with_radius() {
        let mesh = DistortionMesh::new(&DistortionParams::default());
        // Near the corner, the green source sample is pushed outward
        // beyond the destination (barrel pre-distortion).
        let dst = Vec2::new(0.95, 0.95);
        let src = mesh.sample(1, dst.x, dst.y);
        let center = Vec2::new(0.5, 0.5);
        assert!((src - center).norm() > (dst - center).norm());
    }

    #[test]
    fn channels_diverge_away_from_center() {
        let mesh = DistortionMesh::new(&DistortionParams::default());
        let r = mesh.sample(0, 0.9, 0.5);
        let g = mesh.sample(1, 0.9, 0.5);
        let b = mesh.sample(2, 0.9, 0.5);
        assert!((r - g).norm() > 1e-4, "red == green");
        assert!((b - g).norm() > 1e-4, "blue == green");
        // Red is scaled less, blue more.
        let c = Vec2::new(0.5, 0.5);
        assert!((r - c).norm() < (g - c).norm());
        assert!((b - c).norm() > (g - c).norm());
    }

    #[test]
    fn apply_preserves_center_region() {
        let img = checkerboard(64, 64, 8);
        let mesh = DistortionMesh::new(&DistortionParams::default());
        let out = mesh.apply(&img);
        // The very center pixel is (nearly) untouched.
        let a = img.get(32, 32);
        let b = out.get(32, 32);
        for ch in 0..3 {
            assert!((a[ch] - b[ch]).abs() < 0.3, "channel {ch}");
        }
    }

    #[test]
    fn apply_introduces_color_fringes() {
        let img = checkerboard(96, 96, 12);
        let mesh = DistortionMesh::new(&DistortionParams::default());
        let out = mesh.apply(&img);
        // Near the edge, at least one pixel must have channels pulled
        // from different board cells → unequal channel values.
        let mut fringes = 0;
        for y in 0..96 {
            for x in 0..96 {
                let p = out.get(x, y);
                if (p[0] - p[2]).abs() > 0.3 {
                    fringes += 1;
                }
            }
        }
        assert!(fringes > 20, "only {fringes} fringe pixels");
    }

    #[test]
    fn zero_coefficients_are_identity() {
        let params =
            DistortionParams { k1: 0.0, k2: 0.0, channel_scale: [1.0; 3], mesh_resolution: 16 };
        let mesh = DistortionMesh::new(&params);
        let img = checkerboard(32, 32, 4);
        let out = mesh.apply(&img);
        assert!(img.mean_abs_diff(&out) < 1e-4);
    }

    /// FNV-1a over every output bit of `apply` on a `w × h` gradient with
    /// a diagonal stripe, so neighbouring source taps differ everywhere.
    fn apply_digest(mesh: &DistortionMesh, w: usize, h: usize) -> u64 {
        let img = RgbImage::from_fn(w, h, |x, y| {
            [x as f32 / w as f32, y as f32 / h as f32, ((x + 2 * y) % 7) as f32 / 7.0]
        });
        let out = mesh.apply(&img);
        assert_eq!((out.width(), out.height()), (w, h));
        fnv1a(out.as_slice().iter().flatten().flat_map(|v| v.to_bits().to_le_bytes()))
    }

    /// Taken from the first implementation (three mesh interpolations per
    /// pixel per frame). One mesh is applied at the display size, at a
    /// second size and at the first again: whatever `apply` keeps between
    /// calls must follow the image size.
    #[test]
    fn apply_output_bits_are_pinned_across_a_size_change() {
        for (params, square, wide) in [
            (DistortionParams::default(), 0x71d8_2112_6ffe_85b9u64, 0x7fbe_a070_c9e3_b5e1u64),
            (
                DistortionParams { mesh_resolution: 8, ..Default::default() },
                0x9b1a_31b8_eaa4_2453,
                0xffb4_f90e_ccbc_d590,
            ),
        ] {
            let mesh = DistortionMesh::new(&params);
            let digests = [
                apply_digest(&mesh, 96, 96),
                apply_digest(&mesh, 64, 48),
                apply_digest(&mesh, 96, 96),
            ];
            assert_eq!(digests, [square, wide, square], "mesh {}", params.mesh_resolution);
        }
    }
}
