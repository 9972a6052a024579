//! Asynchronous reprojection (timewarp).
//!
//! The application rendered its frame with a pose that is stale by the
//! time the display refreshes. Reprojection warps the rendered image to
//! the freshest pose: for each output pixel, cast its ray in the *new*
//! eye frame, rotate it by the relative rotation between the new and
//! render poses (rotational timewarp — the version the paper evaluates),
//! optionally add a translational correction assuming a constant scene
//! depth (positional timewarp, which the paper notes was implemented
//! later), then sample the rendered image where that ray landed.
//!
//! Everything before the sample depends on the two poses, the
//! configuration and the image size — not on the image. So does the
//! sample's own floor, cast and border clamp. `WarpMap` is that part: it
//! stores each source coordinate as its two [`AxisTerm`]s, so sampling an
//! eye is four loads and one blend per channel per pixel, and both eyes of a
//! frame are sampled through one map. A map carries its size and refuses an
//! image of another. [`reproject`] is a map built and sampled once, the same
//! expressions in the same order, which the tests pin against the
//! one-closure-a-pixel `reference_reproject`.

use illixr_image::{AxisTerm, RgbImage};
use illixr_math::{Pose, Vec3};

/// Reprojection configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReprojectionConfig {
    /// Vertical field of view of both the rendered and displayed image,
    /// radians.
    pub fov_y: f64,
    /// Aspect ratio (width / height).
    pub aspect: f64,
    /// When true, adds the translational correction (positional
    /// timewarp) using [`ReprojectionConfig::assumed_depth`].
    pub translational: bool,
    /// Scene depth assumed by the translational correction, meters.
    pub assumed_depth: f64,
}

impl ReprojectionConfig {
    /// Rotation-only timewarp (the paper's evaluated configuration).
    pub fn rotational(fov_y: f64, aspect: f64) -> Self {
        Self { fov_y, aspect, translational: false, assumed_depth: 2.0 }
    }

    /// Rotational + translational timewarp.
    pub fn translational(fov_y: f64, aspect: f64, assumed_depth: f64) -> Self {
        Self { fov_y, aspect, translational: true, assumed_depth }
    }
}

/// Where each display pixel of one warp reads the rendered image: the
/// image-independent part of [`reproject`] (unproject, rotate, re-aim,
/// project, and the floor-and-clamp of the bilinear sample), kept so that
/// both eyes of a frame, warped between the same two poses, pay for it
/// once.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WarpMap {
    width: usize,
    height: usize,
    /// Row-major source taps, the axis terms of the source coordinates;
    /// `None` where the ray leaves the rendered image or points behind the
    /// render eye.
    sources: Vec<Option<(AxisTerm, AxisTerm)>>,
}

impl WarpMap {
    /// Builds the map of a `width × height` image drawn at `render_pose`
    /// and displayed at `display_pose`.
    ///
    /// Both poses are eye poses looking along their −Z axes.
    pub(crate) fn new(
        width: usize,
        height: usize,
        render_pose: &Pose,
        display_pose: &Pose,
        config: &ReprojectionConfig,
    ) -> Self {
        let (w, h) = (width, height);
        let tan_half_y = (config.fov_y / 2.0).tan();
        let tan_half_x = tan_half_y * config.aspect;
        // Rotation taking display-eye directions into render-eye directions.
        let q_rel = render_pose.orientation.inverse() * display_pose.orientation;
        // Translation of the display eye expressed in the render eye frame.
        let t_rel =
            render_pose.orientation.inverse().rotate(display_pose.position - render_pose.position);
        let source = |x: usize, y: usize| {
            // Pixel → normalized device coords → ray in the display eye.
            let ndc_x = (x as f64 + 0.5) / w as f64 * 2.0 - 1.0;
            let ndc_y = 1.0 - (y as f64 + 0.5) / h as f64 * 2.0;
            let dir_display = Vec3::new(ndc_x * tan_half_x, ndc_y * tan_half_y, -1.0);
            // Rotate into the render eye.
            let mut dir_render = q_rel.rotate(dir_display);
            if config.translational {
                // The ray hits the assumed-depth plane at p = t_rel + s·dir
                // (display-eye origin offset by t_rel in the render frame).
                // Re-aim the render-eye ray at that world point.
                let s = config.assumed_depth / (-dir_display.z).max(1e-6);
                let p = t_rel + dir_render * s;
                dir_render = p;
            }
            if dir_render.z >= -1e-6 {
                return None; // behind the render eye
            }
            // Project into the rendered image.
            let u = dir_render.x / -dir_render.z / tan_half_x;
            let v = dir_render.y / -dir_render.z / tan_half_y;
            if u.abs() > 1.0 || v.abs() > 1.0 {
                return None;
            }
            let src_x = (u + 1.0) * 0.5 * w as f64 - 0.5;
            let src_y = (1.0 - v) * 0.5 * h as f64 - 0.5;
            Some((src_x as f32, src_y as f32))
        };
        let mut coords = Vec::with_capacity(w * h);
        for y in 0..h {
            coords.extend((0..w).map(|x| source(x, y)));
        }
        // The axis terms in a loop of their own: fused into the projection
        // above, the map took about a fifth longer to build.
        let sources = coords
            .into_iter()
            .map(|c| c.map(|(x, y)| (AxisTerm::new(x, w), AxisTerm::new(y, h))))
            .collect();
        Self { width, height, sources }
    }

    /// True when the map was built for images of `image`'s size.
    pub(crate) fn fits(&self, image: &RgbImage) -> bool {
        (self.width, self.height) == (image.width(), image.height())
    }

    /// Warps `rendered` through the map. Pixels whose source ray falls
    /// outside the rendered image are filled black (the visible "pull-in"
    /// at frame edges real timewarp exhibits).
    ///
    /// # Panics
    ///
    /// Panics when the map was built for another image size.
    pub(crate) fn sample(&self, rendered: &RgbImage) -> RgbImage {
        assert!(
            self.fits(rendered),
            "a {}x{} warp map cannot sample a {}x{} image",
            self.width,
            self.height,
            rendered.width(),
            rendered.height()
        );
        let mut out = RgbImage::new(self.width, self.height);
        for (dst, source) in out.as_mut_slice().iter_mut().zip(&self.sources) {
            if let Some((tx, ty)) = *source {
                *dst = rendered.bilinear(tx, ty);
            }
        }
        out
    }
}

/// Warps `rendered` (drawn at `render_pose`) to `display_pose`: a
/// `WarpMap` of the image's size, sampled once.
///
/// Both poses are eye poses looking along their −Z axes. Pixels whose
/// source ray falls outside the rendered image are filled black (the
/// visible "pull-in" at frame edges real timewarp exhibits).
pub fn reproject(
    rendered: &RgbImage,
    render_pose: &Pose,
    display_pose: &Pose,
    config: &ReprojectionConfig,
) -> RgbImage {
    WarpMap::new(rendered.width(), rendered.height(), render_pose, display_pose, config)
        .sample(rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_math::Quat;

    fn test_image() -> RgbImage {
        // A distinctive pattern: red gradient left-right, blue blocks.
        RgbImage::from_fn(64, 64, |x, y| {
            [x as f32 / 64.0, 0.3, if (y / 8) % 2 == 0 { 0.8 } else { 0.2 }]
        })
    }

    fn config() -> ReprojectionConfig {
        ReprojectionConfig::rotational(1.2, 1.0)
    }

    /// The warp as first written, kept verbatim as the bit reference: one
    /// closure a pixel, unproject → rotate → project → sample in one go.
    /// `reproject` must equal it bit for bit.
    fn reference_reproject(
        rendered: &RgbImage,
        render_pose: &Pose,
        display_pose: &Pose,
        config: &ReprojectionConfig,
    ) -> RgbImage {
        let (w, h) = (rendered.width(), rendered.height());
        let tan_half_y = (config.fov_y / 2.0).tan();
        let tan_half_x = tan_half_y * config.aspect;
        // Rotation taking display-eye directions into render-eye directions.
        let q_rel = render_pose.orientation.inverse() * display_pose.orientation;
        // Translation of the display eye expressed in the render eye frame.
        let t_rel =
            render_pose.orientation.inverse().rotate(display_pose.position - render_pose.position);
        RgbImage::from_fn(w, h, |x, y| {
            // Pixel → normalized device coords → ray in the display eye.
            let ndc_x = (x as f64 + 0.5) / w as f64 * 2.0 - 1.0;
            let ndc_y = 1.0 - (y as f64 + 0.5) / h as f64 * 2.0;
            let dir_display = Vec3::new(ndc_x * tan_half_x, ndc_y * tan_half_y, -1.0);
            // Rotate into the render eye.
            let mut dir_render = q_rel.rotate(dir_display);
            if config.translational {
                // The ray hits the assumed-depth plane at p = t_rel + s·dir
                // (display-eye origin offset by t_rel in the render frame).
                // Re-aim the render-eye ray at that world point.
                let s = config.assumed_depth / (-dir_display.z).max(1e-6);
                let p = t_rel + dir_render * s;
                dir_render = p;
            }
            if dir_render.z >= -1e-6 {
                return [0.0, 0.0, 0.0]; // behind the render eye
            }
            // Project into the rendered image.
            let u = dir_render.x / -dir_render.z / tan_half_x;
            let v = dir_render.y / -dir_render.z / tan_half_y;
            if u.abs() > 1.0 || v.abs() > 1.0 {
                return [0.0, 0.0, 0.0];
            }
            let src_x = (u + 1.0) * 0.5 * w as f64 - 0.5;
            let src_y = (1.0 - v) * 0.5 * h as f64 - 0.5;
            rendered.sample_bilinear(src_x as f32, src_y as f32)
        })
    }

    fn bits(img: &RgbImage) -> Vec<u32> {
        img.as_slice().iter().flatten().map(|v| v.to_bits()).collect()
    }

    /// A gradient with a diagonal stripe at the display size and at a
    /// non-square one: neighbouring source taps differ everywhere.
    fn striped(w: usize, h: usize) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            [x as f32 / w as f32, y as f32 / h as f32, ((x + 2 * y) % 7) as f32 / 7.0]
        })
    }

    #[test]
    fn reproject_is_bit_exact_against_the_reference() {
        let tilt = Quat::from_axis_angle(Vec3::new(0.3, 1.0, -0.2).normalized(), 0.07);
        let poses = [
            // A head turn and a step between render and display.
            (
                Pose::new(Vec3::new(0.1, 1.6, -0.3), Quat::from_axis_angle(Vec3::UNIT_Y, 0.4)),
                Pose::new(
                    Vec3::new(0.13, 1.58, -0.27),
                    Quat::from_axis_angle(Vec3::UNIT_Y, 0.4) * tilt,
                ),
            ),
            // A turn that pulls the edges in.
            (Pose::IDENTITY, Pose::new(Vec3::ZERO, Quat::from_axis_angle(Vec3::UNIT_Y, 0.5))),
            // More than a right angle: rays land behind the render eye.
            (
                Pose::IDENTITY,
                Pose::new(Vec3::new(0.0, 0.0, 0.4), Quat::from_axis_angle(Vec3::UNIT_X, 1.9)),
            ),
        ];
        for (w, h) in [(96, 96), (64, 48)] {
            let img = striped(w, h);
            let aspect = w as f64 / h as f64;
            let configs = [
                ReprojectionConfig::rotational(1.2, aspect),
                ReprojectionConfig::translational(1.2, aspect, 2.0),
            ];
            for (render, display) in &poses {
                for cfg in &configs {
                    let got = reproject(&img, render, display, cfg);
                    let want = reference_reproject(&img, render, display, cfg);
                    assert_eq!((got.width(), got.height()), (w, h));
                    assert!(
                        bits(&got) == bits(&want),
                        "{w}x{h}, translational {}, display {display:?}",
                        cfg.translational
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "96x96 warp map cannot sample a 64x48 image")]
    fn a_map_refuses_an_image_of_another_size() {
        let map = WarpMap::new(96, 96, &Pose::IDENTITY, &Pose::IDENTITY, &config());
        assert!(map.fits(&striped(96, 96)) && !map.fits(&striped(64, 48)));
        map.sample(&striped(64, 48));
    }

    #[test]
    fn identity_pose_is_near_identity_warp() {
        let img = test_image();
        let pose = Pose::IDENTITY;
        let out = reproject(&img, &pose, &pose, &config());
        assert!(img.mean_abs_diff(&out) < 0.01, "diff {}", img.mean_abs_diff(&out));
    }

    #[test]
    fn yaw_rotation_shifts_image_horizontally() {
        let img = test_image();
        let render = Pose::IDENTITY;
        // Display eye rotated left (+yaw about Y): the world appears to
        // shift right in the new view.
        let display = Pose::new(Vec3::ZERO, Quat::from_axis_angle(Vec3::UNIT_Y, 0.1));
        let out = reproject(&img, &render, &display, &config());
        // The red gradient encodes source x; sample the center row.
        let before = img.get(32, 32)[0];
        let after = out.get(32, 32)[0];
        assert!(
            after < before - 0.02,
            "rotating view left should sample farther left: {after} vs {before}"
        );
    }

    #[test]
    fn edges_fill_black_after_large_rotation() {
        let img = test_image();
        let display = Pose::new(Vec3::ZERO, Quat::from_axis_angle(Vec3::UNIT_Y, 0.5));
        let out = reproject(&img, &Pose::IDENTITY, &display, &config());
        // One trailing edge column must be entirely fresh black pixels.
        let column_black = |x: usize| (0..64).all(|y| out.get(x, y) == [0.0, 0.0, 0.0]);
        assert!(column_black(0) || column_black(63), "no black edge after large rotation");
    }

    #[test]
    fn translational_warp_responds_to_position_change() {
        let img = test_image();
        let cfg = ReprojectionConfig::translational(1.2, 1.0, 2.0);
        let moved = Pose::new(Vec3::new(0.1, 0.0, 0.0), Quat::IDENTITY);
        let out_translational = reproject(&img, &Pose::IDENTITY, &moved, &cfg);
        let out_rotational = reproject(&img, &Pose::IDENTITY, &moved, &config());
        // Rotational-only ignores translation entirely.
        assert!(img.mean_abs_diff(&out_rotational) < 0.01);
        assert!(img.mean_abs_diff(&out_translational) > 0.01);
    }

    #[test]
    fn small_rotation_is_locally_consistent() {
        // Warping by +θ then viewing the result where −θ would land
        // approximately recovers the original center pixel.
        let img = test_image();
        let display = Pose::new(Vec3::ZERO, Quat::from_axis_angle(Vec3::UNIT_X, 0.05));
        let out = reproject(&img, &Pose::IDENTITY, &display, &config());
        let back = reproject(&out, &display, &Pose::IDENTITY, &config());
        let a = img.get(32, 32);
        let b = back.get(32, 32);
        // The blue channel carries hard 8-px stripes that two bilinear
        // resamplings legitimately smear; check the smooth channels.
        for c in 0..2 {
            assert!((a[c] - b[c]).abs() < 0.12, "channel {c}: {} vs {}", a[c], b[c]);
        }
    }
}
