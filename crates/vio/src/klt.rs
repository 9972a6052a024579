//! Pyramidal Lucas-Kanade optical flow (the "feature matching" task of
//! Table VI).
//!
//! Tracks sparse points from one image to the next by iteratively solving
//! the 2×2 normal equations of the brightness-constancy linearization
//! over a window, coarse-to-fine across an image pyramid.
//!
//! # A window's axis terms are derived once
//!
//! Every value the tracker reads is a border-clamped bilinear sample, and
//! a sample is an [`AxisTerm`] of its `x`, an `AxisTerm` of its `y` (each
//! a `floor`, a fraction, its complement and two clamped indices) and a
//! blend of four pixels. Over a `(2r + 1)²` window whose pixels sit at
//! `p.x + dx`, `p.y + dy` the `x` terms take `2r + 1` distinct values and
//! the `y` terms `2r + 1`, not `(2r + 1)²` each, because neither
//! coordinate is computed from the other offset. So a level derives, per
//! window offset, the terms of the three coordinates the template and its
//! central differences use — `x as f32`, `(x + 1.0) as f32`,
//! `(x − 1.0) as f32`, each cast from the `f64` expression it always was —
//! and per iteration the terms of `p + disp + offset`, and every sample is
//! [`GrayImage::bilinear`] over a pair of them: the same terms and the same
//! blend `sample_bilinear` composes, so the same bits. What it may not do
//! is fill one `(2r + 3)²` patch and read the gradients' neighbours out of
//! it: `(x + 1.0) as f32` and the next offset's `x as f32` are separate
//! roundings of `f64` sums and need not be equal. The sums into `g`, `b`
//! and `err_sum` run `dy` outer, `dx` inner, as they always have. The
//! tests keep the per-sample level verbatim as `reference_refine_at_level`
//! and compare every `TrackResult` bit.

use illixr_image::{AxisTerm, GrayImage, Pyramid};
use illixr_math::{Mat2, Vec2};

/// KLT parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KltParams {
    /// Half-size of the tracking window (window is `(2w+1)²`).
    pub window_radius: usize,
    /// Pyramid levels.
    pub levels: usize,
    /// Max Gauss-Newton iterations per level.
    pub max_iterations: usize,
    /// Convergence threshold on the update norm (pixels).
    pub epsilon: f64,
    /// Reject tracks whose final per-pixel residual exceeds this.
    pub max_residual: f64,
}

impl Default for KltParams {
    fn default() -> Self {
        Self { window_radius: 4, levels: 3, max_iterations: 12, epsilon: 0.02, max_residual: 0.08 }
    }
}

/// The result of tracking one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrackResult {
    /// Converged at the given location with the given mean residual.
    Ok { position: Vec2, residual: f64 },
    /// Track lost (out of bounds, singular system, or high residual).
    Lost,
}

/// Tracks `points` from `prev` to `next`, returning one result per point.
///
/// `initial_guesses`, when provided, seeds each point's position in
/// `next` (used for stereo matching with an expected disparity);
/// otherwise points seed at their previous location.
pub fn track_points(
    prev: &GrayImage,
    next: &GrayImage,
    points: &[Vec2],
    initial_guesses: Option<&[Vec2]>,
    params: &KltParams,
) -> Vec<TrackResult> {
    let prev_pyr = Pyramid::new(prev, params.levels);
    let next_pyr = Pyramid::new(next, params.levels);
    track_points_pyramids(&prev_pyr, &next_pyr, points, initial_guesses, params)
}

/// Like [`track_points`] but over pre-built pyramids — front ends build
/// each image's pyramid once and reuse it for temporal and stereo
/// tracking (and across frames).
pub(crate) fn track_points_pyramids(
    prev_pyr: &Pyramid,
    next_pyr: &Pyramid,
    points: &[Vec2],
    initial_guesses: Option<&[Vec2]>,
    params: &KltParams,
) -> Vec<TrackResult> {
    let mut window = Window::default();
    points
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let guess = initial_guesses.map(|g| g[i]).unwrap_or(p);
            track_one(prev_pyr, next_pyr, p, guess, params, &mut window)
        })
        .collect()
}

/// The buffers of [`refine_at_level`], each `2r + 1` or `(2r + 1)²` long
/// once used, kept across levels and points so a call allocates once.
#[derive(Default)]
struct Window {
    /// Template value and gradient per window pixel, `dy` outer.
    tmpl: Vec<f64>,
    grads: Vec<Vec2>,
    /// Per window offset, the template's terms at the coordinate `c` and
    /// at its central difference's two ends: `[c, c + 1, c − 1]`.
    tmpl_x: Vec<[AxisTerm; 3]>,
    tmpl_y: Vec<[AxisTerm; 3]>,
    /// Per window offset, the terms of the current iterate in `next`.
    next_x: Vec<AxisTerm>,
    next_y: Vec<AxisTerm>,
}

fn track_one(
    prev_pyr: &Pyramid,
    next_pyr: &Pyramid,
    point: Vec2,
    guess: Vec2,
    params: &KltParams,
    window: &mut Window,
) -> TrackResult {
    let levels = prev_pyr.num_levels().min(next_pyr.num_levels());
    // Start from the coarsest level; carry the displacement down.
    let mut disp = (guess - point) / (1 << (levels - 1)) as f64;
    let mut last_residual = f64::INFINITY;
    for level in (0..levels).rev() {
        let scale = (1 << level) as f64;
        let p_level = point / scale;
        let prev_img = prev_pyr.level(level);
        let next_img = next_pyr.level(level);
        match refine_at_level(prev_img, next_img, p_level, disp, params, window) {
            Some((d, residual)) => {
                disp = d;
                last_residual = residual;
            }
            None => return TrackResult::Lost,
        }
        if level > 0 {
            disp *= 2.0;
        }
    }
    let final_pos = point + disp;
    let (w, h) = (next_pyr.level(0).width() as f64, next_pyr.level(0).height() as f64);
    let r = params.window_radius as f64;
    if final_pos.x < r || final_pos.y < r || final_pos.x >= w - r || final_pos.y >= h - r {
        return TrackResult::Lost;
    }
    if last_residual > params.max_residual {
        return TrackResult::Lost;
    }
    TrackResult::Ok { position: final_pos, residual: last_residual }
}

/// One pyramid level of iterative LK. Returns the refined displacement
/// and mean absolute residual, or `None` on failure.
fn refine_at_level(
    prev: &GrayImage,
    next: &GrayImage,
    p: Vec2,
    mut disp: Vec2,
    params: &KltParams,
    window: &mut Window,
) -> Option<(Vec2, f64)> {
    let r = params.window_radius as i32;
    let Window { tmpl, grads, tmpl_x, tmpl_y, next_x, next_y } = window;
    // The template's axis terms: at each offset, a pixel on, a pixel back.
    let terms = |c: f64, len: usize| {
        [c as f32, (c + 1.0) as f32, (c - 1.0) as f32].map(|v| AxisTerm::new(v, len))
    };
    tmpl_x.clear();
    tmpl_x.extend((-r..=r).map(|dx| terms(p.x + dx as f64, prev.width())));
    tmpl_y.clear();
    tmpl_y.extend((-r..=r).map(|dy| terms(p.y + dy as f64, prev.height())));
    // Precompute template values and gradients around p in `prev`.
    tmpl.clear();
    grads.clear();
    let mut g = Mat2::ZERO;
    for &[y, y_plus, y_minus] in tmpl_y.iter() {
        for &[x, x_plus, x_minus] in tmpl_x.iter() {
            let v = prev.bilinear(x, y) as f64;
            // Central-difference gradients on the template image.
            let gx = (prev.bilinear(x_plus, y) - prev.bilinear(x_minus, y)) as f64 * 0.5;
            let gy = (prev.bilinear(x, y_plus) - prev.bilinear(x, y_minus)) as f64 * 0.5;
            tmpl.push(v);
            grads.push(Vec2::new(gx, gy));
            g.m[0][0] += gx * gx;
            g.m[0][1] += gx * gy;
            g.m[1][0] += gx * gy;
            g.m[1][1] += gy * gy;
        }
    }
    let n = tmpl.len();
    let g_inv = g.inverse()?; // untextured window → singular → lost
    let mut residual = f64::INFINITY;
    for _ in 0..params.max_iterations {
        let term = |c: f64, len: usize| AxisTerm::new(c as f32, len);
        next_x.clear();
        next_x.extend((-r..=r).map(|dx| term(p.x + disp.x + dx as f64, next.width())));
        next_y.clear();
        next_y.extend((-r..=r).map(|dy| term(p.y + disp.y + dy as f64, next.height())));
        let mut b = Vec2::ZERO;
        let mut err_sum = 0.0;
        let mut idx = 0;
        for &y in next_y.iter() {
            for &x in next_x.iter() {
                let v = next.bilinear(x, y) as f64;
                let diff = tmpl[idx] - v;
                b += grads[idx] * diff;
                err_sum += diff.abs();
                idx += 1;
            }
        }
        residual = err_sum / n as f64;
        let delta = g_inv * b;
        disp += delta;
        if !disp.is_finite() {
            return None;
        }
        if delta.norm() < params.epsilon {
            break;
        }
    }
    Some((disp, residual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_image::draw::fill_circle_gray;

    /// Renders blobs at given centers over a gradient background.
    fn blobs(centers: &[(f32, f32)]) -> GrayImage {
        let mut img = GrayImage::from_fn(128, 96, |x, y| 0.2 + 0.001 * (x + y) as f32);
        for &(cx, cy) in centers {
            fill_circle_gray(&mut img, cx, cy, 3.0, 0.9);
        }
        illixr_image::gaussian_blur(&img, 1.0)
    }

    /// One pyramid level as first written, kept verbatim as the bit
    /// reference: five `sample_bilinear` calls a template pixel and one a
    /// pixel an iteration, each deriving both axes' terms afresh.
    fn reference_refine_at_level(
        prev: &GrayImage,
        next: &GrayImage,
        p: Vec2,
        mut disp: Vec2,
        params: &KltParams,
    ) -> Option<(Vec2, f64)> {
        let r = params.window_radius as i32;
        // Precompute template values and gradients around p in `prev`.
        let n = ((2 * r + 1) * (2 * r + 1)) as usize;
        let mut tmpl = Vec::with_capacity(n);
        let mut grads = Vec::with_capacity(n);
        let mut g = Mat2::ZERO;
        for dy in -r..=r {
            for dx in -r..=r {
                let x = p.x + dx as f64;
                let y = p.y + dy as f64;
                let v = prev.sample_bilinear(x as f32, y as f32) as f64;
                // Central-difference gradients on the template image.
                let gx = (prev.sample_bilinear((x + 1.0) as f32, y as f32)
                    - prev.sample_bilinear((x - 1.0) as f32, y as f32))
                    as f64
                    * 0.5;
                let gy = (prev.sample_bilinear(x as f32, (y + 1.0) as f32)
                    - prev.sample_bilinear(x as f32, (y - 1.0) as f32))
                    as f64
                    * 0.5;
                tmpl.push(v);
                grads.push(Vec2::new(gx, gy));
                g.m[0][0] += gx * gx;
                g.m[0][1] += gx * gy;
                g.m[1][0] += gx * gy;
                g.m[1][1] += gy * gy;
            }
        }
        let g_inv = g.inverse()?; // untextured window → singular → lost
        let mut residual = f64::INFINITY;
        for _ in 0..params.max_iterations {
            let mut b = Vec2::ZERO;
            let mut err_sum = 0.0;
            let mut idx = 0;
            for dy in -r..=r {
                for dx in -r..=r {
                    let x = p.x + disp.x + dx as f64;
                    let y = p.y + disp.y + dy as f64;
                    let v = next.sample_bilinear(x as f32, y as f32) as f64;
                    let diff = tmpl[idx] - v;
                    b += grads[idx] * diff;
                    err_sum += diff.abs();
                    idx += 1;
                }
            }
            residual = err_sum / n as f64;
            let delta = g_inv * b;
            disp += delta;
            if !disp.is_finite() {
                return None;
            }
            if delta.norm() < params.epsilon {
                break;
            }
        }
        Some((disp, residual))
    }

    /// `track_one` over [`reference_refine_at_level`].
    fn reference_track_one(
        prev_pyr: &Pyramid,
        next_pyr: &Pyramid,
        point: Vec2,
        guess: Vec2,
        params: &KltParams,
    ) -> TrackResult {
        let levels = prev_pyr.num_levels().min(next_pyr.num_levels());
        let mut disp = (guess - point) / (1 << (levels - 1)) as f64;
        let mut last_residual = f64::INFINITY;
        for level in (0..levels).rev() {
            let p_level = point / (1 << level) as f64;
            let (prev_img, next_img) = (prev_pyr.level(level), next_pyr.level(level));
            match reference_refine_at_level(prev_img, next_img, p_level, disp, params) {
                Some((d, residual)) => {
                    disp = d;
                    last_residual = residual;
                }
                None => return TrackResult::Lost,
            }
            if level > 0 {
                disp *= 2.0;
            }
        }
        let final_pos = point + disp;
        let (w, h) = (next_pyr.level(0).width() as f64, next_pyr.level(0).height() as f64);
        let r = params.window_radius as f64;
        if final_pos.x < r || final_pos.y < r || final_pos.x >= w - r || final_pos.y >= h - r {
            return TrackResult::Lost;
        }
        if last_residual > params.max_residual {
            return TrackResult::Lost;
        }
        TrackResult::Ok { position: final_pos, residual: last_residual }
    }

    fn result_bits(r: &TrackResult) -> Option<[u64; 3]> {
        match r {
            TrackResult::Ok { position, residual } => {
                Some([position.x, position.y, *residual].map(f64::to_bits))
            }
            TrackResult::Lost => None,
        }
    }

    /// Every `TrackResult` of `track_points_pyramids` equals the reference
    /// tracker's to the bit, on rendered frames: temporal and stereo
    /// pairs, with and without guesses, at both trackers' parameters, for
    /// corners, corners at fractional offsets, windows that hang over the
    /// border and a point outside the image.
    #[test]
    fn tracker_is_bit_exact_against_the_reference() {
        use crate::fast::detect_fast;
        use illixr_sensors::camera::{PinholeCamera, StereoRig};
        use illixr_sensors::dataset::SyntheticDataset;

        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let ds = SyntheticDataset::vicon_room_like(11, 1.0);
        let (left0, right0) = ds.render_frame(&rig, 3);
        let (left1, _) = ds.render_frame(&rig, 4);
        let corners = detect_fast(&left0, 0.12, 60, 24);
        assert!(corners.len() >= 20, "only {} corners", corners.len());
        let mut points: Vec<Vec2> =
            corners.iter().map(|c| Vec2::new(c.x as f64, c.y as f64)).collect();
        let fractional: Vec<Vec2> = points.iter().map(|&p| p + Vec2::new(0.37, -0.21)).collect();
        points.extend(fractional);
        points.extend([Vec2::new(1.3, 2.2), Vec2::new(318.6, 238.9), Vec2::new(-7.5, 401.0)]);
        let guesses: Vec<Vec2> = points.iter().map(|&p| p + Vec2::new(-2.6, 0.4)).collect();

        let alternative = KltParams { window_radius: 5, levels: 4, ..Default::default() };
        let (mut tracked, mut lost) = (0, 0);
        for params in [KltParams::default(), alternative] {
            let pyr = |img: &GrayImage| Pyramid::new(img, params.levels);
            let (prev, temporal, stereo) = (pyr(&left0), pyr(&left1), pyr(&right0));
            for (what, next) in [("temporal", &temporal), ("stereo", &stereo)] {
                for guess in [None, Some(guesses.as_slice())] {
                    let got = track_points_pyramids(&prev, next, &points, guess, &params);
                    assert_eq!(got.len(), points.len());
                    for (i, (&p, r)) in points.iter().zip(&got).enumerate() {
                        let g = guess.map_or(p, |g| g[i]);
                        let want = reference_track_one(&prev, next, p, g, &params);
                        assert_eq!(
                            result_bits(r),
                            result_bits(&want),
                            "{what}, radius {}, guess {}, point {i} {p:?}",
                            params.window_radius,
                            guess.is_some()
                        );
                        match r {
                            TrackResult::Ok { .. } => tracked += 1,
                            TrackResult::Lost => lost += 1,
                        }
                    }
                }
            }
        }
        // Both outcomes are exercised, not one of them vacuously.
        assert!(tracked > 100 && lost > 20, "{tracked} tracked, {lost} lost");
    }

    #[test]
    fn tracks_pure_translation() {
        let a = blobs(&[(40.0, 40.0), (80.0, 50.0), (60.0, 70.0)]);
        let b = blobs(&[(43.5, 41.0), (83.5, 51.0), (63.5, 71.0)]);
        let points = vec![Vec2::new(40.0, 40.0), Vec2::new(80.0, 50.0), Vec2::new(60.0, 70.0)];
        let results = track_points(&a, &b, &points, None, &KltParams::default());
        for (i, r) in results.iter().enumerate() {
            match r {
                TrackResult::Ok { position, .. } => {
                    let expected = points[i] + Vec2::new(3.5, 1.0);
                    assert!(
                        (*position - expected).norm() < 0.5,
                        "point {i}: {position:?} vs {expected:?}"
                    );
                }
                TrackResult::Lost => panic!("point {i} lost"),
            }
        }
    }

    #[test]
    fn large_motion_handled_by_pyramid() {
        let a = blobs(&[(50.0, 48.0)]);
        let b = blobs(&[(62.0, 52.0)]); // 12.6 px motion > window radius
        let results = track_points(&a, &b, &[Vec2::new(50.0, 48.0)], None, &KltParams::default());
        match results[0] {
            TrackResult::Ok { position, .. } => {
                assert!((position - Vec2::new(62.0, 52.0)).norm() < 1.0, "{position:?}");
            }
            TrackResult::Lost => panic!("lost"),
        }
    }

    #[test]
    fn untextured_point_is_lost() {
        let a = GrayImage::from_fn(64, 64, |_, _| 0.5);
        let b = a.clone();
        let results = track_points(&a, &b, &[Vec2::new(32.0, 32.0)], None, &KltParams::default());
        assert_eq!(results[0], TrackResult::Lost);
    }

    /// A point or a guess that is not a number, or not a finite one,
    /// is a lost track in either profile, not a panic in one of them.
    #[test]
    fn non_finite_point_or_guess_is_lost() {
        let a = blobs(&[(40.0, 40.0)]);
        let good = Vec2::new(40.0, 40.0);
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.0e300] {
            for bad in [Vec2::new(bad, 40.0), Vec2::new(40.0, bad)] {
                let params = KltParams::default();
                assert_eq!(track_points(&a, &a, &[bad], None, &params), [TrackResult::Lost]);
                let guess = [bad];
                let lost = track_points(&a, &a, &[good], Some(&guess), &params);
                assert_eq!(lost, [TrackResult::Lost], "guess {bad:?}");
            }
        }
    }

    #[test]
    fn point_leaving_image_is_lost() {
        let a = blobs(&[(5.0, 48.0)]);
        let b = blobs(&[(1.0, 48.0)]);
        let params = KltParams { window_radius: 4, ..Default::default() };
        let results = track_points(&a, &b, &[Vec2::new(5.0, 48.0)], None, &params);
        // Either lost outright or clamped near the border; accept Lost or
        // borderline Ok — but never a position outside the image.
        if let TrackResult::Ok { position, .. } = results[0] {
            assert!(position.x >= 0.0 && position.x < 128.0);
        }
    }

    #[test]
    fn initial_guess_accelerates_stereo_match() {
        let a = blobs(&[(70.0, 40.0)]);
        let b = blobs(&[(50.0, 40.0)]); // 20 px disparity
        let guess = vec![Vec2::new(51.0, 40.0)];
        let results =
            track_points(&a, &b, &[Vec2::new(70.0, 40.0)], Some(&guess), &KltParams::default());
        match results[0] {
            TrackResult::Ok { position, .. } => {
                assert!((position - Vec2::new(50.0, 40.0)).norm() < 1.0, "{position:?}");
            }
            TrackResult::Lost => panic!("lost"),
        }
    }
}
