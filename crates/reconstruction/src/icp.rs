//! Point-to-plane ICP pose estimation (the "pose estimation" task of
//! Table VI — "iterative closest point; photometric error; geometric
//! error; reduction").

use illixr_math::{Cholesky, DMatrix, Pose, Quat, Vec3};

use crate::maps::{MapView, NormalMap, VertexMap, Vertices};

/// Result of an ICP solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcpResult {
    /// The refined camera-to-world pose.
    pub pose: Pose,
    /// Mean absolute point-to-plane residual (meters) at convergence.
    pub residual: f64,
    /// Number of correspondences in the final iteration.
    pub correspondences: usize,
}

/// Aligns a live vertex map against a model (predicted) vertex/normal
/// map using projective data association and the small-angle
/// point-to-plane linearization.
///
/// * `live` — camera-frame vertices from the new depth frame;
/// * `model_v`, `model_n` — camera-frame vertices/normals predicted from
///   the map at `initial_pose` (e.g. by the surfel splat);
/// * `width` — the maps' row length in pixels;
/// * `initial_pose` — the pose prediction (the previous frame's pose).
///
/// The total correction (and each iteration step) must stay below the
/// given translation bounds (meters). Frame-rate odometry uses tight
/// gates — real inter-frame motion is centimeters — which keeps the
/// solver from confidently sliding along directions the scene does not
/// constrain.
///
/// Returns `None` when too few correspondences exist.
///
/// # Panics
///
/// Panics when the three maps differ in length or their length is not a
/// multiple of `width`.
#[allow(clippy::too_many_arguments)]
pub fn icp_point_to_plane_gated(
    live: &VertexMap,
    model_v: &VertexMap,
    model_n: &NormalMap,
    width: usize,
    initial_pose: &Pose,
    iterations: usize,
    max_total_translation: f64,
    max_step_translation: f64,
) -> Option<IcpResult> {
    let height = live.len().checked_div(width).unwrap_or(0);
    icp_gated(
        &MapView::new(live, width, height),
        model_v,
        model_n,
        initial_pose,
        iterations,
        max_total_translation,
        max_step_translation,
    )
}

/// [`icp_point_to_plane_gated`] over any live-vertex source, such as a
/// depth frame read through `LiveVertices`; the model maps are row-major
/// at the live frame's size.
pub(crate) fn icp_gated(
    live: &impl Vertices,
    model_v: &[Option<Vec3>],
    model_n: &[Option<Vec3>],
    initial_pose: &Pose,
    iterations: usize,
    max_total_translation: f64,
    max_step_translation: f64,
) -> Option<IcpResult> {
    let (w, h) = live.size();
    assert_eq!(model_v.len(), w * h, "map size mismatch");
    assert_eq!(model_n.len(), w * h, "map size mismatch");
    // `delta` maps live camera frame → model camera frame; both maps are
    // in the *same* camera frame under projective association, so delta
    // starts at identity and stays small.
    let mut delta = Pose::IDENTITY;
    let mut residual = f64::INFINITY;
    let mut used = 0;
    for _ in 0..iterations {
        // The normal equations' upper triangle, row by row, and right-hand
        // side; JᵀJ is symmetric, so the lower triangle is mirrored once.
        let mut upper = [0.0; 21];
        let mut rhs = [0.0; 6];
        let mut err_sum = 0.0;
        used = 0;
        // Row-major, as the maps are laid out: the sums accumulate in
        // pixel order.
        for y in 0..h {
            let row = y * w..(y + 1) * w;
            for (x, (q, n)) in model_v[row.clone()].iter().zip(&model_n[row]).enumerate() {
                let (Some(q), Some(n)) = (*q, *n) else { continue };
                let Some(p_live) = live.at(x, y) else { continue };
                let p = delta.transform_point(p_live);
                // Gate gross outliers.
                if (p - q).norm() > 0.3 {
                    continue;
                }
                let r = n.dot(q - p);
                // J = [ (p × n)ᵀ , nᵀ ] for x = (ω, t).
                let c = p.cross(n);
                let j = [c.x, c.y, c.z, n.x, n.y, n.z];
                let mut k = 0;
                for a in 0..6 {
                    for b in a..6 {
                        upper[k] += j[a] * j[b];
                        k += 1;
                    }
                    rhs[a] += j[a] * r;
                }
                err_sum += r.abs();
                used += 1;
            }
        }
        if used < 30 {
            return None;
        }
        residual = err_sum / used as f64;
        let mut ata = DMatrix::zeros(6, 6);
        let mut k = 0;
        for a in 0..6 {
            for b in a..6 {
                ata[(a, b)] = upper[k];
                ata[(b, a)] = upper[k];
                k += 1;
            }
        }
        let atb = DMatrix::from_row_slice(6, 1, &rhs);
        // Tikhonov damping proportional to the system scale: directions
        // the scene does not constrain (e.g. sliding along a single
        // plane) stay put instead of drifting down the null space.
        let mean_diag = (0..6).map(|i| ata[(i, i)]).sum::<f64>() / 6.0;
        let lambda = (1e-3 * mean_diag).max(1e-9);
        for i in 0..6 {
            ata[(i, i)] += lambda;
        }
        let chol = Cholesky::new(&ata).ok()?;
        let x = chol.solve(&atb);
        let omega = Vec3::new(x[(0, 0)], x[(1, 0)], x[(2, 0)]);
        let t = Vec3::new(x[(3, 0)], x[(4, 0)], x[(5, 0)]);
        if !omega.is_finite() || !t.is_finite() {
            return None;
        }
        // Reject implausible per-iteration steps (frame-to-frame motion
        // is centimeters at XR rates).
        if t.norm() > max_step_translation || omega.norm() > 0.5 {
            return None;
        }
        let inc = Pose::new(t, Quat::from_rotation_vector(omega));
        delta = inc.compose(&delta);
        if omega.norm() + t.norm() < 1e-8 {
            break;
        }
    }
    // Final sanity: the total correction must stay small.
    if delta.position.norm() > max_total_translation || delta.orientation.angle() > 0.8 {
        return None;
    }
    // Compose the correction into the world pose: live-frame points map
    // to world via initial_pose ∘ delta.
    Some(IcpResult { pose: initial_pose.compose(&delta), residual, correspondences: used })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::{normal_map, vertex_map, DepthFrame};
    use illixr_sensors::camera::PinholeCamera;

    fn cam() -> PinholeCamera {
        PinholeCamera { fx: 80.0, fy: 80.0, cx: 40.0, cy: 30.0, width: 80, height: 60 }
    }

    /// The solver under gates loose enough for these scenes' 2–5 cm moves.
    fn icp(
        live: &VertexMap,
        model_v: &VertexMap,
        model_n: &NormalMap,
        width: usize,
        initial_pose: &Pose,
        iterations: usize,
    ) -> Option<IcpResult> {
        icp_point_to_plane_gated(live, model_v, model_n, width, initial_pose, iterations, 0.4, 0.25)
    }

    /// Depth of a tilted plane n·p = d seen from the identity camera.
    fn plane_depth(cam: &PinholeCamera, n: Vec3, d: f64) -> DepthFrame {
        DepthFrame::from_fn(cam.width, cam.height, |x, y| {
            let ray = cam.unproject(illixr_math::Vec2::new(x as f64, y as f64));
            // Solve n·(ray * s) = d for the z-coordinate: s = d / (n·ray);
            // depth image stores z = s (ray has z = 1).
            let denom = n.dot(ray);
            if denom.abs() < 1e-6 {
                0.0
            } else {
                (d / denom) as f32
            }
        })
    }

    /// A corner scene (two perpendicular walls) gives ICP full 6-DoF
    /// constraints.
    fn corner_depth(cam: &PinholeCamera, offset: Vec3) -> DepthFrame {
        DepthFrame::from_fn(cam.width, cam.height, |x, y| {
            let ray = cam.unproject(illixr_math::Vec2::new(x as f64, y as f64));
            // Wall A: z = 3 - offset.z ; Wall B: x = 1.2 - offset.x ;
            // floor: y = 0.8 - offset.y. Take nearest positive hit.
            let mut best = f32::INFINITY;
            let za = 3.0 - offset.z;
            if ray.z > 1e-6 {
                let s = za / ray.z;
                if s > 0.1 {
                    best = best.min(s as f32);
                }
            }
            let xb = 1.2 - offset.x;
            if ray.x > 1e-6 {
                let s = xb / ray.x;
                let z = s * ray.z;
                if s > 0.1 && z > 0.1 {
                    best = best.min(s as f32);
                }
            }
            let yf = 0.8 - offset.y;
            if ray.y > 1e-6 {
                let s = yf / ray.y;
                if s > 0.1 {
                    best = best.min(s as f32);
                }
            }
            if best.is_finite() {
                best * 1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn recovers_small_translation() {
        let c = cam();
        let model_depth = corner_depth(&c, Vec3::ZERO);
        let moved = Vec3::new(0.02, 0.01, 0.03);
        let live_depth = corner_depth(&c, moved);
        let model_v = vertex_map(&model_depth, &c);
        let model_n = normal_map(&model_v, c.width, c.height);
        let live_v = vertex_map(&live_depth, &c);
        let result = icp(&live_v, &model_v, &model_n, c.width, &Pose::IDENTITY, 12).unwrap();
        // The camera moved by `moved`, so live points are closer; the
        // recovered pose should translate by ≈ moved.
        let t = result.pose.position;
        assert!((t - moved).norm() < 0.01, "recovered {t}, expected {moved}");
        assert!(result.residual < 0.005, "residual {}", result.residual);
    }

    #[test]
    fn identity_when_aligned() {
        let c = cam();
        let depth = corner_depth(&c, Vec3::ZERO);
        let v = vertex_map(&depth, &c);
        let n = normal_map(&v, c.width, c.height);
        let result = icp(&v, &v, &n, c.width, &Pose::IDENTITY, 5).unwrap();
        assert!(result.pose.position.norm() < 1e-6);
        assert!(result.pose.orientation.angle() < 1e-6);
    }

    #[test]
    fn single_plane_constrains_normal_direction_only() {
        let c = cam();
        let n = Vec3::new(0.0, 0.0, 1.0);
        let model_depth = plane_depth(&c, n, 2.0);
        let live_depth = plane_depth(&c, n, 1.95); // camera moved 5 cm forward
        let model_v = vertex_map(&model_depth, &c);
        let model_n = normal_map(&model_v, c.width, c.height);
        let live_v = vertex_map(&live_depth, &c);
        let result = icp(&live_v, &model_v, &model_n, c.width, &Pose::IDENTITY, 10).unwrap();
        // Along-normal motion is recovered; in-plane drift may be
        // unconstrained, so only check z.
        assert!((result.pose.position.z - 0.05).abs() < 0.01, "z {}", result.pose.position.z);
    }

    #[test]
    fn too_few_points_returns_none() {
        let live: VertexMap = vec![None; 100];
        let model_v: VertexMap = vec![None; 100];
        let model_n: NormalMap = vec![None; 100];
        assert!(icp(&live, &model_v, &model_n, 10, &Pose::IDENTITY, 5).is_none());
    }

    #[test]
    fn empty_maps_of_zero_width_return_none() {
        let empty: VertexMap = Vec::new();
        assert!(icp(&empty, &empty, &empty, 0, &Pose::IDENTITY, 5).is_none());
    }

    #[test]
    fn initial_pose_is_composed() {
        let c = cam();
        let depth = corner_depth(&c, Vec3::ZERO);
        let v = vertex_map(&depth, &c);
        let n = normal_map(&v, c.width, c.height);
        let prior = Pose::new(Vec3::new(1.0, 2.0, 3.0), Quat::from_axis_angle(Vec3::UNIT_Y, 0.3));
        let result = icp(&v, &v, &n, c.width, &prior, 3).unwrap();
        assert!(result.pose.translation_distance(&prior) < 1e-6);
    }
}
