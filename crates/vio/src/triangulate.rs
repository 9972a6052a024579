//! Multi-view feature triangulation (the "feature initialization" task
//! of Table VI: SVD-style linear solve followed by Gauss-Newton
//! refinement).

use illixr_math::{Cholesky, DMatrix, Pose, Vec2, Vec3};

/// One observation of a feature: the observing camera pose
/// (camera-to-world) and the normalized image coordinates
/// `(x/z, y/z)` in that camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Observation {
    /// Camera-to-world pose at the time of observation.
    pub cam_pose: Pose,
    /// Normalized (undistorted, focal-length-removed) image point.
    pub point: Vec2,
}

/// Triangulates a 3-D point from two or more observations.
///
/// Linear initialization: each observation contributes the constraint
/// that the world point lies on its viewing ray; stacking the
/// cross-product form gives a small normal-equation system. Gauss-Newton
/// then refines by minimizing reprojection error in normalized
/// coordinates.
///
/// Returns `None` when the geometry is degenerate (insufficient
/// parallax, point behind a camera, or a singular system).
pub(crate) fn triangulate_feature(observations: &[Observation]) -> Option<Vec3> {
    if observations.len() < 2 {
        return None;
    }
    let linear = linear_triangulation(observations)?;
    let refined = gauss_newton_refine(observations, linear, 5)?;
    // Cheirality: must be in front of every camera.
    for obs in observations {
        let p_cam = obs.cam_pose.inverse().transform_point(refined);
        if p_cam.z < 0.05 {
            return None;
        }
    }
    Some(refined)
}

/// Midpoint-style linear triangulation via normal equations.
fn linear_triangulation(observations: &[Observation]) -> Option<Vec3> {
    // Each ray: p = c_i + t d_i. Minimize sum of squared distances to the
    // rays: (I - d dᵀ) (p - c) = 0 stacked.
    let mut a = DMatrix::zeros(3, 3);
    let mut b = DMatrix::zeros(3, 1);
    for obs in observations {
        let d =
            obs.cam_pose.transform_vector(Vec3::new(obs.point.x, obs.point.y, 1.0)).normalized();
        let c = obs.cam_pose.position;
        // M = I - d dᵀ
        for r in 0..3 {
            for col in 0..3 {
                let m = if r == col { 1.0 } else { 0.0 } - d[r] * d[col];
                a[(r, col)] += m;
                b[(r, 0)] += m * c[col];
            }
        }
    }
    let chol = Cholesky::new(&a).ok()?;
    let x = chol.solve(&b);
    let p = Vec3::new(x[(0, 0)], x[(1, 0)], x[(2, 0)]);
    if p.is_finite() {
        Some(p)
    } else {
        None
    }
}

/// Gauss-Newton refinement on reprojection residuals.
fn gauss_newton_refine(
    observations: &[Observation],
    mut p: Vec3,
    iterations: usize,
) -> Option<Vec3> {
    for _ in 0..iterations {
        let mut h = DMatrix::zeros(3, 3);
        let mut g = DMatrix::zeros(3, 1);
        let mut total_err = 0.0;
        for obs in observations {
            let inv = obs.cam_pose.inverse();
            let p_cam = inv.transform_point(p);
            if p_cam.z < 1e-6 {
                return None;
            }
            let r = inv.orientation.to_rotation_matrix();
            let (x, y, z) = (p_cam.x, p_cam.y, p_cam.z);
            let res_u = obs.point.x - x / z;
            let res_v = obs.point.y - y / z;
            total_err += res_u * res_u + res_v * res_v;
            // d(x/z)/dp_cam = [1/z, 0, -x/z²]; chain through R (world→cam).
            let du = Vec3::new(1.0 / z, 0.0, -x / (z * z));
            let dv = Vec3::new(0.0, 1.0 / z, -y / (z * z));
            // p_cam = R_wc p + t → ∂p_cam/∂p = R_wc (rows of `r`).
            let ju = Vec3::new(du.dot(r.col(0)), du.dot(r.col(1)), du.dot(r.col(2)));
            let jv = Vec3::new(dv.dot(r.col(0)), dv.dot(r.col(1)), dv.dot(r.col(2)));
            for a in 0..3 {
                for b2 in 0..3 {
                    h[(a, b2)] += ju[a] * ju[b2] + jv[a] * jv[b2];
                }
                g[(a, 0)] += ju[a] * res_u + jv[a] * res_v;
            }
        }
        let _ = total_err;
        // Levenberg damping for safety.
        for i in 0..3 {
            h[(i, i)] += 1e-9;
        }
        let chol = Cholesky::new(&h).ok()?;
        let step = chol.solve(&g);
        let delta = Vec3::new(step[(0, 0)], step[(1, 0)], step[(2, 0)]);
        if !delta.is_finite() {
            return None;
        }
        p += delta;
        if delta.norm() < 1e-10 {
            break;
        }
    }
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_math::Quat;

    fn observe(cam_pose: Pose, p_world: Vec3) -> Observation {
        let p_cam = cam_pose.inverse().transform_point(p_world);
        Observation { cam_pose, point: Vec2::new(p_cam.x / p_cam.z, p_cam.y / p_cam.z) }
    }

    #[test]
    fn recovers_point_from_two_views() {
        let p = Vec3::new(0.5, -0.3, 4.0);
        let c1 = Pose::IDENTITY;
        let c2 = Pose::new(Vec3::new(0.5, 0.0, 0.0), Quat::IDENTITY);
        let est = triangulate_feature(&[observe(c1, p), observe(c2, p)]).unwrap();
        assert!((est - p).norm() < 1e-6, "est {est}");
    }

    #[test]
    fn more_views_reduce_sensitivity_to_noise() {
        let p = Vec3::new(-0.8, 0.4, 5.0);
        // Simulate pixel noise by perturbing normalized coordinates.
        let noisy = |cam: Pose, du: f64, dv: f64| {
            let mut o = observe(cam, p);
            o.point.x += du;
            o.point.y += dv;
            o
        };
        let two = triangulate_feature(&[
            noisy(Pose::IDENTITY, 1e-3, -1e-3),
            noisy(Pose::new(Vec3::new(0.4, 0.0, 0.0), Quat::IDENTITY), -1e-3, 1e-3),
        ])
        .unwrap();
        let many: Vec<Observation> = (0..8)
            .map(|i| {
                let t = Vec3::new(0.1 * i as f64, 0.03 * i as f64, 0.0);
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                noisy(Pose::new(t, Quat::IDENTITY), sign * 1e-3, -sign * 1e-3)
            })
            .collect();
        let est_many = triangulate_feature(&many).unwrap();
        assert!((est_many - p).norm() <= (two - p).norm() + 1e-3);
    }

    #[test]
    fn rejects_insufficient_parallax() {
        let p = Vec3::new(0.0, 0.0, 10.0);
        // Identical camera poses: rays are parallel, normal matrix is
        // singular.
        let obs = vec![observe(Pose::IDENTITY, p), observe(Pose::IDENTITY, p)];
        assert!(triangulate_feature(&obs).is_none());
    }

    #[test]
    fn rejects_point_behind_camera() {
        let p = Vec3::new(0.0, 0.0, 3.0);
        let o2 = observe(Pose::new(Vec3::new(1.0, 0.0, 0.0), Quat::IDENTITY), p);
        // A camera on the far side looking back: the point is in front
        // of both cameras, guarding the cheirality check's sign.
        let back_cam = Pose::new(
            Vec3::new(0.0, 0.0, 6.0),
            Quat::from_axis_angle(Vec3::UNIT_Y, std::f64::consts::PI),
        );
        let o1 = observe(back_cam, p);
        let result = triangulate_feature(&[o1, o2]);
        // Point IS in front of both cameras here, so it should succeed —
        // this guards the cheirality check's sign convention.
        assert!(result.is_some());
    }

    #[test]
    fn single_observation_is_rejected() {
        let p = Vec3::new(0.0, 0.0, 3.0);
        assert!(triangulate_feature(&[observe(Pose::IDENTITY, p)]).is_none());
    }

    #[test]
    fn rotated_cameras_work() {
        let p = Vec3::new(1.0, 0.5, 6.0);
        let c1 = Pose::new(Vec3::new(-1.0, 0.0, 0.0), Quat::from_axis_angle(Vec3::UNIT_Y, 0.15));
        let c2 = Pose::new(Vec3::new(1.0, 0.2, 0.0), Quat::from_axis_angle(Vec3::UNIT_Y, -0.12));
        let est = triangulate_feature(&[observe(c1, p), observe(c2, p)]).unwrap();
        assert!((est - p).norm() < 1e-6);
    }
}
