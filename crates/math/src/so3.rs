//! SO(3) helpers: skew-symmetric matrices, exponential and logarithm maps.
//!
//! These are the workhorses of the VIO error-state filter: the
//! exponential map converts small rotation-vector perturbations into
//! rotation matrices, the logarithm does the inverse.

use crate::matrix::Mat3;
use crate::vector::Vec3;

/// The skew-symmetric (cross-product) matrix `[v]×` such that
/// `skew(v) * w == v.cross(w)`.
pub fn skew(v: Vec3) -> Mat3 {
    Mat3::from_rows([[0.0, -v.z, v.y], [v.z, 0.0, -v.x], [-v.y, v.x, 0.0]])
}

/// SO(3) exponential map: rotation vector → rotation matrix (Rodrigues).
pub fn so3_exp(phi: Vec3) -> Mat3 {
    let theta = phi.norm();
    let k = skew(phi);
    if theta < 1e-9 {
        // Second-order Taylor expansion.
        return Mat3::identity() + k + (k * k).scale(0.5);
    }
    let a = theta.sin() / theta;
    let b = (1.0 - theta.cos()) / (theta * theta);
    Mat3::identity() + k.scale(a) + (k * k).scale(b)
}

/// SO(3) logarithm map: rotation matrix → rotation vector.
///
/// The result has angle in `[0, π]`.
pub fn so3_log(r: &Mat3) -> Vec3 {
    let cos_theta = ((r.trace() - 1.0) * 0.5).clamp(-1.0, 1.0);
    let theta = cos_theta.acos();
    if theta < 1e-9 {
        // Near identity: vee of the antisymmetric part.
        return Vec3::new(
            (r.m[2][1] - r.m[1][2]) * 0.5,
            (r.m[0][2] - r.m[2][0]) * 0.5,
            (r.m[1][0] - r.m[0][1]) * 0.5,
        );
    }
    if (std::f64::consts::PI - theta) < 1e-6 {
        // Near π the antisymmetric part vanishes; recover the axis from the
        // symmetric part: R ≈ 2aaᵀ - I.
        let diag = Vec3::new(r.m[0][0], r.m[1][1], r.m[2][2]);
        let axis_sq = (diag + Vec3::splat(1.0)) * 0.5;
        let mut axis = Vec3::new(
            axis_sq.x.max(0.0).sqrt(),
            axis_sq.y.max(0.0).sqrt(),
            axis_sq.z.max(0.0).sqrt(),
        );
        // Fix signs using off-diagonal terms relative to the largest axis component.
        if axis.x >= axis.y && axis.x >= axis.z {
            axis.y = axis.y.copysign(r.m[0][1] + r.m[1][0]);
            axis.z = axis.z.copysign(r.m[0][2] + r.m[2][0]);
        } else if axis.y >= axis.z {
            axis.x = axis.x.copysign(r.m[0][1] + r.m[1][0]);
            axis.z = axis.z.copysign(r.m[1][2] + r.m[2][1]);
        } else {
            axis.x = axis.x.copysign(r.m[0][2] + r.m[2][0]);
            axis.y = axis.y.copysign(r.m[1][2] + r.m[2][1]);
        }
        return axis.normalized() * theta;
    }
    let factor = theta / (2.0 * theta.sin());
    Vec3::new(
        (r.m[2][1] - r.m[1][2]) * factor,
        (r.m[0][2] - r.m[2][0]) * factor,
        (r.m[1][0] - r.m[0][1]) * factor,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::frobenius_norm;
    use crate::quat::Quat;
    use std::f64::consts::PI;

    #[test]
    fn skew_matches_cross() {
        let v = Vec3::new(1.0, -2.0, 0.5);
        let w = Vec3::new(0.3, 0.7, -1.1);
        assert!(((skew(v) * w) - v.cross(w)).norm() < 1e-12);
    }

    #[test]
    fn exp_log_roundtrip() {
        for phi in [
            Vec3::new(0.1, 0.2, -0.3),
            Vec3::new(1.5, -0.5, 0.8),
            Vec3::new(1e-12, 0.0, 0.0),
            Vec3::new(0.0, 3.0, 0.0),
        ] {
            let r = so3_exp(phi);
            let back = so3_log(&r);
            assert!((back - phi).norm() < 1e-8, "phi={phi:?} back={back:?}");
        }
    }

    #[test]
    fn log_near_pi() {
        let phi = Vec3::new(0.0, 0.0, PI - 1e-8);
        let r = so3_exp(phi);
        let back = so3_log(&r);
        assert!((back.norm() - phi.norm()).abs() < 1e-6);
        assert!(back.normalized().dot(phi.normalized()).abs() > 0.999);
    }

    #[test]
    fn exp_matches_quaternion() {
        let phi = Vec3::new(0.4, -0.2, 0.9);
        let r1 = so3_exp(phi);
        let r2 = Quat::from_rotation_vector(phi).to_rotation_matrix();
        assert!(frobenius_norm(&(r1 - r2).m) < 1e-10);
    }

    #[test]
    fn exp_is_orthonormal() {
        let r = so3_exp(Vec3::new(0.7, 0.1, -2.0));
        let should_be_id = r * r.transpose();
        assert!(frobenius_norm(&(should_be_id - Mat3::identity()).m) < 1e-12);
        assert!((r.determinant() - 1.0).abs() < 1e-12);
    }
}
