//! Unit quaternions for representing orientations.

use core::fmt;
use core::ops::{Mul, Neg};

use crate::matrix::Mat3;
use crate::vector::Vec3;
use crate::Real;

/// A quaternion `w + xi + yj + zk`.
///
/// Orientation-representing quaternions are kept (approximately) unit-norm;
/// most constructors normalize. The convention follows Hamilton products with
/// `rotate` applying the rotation `q v q⁻¹`.
///
/// # Examples
///
/// ```
/// use illixr_math::{Quat, Vec3};
/// let q = Quat::from_axis_angle(Vec3::UNIT_Z, std::f64::consts::FRAC_PI_2);
/// let v = q.rotate(Vec3::UNIT_X);
/// assert!((v - Vec3::UNIT_Y).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: Real,
    /// First imaginary coefficient.
    pub x: Real,
    /// Second imaginary coefficient.
    pub y: Real,
    /// Third imaginary coefficient.
    pub z: Real,
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Self = Self { w: 1.0, x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a quaternion from raw coefficients (not normalized).
    #[inline]
    pub const fn new(w: Real, x: Real, y: Real, z: Real) -> Self {
        Self { w, x, y, z }
    }

    /// Creates a rotation of `angle` radians about `axis`.
    ///
    /// The axis is normalized internally; a zero axis yields the identity.
    pub fn from_axis_angle(axis: Vec3, angle: Real) -> Self {
        let n = axis.norm();
        if n <= Real::EPSILON {
            return Self::IDENTITY;
        }
        let half = angle * 0.5;
        let (s, c) = half.sin_cos();
        let a = axis / n;
        Self::new(c, a.x * s, a.y * s, a.z * s)
    }

    /// Creates a rotation from a rotation vector (axis scaled by angle).
    pub fn from_rotation_vector(rv: Vec3) -> Self {
        let angle = rv.norm();
        if angle <= 1e-12 {
            // First-order expansion keeps integration smooth near zero.
            Self::new(1.0, rv.x * 0.5, rv.y * 0.5, rv.z * 0.5).normalized()
        } else {
            Self::from_axis_angle(rv, angle)
        }
    }

    /// Creates a rotation from yaw (Z), pitch (Y), roll (X) Tait-Bryan
    /// angles, applied in that order (ZYX extrinsic).
    pub fn from_euler(yaw: Real, pitch: Real, roll: Real) -> Self {
        let qz = Self::from_axis_angle(Vec3::UNIT_Z, yaw);
        let qy = Self::from_axis_angle(Vec3::UNIT_Y, pitch);
        let qx = Self::from_axis_angle(Vec3::UNIT_X, roll);
        (qz * qy * qx).normalized()
    }

    /// The quaternion's Euclidean norm.
    #[inline]
    pub fn norm(self) -> Real {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the normalized (unit) quaternion; identity when degenerate.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        if n <= Real::EPSILON {
            Self::IDENTITY
        } else {
            Self::new(self.w / n, self.x / n, self.y / n, self.z / n)
        }
    }

    /// The conjugate (inverse for unit quaternions).
    #[inline]
    pub(crate) fn conjugate(self) -> Self {
        Self::new(self.w, -self.x, -self.y, -self.z)
    }

    /// Alias of `Quat::conjugate` for unit quaternions.
    #[inline]
    pub fn inverse(self) -> Self {
        self.conjugate()
    }

    /// Quaternion dot product (cosine of half the angle between rotations
    /// for unit quaternions).
    #[inline]
    pub(crate) fn dot(self, other: Self) -> Real {
        self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Rotates a vector by this (unit) quaternion.
    #[inline]
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = v + 2 * u × (u × v + w v), u = (x, y, z)
        let u = Vec3::new(self.x, self.y, self.z);
        let t = u.cross(v) * 2.0;
        v + t * self.w + u.cross(t)
    }

    /// Converts to a rotation matrix.
    pub fn to_rotation_matrix(self) -> Mat3 {
        let q = self.normalized();
        let (w, x, y, z) = (q.w, q.x, q.y, q.z);
        Mat3::from_rows([
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ])
    }

    /// Rotation angle in radians (in `[0, π]`).
    pub fn angle(self) -> Real {
        let q = self.normalized();
        2.0 * q.w.abs().min(1.0).acos()
    }

    /// Rotation vector (axis × angle) — the SO(3) logarithm.
    #[cfg(test)]
    pub(crate) fn to_rotation_vector(self) -> Vec3 {
        let q = if self.w < 0.0 { -self } else { self }.normalized();
        let u = Vec3::new(q.x, q.y, q.z);
        let sin_half = u.norm();
        if sin_half < 1e-12 {
            u * 2.0
        } else {
            let angle = 2.0 * sin_half.atan2(q.w);
            u * (angle / sin_half)
        }
    }

    /// Spherical linear interpolation from `self` to `other`.
    ///
    /// Takes the shortest arc; `t` is clamped to `[0, 1]`.
    pub fn slerp(self, other: Self, t: Real) -> Self {
        let t = t.clamp(0.0, 1.0);
        let mut b = other;
        let mut dot = self.dot(b);
        if dot < 0.0 {
            b = -b;
            dot = -dot;
        }
        if dot > 0.9995 {
            // Nearly parallel: fall back to normalized lerp.
            return Self::new(
                self.w + (b.w - self.w) * t,
                self.x + (b.x - self.x) * t,
                self.y + (b.y - self.y) * t,
                self.z + (b.z - self.z) * t,
            )
            .normalized();
        }
        let theta0 = dot.clamp(-1.0, 1.0).acos();
        let theta = theta0 * t;
        let s0 = ((1.0 - t) * theta0).sin() / theta0.sin();
        let s1 = theta.sin() / theta0.sin();
        Self::new(
            self.w * s0 + b.w * s1,
            self.x * s0 + b.x * s1,
            self.y * s0 + b.y * s1,
            self.z * s0 + b.z * s1,
        )
        .normalized()
    }

    /// The geodesic angle between two orientations, in radians.
    pub fn angle_to(self, other: Self) -> Real {
        (self.inverse() * other).angle()
    }

    /// True when all coefficients are finite.
    #[inline]
    pub(crate) fn is_finite(self) -> bool {
        self.w.is_finite() && self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Mul for Quat {
    type Output = Self;

    /// Hamilton product: `self * rhs` applies `rhs` first, then `self`.
    #[inline]
    fn mul(self, r: Self) -> Self {
        Self::new(
            self.w * r.w - self.x * r.x - self.y * r.y - self.z * r.z,
            self.w * r.x + self.x * r.w + self.y * r.z - self.z * r.y,
            self.w * r.y - self.x * r.z + self.y * r.w + self.z * r.x,
            self.w * r.z + self.x * r.y - self.y * r.x + self.z * r.w,
        )
    }
}

impl Neg for Quat {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.w, -self.x, -self.y, -self.z)
    }
}

impl Default for Quat {
    #[inline]
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl fmt::Display for Quat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6} + {:.6}i + {:.6}j + {:.6}k)", self.w, self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn rotate_matches_matrix() {
        let q = Quat::from_euler(0.3, -0.7, 1.1);
        let m = q.to_rotation_matrix();
        let v = Vec3::new(0.2, -1.5, 3.0);
        assert!((q.rotate(v) - m * v).norm() < 1e-12);
    }

    #[test]
    fn rotation_vector_roundtrip() {
        let rv = Vec3::new(0.1, -0.4, 0.25);
        let q = Quat::from_rotation_vector(rv);
        assert!((q.to_rotation_vector() - rv).norm() < 1e-10);
    }

    #[test]
    fn small_rotation_vector_roundtrip() {
        let rv = Vec3::new(1e-14, -2e-14, 3e-15);
        let q = Quat::from_rotation_vector(rv);
        assert!(q.is_finite());
        assert!((q.to_rotation_vector() - rv).norm() < 1e-12);
    }

    #[test]
    fn composition_order() {
        let qz = Quat::from_axis_angle(Vec3::UNIT_Z, FRAC_PI_2);
        let qx = Quat::from_axis_angle(Vec3::UNIT_X, FRAC_PI_2);
        // (qz * qx) applies qx first.
        let v = (qz * qx).rotate(Vec3::UNIT_Y);
        let expected = qz.rotate(qx.rotate(Vec3::UNIT_Y));
        assert!((v - expected).norm() < 1e-12);
    }

    #[test]
    fn slerp_halfway() {
        let a = Quat::IDENTITY;
        let b = Quat::from_axis_angle(Vec3::UNIT_Y, PI / 2.0);
        let mid = a.slerp(b, 0.5);
        assert!((mid.angle() - PI / 4.0).abs() < 1e-10);
    }

    #[test]
    fn slerp_takes_shortest_arc() {
        let a = Quat::from_axis_angle(Vec3::UNIT_Z, 0.1);
        let b = -Quat::from_axis_angle(Vec3::UNIT_Z, 0.2); // same rotation, opposite sign
        let mid = a.slerp(b, 0.5);
        assert!((mid.angle() - 0.15).abs() < 1e-9);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let q = Quat::from_euler(0.5, 1.0, -0.3);
        let r = q * q.inverse();
        assert!((r.angle()).abs() < 1e-10);
    }

    #[test]
    fn angle_to_is_symmetric() {
        let a = Quat::from_euler(0.1, 0.2, 0.3);
        let b = Quat::from_euler(-0.4, 0.0, 1.0);
        assert!((a.angle_to(b) - b.angle_to(a)).abs() < 1e-12);
    }
}
