//! Small fixed-size square matrices (row-major).

use core::fmt;
use core::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::vector::{Vec2, Vec3, Vec4};
use crate::Real;

/// A 2×2 matrix, row-major.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat2 {
    /// Row-major elements: `m[row][col]`.
    pub m: [[Real; 2]; 2],
}

/// A 3×3 matrix, row-major. Used for rotations, camera intrinsics and
/// covariance blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Row-major elements: `m[row][col]`.
    pub m: [[Real; 3]; 3],
}

/// A 4×4 matrix, row-major. Used for homogeneous transforms and projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// Row-major elements: `m[row][col]`.
    pub m: [[Real; 4]; 4],
}

macro_rules! impl_matrix_common {
    ($name:ident, $n:expr, $vec:ident) => {
        impl $name {
            /// The zero matrix.
            pub const ZERO: Self = Self { m: [[0.0; $n]; $n] };

            /// The identity matrix.
            #[inline]
            pub fn identity() -> Self {
                let mut m = [[0.0; $n]; $n];
                let mut i = 0;
                while i < $n {
                    m[i][i] = 1.0;
                    i += 1;
                }
                Self { m }
            }

            /// Creates a matrix from row-major data.
            #[inline]
            pub(crate) const fn from_rows(m: [[Real; $n]; $n]) -> Self {
                Self { m }
            }

            /// Returns the transpose.
            #[inline]
            pub fn transpose(&self) -> Self {
                let mut out = Self::ZERO;
                for r in 0..$n {
                    for c in 0..$n {
                        out.m[c][r] = self.m[r][c];
                    }
                }
                out
            }

            /// Multiplies every element by `s`.
            #[inline]
            pub fn scale(&self, s: Real) -> Self {
                let mut out = *self;
                for r in 0..$n {
                    for c in 0..$n {
                        out.m[r][c] *= s;
                    }
                }
                out
            }

            /// Returns column `c` as a vector.
            ///
            /// # Panics
            ///
            /// Panics when `c` is out of range.
            #[inline]
            pub fn col(&self, c: usize) -> $vec {
                let mut v = $vec::ZERO;
                for r in 0..$n {
                    v[r] = self.m[r][c];
                }
                v
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                let mut out = self;
                for r in 0..$n {
                    for c in 0..$n {
                        out.m[r][c] += rhs.m[r][c];
                    }
                }
                out
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                let mut out = self;
                for r in 0..$n {
                    for c in 0..$n {
                        out.m[r][c] -= rhs.m[r][c];
                    }
                }
                out
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                self.scale(-1.0)
            }
        }

        impl Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                let mut out = Self::ZERO;
                for r in 0..$n {
                    for c in 0..$n {
                        let mut acc = 0.0;
                        for k in 0..$n {
                            acc += self.m[r][k] * rhs.m[k][c];
                        }
                        out.m[r][c] = acc;
                    }
                }
                out
            }
        }

        impl Mul<$vec> for $name {
            type Output = $vec;
            #[inline]
            fn mul(self, v: $vec) -> $vec {
                let mut out = $vec::ZERO;
                for r in 0..$n {
                    let mut acc = 0.0;
                    for c in 0..$n {
                        acc += self.m[r][c] * v[c];
                    }
                    out[r] = acc;
                }
                out
            }
        }

        impl Mul<Real> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, s: Real) -> Self {
                self.scale(s)
            }
        }

        impl Index<(usize, usize)> for $name {
            type Output = Real;
            #[inline]
            fn index(&self, (r, c): (usize, usize)) -> &Real {
                &self.m[r][c]
            }
        }

        impl IndexMut<(usize, usize)> for $name {
            #[inline]
            fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Real {
                &mut self.m[r][c]
            }
        }

        impl Default for $name {
            #[inline]
            fn default() -> Self {
                Self::identity()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for r in 0..$n {
                    write!(f, "[")?;
                    for c in 0..$n {
                        if c > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{:.6}", self.m[r][c])?;
                    }
                    writeln!(f, "]")?;
                }
                Ok(())
            }
        }
    };
}

impl_matrix_common!(Mat2, 2, Vec2);
impl_matrix_common!(Mat3, 3, Vec3);
impl_matrix_common!(Mat4, 4, Vec4);

impl Mat2 {
    /// Determinant.
    #[inline]
    pub(crate) fn determinant(&self) -> Real {
        self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0]
    }

    /// Inverse, or `None` when singular.
    pub fn inverse(&self) -> Option<Self> {
        let det = self.determinant();
        if det.abs() < 1e-300 {
            return None;
        }
        let inv = 1.0 / det;
        Some(Self::from_rows([
            [self.m[1][1] * inv, -self.m[0][1] * inv],
            [-self.m[1][0] * inv, self.m[0][0] * inv],
        ]))
    }
}

impl Mat3 {
    /// Returns the trace (sum of diagonal elements).
    #[inline]
    pub(crate) fn trace(&self) -> Real {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Determinant by cofactor expansion.
    #[cfg(test)]
    pub(crate) fn determinant(&self) -> Real {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Embeds this 3×3 matrix as the upper-left block of a 4×4 homogeneous
    /// transform (translation zero).
    pub fn to_homogeneous(&self) -> Mat4 {
        let mut out = Mat4::identity();
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.m[r][c];
            }
        }
        out
    }
}

impl Mat4 {
    /// Builds a rigid transform from rotation `r` and translation `t`.
    pub fn from_rotation_translation(r: Mat3, t: Vec3) -> Self {
        let mut out = r.to_homogeneous();
        out.m[0][3] = t.x;
        out.m[1][3] = t.y;
        out.m[2][3] = t.z;
        out
    }

    /// Transforms a 3-D point (applies translation).
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        (*self * p.extend(1.0)).project()
    }

    /// Transforms a 3-D direction (ignores translation, no perspective divide).
    pub fn transform_vector(&self, v: Vec3) -> Vec3 {
        (*self * v.extend(0.0)).truncate()
    }

    /// Right-handed perspective projection (OpenGL convention, depth in
    /// `[-1, 1]`).
    ///
    /// `fovy_rad` is the vertical field of view in radians.
    ///
    /// # Panics
    ///
    /// Panics if `aspect`, `fovy_rad`, or `far - near` is non-positive.
    pub fn perspective(fovy_rad: Real, aspect: Real, near: Real, far: Real) -> Self {
        assert!(fovy_rad > 0.0 && aspect > 0.0 && far > near, "invalid perspective parameters");
        let f = 1.0 / (fovy_rad / 2.0).tan();
        let mut out = Self::ZERO;
        out.m[0][0] = f / aspect;
        out.m[1][1] = f;
        out.m[2][2] = (far + near) / (near - far);
        out.m[2][3] = 2.0 * far * near / (near - far);
        out.m[3][2] = -1.0;
        out
    }

    /// Right-handed look-at view matrix.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Self {
        let f = (target - eye).normalized();
        let s = f.cross(up).normalized();
        let u = s.cross(f);
        Self::from_rows([
            [s.x, s.y, s.z, -s.dot(eye)],
            [u.x, u.y, u.z, -u.dot(eye)],
            [-f.x, -f.y, -f.z, f.dot(eye)],
            [0.0, 0.0, 0.0, 1.0],
        ])
    }

    /// Inverse of a rigid transform (rotation + translation only) — much
    /// cheaper and better conditioned than a general inverse.
    pub fn rigid_inverse(&self) -> Self {
        let mut r_t = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                r_t.m[r][c] = self.m[c][r];
            }
        }
        let t = Vec3::new(self.m[0][3], self.m[1][3], self.m[2][3]);
        let new_t = -(r_t * t);
        Self::from_rotation_translation(r_t, new_t)
    }

    /// General inverse via Gauss-Jordan elimination, or `None` when singular.
    pub fn inverse(&self) -> Option<Self> {
        let mut a = self.m;
        let mut inv = Self::identity().m;
        for col in 0..4 {
            // Partial pivoting.
            let mut pivot = col;
            for r in (col + 1)..4 {
                if a[r][col].abs() > a[pivot][col].abs() {
                    pivot = r;
                }
            }
            if a[pivot][col].abs() < 1e-300 {
                return None;
            }
            a.swap(col, pivot);
            inv.swap(col, pivot);
            let d = a[col][col];
            for c in 0..4 {
                a[col][c] /= d;
                inv[col][c] /= d;
            }
            for r in 0..4 {
                if r != col {
                    let f = a[r][col];
                    for c in 0..4 {
                        a[r][c] -= f * a[col][c];
                        inv[r][c] -= f * inv[col][c];
                    }
                }
            }
        }
        Some(Self { m: inv })
    }
}

/// Frobenius norm of a square matrix's rows, the tests' distance between
/// two matrices.
#[cfg(test)]
pub(crate) fn frobenius_norm<const N: usize>(m: &[[Real; N]; N]) -> Real {
    m.iter().flatten().map(|v| v * v).sum::<Real>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mat4_inverse_roundtrip() {
        let m = Mat4::from_rows([
            [1.0, 2.0, 0.0, 1.0],
            [0.0, 1.0, 3.0, -2.0],
            [4.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.5, 1.0],
        ]);
        let inv = m.inverse().unwrap();
        let id = m * inv;
        assert!(frobenius_norm(&(id - Mat4::identity()).m) < 1e-10);
    }

    #[test]
    fn rigid_inverse_matches_general_inverse() {
        let (s, c) = 0.3_f64.sin_cos();
        let rot = Mat3::from_rows([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]);
        let t = Vec3::new(1.0, -2.0, 0.5);
        let m = Mat4::from_rotation_translation(rot, t);
        let a = m.rigid_inverse();
        let b = m.inverse().unwrap();
        assert!(frobenius_norm(&(a - b).m) < 1e-12);
    }

    #[test]
    fn perspective_maps_near_far_planes() {
        let p = Mat4::perspective(std::f64::consts::FRAC_PI_2, 1.0, 0.1, 100.0);
        let near = p.transform_point(Vec3::new(0.0, 0.0, -0.1));
        let far = p.transform_point(Vec3::new(0.0, 0.0, -100.0));
        assert!((near.z + 1.0).abs() < 1e-9);
        assert!((far.z - 1.0).abs() < 1e-9);
    }

    #[test]
    fn look_at_centers_target() {
        let v = Mat4::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::UNIT_Y);
        let p = v.transform_point(Vec3::ZERO);
        assert!(p.x.abs() < 1e-12 && p.y.abs() < 1e-12);
        assert!((p.z + 5.0).abs() < 1e-12);
    }

    #[test]
    fn matvec_is_row_major() {
        let m = Mat3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        let v = m * Vec3::new(1.0, 0.0, 0.0);
        assert_eq!(v, Vec3::new(1.0, 4.0, 7.0));
    }

    #[test]
    fn transpose_involution() {
        let m = Mat4::from_rows([
            [1.0, 2.0, 3.0, 4.0],
            [5.0, 6.0, 7.0, 8.0],
            [9.0, 10.0, 11.0, 12.0],
            [13.0, 14.0, 15.0, 16.0],
        ]);
        assert_eq!(m.transpose().transpose(), m);
    }
}
