//! Small fixed-size vectors used throughout the XR pipelines.

use core::fmt;
use core::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

use crate::Real;

macro_rules! impl_vector_common {
    ($name:ident, $n:expr, [$($field:ident => $idx:expr),+]) => {
        impl $name {
            /// The zero vector.
            pub const ZERO: Self = Self { $($field: 0.0),+ };

            /// Creates a vector from components.
            #[inline]
            pub const fn new($($field: Real),+) -> Self {
                Self { $($field),+ }
            }

            /// Creates a vector with all components equal to `v`.
            #[inline]
            pub const fn splat(v: Real) -> Self {
                Self { $($field: v),+ }
            }

            /// Dot product with `other`.
            #[inline]
            pub fn dot(self, other: Self) -> Real {
                0.0 $(+ self.$field * other.$field)+
            }

            /// Squared Euclidean norm.
            #[inline]
            pub fn norm_squared(self) -> Real {
                self.dot(self)
            }

            /// Euclidean norm.
            #[inline]
            pub fn norm(self) -> Real {
                self.norm_squared().sqrt()
            }

            /// Returns the unit vector in the same direction, or zero if the
            /// vector is (numerically) zero.
            #[inline]
            pub fn normalized(self) -> Self {
                let n = self.norm();
                if n <= Real::EPSILON {
                    Self::ZERO
                } else {
                    self / n
                }
            }

            /// Component-wise (Hadamard) product.
            #[inline]
            pub fn component_mul(self, other: Self) -> Self {
                Self { $($field: self.$field * other.$field),+ }
            }

            /// Linear interpolation: `self * (1 - t) + other * t`.
            #[inline]
            pub fn lerp(self, other: Self, t: Real) -> Self {
                self * (1.0 - t) + other * t
            }

            /// Returns the components as an array.
            #[inline]
            pub(crate) fn to_array(self) -> [Real; $n] {
                [$(self.$field),+]
            }

            /// Creates a vector from an array of components.
            #[inline]
            pub(crate) fn from_array(a: [Real; $n]) -> Self {
                Self { $($field: a[$idx]),+ }
            }

            /// True when all components are finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                true $(&& self.$field.is_finite())+
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self { $($field: self.$field + rhs.$field),+ }
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                $(self.$field += rhs.$field;)+
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self { $($field: self.$field - rhs.$field),+ }
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                $(self.$field -= rhs.$field;)+
            }
        }

        impl Mul<Real> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Real) -> Self {
                Self { $($field: self.$field * rhs),+ }
            }
        }

        impl Mul<$name> for Real {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                rhs * self
            }
        }

        impl MulAssign<Real> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: Real) {
                $(self.$field *= rhs;)+
            }
        }

        impl Div<Real> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: Real) -> Self {
                Self { $($field: self.$field / rhs),+ }
            }
        }

        impl DivAssign<Real> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: Real) {
                $(self.$field /= rhs;)+
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self { $($field: -self.$field),+ }
            }
        }

        impl Index<usize> for $name {
            type Output = Real;
            #[inline]
            fn index(&self, i: usize) -> &Real {
                match i {
                    $($idx => &self.$field,)+
                    _ => panic!("vector index {i} out of range for {}", stringify!($name)),
                }
            }
        }

        impl IndexMut<usize> for $name {
            #[inline]
            fn index_mut(&mut self, i: usize) -> &mut Real {
                match i {
                    $($idx => &mut self.$field,)+
                    _ => panic!("vector index {i} out of range for {}", stringify!($name)),
                }
            }
        }

        impl Default for $name {
            #[inline]
            fn default() -> Self {
                Self::ZERO
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "(")?;
                let a = self.to_array();
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:.6}")?;
                }
                write!(f, ")")
            }
        }

        impl From<[Real; $n]> for $name {
            #[inline]
            fn from(a: [Real; $n]) -> Self {
                Self::from_array(a)
            }
        }

        impl From<$name> for [Real; $n] {
            #[inline]
            fn from(v: $name) -> Self {
                v.to_array()
            }
        }

        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |a, b| a + b)
            }
        }
    };
}

/// A 2-component vector (pixel coordinates, image-plane points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec2 {
    /// X component.
    pub x: Real,
    /// Y component.
    pub y: Real,
}

impl_vector_common!(Vec2, 2, [x => 0, y => 1]);

/// A 3-component vector (positions, velocities, angular rates, RGB colours).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec3 {
    /// X component.
    pub x: Real,
    /// Y component.
    pub y: Real,
    /// Z component.
    pub z: Real,
}

impl_vector_common!(Vec3, 3, [x => 0, y => 1, z => 2]);

impl Vec3 {
    /// Unit vector along X.
    pub const UNIT_X: Self = Self { x: 1.0, y: 0.0, z: 0.0 };
    /// Unit vector along Y.
    pub const UNIT_Y: Self = Self { x: 0.0, y: 1.0, z: 0.0 };
    /// Unit vector along Z.
    pub const UNIT_Z: Self = Self { x: 0.0, y: 0.0, z: 1.0 };

    /// Cross product.
    #[inline]
    pub fn cross(self, other: Self) -> Self {
        Self::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Extends to a [`Vec4`] with the given `w` component.
    #[inline]
    pub fn extend(self, w: Real) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }
}

/// A 4-component vector (homogeneous coordinates, RGBA colours, quaternion
/// coefficient blocks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec4 {
    /// X component.
    pub x: Real,
    /// Y component.
    pub y: Real,
    /// Z component.
    pub z: Real,
    /// W component.
    pub w: Real,
}

impl_vector_common!(Vec4, 4, [x => 0, y => 1, z => 2, w => 3]);

impl Vec4 {
    /// Drops the `w` component.
    #[inline]
    pub(crate) fn truncate(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }

    /// Perspective divide: `(x/w, y/w, z/w)`.
    ///
    /// # Panics
    ///
    /// Does not panic, but returns non-finite components when `w == 0`.
    #[inline]
    pub fn project(self) -> Vec3 {
        Vec3::new(self.x / self.w, self.y / self.w, self.z / self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn vec3_norm_and_normalize() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert!((v.normalized().norm() - 1.0).abs() < 1e-12);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn vec4_project() {
        let v = Vec4::new(2.0, 4.0, 6.0, 2.0);
        assert_eq!(v.project(), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn indexing_roundtrip() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        v[1] = 9.0;
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 9.0);
        assert_eq!(v[2], 3.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let v = Vec2::new(1.0, 0.0);
        let _ = v[2];
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn sum_of_vectors() {
        let total: Vec3 = (0..4).map(|i| Vec3::splat(i as f64)).sum();
        assert_eq!(total, Vec3::splat(6.0));
    }
}
