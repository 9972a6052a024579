//! Minimal complex-number type for the FFT and frequency-domain filters.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` over `f64`.
///
/// # Examples
///
/// ```
/// use illixr_dsp::Complex;
/// let i = Complex::new(0.0, 1.0);
/// assert!((i * i + Complex::ONE).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates `r·e^{iθ}` from polar coordinates.
    #[inline]
    pub(crate) fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self::new(r * c, r * s)
    }

    /// The unit phasor `e^{iθ}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }
}

impl Add for Complex {
    type Output = Self;
    #[inline]
    fn add(self, r: Self) -> Self {
        Self::new(self.re + r.re, self.im + r.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, r: Self) {
        self.re += r.re;
        self.im += r.im;
    }
}

impl Sub for Complex {
    type Output = Self;
    #[inline]
    fn sub(self, r: Self) -> Self {
        Self::new(self.re - r.re, self.im - r.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, r: Self) {
        self.re -= r.re;
        self.im -= r.im;
    }
}

impl Mul for Complex {
    type Output = Self;
    #[inline]
    fn mul(self, r: Self) -> Self {
        Self::new(self.re * r.re - self.im * r.im, self.re * r.im + self.im * r.re)
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, r: Self) {
        *self = *self * r;
    }
}

impl Mul<f64> for Complex {
    type Output = Self;
    #[inline]
    fn mul(self, s: f64) -> Self {
        self.scale(s)
    }
}

impl Div for Complex {
    type Output = Self;
    #[inline]
    fn div(self, r: Self) -> Self {
        let d = r.norm_sqr();
        Self::new((self.re * r.re + self.im * r.im) / d, (self.im * r.re - self.re * r.im) / d)
    }
}

impl Neg for Complex {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Self::new(re, 0.0)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn multiplication_and_conjugate() {
        let a = Complex::new(3.0, 4.0);
        assert!((a * a.conj() - Complex::new(25.0, 0.0)).abs() < 1e-12);
        assert!((a.abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.0, PI / 3.0);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - PI / 3.0).abs() < 1e-12);
    }

    #[test]
    fn division_inverse() {
        let a = Complex::new(1.5, -2.5);
        let one = a / a;
        assert!((one - Complex::ONE).abs() < 1e-12);
    }

    #[test]
    fn cis_unit_circle() {
        for k in 0..8 {
            let z = Complex::cis(2.0 * PI * k as f64 / 8.0);
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }
}
