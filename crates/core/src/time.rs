//! Time representation shared by live and simulated execution.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in time, in nanoseconds since an arbitrary epoch.
///
/// The same type serves wall-clock time (epoch = runtime start) and
/// virtual simulated time (epoch = simulation start), letting components
/// be oblivious to which mode they run in.
///
/// # Examples
///
/// ```
/// use illixr_core::Time;
/// use std::time::Duration;
/// let t = Time::ZERO + Duration::from_millis(5);
/// assert_eq!(t.as_millis_f64(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The epoch.
    pub const ZERO: Self = Self(0);

    /// Creates a time from nanoseconds since the epoch.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Creates a time from microseconds since the epoch.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Creates a time from milliseconds since the epoch.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Creates a time from (possibly fractional) seconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics when `secs` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "time must be non-negative and finite");
        Self((secs * 1e9).round() as u64)
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the epoch as `f64`.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, saturating to zero.
    #[inline]
    pub(crate) fn duration_since(self, earlier: Self) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for Time {
    type Output = Self;
    #[inline]
    fn add(self, d: Duration) -> Self {
        Self(self.0 + d.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.as_nanos() as u64;
    }
}

impl Sub for Time {
    type Output = Duration;
    /// Difference between two times, saturating to zero when `rhs` is later.
    #[inline]
    fn sub(self, rhs: Self) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// Converts a frequency in Hz to the corresponding period.
///
/// # Panics
///
/// Panics when `hz` is not positive.
pub fn period_from_hz(hz: f64) -> Duration {
    assert!(hz > 0.0, "frequency must be positive");
    Duration::from_nanos((1e9 / hz).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(Time::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(Time::from_micros(7).as_nanos(), 7_000);
        assert!((Time::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t, Time::from_millis(15));
        assert_eq!(t - Time::from_millis(10), Duration::from_millis(5));
        // Saturating behaviour.
        assert_eq!(Time::from_millis(1) - Time::from_millis(5), Duration::ZERO);
    }

    #[test]
    fn period_from_hz_examples() {
        assert_eq!(period_from_hz(500.0), Duration::from_millis(2));
        assert_eq!(period_from_hz(120.0).as_nanos(), 8_333_333);
    }

    #[test]
    #[should_panic]
    fn zero_hz_panics() {
        let _ = period_from_hz(0.0);
    }

    #[test]
    fn ordering() {
        assert!(Time::from_millis(1) < Time::from_millis(2));
    }
}
