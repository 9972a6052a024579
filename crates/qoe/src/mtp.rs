//! Motion-to-photon latency.
//!
//! §III-E: *"latency = t_imu_age + t_reprojection + t_swap"* — the age
//! of the IMU sample behind the pose used for the final warp, plus the
//! reprojection time itself, plus the wait until the frame buffer is
//! accepted at the next vsync. `t_display` is excluded, as in the paper.
//! If reprojection misses vsync, the extra wait shows up in `t_swap`.

use std::time::Duration;

use illixr_core::Time;

/// One per-frame MTP measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MtpSample {
    /// When the reprojected frame was accepted for display (the vsync it
    /// made).
    pub display_vsync: Time,
    /// Age of the pose when the warp started.
    pub imu_age: Duration,
    /// Reprojection execution time.
    pub reprojection: Duration,
    /// Wait from warp completion to the accepting vsync.
    pub swap: Duration,
}

impl MtpSample {
    /// Total motion-to-photon latency.
    pub fn total(&self) -> Duration {
        self.imu_age + self.reprojection + self.swap
    }
}

/// Computes MTP samples from warp timings against a fixed vsync cadence.
#[derive(Debug, Clone, Copy)]
pub struct MtpCalculator {
    vsync_period: Duration,
}

impl MtpCalculator {
    /// Creates a calculator for a display refreshing every
    /// `vsync_period` (Table III: 120 Hz → 8.33 ms).
    ///
    /// # Panics
    ///
    /// Panics when the period is zero.
    pub fn new(vsync_period: Duration) -> Self {
        assert!(!vsync_period.is_zero(), "vsync period must be positive");
        Self { vsync_period }
    }

    /// The next vsync boundary at or after `t`.
    pub(crate) fn next_vsync(&self, t: Time) -> Time {
        let period = self.vsync_period.as_nanos() as u64;
        let n = t.as_nanos().div_ceil(period);
        Time::from_nanos(n * period)
    }

    /// Builds an MTP sample for one reprojection invocation.
    ///
    /// * `pose_timestamp` — sensor time of the pose used for the warp;
    /// * `warp_start` / `warp_end` — reprojection execution interval.
    pub fn sample(&self, pose_timestamp: Time, warp_start: Time, warp_end: Time) -> MtpSample {
        let vsync = self.next_vsync(warp_end);
        MtpSample {
            display_vsync: vsync,
            imu_age: warp_start - pose_timestamp,
            reprojection: warp_end - warp_start,
            swap: vsync - warp_end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calc() -> MtpCalculator {
        MtpCalculator::new(Duration::from_nanos(8_333_333)) // 120 Hz
    }

    #[test]
    fn sample_decomposes_latency() {
        let c = calc();
        let s = c.sample(Time::from_millis(10), Time::from_millis(12), Time::from_micros(12_800));
        assert_eq!(s.imu_age, Duration::from_millis(2));
        assert_eq!(s.reprojection, Duration::from_micros(800));
        // Next vsync after 12.8 ms is 16.667 ms.
        assert_eq!(s.display_vsync, Time::from_nanos(2 * 8_333_333));
        assert_eq!(s.total(), s.imu_age + s.reprojection + s.swap);
    }

    #[test]
    fn missing_vsync_inflates_swap() {
        let c = calc();
        // Warp finishing right after a vsync waits almost a full period.
        let just_after = Time::from_nanos(8_333_334);
        let s = c.sample(Time::ZERO, Time::from_millis(8), just_after);
        assert!(s.swap > Duration::from_millis(8), "swap {:?}", s.swap);
    }

    #[test]
    fn finishing_on_vsync_has_zero_swap() {
        let c = calc();
        let on_vsync = Time::from_nanos(8_333_333);
        let s = c.sample(Time::ZERO, Time::from_millis(8), on_vsync);
        assert_eq!(s.swap, Duration::ZERO);
    }

    #[test]
    fn next_vsync_boundaries() {
        let c = calc();
        assert_eq!(c.next_vsync(Time::ZERO), Time::ZERO);
        assert_eq!(c.next_vsync(Time::from_nanos(1)), Time::from_nanos(8_333_333));
    }

    #[test]
    #[should_panic]
    fn zero_period_panics() {
        let _ = MtpCalculator::new(Duration::ZERO);
    }
}
