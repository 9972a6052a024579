//! The IMU error model.
//!
//! Samples a [`Trajectory`] into gyroscope and accelerometer readings
//! with the standard MEMS error model: additive white noise plus a bias
//! random walk, with gravity folded into the specific force. Parameters
//! default to ZED-Mini-class values (the paper's sensor, Table II).

use illixr_core::boundary::Xoshiro256pp;
use illixr_core::Time;
use illixr_math::Vec3;

use crate::trajectory::Trajectory;
use crate::types::ImuSample;

/// Standard gravity, m/s².
pub(crate) const GRAVITY: f64 = 9.80665;

/// IMU noise/bias parameters (continuous-time densities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuNoise {
    /// Gyro white-noise density, rad/s/√Hz.
    pub gyro_noise_density: f64,
    /// Accel white-noise density, m/s²/√Hz.
    pub accel_noise_density: f64,
    /// Gyro bias random-walk density, rad/s²/√Hz.
    pub gyro_bias_walk: f64,
    /// Accel bias random-walk density, m/s³/√Hz.
    pub accel_bias_walk: f64,
}

impl Default for ImuNoise {
    /// ZED-Mini-class MEMS IMU.
    fn default() -> Self {
        Self {
            gyro_noise_density: 8.7e-4,
            accel_noise_density: 1.4e-3,
            gyro_bias_walk: 1.0e-5,
            accel_bias_walk: 8.0e-5,
        }
    }
}

/// Generates IMU samples along a trajectory.
///
/// # Examples
///
/// ```
/// use illixr_sensors::{ImuModel, Trajectory};
/// use illixr_core::Time;
///
/// let traj = Trajectory::walking(1);
/// let mut imu = ImuModel::new(traj, Default::default(), 500.0, 1);
/// let s = imu.next_sample();
/// assert_eq!(s.timestamp, Time::ZERO);
/// // A stationary-ish headset still measures ~1 g of specific force.
/// assert!(s.accel.norm() > 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct ImuModel {
    trajectory: Trajectory,
    noise: ImuNoise,
    rate_hz: f64,
    rng: Xoshiro256pp,
    gyro_bias: Vec3,
    accel_bias: Vec3,
    next_index: u64,
}

impl ImuModel {
    /// Creates a model sampling `trajectory` at `rate_hz`.
    ///
    /// # Panics
    ///
    /// Panics when `rate_hz` is not positive.
    pub fn new(trajectory: Trajectory, noise: ImuNoise, rate_hz: f64, seed: u64) -> Self {
        assert!(rate_hz > 0.0, "IMU rate must be positive");
        Self {
            trajectory,
            noise,
            rate_hz,
            rng: Xoshiro256pp::new(seed ^ 0x1b1),
            gyro_bias: Vec3::ZERO,
            accel_bias: Vec3::ZERO,
            next_index: 0,
        }
    }

    /// The ideal (noise-free) sample at time `t` — used by tests and by
    /// integrator accuracy analysis.
    pub fn ideal_sample(&self, t: Time) -> ImuSample {
        let at = self.trajectory.kinematics(t);
        let a_world = at.acceleration + Vec3::new(0.0, GRAVITY, 0.0);
        ImuSample {
            timestamp: t,
            gyro: at.angular_velocity,
            accel: at.pose.orientation.inverse().rotate(a_world),
        }
    }

    /// Generates the next sample in the regular 1/rate sequence,
    /// advancing bias random walks.
    pub fn next_sample(&mut self) -> ImuSample {
        let dt = 1.0 / self.rate_hz;
        let t = Time::from_secs_f64(self.next_index as f64 * dt);
        self.next_index += 1;
        // Discretized densities.
        let gyro_sigma = self.noise.gyro_noise_density * self.rate_hz.sqrt();
        let accel_sigma = self.noise.accel_noise_density * self.rate_hz.sqrt();
        let gyro_walk = self.noise.gyro_bias_walk * dt.sqrt();
        let accel_walk = self.noise.accel_bias_walk * dt.sqrt();
        let gyro_step = self.gaussian_vec() * gyro_walk;
        self.gyro_bias += gyro_step;
        let accel_step = self.gaussian_vec() * accel_walk;
        self.accel_bias += accel_step;
        let ideal = self.ideal_sample(t);
        ImuSample {
            timestamp: t,
            gyro: ideal.gyro + self.gyro_bias + self.gaussian_vec() * gyro_sigma,
            accel: ideal.accel + self.accel_bias + self.gaussian_vec() * accel_sigma,
        }
    }

    fn gaussian_vec(&mut self) -> Vec3 {
        Vec3::new(self.gaussian(), self.gaussian(), self.gaussian())
    }

    fn gaussian(&mut self) -> f64 {
        // Box-Muller.
        let u1 = self.rng.uniform(1e-12..1.0);
        let u2 = self.rng.uniform(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::MotionProfile;

    #[test]
    fn ideal_sample_measures_gravity_when_still() {
        // A "gentle" trajectory at t where acceleration is small still
        // reads close to 1 g.
        let traj = Trajectory::new(MotionProfile::Gentle, 2);
        let imu = ImuModel::new(traj, ImuNoise::default(), 500.0, 2);
        let s = imu.ideal_sample(Time::ZERO);
        assert!((s.accel.norm() - GRAVITY).abs() < 2.0, "norm {}", s.accel.norm());
    }

    #[test]
    fn samples_advance_at_rate() {
        let traj = Trajectory::walking(1);
        let mut imu = ImuModel::new(traj, ImuNoise::default(), 500.0, 1);
        let a = imu.next_sample();
        let b = imu.next_sample();
        assert_eq!((b.timestamp - a.timestamp).as_micros(), 2000);
    }

    #[test]
    fn noisy_samples_center_on_ideal() {
        let traj = Trajectory::new(MotionProfile::Gentle, 3);
        let mut imu = ImuModel::new(traj.clone(), ImuNoise::default(), 500.0, 3);
        let mut err_sum = Vec3::ZERO;
        let n = 2000;
        for _ in 0..n {
            let s = imu.next_sample();
            let ideal = imu.ideal_sample(s.timestamp);
            err_sum += s.gyro - ideal.gyro;
        }
        let mean_err = err_sum / n as f64;
        // Mean error should be tiny (bias walk is slow).
        assert!(mean_err.norm() < 0.01, "mean err {mean_err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let make = || {
            let mut imu = ImuModel::new(Trajectory::walking(9), ImuNoise::default(), 500.0, 9);
            (0..100).map(|_| imu.next_sample()).collect::<Vec<_>>()
        };
        assert_eq!(make(), make());
    }

    #[test]
    #[should_panic]
    fn zero_rate_panics() {
        let _ = ImuModel::new(Trajectory::walking(1), ImuNoise::default(), 0.0, 1);
    }
}
