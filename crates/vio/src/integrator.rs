//! IMU state propagation: the `imu_integrator` component (RK4, Table II)
//! and the propagation step of the MSCKF itself.
//!
//! Integrates the strapdown kinematics
//!
//! ```text
//! q̇ = ½ q ⊗ (0, ω − b_g)
//! v̇ = R(q)(a − b_a) + g
//! ṗ = v
//! ```
//!
//! with gravity `g = (0, −9.80665, 0)` (world Y up), matching the sensor
//! model in `illixr-sensors`.

use illixr_core::Time;
use illixr_math::{Pose, Quat, Vec3};
use illixr_sensors::types::ImuSample;

/// Standard gravity vector in the world frame (Y up).
pub(crate) const GRAVITY_W: Vec3 = Vec3 { x: 0.0, y: -9.80665, z: 0.0 };

/// The propagated inertial state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuState {
    /// State timestamp.
    pub timestamp: Time,
    /// Body-to-world pose.
    pub pose: Pose,
    /// Linear velocity, world frame.
    pub velocity: Vec3,
    /// Gyro bias estimate.
    pub gyro_bias: Vec3,
    /// Accel bias estimate.
    pub accel_bias: Vec3,
}

impl ImuState {
    /// An identity state at time zero.
    #[cfg(test)]
    pub(crate) fn identity() -> Self {
        Self {
            timestamp: Time::ZERO,
            pose: Pose::IDENTITY,
            velocity: Vec3::ZERO,
            gyro_bias: Vec3::ZERO,
            accel_bias: Vec3::ZERO,
        }
    }

    /// A state initialized from a known pose/velocity (e.g. ground truth
    /// at t₀, the usual VIO initialization in benchmarks).
    pub fn from_pose(timestamp: Time, pose: Pose, velocity: Vec3) -> Self {
        Self { timestamp, pose, velocity, gyro_bias: Vec3::ZERO, accel_bias: Vec3::ZERO }
    }
}

/// Integration scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Classical fourth-order Runge-Kutta (the OpenVINS default the
    /// paper stars in Table II).
    Rk4,
    /// Midpoint rule (the cheaper alternative, standing in for the GTSAM
    /// integrator option).
    Midpoint,
}

/// Propagates `state` through one IMU interval `[sample_a, sample_b]`
/// using RK4 with linearly interpolated measurements.
pub(crate) fn propagate_rk4(state: &ImuState, a: &ImuSample, b: &ImuSample) -> ImuState {
    propagate_interval(state, a, b, Scheme::Rk4)
}

/// Propagates through a whole sequence of samples (each consecutive pair
/// forms one integration interval). Samples at or before the state's
/// timestamp are skipped.
pub fn propagate(state: &ImuState, samples: &[ImuSample], scheme: Scheme) -> ImuState {
    let mut s = *state;
    for pair in samples.windows(2) {
        if pair[1].timestamp <= s.timestamp {
            continue;
        }
        s = propagate_interval(&s, &pair[0], &pair[1], scheme);
    }
    s
}

fn propagate_interval(state: &ImuState, a: &ImuSample, b: &ImuSample, scheme: Scheme) -> ImuState {
    let dt = (b.timestamp - a.timestamp).as_secs_f64();
    if dt <= 0.0 {
        return *state;
    }
    let w0 = a.gyro - state.gyro_bias;
    let w1 = b.gyro - state.gyro_bias;
    let f0 = a.accel - state.accel_bias;
    let f1 = b.accel - state.accel_bias;
    match scheme {
        Scheme::Midpoint => {
            let wm = (w0 + w1) * 0.5;
            let fm = (f0 + f1) * 0.5;
            let q_mid = state.pose.orientation * Quat::from_rotation_vector(wm * (dt * 0.5));
            let acc_w = q_mid.rotate(fm) + GRAVITY_W;
            let q_new = (state.pose.orientation * Quat::from_rotation_vector(wm * dt)).normalized();
            let v_new = state.velocity + acc_w * dt;
            let p_new = state.pose.position + state.velocity * dt + acc_w * (0.5 * dt * dt);
            ImuState {
                timestamp: b.timestamp,
                pose: Pose::new(p_new, q_new),
                velocity: v_new,
                gyro_bias: state.gyro_bias,
                accel_bias: state.accel_bias,
            }
        }
        Scheme::Rk4 => {
            // State y = (q, p, v); measurements interpolate linearly.
            let interp = |t: f64| -> (Vec3, Vec3) {
                let alpha = t / dt;
                (w0.lerp(w1, alpha), f0.lerp(f1, alpha))
            };
            let deriv = |q: Quat, v: Vec3, w: Vec3, f: Vec3| -> (Quat, Vec3, Vec3) {
                // q̇ = ½ q ⊗ (0, w)
                let wq = Quat::new(0.0, w.x, w.y, w.z);
                let qd = q * wq;
                let qdot = Quat::new(qd.w * 0.5, qd.x * 0.5, qd.y * 0.5, qd.z * 0.5);
                let pdot = v;
                let vdot = q.rotate(f) + GRAVITY_W;
                (qdot, pdot, vdot)
            };
            let q0 = state.pose.orientation;
            let p0 = state.pose.position;
            let v0 = state.velocity;

            let (wm0, fm0) = interp(0.0);
            let (k1q, k1p, k1v) = deriv(q0, v0, wm0, fm0);

            let (wmh, fmh) = interp(dt * 0.5);
            let q_k2 = quat_add_scaled(q0, k1q, dt * 0.5);
            let (k2q, k2p, k2v) = deriv(q_k2, v0 + k1v * (dt * 0.5), wmh, fmh);

            let q_k3 = quat_add_scaled(q0, k2q, dt * 0.5);
            let (k3q, k3p, k3v) = deriv(q_k3, v0 + k2v * (dt * 0.5), wmh, fmh);

            let (wm1, fm1) = interp(dt);
            let q_k4 = quat_add_scaled(q0, k3q, dt);
            let (k4q, k4p, k4v) = deriv(q_k4, v0 + k3v * dt, wm1, fm1);

            let q_new = Quat::new(
                q0.w + dt / 6.0 * (k1q.w + 2.0 * k2q.w + 2.0 * k3q.w + k4q.w),
                q0.x + dt / 6.0 * (k1q.x + 2.0 * k2q.x + 2.0 * k3q.x + k4q.x),
                q0.y + dt / 6.0 * (k1q.y + 2.0 * k2q.y + 2.0 * k3q.y + k4q.y),
                q0.z + dt / 6.0 * (k1q.z + 2.0 * k2q.z + 2.0 * k3q.z + k4q.z),
            )
            .normalized();
            let p_new = p0 + (k1p + k2p * 2.0 + k3p * 2.0 + k4p) * (dt / 6.0);
            let v_new = v0 + (k1v + k2v * 2.0 + k3v * 2.0 + k4v) * (dt / 6.0);
            ImuState {
                timestamp: b.timestamp,
                pose: Pose::new(p_new, q_new),
                velocity: v_new,
                gyro_bias: state.gyro_bias,
                accel_bias: state.accel_bias,
            }
        }
    }
}

fn quat_add_scaled(q: Quat, dq: Quat, s: f64) -> Quat {
    Quat::new(q.w + dq.w * s, q.x + dq.x * s, q.y + dq.y * s, q.z + dq.z * s).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_sensors::imu::{ImuModel, ImuNoise};
    use illixr_sensors::trajectory::Trajectory;

    /// Ideal (noise-free) samples along a trajectory.
    fn ideal_samples(traj: &Trajectory, rate_hz: f64, duration_s: f64) -> Vec<ImuSample> {
        let imu = ImuModel::new(traj.clone(), ImuNoise::default(), rate_hz, 0);
        let n = (duration_s * rate_hz) as usize;
        (0..=n).map(|k| imu.ideal_sample(Time::from_secs_f64(k as f64 / rate_hz))).collect()
    }

    #[test]
    fn rk4_tracks_ideal_trajectory() {
        let traj = Trajectory::walking(11);
        let samples = ideal_samples(&traj, 500.0, 2.0);
        let t0 = Time::ZERO;
        let state0 = ImuState::from_pose(t0, traj.pose(t0), traj.velocity(t0));
        let state = propagate(&state0, &samples, Scheme::Rk4);
        let truth = traj.pose(state.timestamp);
        let pos_err = state.pose.translation_distance(&truth);
        let rot_err = state.pose.rotation_distance(&truth);
        assert!(pos_err < 0.02, "position error {pos_err} m after 2 s ideal integration");
        assert!(rot_err < 0.01, "rotation error {rot_err} rad");
    }

    #[test]
    fn midpoint_tracks_but_less_accurately_over_long_runs() {
        let traj = Trajectory::walking(13);
        let samples = ideal_samples(&traj, 500.0, 4.0);
        let state0 =
            ImuState::from_pose(Time::ZERO, traj.pose(Time::ZERO), traj.velocity(Time::ZERO));
        let rk4 = propagate(&state0, &samples, Scheme::Rk4);
        let mid = propagate(&state0, &samples, Scheme::Midpoint);
        let truth = traj.pose(rk4.timestamp);
        let rk4_err = rk4.pose.translation_distance(&truth);
        let mid_err = mid.pose.translation_distance(&truth);
        assert!(mid_err < 0.5, "midpoint diverged: {mid_err}");
        // RK4 should not be (much) worse than midpoint.
        assert!(rk4_err <= mid_err * 1.5 + 1e-3, "rk4 {rk4_err} vs midpoint {mid_err}");
    }

    #[test]
    fn stationary_state_stays_put_under_gravity_compensation() {
        // Constant samples: gyro 0, accel = -g in body == world frame.
        let mk = |k: u64| ImuSample {
            timestamp: Time::from_millis(k * 2),
            gyro: Vec3::ZERO,
            accel: Vec3::new(0.0, 9.80665, 0.0),
        };
        let samples: Vec<ImuSample> = (0..500).map(mk).collect();
        let state = propagate(&ImuState::identity(), &samples, Scheme::Rk4);
        assert!(state.pose.position.norm() < 1e-9, "drifted {}", state.pose.position.norm());
        assert!(state.velocity.norm() < 1e-9);
    }

    #[test]
    fn bias_is_subtracted() {
        let bias = Vec3::new(0.05, -0.02, 0.03);
        let mk = |k: u64| ImuSample {
            timestamp: Time::from_millis(k * 2),
            gyro: bias, // pure bias, no true rotation
            accel: Vec3::new(0.0, 9.80665, 0.0),
        };
        let samples: Vec<ImuSample> = (0..250).map(mk).collect();
        let mut state0 = ImuState::identity();
        state0.gyro_bias = bias;
        let state = propagate(&state0, &samples, Scheme::Rk4);
        assert!(state.pose.rotation_distance(&Pose::IDENTITY) < 1e-9);
    }

    #[test]
    fn skips_stale_samples() {
        let traj = Trajectory::walking(5);
        let samples = ideal_samples(&traj, 500.0, 1.0);
        let mid_t = samples[250].timestamp;
        let state0 = ImuState::from_pose(mid_t, traj.pose(mid_t), traj.velocity(mid_t));
        let state = propagate(&state0, &samples, Scheme::Rk4);
        // Should only have integrated the second half.
        let truth = traj.pose(state.timestamp);
        assert!(state.pose.translation_distance(&truth) < 0.02);
    }

    #[test]
    fn zero_dt_is_identity() {
        let s = ImuState::identity();
        let sample = ImuSample { timestamp: Time::ZERO, gyro: Vec3::ZERO, accel: Vec3::ZERO };
        let out = propagate_rk4(&s, &sample, &sample);
        assert_eq!(out, s);
    }
}
