//! Smooth synthetic head trajectories.
//!
//! A trajectory is a sum of sinusoids per translational axis plus
//! sinusoidal yaw/pitch/roll — infinitely differentiable, so the IMU
//! model can sample exact analytic velocity, acceleration and angular
//! velocity (no numerical differentiation noise). Presets mimic the kinds
//! of motion in the paper's experiments: a user walking a practiced loop
//! in a lab, and the EuRoC drone sequences.

use illixr_core::boundary::Xoshiro256pp;
use illixr_core::Time;
use illixr_math::{Pose, Quat, Vec3};

/// The most terms a list holds (the `Vigorous` profile).
const MAX_TERMS: usize = 4;

/// One sinusoidal term: `amplitude · sin(θ)`, `θ = 2π·freq·t + phase`.
///
/// Value and derivatives take `sin θ` or `cos θ` rather than `t`, so a
/// caller that needs several of them evaluates each transcendental once.
/// The operations and their association are pinned to the bit
/// (`tests/motion_pin.rs`): `w = 2π·f`, `θ = w·t + phase`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sinusoid {
    amplitude: f64,
    freq_hz: f64,
    phase: f64,
}

impl Sinusoid {
    const ZERO: Self = Self { amplitude: 0.0, freq_hz: 0.0, phase: 0.0 };

    fn omega(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.freq_hz
    }
    fn angle(&self, t: f64) -> f64 {
        self.omega() * t + self.phase
    }
    fn value(&self, sin: f64) -> f64 {
        self.amplitude * sin
    }
    fn d1(&self, cos: f64) -> f64 {
        self.amplitude * self.omega() * cos
    }
    fn d2(&self, sin: f64) -> f64 {
        -self.amplitude * self.omega() * self.omega() * sin
    }
}

/// A sum of up to [`MAX_TERMS`] sinusoids, stored inline: a trajectory is
/// one flat value with no heap behind it.
#[derive(Debug, Clone, Copy)]
struct Terms {
    terms: [Sinusoid; MAX_TERMS],
    len: usize,
}

impl Terms {
    fn as_slice(&self) -> &[Sinusoid] {
        &self.terms[..self.len]
    }

    /// `trig(θ)` of each term at `t`. Entries past the list's length
    /// stay at their default and are never summed.
    fn trig<T: Copy + Default>(&self, t: f64, trig: impl Fn(f64) -> T) -> [T; MAX_TERMS] {
        let mut out = [T::default(); MAX_TERMS];
        for (out, term) in out.iter_mut().zip(self.as_slice()) {
            *out = trig(term.angle(t));
        }
        out
    }

    /// `Σ f(term, trig θ)` over the terms in index order.
    fn sum<T: Copy>(&self, trig: &[T; MAX_TERMS], f: impl Fn(&Sinusoid, T) -> f64) -> f64 {
        self.as_slice().iter().zip(trig).map(|(term, &x)| f(term, x)).sum()
    }
}

/// Motion intensity presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MotionProfile {
    /// Slow head motion while seated (AR demo viewing).
    Gentle,
    /// A user walking a loop in a lab — the paper's live trajectory.
    Walking,
    /// Aggressive motion akin to EuRoC "medium/difficult" sequences.
    Vigorous,
}

/// A smooth, deterministic 6-DoF trajectory.
///
/// # Examples
///
/// ```
/// use illixr_sensors::Trajectory;
/// use illixr_core::Time;
///
/// let traj = Trajectory::walking(42);
/// let pose = traj.pose(Time::from_millis(500));
/// assert!(pose.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct Trajectory {
    position: [Terms; 3],
    attitude: [Terms; 3], // yaw, pitch, roll
}

/// Pose, linear acceleration and angular velocity at one instant, from
/// [`Trajectory::kinematics`] — what an IMU sample is made of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kinematics {
    /// Pose (body → world).
    pub pose: Pose,
    /// Linear acceleration in the world frame, m/s².
    pub acceleration: Vec3,
    /// Angular velocity in the **body** frame, rad/s.
    pub angular_velocity: Vec3,
}

impl Trajectory {
    /// Creates a trajectory from a motion profile and RNG seed.
    pub fn new(profile: MotionProfile, seed: u64) -> Self {
        let (pos_amp, pos_freq, att_amp, att_freq, terms) = match profile {
            MotionProfile::Gentle => (0.08, 0.3, 0.12, 0.25, 2),
            MotionProfile::Walking => (0.5, 0.5, 0.35, 0.6, 3),
            MotionProfile::Vigorous => (1.0, 1.1, 0.7, 1.3, 4),
        };
        let mut rng = Xoshiro256pp::new(seed);
        let mut gen_terms = |amp: f64, freq: f64| -> Terms {
            let mut list = Terms { terms: [Sinusoid::ZERO; MAX_TERMS], len: terms };
            for (k, term) in list.terms[..terms].iter_mut().enumerate() {
                *term = Sinusoid {
                    // Higher harmonics have smaller amplitudes (pink-ish).
                    amplitude: amp * rng.uniform(0.5..1.0) / (k + 1) as f64,
                    freq_hz: freq * rng.uniform(0.6..1.4) * (k + 1) as f64,
                    phase: rng.uniform(0.0..std::f64::consts::TAU),
                };
            }
            list
        };
        Self {
            position: [
                gen_terms(pos_amp, pos_freq),
                gen_terms(pos_amp, pos_freq),
                gen_terms(pos_amp * 0.3, pos_freq),
            ],
            attitude: [
                gen_terms(att_amp, att_freq),
                gen_terms(att_amp * 0.5, att_freq),
                gen_terms(att_amp * 0.3, att_freq),
            ],
        }
    }

    /// A walking-profile trajectory (the paper's live setup).
    pub fn walking(seed: u64) -> Self {
        Self::new(MotionProfile::Walking, seed)
    }

    /// A gentle seated trajectory.
    pub fn gentle(seed: u64) -> Self {
        Self::new(MotionProfile::Gentle, seed)
    }

    /// The pose with `position` and `euler` = (yaw, pitch, roll).
    fn pose_from(position: [f64; 3], euler: [f64; 3]) -> Pose {
        let [x, y, z] = position;
        let [yaw, pitch, roll] = euler;
        Pose::new(Vec3::new(x, y, z), Quat::from_euler(yaw, pitch, roll))
    }

    /// Pose (body → world) at time `t`.
    pub fn pose(&self, t: Time) -> Pose {
        let ts = t.as_secs_f64();
        let value = |list: &Terms| list.sum(&list.trig(ts, f64::sin), Sinusoid::value);
        Self::pose_from(self.position.each_ref().map(value), self.attitude.each_ref().map(value))
    }

    /// Linear velocity in the world frame at time `t`, m/s.
    pub fn velocity(&self, t: Time) -> Vec3 {
        let ts = t.as_secs_f64();
        let [x, y, z] =
            self.position.each_ref().map(|list| list.sum(&list.trig(ts, f64::cos), Sinusoid::d1));
        Vec3::new(x, y, z)
    }

    /// Pose, acceleration and angular velocity at time `t` in one pass:
    /// each term's `sin θ` gives a position axis its value and second
    /// derivative, each attitude term's `sin θ` and `cos θ` its angle and
    /// rate. Bit for bit what the separate accessors return.
    ///
    /// The angular velocity follows from the ZYX Euler-rate kinematics:
    /// `ω_body = E(yaw,pitch,roll) · (yaẇ, pitcḣ, rolḣ)`.
    pub fn kinematics(&self, t: Time) -> Kinematics {
        let ts = t.as_secs_f64();
        let [(x, ax), (y, ay), (z, az)] = self.position.each_ref().map(|list| {
            let sin = list.trig(ts, f64::sin);
            (list.sum(&sin, Sinusoid::value), list.sum(&sin, Sinusoid::d2))
        });
        let [(yaw, dyaw), (pitch, dpitch), (roll, droll)] = self.attitude.each_ref().map(|list| {
            let sin_cos = list.trig(ts, f64::sin_cos);
            (
                list.sum(&sin_cos, |term, (sin, _)| term.value(sin)),
                list.sum(&sin_cos, |term, (_, cos)| term.d1(cos)),
            )
        });
        // Body rates for ZYX (yaw-pitch-roll) Euler angles.
        let (sr, cr) = roll.sin_cos();
        let (sp, cp) = pitch.sin_cos();
        Kinematics {
            pose: Self::pose_from([x, y, z], [yaw, pitch, roll]),
            acceleration: Vec3::new(ax, ay, az),
            angular_velocity: Vec3::new(
                droll - dyaw * sp,
                dpitch * cr + dyaw * cp * sr,
                -dpitch * sr + dyaw * cp * cr,
            ),
        }
    }

    /// Linear acceleration in the world frame at time `t`, m/s² (a view
    /// of [`Trajectory::kinematics`]).
    pub fn acceleration(&self, t: Time) -> Vec3 {
        self.kinematics(t).acceleration
    }

    /// Angular velocity in the **body** frame at time `t`, rad/s (a view
    /// of [`Trajectory::kinematics`]).
    pub fn angular_velocity(&self, t: Time) -> Vec3 {
        self.kinematics(t).angular_velocity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_by_seed() {
        let a = Trajectory::walking(7);
        let b = Trajectory::walking(7);
        let t = Time::from_millis(1234);
        assert_eq!(a.pose(t), b.pose(t));
        let c = Trajectory::walking(8);
        assert_ne!(a.pose(t), c.pose(t));
    }

    #[test]
    fn velocity_matches_finite_difference() {
        let traj = Trajectory::walking(3);
        let t = 2.0;
        let h = 1e-5;
        let p1 = traj.pose(Time::from_secs_f64(t - h)).position;
        let p2 = traj.pose(Time::from_secs_f64(t + h)).position;
        let fd = (p2 - p1) / (2.0 * h);
        let v = traj.velocity(Time::from_secs_f64(t));
        assert!((fd - v).norm() < 1e-5, "fd {fd} analytic {v}");
    }

    #[test]
    fn acceleration_matches_finite_difference() {
        let traj = Trajectory::walking(3);
        let t = 1.5;
        let h = 1e-4;
        let v1 = traj.velocity(Time::from_secs_f64(t - h));
        let v2 = traj.velocity(Time::from_secs_f64(t + h));
        let fd = (v2 - v1) / (2.0 * h);
        let a = traj.acceleration(Time::from_secs_f64(t));
        assert!((fd - a).norm() < 1e-4, "fd {fd} analytic {a}");
    }

    #[test]
    fn angular_velocity_matches_quaternion_derivative() {
        let traj = Trajectory::walking(5);
        let t = 3.1;
        let h = 1e-6;
        let q1 = traj.pose(Time::from_secs_f64(t)).orientation;
        let q2 = traj.pose(Time::from_secs_f64(t + h)).orientation;
        // ω_body ≈ 2/h · vec(q1⁻¹ q2)
        let dq = q1.inverse() * q2;
        let fd = Vec3::new(dq.x, dq.y, dq.z) * (2.0 / h);
        let w = traj.angular_velocity(Time::from_secs_f64(t));
        assert!((fd - w).norm() < 1e-3, "fd {fd} analytic {w}");
    }

    #[test]
    fn vigorous_moves_more_than_gentle() {
        let g = Trajectory::new(MotionProfile::Gentle, 1);
        let v = Trajectory::new(MotionProfile::Vigorous, 1);
        let mut g_speed = 0.0;
        let mut v_speed = 0.0;
        for i in 0..100 {
            let t = Time::from_millis(i * 100);
            g_speed += g.velocity(t).norm();
            v_speed += v.velocity(t).norm();
        }
        assert!(v_speed > 2.0 * g_speed);
    }

    #[test]
    fn poses_are_always_finite() {
        let traj = Trajectory::new(MotionProfile::Vigorous, 99);
        for i in 0..1000 {
            let t = Time::from_millis(i * 37);
            assert!(traj.pose(t).is_finite());
        }
    }
}
