//! Bit pins of the synthetic motion source.
//!
//! Every `edge_*`/`fault_replay` digest, every golden file and every
//! `real_vio` estimate downstream depends on the last bit of each IMU
//! sample, and each sample on the last bit of the trajectory under it.
//! These FNV-1a digests over `to_bits()` were taken from the first
//! implementation (one `sin`/`cos` per accessor per term, `Vec` term
//! lists); an edit to `trajectory.rs` or `imu.rs` must keep each value's
//! floating-point operations and their association — `w = 2π·f`,
//! `θ = w·t + phase`, terms summed in index order by `Iterator::sum`.

use std::iter;

use illixr_core::boundary::fnv1a;
use illixr_core::Time;
use illixr_math::{Pose, Vec3};
use illixr_sensors::imu::ImuNoise;
use illixr_sensors::trajectory::MotionProfile;
use illixr_sensors::{ImuModel, Trajectory};

fn vec3_bits(v: Vec3) -> [u64; 3] {
    [v.x, v.y, v.z].map(f64::to_bits)
}

fn pose_bits(pose: Pose) -> [u64; 7] {
    let (p, q) = (pose.position, pose.orientation);
    [p.x, p.y, p.z, q.w, q.x, q.y, q.z].map(f64::to_bits)
}

/// FNV-1a over each word's little-endian bytes, in order.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(words.into_iter().flat_map(u64::to_le_bytes))
}

/// The 1 000 instants every trajectory pin samples: 0 to ≈ 7.9 s on a
/// step that is no multiple of any sensor period.
fn grid() -> impl Iterator<Item = Time> {
    (0..1000u64).map(|k| Time::from_nanos(k * 7_919_311))
}

const PROFILES: [MotionProfile; 3] =
    [MotionProfile::Gentle, MotionProfile::Walking, MotionProfile::Vigorous];
const TRAJECTORY_SEEDS: [u64; 4] = [1, 7, 11, 4242];

fn imu_digest(seed: u64) -> u64 {
    let mut imu = ImuModel::new(Trajectory::walking(seed), ImuNoise::default(), 500.0, seed);
    digest((0..2000).flat_map(|_| {
        let s = imu.next_sample();
        iter::once(s.timestamp.as_nanos()).chain(vec3_bits(s.gyro)).chain(vec3_bits(s.accel))
    }))
}

fn trajectory_digest(profile: MotionProfile, seed: u64) -> u64 {
    let traj = Trajectory::new(profile, seed);
    digest(grid().flat_map(|t| {
        let v = [traj.velocity(t), traj.acceleration(t), traj.angular_velocity(t)];
        pose_bits(traj.pose(t)).into_iter().chain(v.into_iter().flat_map(vec3_bits))
    }))
}

#[test]
fn imu_samples_are_pinned() {
    let got = [1, 7, 11].map(imu_digest);
    let want = [0x1079_dbae_b4a8_ba2c, 0x35e7_ae78_bd33_abd5, 0xe36c_cee2_fcc3_36ad];
    assert_eq!(got, want, "got {got:#018x?}");
}

#[test]
fn trajectories_are_pinned() {
    let got = PROFILES.map(|p| TRAJECTORY_SEEDS.map(|seed| trajectory_digest(p, seed)));
    let want = [
        [
            0x06cc_e896_92aa_251d,
            0x1c05_5a27_bc94_0d59,
            0x6477_4971_7182_3673,
            0xd7c8_b2c4_745e_d573,
        ],
        [
            0x4e9e_9296_f5d8_577b,
            0xec38_4aa1_66f9_c413,
            0xbd6c_d5a9_bc37_1ad1,
            0x98b5_3c78_8989_1573,
        ],
        [
            0xfaed_93d4_c87b_ab31,
            0xf7f1_8939_2bee_8397,
            0x73a1_c789_ebf5_f579,
            0x1647_dded_b61e_5586,
        ],
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}

/// The one-pass evaluation the IMU model samples is the separate
/// accessors, bit for bit, on the pinned grid.
#[test]
fn kinematics_equals_the_separate_accessors() {
    for profile in PROFILES {
        for seed in TRAJECTORY_SEEDS {
            let traj = Trajectory::new(profile, seed);
            for t in grid() {
                let at = traj.kinematics(t);
                let what = format!("{profile:?} seed {seed} t {t}");
                assert_eq!(pose_bits(at.pose), pose_bits(traj.pose(t)), "{what}");
                assert_eq!(vec3_bits(at.acceleration), vec3_bits(traj.acceleration(t)), "{what}");
                assert_eq!(
                    vec3_bits(at.angular_velocity),
                    vec3_bits(traj.angular_velocity(t)),
                    "{what}"
                );
            }
        }
    }
}
