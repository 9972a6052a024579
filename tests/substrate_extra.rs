//! Additional cross-crate edge-case tests for the substrates.

use illixr_testbed::audio::binaural::default_ring_bank;
use illixr_testbed::audio::hrtf::HRIR_TAPS;
use illixr_testbed::core::{Clock, SimClock, Time};
use illixr_testbed::dsp::window::blackman;
use illixr_testbed::dsp::Biquad;
use illixr_testbed::image::{GrayImage, Pyramid, RgbImage};
use illixr_testbed::math::{percentile, Mat4, OnlineStats, Quat, Svd, Vec3};
use illixr_testbed::platform::power::{PowerModel, Rail};
use illixr_testbed::platform::spec::Platform;
use illixr_testbed::sensors::camera::{PinholeCamera, StereoRig};
use illixr_testbed::visual::hologram::{compute_hologram, HologramConfig};

#[test]
fn stereo_camera_centers_are_baseline_apart() {
    let rig = StereoRig::zed_mini(PinholeCamera::vga());
    let pose = illixr_testbed::math::Pose::new(
        Vec3::new(1.0, 2.0, 3.0),
        Quat::from_axis_angle(Vec3::UNIT_Y, 0.7),
    );
    let (l, r) = rig.camera_centers(&pose);
    assert!(((l - r).norm() - rig.baseline).abs() < 1e-12);
}

#[test]
fn perspective_composed_with_view_is_invertible_in_frustum() {
    let proj = Mat4::perspective(1.2, 16.0 / 9.0, 0.1, 50.0);
    let view = Mat4::look_at(Vec3::new(1.0, 2.0, 3.0), Vec3::ZERO, Vec3::UNIT_Y);
    let vp = proj * view;
    let inv = vp.inverse().expect("view-projection invertible");
    let p = Vec3::new(0.3, -0.2, 0.0);
    let clip = vp * p.extend(1.0);
    let back = (inv * clip).project();
    assert!((back - p).norm() < 1e-9);
}

#[test]
fn svd_pseudo_solves_rank_deficient_system() {
    use illixr_testbed::math::DMatrix;
    // Rank-2 system in 3 unknowns; SVD exposes the rank.
    let a = DMatrix::from_fn(5, 3, |r, c| match c {
        0 => r as f64,
        1 => 2.0 * r as f64, // linearly dependent on column 0
        _ => 1.0,
    });
    let svd = Svd::new(&a).unwrap();
    assert_eq!(svd.rank(1e-10), 2);
}

#[test]
fn blackman_window_tapers_to_near_zero() {
    let w = blackman(64);
    assert!(w[0].abs() < 1e-6);
    assert!(w[32] > 0.9);
}

#[test]
fn biquad_block_processing_matches_sample_processing() {
    let mut a = Biquad::low_pass(48_000.0, 2_000.0, 0.707);
    let mut b = Biquad::low_pass(48_000.0, 2_000.0, 0.707);
    let input: Vec<f64> = (0..128).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
    let per_sample: Vec<f64> = input.iter().map(|&x| a.process(x)).collect();
    let mut block = input.clone();
    b.process_block(&mut block);
    for (x, y) in per_sample.iter().zip(&block) {
        assert!((x - y).abs() < 1e-12);
    }
}

#[test]
fn pyramid_levels_preserve_mean_intensity() {
    let base = GrayImage::from_fn(64, 64, |x, y| ((x + y) % 16) as f32 / 16.0);
    let pyr = Pyramid::new(&base, 3);
    let m0 = pyr.level(0).mean();
    let m2 = pyr.level(2).mean();
    assert!((m0 - m2).abs() < 0.05, "level means {m0} vs {m2}");
}

#[test]
fn power_model_energy_scales_with_duration() {
    let m = PowerModel::new(Platform::JetsonHP);
    let b = m.breakdown_from_compute(0.5, 0.5);
    let e1 = PowerModel::energy_joules(&b, 10.0);
    let e2 = PowerModel::energy_joules(&b, 20.0);
    assert!((e2 / e1 - 2.0).abs() < 1e-12);
    // All rails positive.
    for rail in Rail::ALL {
        assert!(b.get(rail) > 0.0);
    }
}

#[test]
fn hologram_width_height_accessors() {
    let cfg = HologramConfig { width: 32, height: 16, iterations: 1, ..Default::default() };
    let t = GrayImage::from_fn(32, 16, |x, _| (x % 2) as f32);
    let holo = compute_hologram(&[t.clone(), t], &cfg, None);
    assert_eq!(holo.width(), 32);
    assert_eq!(holo.height(), 16);
}

#[test]
fn hrir_bank_has_expected_shape() {
    let bank = default_ring_bank(48_000.0);
    assert_eq!(bank.len(), 8);
    for i in 0..bank.len() {
        assert_eq!(bank.pair(i).left.len(), HRIR_TAPS);
        assert_eq!(bank.pair(i).right.len(), HRIR_TAPS);
    }
}

#[test]
fn sim_clock_is_shared_across_threads() {
    let clock = SimClock::new();
    let clone = clock.clone();
    let handle = std::thread::spawn(move || {
        clone.advance_to(Time::from_millis(42));
    });
    handle.join().unwrap();
    assert_eq!(clock.now(), Time::from_millis(42));
}

#[test]
fn online_stats_percentile_interplay() {
    let data: Vec<f64> = (0..101).map(|i| i as f64).collect();
    let mut s = OnlineStats::new();
    data.iter().for_each(|&x| s.push(x));
    assert_eq!(percentile(&data, 50.0), Some(50.0));
    assert!((s.mean() - 50.0).abs() < 1e-12);
    assert_eq!(s.min(), 0.0);
    assert_eq!(s.max(), 100.0);
}

#[test]
fn rgb_image_channel_roundtrip() {
    let img = RgbImage::from_fn(8, 8, |x, y| [x as f32 / 8.0, y as f32 / 8.0, 0.25]);
    for c in 0..3 {
        let ch = img.channel(c);
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(ch.get(x, y), img.get(x, y)[c]);
            }
        }
    }
}

#[test]
fn msckf_update_shrinks_uncertainty_and_corrects_pose() {
    // A focused filter-consistency check: start the filter with a small
    // position offset from truth; after a few frames of updates the
    // estimate must move toward truth (Jacobian signs correct) rather
    // than away from it (signs flipped).
    use illixr_testbed::sensors::dataset::SyntheticDataset;
    use illixr_testbed::vio::integrator::ImuState;
    use illixr_testbed::vio::msckf::{Msckf, VioConfig};

    let ds = SyntheticDataset::vicon_room_like(61, 2.0);
    let rig = StereoRig::zed_mini(PinholeCamera::qvga());
    let gt0 = ds.ground_truth[0];
    let offset = Vec3::new(0.05, -0.03, 0.04); // 7 cm initial error
    let mut wrong_pose = gt0.pose;
    wrong_pose.position += offset;
    let init = ImuState::from_pose(gt0.timestamp, wrong_pose, gt0.velocity);
    let mut filter = Msckf::new(VioConfig::fast(PinholeCamera::qvga()), init);

    let initial_err = offset.norm();
    for (imu, frame) in ds.replay(&rig) {
        imu.iter().for_each(|&s| filter.process_imu(s));
        filter.process_frame(&frame.stereo(), None);
    }
    let final_err = filter
        .state()
        .pose
        .translation_distance(&ds.ground_truth_pose(*ds.camera_times.last().unwrap()));
    // Visual updates cannot fully remove an absolute offset (it is only
    // weakly observable), but a sign error would blow the error up.
    assert!(
        final_err < 3.0 * initial_err,
        "filter diverged from a 7 cm initial offset: {final_err:.3} m"
    );
}
