//! Property tests over the core data structures and invariants of the
//! substrates. Each property checks [`CASES`] cases drawn from its own
//! fixed-seed generator, so every run sees the same inputs and a failure
//! names its case index.

use illixr_testbed::audio::ambisonics::encode_block;
use illixr_testbed::audio::rotation::rotate_yaw;
use illixr_testbed::core::boundary::Xoshiro256pp;
use illixr_testbed::dsp::convolution::{convolve_direct, fft_convolve, OverlapSave};
use illixr_testbed::dsp::fft::{fft, ifft};
use illixr_testbed::dsp::Complex;
use illixr_testbed::image::{flip, ssim, GrayImage, RgbImage};
use illixr_testbed::math::Svd;
use illixr_testbed::math::{so3_exp, so3_log, Cholesky, DMatrix, Pose, Quat, Vec3};
use illixr_testbed::qoe::mtp::MtpCalculator;
use illixr_testbed::visual::distortion::{DistortionMesh, DistortionParams};

/// Cases per property.
const CASES: usize = 64;

/// A vector with each coordinate uniform in `[-half, half)`.
fn vec3(rng: &mut Xoshiro256pp, half: f64) -> Vec3 {
    Vec3::new(rng.uniform(-half..half), rng.uniform(-half..half), rng.uniform(-half..half))
}

fn rotation_vec(rng: &mut Xoshiro256pp) -> Vec3 {
    vec3(rng, 3.0)
}

fn pose(rng: &mut Xoshiro256pp) -> Pose {
    let p = vec3(rng, 10.0);
    Pose::new(p, Quat::from_rotation_vector(rotation_vec(rng)))
}

/// `n` values uniform in `[-half, half)`.
fn values(rng: &mut Xoshiro256pp, n: usize, half: f64) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(-half..half)).collect()
}

/// A length uniform in `lo..hi`.
fn len(rng: &mut Xoshiro256pp, lo: usize, hi: usize) -> usize {
    lo + rng.below((hi - lo) as u64) as usize
}

#[test]
fn pose_compose_inverse_is_identity() {
    let mut rng = Xoshiro256pp::new(101);
    for case in 0..CASES {
        let a = pose(&mut rng);
        let id = a.compose(&a.inverse());
        assert!(id.translation_distance(&Pose::IDENTITY) < 1e-9, "case {case}");
        assert!(id.rotation_distance(&Pose::IDENTITY) < 1e-7, "case {case}");
    }
}

#[test]
fn pose_composition_is_associative() {
    let mut rng = Xoshiro256pp::new(102);
    for case in 0..CASES {
        let (a, b, c) = (pose(&mut rng), pose(&mut rng), pose(&mut rng));
        let left = a.compose(&b).compose(&c);
        let right = a.compose(&b.compose(&c));
        let probe = Vec3::new(0.3, -0.7, 1.1);
        let gap = (left.transform_point(probe) - right.transform_point(probe)).norm();
        assert!(gap < 1e-8, "case {case}: gap {gap}");
    }
}

#[test]
fn quat_rotation_preserves_norm() {
    let mut rng = Xoshiro256pp::new(103);
    for case in 0..CASES {
        let q = Quat::from_rotation_vector(rotation_vec(&mut rng));
        let v = vec3(&mut rng, 10.0);
        assert!((q.rotate(v).norm() - v.norm()).abs() < 1e-9 * (1.0 + v.norm()), "case {case}");
    }
}

#[test]
fn so3_exp_log_roundtrip() {
    let mut rng = Xoshiro256pp::new(104);
    for case in 0..CASES {
        // Angles below π, where the log is unique.
        let axis = vec3(&mut rng, 1.0);
        let rv = axis * (rng.uniform(0.0..3.1) / axis.norm());
        let back = so3_log(&so3_exp(rv));
        assert!((back - rv).norm() < 1e-6, "case {case}: rv {rv} back {back}");
    }
}

#[test]
fn cholesky_solve_solves() {
    let mut rng = Xoshiro256pp::new(105);
    for case in 0..CASES {
        // Build SPD A = B Bᵀ + 4I from arbitrary B.
        let b = DMatrix::from_row_slice(4, 4, &values(&mut rng, 16, 2.0));
        let rhs = values(&mut rng, 4, 5.0);
        let mut a = b.mul_transpose(&b);
        for i in 0..4 {
            a[(i, i)] += 4.0;
        }
        let x = Cholesky::new(&a).unwrap().solve(&DMatrix::column(&rhs));
        let back = &a * &x;
        for i in 0..4 {
            assert!((back[(i, 0)] - rhs[i]).abs() < 1e-8, "case {case}: row {i}");
        }
    }
}

#[test]
fn fft_roundtrip_and_parseval() {
    let mut rng = Xoshiro256pp::new(106);
    for case in 0..CASES {
        let buf: Vec<Complex> =
            values(&mut rng, 64, 1.0).into_iter().map(|x| Complex::new(x, 0.0)).collect();
        let spec = fft(&buf);
        let back = ifft(&spec);
        for (a, b) in buf.iter().zip(&back) {
            assert!((a.re - b.re).abs() < 1e-9, "case {case}");
        }
        let te: f64 = buf.iter().map(|c| c.norm_sqr()).sum();
        let fe: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / 64.0;
        assert!((te - fe).abs() < 1e-8 * (1.0 + te), "case {case}");
    }
}

#[test]
fn fft_convolution_matches_direct() {
    let mut rng = Xoshiro256pp::new(107);
    for case in 0..CASES {
        let n = len(&mut rng, 1, 48);
        let signal = values(&mut rng, n, 1.0);
        let n = len(&mut rng, 1, 16);
        let kernel = values(&mut rng, n, 1.0);
        let a = convolve_direct(&signal, &kernel);
        let b = fft_convolve(&signal, &kernel);
        assert_eq!(a.len(), b.len(), "case {case}");
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8, "case {case}");
        }
    }
}

#[test]
fn overlap_save_matches_batch() {
    let mut rng = Xoshiro256pp::new(108);
    for case in 0..CASES {
        let n = len(&mut rng, 1, 24);
        let kernel = values(&mut rng, n, 1.0);
        let blocks = len(&mut rng, 1, 5);
        let block_len = 32;
        let signal: Vec<f64> =
            (0..blocks * block_len).map(|i| ((i * 7) % 13) as f64 / 13.0 - 0.5).collect();
        let mut conv = OverlapSave::new(&kernel, block_len);
        let mut streamed = Vec::new();
        for chunk in signal.chunks(block_len) {
            streamed.extend(conv.process(chunk));
        }
        let batch = convolve_direct(&signal, &kernel);
        for (i, (a, b)) in streamed.iter().zip(batch.iter()).enumerate() {
            assert!((a - b).abs() < 1e-8, "case {case}, sample {i}: {a} vs {b}");
        }
    }
}

#[test]
fn soundfield_rotation_preserves_energy() {
    let mut rng = Xoshiro256pp::new(109);
    for case in 0..CASES {
        let az = rng.uniform(-3.0..3.0);
        let el = rng.uniform(-1.4..1.4);
        let yaw = rng.uniform(-6.0..6.0);
        let field = encode_block(&[1.0, -0.5, 0.25], az, el);
        let rotated = rotate_yaw(&field, yaw);
        let gap = (rotated.energy() - field.energy()).abs();
        assert!(gap < 1e-9 * (1.0 + field.energy()), "case {case}: gap {gap}");
    }
}

#[test]
fn ssim_is_reflexive_and_bounded() {
    let mut rng = Xoshiro256pp::new(110);
    for case in 0..CASES {
        let seed = rng.below(1000);
        let img = GrayImage::from_fn(24, 24, |x, y| {
            (((x as u64 * 31 + y as u64 * 17 + seed) % 97) as f32) / 97.0
        });
        let s = ssim(&img, &img);
        assert!((s - 1.0).abs() < 1e-4, "case {case}: ssim {s}");
        let other = GrayImage::from_fn(24, 24, |x, _| (x % 2) as f32);
        let cross = ssim(&img, &other);
        assert!((-1.0..=1.0).contains(&cross), "case {case}: ssim {cross}");
    }
}

#[test]
fn flip_is_reflexive_and_bounded() {
    let mut rng = Xoshiro256pp::new(111);
    for case in 0..CASES {
        let seed = rng.below(1000);
        let img = RgbImage::from_fn(16, 16, |x, y| {
            let v = (((x as u64 * 13 + y as u64 * 29 + seed) % 83) as f32) / 83.0;
            [v, 1.0 - v, 0.5]
        });
        assert!(flip(&img, &img) < 1e-6, "case {case}");
        let inverted = RgbImage::from_fn(16, 16, |x, y| {
            let [r, g, b] = img.get(x, y);
            [1.0 - r, 1.0 - g, 1.0 - b]
        });
        let d = flip(&img, &inverted);
        assert!((0.0..=1.0).contains(&d), "case {case}: flip {d}");
    }
}

#[test]
fn svd_reconstructs_arbitrary_matrices() {
    let mut rng = Xoshiro256pp::new(112);
    for case in 0..CASES {
        let a = DMatrix::from_row_slice(6, 4, &values(&mut rng, 24, 3.0));
        let svd = Svd::new(&a).unwrap();
        let gap = (&svd.reconstruct() - &a).frobenius_norm();
        assert!(gap < 1e-8 * (1.0 + a.frobenius_norm()), "case {case}: gap {gap}");
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "case {case}");
            assert!(w[1] >= -1e-12, "case {case}");
        }
    }
}

#[test]
fn distortion_center_is_always_fixed() {
    let mut rng = Xoshiro256pp::new(113);
    for case in 0..CASES {
        let k1 = rng.uniform(0.0..0.5);
        let k2 = rng.uniform(0.0..0.2);
        let scale = rng.uniform(0.9..1.1);
        let params = DistortionParams {
            k1,
            k2,
            channel_scale: [scale, 1.0, 2.0 - scale],
            mesh_resolution: 16,
        };
        let mesh = DistortionMesh::new(&params);
        for c in 0..3 {
            let center = mesh.sample(c, 0.5, 0.5);
            assert!(
                (center.x - 0.5).abs() < 1e-9 && (center.y - 0.5).abs() < 1e-9,
                "case {case}, channel {c}"
            );
        }
    }
}

#[test]
fn quat_slerp_stays_unit_and_bounded() {
    let mut rng = Xoshiro256pp::new(114);
    for case in 0..CASES {
        let a = Quat::from_rotation_vector(rotation_vec(&mut rng));
        let b = Quat::from_rotation_vector(rotation_vec(&mut rng));
        let s = a.slerp(b, rng.uniform(0.0..1.0));
        assert!((s.norm() - 1.0).abs() < 1e-9, "case {case}");
        // The interpolant never rotates further from `a` than `b` does
        // (geodesic property), modulo numerical slack.
        assert!(a.angle_to(s) <= a.angle_to(b) + 1e-6, "case {case}");
    }
}

#[test]
fn mtp_total_is_sum_of_parts() {
    use illixr_testbed::core::Time;
    use std::time::Duration;
    let calc = MtpCalculator::new(Duration::from_nanos(8_333_333));
    let mut rng = Xoshiro256pp::new(115);
    for case in 0..CASES {
        let pose_t = Time::from_millis(rng.below(50));
        let start = pose_t + Duration::from_millis(rng.below(20));
        let end = start + Duration::from_micros(rng.below(20_000));
        let s = calc.sample(pose_t, start, end);
        assert_eq!(s.total(), s.imu_age + s.reprojection + s.swap, "case {case}");
        assert!(s.display_vsync >= end, "case {case}");
        assert!(s.swap < Duration::from_nanos(8_333_334), "case {case}");
    }
}
