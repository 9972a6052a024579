//! Pipeline trace: the benchmark's own frame loop over a synthetic
//! Vicon-Room-like sequence, one root `frame` span per camera frame
//! and one child span around each layer's public call.
//!
//! The loop feeds every kernel the frame it would see in the device
//! pipeline (QVGA stereo for perception, 96² eye buffers for the visual
//! path, 96×72 depth for reconstruction, 1024-sample audio blocks), so
//! the shares below are shares of a frame that does all of it once.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use illixr_audio::ambisonics::encode_block;
use illixr_audio::binaural::{default_ring_bank, psychoacoustic_filter, BinauralDecoder};
use illixr_dsp::fft::fft_in_place;
use illixr_dsp::Complex;
use illixr_eyetrack::eye::{render_eye, EyeParams};
use illixr_eyetrack::net::SegmentationNet;
use illixr_image::{flip, ssim, GrayImage, Pyramid};
use illixr_math::{Cholesky, DMatrix, Pose, Qr, Quat, Vec2, Vec3};
use illixr_reconstruction::maps::{normal_map, preprocess_depth, vertex_map, NormalMap, VertexMap};
use illixr_reconstruction::{icp_point_to_plane_gated, TsdfVolume};
use illixr_render::apps::Application;
use illixr_render::raster::Rasterizer;
use illixr_sensors::camera::{PinholeCamera, StereoRig};
use illixr_sensors::dataset::SyntheticDataset;
use illixr_sensors::types::StereoFrame;
use illixr_vio::alternative::{FrameToFrameConfig, FrameToFrameVio};
use illixr_vio::fast::detect_fast;
use illixr_vio::integrator::{propagate, ImuState, Scheme};
use illixr_vio::klt::{track_points, KltParams};
use illixr_vio::msckf::{Msckf, VioConfig};
use illixr_visual::distortion::{DistortionMesh, DistortionParams};
use illixr_visual::hologram::{compute_hologram, HologramConfig};
use illixr_visual::reprojection::{reproject, ReprojectionConfig};

use crate::span::Recorder;

/// Name of the root span.
pub const FRAME: &str = "frame";

/// Child spans of a frame, in call order. Each yields `<name>.p50_us`
/// and `<name>.share`.
pub const CHILDREN: [&str; 26] = [
    "sensors.render_frame",
    "sensors.world_render",
    "vio.process_imu",
    "vio.process_frame",
    "vio.fast_detect",
    "vio.klt_track",
    "vio.propagate_rk4",
    "vio.alt_frame",
    "render.scene_platformer",
    "render.scene_sponza",
    "visual.reproject",
    "visual.distort",
    "visual.hologram",
    "audio.encode",
    "audio.psychoacoustic",
    "audio.binaural",
    "eyetrack.segment",
    "reconstruction.preprocess",
    "reconstruction.tsdf_integrate",
    "reconstruction.icp",
    "image.pyramid",
    "image.ssim",
    "image.flip",
    "dsp.fft_1024",
    "math.cholesky_40",
    "math.qr_40x20",
];

/// The input-dependent children, which also yield `<name>.p95_us`.
pub const TAILED: [&str; 5] = [
    "vio.process_frame",
    "vio.klt_track",
    "render.scene_platformer",
    "render.scene_sponza",
    "reconstruction.icp",
];

/// Eye-buffer edge, pixels (the integrated run's `SystemConfig`).
const EYE: usize = 96;

/// The depth camera of the reconstruction plugin.
const DEPTH_CAM: PinholeCamera =
    PinholeCamera { fx: 95.0, fy: 95.0, cx: 48.0, cy: 36.0, width: 96, height: 72 };

/// Runs the frame loop over `sim_seconds` of the sequence seeded by
/// `seed`. With `spans == false` the same calls run unrecorded; the
/// wall-time difference is the harness's tracing overhead.
pub fn run(seed: u64, sim_seconds: f64, spans: bool) -> (Recorder, f64) {
    let ds = SyntheticDataset::vicon_room_like(seed, sim_seconds);
    let cam = PinholeCamera::qvga();
    let rig = StereoRig::zed_mini(cam);
    let depth_rig = StereoRig::zed_mini(DEPTH_CAM);
    let gt0 = ds.ground_truth[0];
    let init = ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity);
    let mut filter = Msckf::new(VioConfig::fast(cam), init);
    let mut alt = FrameToFrameVio::new(FrameToFrameConfig::default(), rig, init);
    let klt = KltParams::default();

    let mut platformer = Application::Platformer.build(seed);
    let mut sponza = Application::Sponza.build(seed);
    let mut raster = Rasterizer::new(EYE, EYE);
    let fov = 90f64.to_radians();
    let warp = ReprojectionConfig::rotational(fov, 1.0);
    let mesh = DistortionMesh::new(&DistortionParams::default());
    let holo = HologramConfig { iterations: 3, ..HologramConfig::default() };
    let holo_target =
        GrayImage::from_fn(holo.width, holo.height, |x, y| ((x / 8 + y / 8) % 2) as f32);

    let bank = default_ring_bank(48_000.0);
    let mut decoder = BinauralDecoder::new(&bank, 1024);
    let net = SegmentationNet::new();
    let eye = render_eye(&EyeParams::default());
    let mut volume = TsdfVolume::new([32; 3], 0.25, Vec3::splat(-4.0));

    let signal: Vec<Complex> =
        (0..1024).map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0)).collect();
    let spd = {
        let a = DMatrix::from_fn(40, 40, |r, c| ((r * 7 + c * 3) % 13) as f64 - 6.0);
        let mut m = a.mul_transpose(&a);
        for i in 0..40 {
            m[(i, i)] += 40.0;
        }
        m
    };
    let rhs = DMatrix::from_fn(40, 1, |r, _| r as f64);
    let tall = DMatrix::from_fn(40, 20, |r, c| (r as f64 * 0.3 - c as f64).sin());

    let mut rec = Recorder::new(spans);
    let mut imu_idx = 0;
    let mut previous: Option<(GrayImage, Vec<Vec2>)> = None;
    let mut model: Option<(VertexMap, NormalMap, Pose)> = None;
    let started = Instant::now();
    for (k, &cam_t) in ds.camera_times.iter().enumerate() {
        let f = k as u64;
        rec.enter(FRAME, f);
        let pose = ds.ground_truth_pose(cam_t);

        // Sensors.
        let (left, right) = rec.scope("sensors.render_frame", f, || ds.render_frame(&rig, k));
        black_box(rec.scope("sensors.world_render", f, || ds.world.render(&rig, &pose, 0)));
        let first = imu_idx;
        while imu_idx < ds.imu.len() && ds.imu[imu_idx].timestamp <= cam_t {
            imu_idx += 1;
        }
        let window = &ds.imu[first..imu_idx];

        // VIO: the filter, its front-end kernels on the same images,
        // the integrator over the same IMU window, the alternative.
        rec.scope("vio.process_imu", f, || window.iter().for_each(|s| filter.process_imu(*s)));
        let stereo =
            StereoFrame { timestamp: cam_t, left: Arc::new(left), right: Arc::new(right), seq: f };
        black_box(rec.scope("vio.process_frame", f, || filter.process_frame(&stereo, None)));
        let corners = rec.scope("vio.fast_detect", f, || detect_fast(&stereo.left, 0.12, 60, 24));
        let points: Vec<Vec2> = corners.iter().map(|c| Vec2::new(c.x as f64, c.y as f64)).collect();
        if let Some((prev_left, prev_points)) = &previous {
            black_box(rec.scope("vio.klt_track", f, || {
                track_points(prev_left, &stereo.left, prev_points, None, &klt)
            }));
        }
        if let Some(t0) = window.first().map(|s| s.timestamp) {
            let state =
                ImuState::from_pose(t0, ds.ground_truth_pose(t0), ds.trajectory.velocity(t0));
            black_box(rec.scope("vio.propagate_rk4", f, || propagate(&state, window, Scheme::Rk4)));
        }
        black_box(rec.scope("vio.alt_frame", f, || {
            window.iter().for_each(|s| alt.process_imu(*s));
            alt.process_frame(&stereo, None)
        }));

        // Application render, both scenes, then the late-warp path on
        // the Platformer eye buffer.
        let t = cam_t.as_secs_f64();
        black_box(rec.scope("render.scene_sponza", f, || {
            sponza.animate_to(t);
            sponza.render(&mut raster, &pose, fov, 1.0)
        }));
        black_box(rec.scope("render.scene_platformer", f, || {
            platformer.animate_to(t);
            platformer.render(&mut raster, &pose, fov, 1.0)
        }));
        let eye_buffer = raster.framebuffer().clone();
        let display =
            Pose::new(pose.position, pose.orientation * Quat::from_axis_angle(Vec3::UNIT_Y, 0.03));
        let warped =
            rec.scope("visual.reproject", f, || reproject(&eye_buffer, &pose, &display, &warp));
        black_box(rec.scope("visual.distort", f, || mesh.apply(&warped)));
        black_box(rec.scope("visual.hologram", f, || {
            compute_hologram(&[holo_target.clone(), holo_target.clone()], &holo, None)
        }));

        // Audio: one 1024-sample block, encoded, filtered, decoded.
        let mono: Vec<f64> =
            (0..1024).map(|i| ((i + 1024 * k) as f64 * 0.05).sin() * 0.5).collect();
        let field = rec.scope("audio.encode", f, || encode_block(&mono, 0.7, 0.1));
        let filtered =
            rec.scope("audio.psychoacoustic", f, || psychoacoustic_filter(&field, 48_000.0));
        black_box(rec.scope("audio.binaural", f, || decoder.process(&filtered)));

        black_box(rec.scope("eyetrack.segment", f, || net.segment(&eye)));

        // Reconstruction: filter the depth frame, align it against the
        // previous frame's maps from the previous pose, fuse it.
        let depth = ds.world.render_depth(&depth_rig, &pose);
        let clean = rec.scope("reconstruction.preprocess", f, || preprocess_depth(&depth));
        let live = vertex_map(&clean, &DEPTH_CAM);
        if let Some((model_v, model_n, prior)) = &model {
            black_box(rec.scope("reconstruction.icp", f, || {
                icp_point_to_plane_gated(
                    &live,
                    model_v,
                    model_n,
                    DEPTH_CAM.width,
                    prior,
                    10,
                    0.10,
                    0.05,
                )
            }));
        }
        rec.scope("reconstruction.tsdf_integrate", f, || {
            volume.integrate(&clean, &DEPTH_CAM, &pose)
        });
        let normals = normal_map(&live, DEPTH_CAM.width, DEPTH_CAM.height);
        model = Some((live, normals, pose));

        // Image and math kernels the layers above are built from.
        black_box(rec.scope("image.pyramid", f, || Pyramid::new(&stereo.left, 3)));
        black_box(rec.scope("image.ssim", f, || ssim(&depth, &clean)));
        black_box(rec.scope("image.flip", f, || flip(&eye_buffer, &warped)));
        black_box(rec.scope("dsp.fft_1024", f, || {
            let mut buf = signal.clone();
            fft_in_place(&mut buf);
            buf
        }));
        black_box(rec.scope("math.cholesky_40", f, || {
            Cholesky::new(&spd).expect("matrix is positive definite").solve(&rhs)
        }));
        black_box(rec.scope("math.qr_40x20", f, || Qr::new(&tall).expect("full column rank").r()));

        rec.exit();
        let StereoFrame { left, .. } = stereo;
        let left = Arc::try_unwrap(left).unwrap_or_else(|shared| (*shared).clone());
        previous = Some((left, points));
    }
    (rec, started.elapsed().as_secs_f64())
}
