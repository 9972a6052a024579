//! The rows that make no integrated run: the analytical model (Fig 8),
//! the parameters (Table III), image quality (Table V), the host-timed
//! standalone components (Tables VI–VII) and three component ablations.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use illixr_audio::plugins::{AudioEncodingPlugin, AudioPlaybackPlugin};
use illixr_bench::{component_op_mixes, Report};
use illixr_core::link::LinkProfile;
use illixr_core::obs::Metrics;
use illixr_core::plugin::{Plugin, RuntimeBuilder};
use illixr_core::{Clock, SimClock, Time};
use illixr_image::{flip, ssim, GrayImage, RgbImage};
use illixr_math::{Pose, Vec3};
use illixr_platform::spec::Platform;
use illixr_platform::uarch::UarchModel;
use illixr_qoe::ate::absolute_trajectory_error;
use illixr_qoe::report::{format_row, MeanStd};
use illixr_reconstruction::pipeline::ScenePipeline;
use illixr_render::apps::Application;
use illixr_render::plugin::{RenderedFrame, EYEBUFFER_STREAM};
use illixr_render::raster::Rasterizer;
use illixr_sensors::camera::{PinholeCamera, StereoRig};
use illixr_sensors::dataset::SyntheticDataset;
use illixr_sensors::plugins::OfflineImuCameraPlugin;
use illixr_sensors::trajectory::Trajectory;
use illixr_sensors::types::{streams, CameraFrame, ImuSample, PoseEstimate};
use illixr_sensors::world::LandmarkWorld;
use illixr_system::config::SystemConfig;
use illixr_system::experiment::{image_quality, ImageQualityResult};
use illixr_system::offload::{OffloadLink, OffloadedPlugin};
use illixr_vio::integrator::ImuState;
use illixr_vio::msckf::{Msckf, VioConfig};
use illixr_vio::plugins::{ImuIntegratorPlugin, VioPlugin};
use illixr_visual::distortion::DistortionParams;
use illixr_visual::hologram::{compute_hologram, HologramConfig};
use illixr_visual::plugins::TimewarpPlugin;
use illixr_visual::reprojection::{reproject, ReprojectionConfig};

use crate::Context;

/// Fig 8: IPC and top-down cycle breakdown (retiring / bad speculation /
/// frontend bound / backend bound) per component, from the analytical
/// microarchitecture model over the hand-derived op-mix profiles.
pub fn fig8(_: &mut Context, out: &mut Report) -> io::Result<()> {
    out.line("Fig 8: cycle breakdown and IPC per component (analytical model)");
    out.line("(paper: IPC spans 0.3 (reprojection, frontend-bound driver code) to 3.5");
    out.line(" (audio playback, 86 % retiring); top-down identity retiring = IPC/4)\n");
    out.line(format_args!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>6}",
        "component", "retiring", "bad-spec", "frontend", "backend", "IPC"
    ));
    out.rule(16 + 10 * 4 + 7);
    let model = UarchModel::new();
    let rows: Vec<_> =
        component_op_mixes().into_iter().map(|(name, mix)| (name, model.evaluate(&mix))).collect();
    for (name, b) in &rows {
        out.line(format_args!(
            "{name:<16} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>6.2}",
            b.retiring * 100.0,
            b.bad_speculation * 100.0,
            b.frontend_bound * 100.0,
            b.backend_bound * 100.0,
            b.ipc
        ));
    }
    out.line("");

    let of = |name: &str| &rows.iter().find(|r| r.0 == name).expect("a Fig 8 component").1;
    let (reproj, playback) = (of("Reproj."), of("Audio Playback"));
    out.claim(&[
        (
            "ipc_extremes_reproj_playback",
            rows.iter().all(|r| (reproj.ipc..=playback.ipc).contains(&r.1.ipc)),
        ),
        (
            "reprojection_frontend_bound",
            reproj.frontend_bound > reproj.backend_bound.max(reproj.retiring),
        ),
        (
            "retiring_is_ipc_over_4",
            rows.iter().all(|r| (r.1.retiring - r.1.ipc / 4.0).abs() < 1e-9),
        ),
    ]);
    Ok(())
}

/// Table III: the tuned system-level parameters.
pub fn table3(_: &mut Context, out: &mut Report) -> io::Result<()> {
    let c = SystemConfig::default();
    out.line("Table III: key ILLIXR parameters after system-level tuning");
    out.rule(66);
    out.line(format_args!("{:<28} {:>14} {:>14}", "parameter", "tuned", "deadline"));
    out.rule(66);
    let hz = |rate: f64| format!("{rate} Hz");
    let ms = |period: Duration, digits| format!("{:.digits$} ms", period.as_secs_f64() * 1e3);
    for (parameter, tuned, deadline) in [
        ("Camera (VIO) rate", hz(c.camera_hz), ms(c.camera_period(), 1)),
        ("IMU (integrator) rate", hz(c.imu_hz), ms(c.imu_period(), 1)),
        ("Display rate", hz(c.display_hz), ms(c.display_period(), 2)),
        ("Audio block rate", hz(c.audio_hz), ms(c.audio_period(), 1)),
        ("Audio block size", c.audio_block.to_string(), "-".into()),
        ("Field of view", format!("{}°", c.fov_deg), "-".into()),
        ("Eye buffer (simulated)", format!("{}x{}", c.eye_width, c.eye_height), "-".into()),
    ] {
        out.line(format_args!("{parameter:<28} {tuned:>14} {deadline:>14}"));
    }
    out.line("\n(paper Table III: camera 15 Hz/VGA, IMU 500 Hz, display 120 Hz/2K/90°,");
    out.line(" audio 48 Hz blocks of 1024 — identical tuned values; the simulation");
    out.line(" renders smaller eye buffers and charges 2K cost via the timing model)\n");
    out.claim(&[(
        "tuned_parameters_match_paper",
        (c.camera_hz, c.imu_hz, c.display_hz, c.audio_hz, c.audio_block, c.fov_deg)
            == (15.0, 500.0, 120.0, 48.0, 1024, 90.0),
    )]);
    Ok(())
}

/// Table V: SSIM and 1−FLIP for Sponza on every platform — the actual
/// system (VIO poses with platform-induced drops and staleness) against
/// the idealized one (ground-truth poses).
pub fn table5(_: &mut Context, out: &mut Report) -> io::Result<()> {
    out.line("Table V: image quality (mean±std) for Sponza, actual vs idealized");
    out.line("(paper: SSIM 0.83→0.68 and 1−FLIP 0.86→0.65 from Desktop to Jetson-LP)\n");
    out.line(format_row("", &Platform::ALL.map(|p| p.label().to_owned()), 10, 12));
    out.rule(10 + 13 * 3);
    let results = Platform::ALL.map(|p| image_quality(Application::Sponza, p, 42, 8.0));
    out.line(format_row("SSIM", &results.map(|r| format!("{:.2}", r.ssim)), 10, 12));
    out.line(format_row("1-FLIP", &results.map(|r| format!("{:.2}", r.one_minus_flip)), 10, 12));
    let drops = results.map(|r| format!("{:.0}%", r.vio_drop_rate * 100.0));
    out.line(format_row("VIO drops", &drops, 10, 12));

    let [desktop, hp, lp] = results;
    let falls = |metric: fn(&ImageQualityResult) -> f64| {
        metric(&desktop) >= metric(&hp) && metric(&hp) >= metric(&lp)
    };
    out.claim(&[
        (
            "quality_monotone_with_platform",
            falls(|r| r.ssim.mean) && falls(|r| r.one_minus_flip.mean),
        ),
        ("jetson_lp_vio_drops_most_frames", lp.vio_drop_rate > 0.25 && hp.vio_drop_rate < 0.05),
    ]);
    Ok(())
}

/// One Table VI/VII block: the measured share of each named task (from
/// the component's host-time task histograms) beside the paper's.
fn task_shares(
    out: &mut Report,
    title: &str,
    name_width: usize,
    paper: &[(&str, f64)],
    tasks: &Metrics,
) {
    out.line(format_args!("\n{title}"));
    out.rule(name_width + 34);
    out.line(format_args!("{:<name_width$} {:>10} {:>10}", "task", "measured", "paper"));
    let shares = tasks.shares();
    for (task, paper_share) in paper {
        let measured = shares.iter().find(|(n, _)| n == task).map_or(0.0, |(_, s)| *s * 100.0);
        out.line(format_args!("{task:<name_width$} {measured:>9.1}% {paper_share:>9.0}%"));
    }
}

/// A fresh MSCKF at the dataset's first ground-truth state.
fn filter_at_start(config: VioConfig, ds: &SyntheticDataset) -> Msckf {
    let gt0 = &ds.ground_truth[0];
    Msckf::new(config, ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity))
}

/// Table VI: task-level time breakdown of VIO and scene reconstruction,
/// from the instrumented standalone components. Host-timed.
pub fn table6(_: &mut Context, out: &mut Report) -> io::Result<()> {
    const NAME_WIDTH: usize = 26;
    out.line("Table VI: task breakdown of VIO and scene reconstruction");

    let cam = PinholeCamera::qvga();
    let rig = StereoRig::zed_mini(cam);
    let ds = SyntheticDataset::vicon_room_like(42, 10.0);
    let mut filter = filter_at_start(VioConfig::accurate(cam), &ds);
    let vio_timer = Metrics::new();
    for (imu, frame) in ds.replay(&rig) {
        imu.iter().for_each(|&s| filter.process_imu(s));
        filter.process_frame(&frame.stereo(), Some(&vio_timer));
    }
    task_shares(
        out,
        "VIO (OpenVINS-style MSCKF, Vicon-Room-like synthetic sequence)",
        NAME_WIDTH,
        &[
            ("feature detection", 15.0),
            ("feature matching", 13.0),
            ("feature initialization", 14.0),
            ("MSCKF update", 23.0),
            ("SLAM update", 20.0),
            ("marginalization", 5.0),
            ("other", 10.0),
        ],
        &vio_timer,
    );
    out.line(
        "  note: all seven tasks present; matching (two Gaussian pyramids and two \
         pyramidal KLT passes a frame) stays the largest share because the back end \
         here is a small dense filter, 10 clones and at most 70 features, where \
         OpenVINS spends 57% of a frame initializing and updating (see EXPERIMENTS.md)",
    );

    let world = LandmarkWorld::lab(7);
    let traj = Trajectory::gentle(7);
    let scene_cam = PinholeCamera { fx: 95.0, fy: 95.0, cx: 48.0, cy: 36.0, width: 96, height: 72 };
    let scene_rig = StereoRig::zed_mini(scene_cam);
    let mut pipe = ScenePipeline::elastic_fusion_like(scene_cam, traj.pose(Time::ZERO));
    let scene_timer = Metrics::new();
    for k in 0..40u64 {
        let t = Time::from_millis(k * 100);
        let depth = world.render_depth(&scene_rig, &traj.pose(t));
        pipe.process(&depth, Some(&scene_timer));
    }
    task_shares(
        out,
        "Scene reconstruction (ElasticFusion-style surfel pipeline, dyson_lab-like scene)",
        NAME_WIDTH,
        &[
            ("camera processing", 5.0),
            ("image processing", 18.0),
            ("pose estimation", 28.0),
            ("surfel prediction", 34.0),
            ("map fusion", 15.0),
        ],
        &scene_timer,
    );
    out.line(
        "  note: all five tasks present; the bilateral filter (49 taps a pixel, each a \
         division and a table lookup, swept a row at a time) stays relatively more \
         expensive on a CPU than ElasticFusion's CUDA kernel (see EXPERIMENTS.md)",
    );
    Ok(())
}

/// Table VII: task breakdowns of reprojection, hologram, audio encoding
/// and playback, from the instrumented standalone components. Host-timed.
pub fn table7(_: &mut Context, out: &mut Report) -> io::Result<()> {
    const NAME_WIDTH: usize = 28;
    out.line("Table VII: task breakdown of visual and audio pipeline components");

    // Drive the timewarp plugin on 2K-aspect frames (scaled down).
    let clock = SimClock::new();
    let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
    let mut tw =
        TimewarpPlugin::new(ReprojectionConfig::rotational(1.57, 1.0), DistortionParams::default());
    tw.start(&ctx);
    let img = Arc::new(RgbImage::from_fn(256, 256, |x, y| {
        [(x % 37) as f32 / 37.0, (y % 23) as f32 / 23.0, ((x ^ y) % 11) as f32 / 11.0]
    }));
    ctx.switchboard.topic::<RenderedFrame>(EYEBUFFER_STREAM).expect("stream").writer().put(
        RenderedFrame {
            render_pose: PoseEstimate::identity(),
            submit_time: Time::ZERO,
            left: img.clone(),
            right: img,
        },
    );
    for k in 0..20u64 {
        clock.advance_to(Time::from_millis(8 * (k + 1)));
        tw.iterate(&ctx);
    }
    task_shares(
        out,
        "Reprojection (VR Museum-like 2K-aspect frames)",
        NAME_WIDTH,
        &[("reprojection", 22.0), ("distortion+chromatic", 0.0)],
        &tw.task_metrics(),
    );
    out.line(
        "  note: paper's other 78% is GPU-driver work (FBO 24%, OpenGL state 54%) that a \
         CPU reimplementation has no analogue for; the uarch model charges it in fig8. \
         Both eyes are sampled through one warp map that stores each pixel's bilinear \
         axis terms, and the distortion pass reads taps it cached for the frame size, so \
         building the map once a frame is most of the reprojection share",
    );

    let holo_timer = Metrics::new();
    let cfg = HologramConfig::default();
    let checker = |x: usize, y: usize| if (x / 8 + y / 8).is_multiple_of(2) { 1.0 } else { 0.0 };
    let t0 = GrayImage::from_fn(cfg.width, cfg.height, checker);
    let t1 = GrayImage::from_fn(cfg.width, cfg.height, |x, _| {
        (x as f32 / cfg.width as f32 * 6.0).sin().max(0.0)
    });
    for _ in 0..3 {
        compute_hologram(&[t0.clone(), t1.clone()], &cfg, Some(&holo_timer));
    }
    task_shares(
        out,
        "Hologram (weighted Gerchberg-Saxton, 2 depth planes)",
        NAME_WIDTH,
        &[("hologram-to-depth", 57.0), ("sum", 0.0), ("depth-to-hologram", 43.0)],
        &holo_timer,
    );

    let ctx2 = RuntimeBuilder::new(Arc::new(SimClock::new())).build();
    let mut enc = AudioEncodingPlugin::with_default_scene(42);
    enc.start(&ctx2);
    for _ in 0..50 {
        enc.iterate(&ctx2);
    }
    task_shares(
        out,
        "Audio encoding (2 sources, 48 kHz, 1024-sample blocks)",
        NAME_WIDTH,
        &[("normalization", 7.0), ("encoding", 81.0), ("summation", 12.0)],
        &enc.task_metrics(),
    );

    let mut play = AudioPlaybackPlugin::new();
    play.start(&ctx2);
    for _ in 0..50 {
        enc.iterate(&ctx2);
        play.iterate(&ctx2);
    }
    task_shares(
        out,
        "Audio playback (8 virtual speakers, HRTF binauralization)",
        NAME_WIDTH,
        &[
            ("psychoacoustic filter", 29.0),
            ("rotation", 6.0),
            ("zoom", 5.0),
            ("binauralization", 60.0),
        ],
        &play.task_metrics(),
    );
    Ok(())
}

/// §V-E ablation: the VIO accuracy / performance trade-off between the
/// fast and accurate [`VioConfig`] presets. The ATE column is
/// deterministic; the per-frame cost is host wall time.
pub fn ablation_vio(_: &mut Context, out: &mut Report) -> io::Result<()> {
    out.line("§V-E ablation: VIO accuracy vs per-frame cost");
    out.line("(paper: ATE 8.1 cm → 4.9 cm at 1.5× the per-frame execution time;");
    out.line(" end-to-end, the cheap setting was sufficient)");
    out.line("(setup: feature-rich world, 4× IMU noise so visual corrections");
    out.line(" dominate; results averaged over 6 seeds — single sequences are");
    out.line(" luck-dominated at these error magnitudes)\n");
    let cam = PinholeCamera::qvga();
    let rig = StereoRig::zed_mini(cam);
    let mut cheap = VioConfig::fast(cam);
    cheap.frontend.max_features = 15;
    cheap.window_size = 4;
    let mut rich = VioConfig::accurate(cam);
    rich.frontend.max_features = 50;
    rich.window_size = 8;

    let seeds = [1u64, 7, 13, 42, 55, 99];
    // (name, mean ATE in cm, mean ms per frame)
    let mut rows = [("cheap (15 feat, win 4)", 0.0, 0.0), ("rich (50 feat, win 8)", 0.0, 0.0)];
    for &seed in &seeds {
        let ds = SyntheticDataset::generate(
            Trajectory::walking(seed),
            LandmarkWorld::new(700, Vec3::new(4.0, 2.5, 4.0), seed),
            illixr_sensors::imu::ImuNoise {
                gyro_noise_density: 4e-3,
                accel_noise_density: 8e-3,
                gyro_bias_walk: 5e-5,
                accel_bias_walk: 4e-4,
            },
            8.0,
            15.0,
            500.0,
            seed,
        );
        for (row, config) in rows.iter_mut().zip([cheap, rich]) {
            let mut filter = filter_at_start(config, &ds);
            let mut est = Vec::new();
            let mut gt: Vec<Pose> = Vec::new();
            let mut total = Duration::ZERO;
            for (imu, frame) in ds.replay(&rig) {
                imu.iter().for_each(|&s| filter.process_imu(s));
                let frame = frame.stereo();
                let start = Instant::now();
                let output = filter.process_frame(&frame, None);
                total += start.elapsed();
                est.push(output.state.pose);
                gt.push(ds.ground_truth_pose(frame.timestamp));
            }
            let ate_cm =
                absolute_trajectory_error(&est, &gt).expect("non-empty trajectory") * 100.0;
            row.1 += ate_cm / seeds.len() as f64;
            row.2 += total.as_secs_f64() * 1e3 / ds.camera_times.len() as f64 / seeds.len() as f64;
        }
    }
    out.line(format_args!("{:<28} {:>14} {:>16}", "config", "mean ATE (cm)", "ms/frame (wall)"));
    out.rule(60);
    for (name, ate_cm, mean_frame_ms) in rows {
        out.line(format_args!("{name:<28} {ate_cm:>14.1} {mean_frame_ms:>16.2}"));
    }
    let [(_, cheap_ate, cheap_ms), (_, rich_ate, rich_ms)] = rows;
    let cost_ratio = rich_ms / cheap_ms.max(1e-9);
    let err_ratio = cheap_ate / rich_ate.max(1e-9);
    out.line(format_args!(
        "\nrich costs {cost_ratio:.2}x per frame for {err_ratio:.2}x lower mean error"
    ));
    out.line("(paper: 1.5x cost for 1.65x lower error — and the system-level insight");
    out.line(" that the cheap setting tracked well enough end-to-end holds here too)");
    out.claim(&[("rich_config_lowers_ate", rich_ate < cheap_ate)]);
    Ok(())
}

/// Mean slow-pose age (ms) and fast-pose error (cm) with VIO local
/// (`None`) or behind `link`.
fn offload_run(link: Option<OffloadLink>) -> (f64, f64) {
    let clock = SimClock::new();
    let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
    let ds = Arc::new(SyntheticDataset::vicon_room_like(42, 6.0));
    let cam = PinholeCamera::qvga();
    let rig = StereoRig::zed_mini(cam);
    let gt0 = &ds.ground_truth[0];
    let init = ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity);

    let mut source = OfflineImuCameraPlugin::new(ds.clone(), rig);
    let vio = VioPlugin::new(VioConfig::fast(cam), init);
    let mut vio: Box<dyn Plugin> = match link {
        Some(link) => Box::new(
            OffloadedPlugin::new(Box::new(vio), link)
                .uplink::<CameraFrame>(streams::CAMERA)
                .uplink::<ImuSample>(streams::IMU)
                .downlink::<PoseEstimate>(streams::SLOW_POSE),
        ),
        None => Box::new(vio),
    };
    let mut integ = ImuIntegratorPlugin::new(init);
    source.start(&ctx);
    vio.start(&ctx);
    integ.start(&ctx);
    let slow =
        ctx.switchboard.topic::<PoseEstimate>(streams::SLOW_POSE).expect("stream").async_reader();
    let fast =
        ctx.switchboard.topic::<PoseEstimate>(streams::FAST_POSE).expect("stream").async_reader();

    let mut age_sum = 0.0;
    let mut age_n = 0;
    let mut err_sum = 0.0;
    let mut err_n = 0;
    // Tick at the IMU-integrator cadence scaled to 10 ms for speed.
    let steps = 600;
    for k in 1..steps {
        clock.advance_to(Time::from_millis(k * 10));
        source.iterate(&ctx);
        vio.iterate(&ctx);
        integ.iterate(&ctx);
        if k > 30 {
            if let Some(p) = slow.latest() {
                age_sum += (clock.now() - p.timestamp).as_secs_f64() * 1e3;
                age_n += 1;
            }
            if let Some(p) = fast.latest() {
                let truth = ds.ground_truth_pose(p.timestamp);
                err_sum += p.pose.translation_distance(&truth) * 100.0;
                err_n += 1;
            }
        }
    }
    (age_sum / age_n.max(1) as f64, err_sum / err_n.max(1) as f64)
}

/// Offloading ablation (paper footnote 2 / §V-F): VIO local vs behind
/// modeled network links, and what the added latency does to pose
/// freshness and tracking error.
pub fn ablation_offload(_: &mut Context, out: &mut Report) -> io::Result<()> {
    out.line("Offloading ablation: VIO local vs on an edge server (§V-F)");
    out.line("(the perception pipeline is unchanged — only the VIO plugin moves");
    out.line(" behind a network link; the IMU integrator keeps compensating)\n");
    // The edge rows use the shared [`LinkProfile`] presets (propagation
    // latency and jitter; the point-to-point pipe models no bandwidth);
    // the last row keeps a custom far-cloud link built directly. Rows
    // are in round-trip-time order.
    let rows = [
        ("local", None),
        ("edge, lan", Some(OffloadLink::from_profile(LinkProfile::lan(), 7))),
        ("edge, wifi", Some(OffloadLink::from_profile(LinkProfile::wifi(), 7))),
        ("edge, cellular_5g", Some(OffloadLink::from_profile(LinkProfile::cellular_5g(), 7))),
        (
            "cloud, 120 ms RTT + jitter",
            Some(OffloadLink::symmetric(Duration::from_millis(60)).with_jitter(0.3, 7)),
        ),
    ]
    .map(|(label, link)| (label, offload_run(link)));
    out.line(format_args!(
        "{:<28} {:>18} {:>16}",
        "placement", "slow-pose age (ms)", "fast err (cm)"
    ));
    out.rule(64);
    for (label, (slow_pose_age_ms, fast_err_cm)) in &rows {
        out.line(format_args!("{label:<28} {slow_pose_age_ms:>18.1} {fast_err_cm:>16.1}"));
    }
    out.line("\nThe integrator hides moderate link latency (fast-pose error grows");
    out.line("slowly), while the slow-pose age grows with the RTT — the trade space");
    out.line("device–edge partitioning research explores.");

    let grows = |v: [f64; 5]| v.windows(2).all(|w| w[0] <= w[1]) && v[0] < v[4];
    out.claim(&[
        ("pose_age_grows_with_rtt", grows(rows.map(|r| r.1 .0))),
        ("fast_pose_error_grows_with_rtt", grows(rows.map(|r| r.1 .1))),
    ]);
    Ok(())
}

/// Timewarp ablation: what the translational term (§II-A footnote) buys
/// over rotational-only reprojection. A frame rendered at a stale pose is
/// warped to the fresh pose with both variants, and each is compared
/// against the image a zero-latency system would have shown.
pub fn ablation_timewarp(_: &mut Context, out: &mut Report) -> io::Result<()> {
    out.line("Timewarp ablation: rotational vs rotational+translational reprojection");
    out.line("(frames rendered one display period stale, warped to the fresh pose,");
    out.line(" compared against a zero-latency render; Materials scene, walking motion)\n");

    let mut scene = Application::Materials.build(11);
    let trajectory = Trajectory::walking(11);
    let (w, h) = (96, 96);
    let fov = 1.3;
    let rot_cfg = ReprojectionConfig::rotational(fov, 1.0);
    let trans_cfg = ReprojectionConfig::translational(fov, 1.0, 3.0);
    let mut raster = Rasterizer::new(w, h);
    // View offset so the gallery is in frame.
    let offset = Vec3::new(0.0, 1.2, 4.0);

    // Per staleness level: [SSIM rot, SSIM rot+trans, 1−FLIP rot, 1−FLIP rot+trans].
    let mut rows: Vec<(f64, [MeanStd; 4])> = Vec::new();
    for staleness_ms in [8.3f64, 33.0, 66.0] {
        let mut samples: [Vec<f64>; 4] = Default::default();
        for k in 0..10u64 {
            let t_display = 0.5 + k as f64 * 0.37;
            let t_render = t_display - staleness_ms / 1e3;
            let mut pose_render = trajectory.pose(Time::from_secs_f64(t_render));
            let mut pose_display = trajectory.pose(Time::from_secs_f64(t_display));
            pose_render.position += offset;
            pose_display.position += offset;
            scene.animate_to(t_display);

            let mut render_at = |pose: &Pose| {
                scene.render(&mut raster, pose, fov, 1.0);
                raster.take_framebuffer()
            };
            let stale = render_at(&pose_render);
            let truth = render_at(&pose_display);
            let rot = reproject(&stale, &pose_render, &pose_display, &rot_cfg);
            let trans = reproject(&stale, &pose_render, &pose_display, &trans_cfg);
            samples[0].push(ssim(&truth.to_luma(), &rot.to_luma()) as f64);
            samples[1].push(ssim(&truth.to_luma(), &trans.to_luma()) as f64);
            samples[2].push(1.0 - flip(&truth, &rot) as f64);
            samples[3].push(1.0 - flip(&truth, &trans) as f64);
        }
        rows.push((staleness_ms, samples.map(|s| MeanStd::of(&s).expect("ten samples"))));
    }

    let columns = ["SSIM rot", "SSIM rot+trans", "1-FLIP rot", "1-FLIP rot+trans"];
    out.line(format_row("staleness", &columns.map(str::to_owned), 14, 16));
    out.rule(84);
    for (ms, stats) in &rows {
        out.line(format_row(&format!("{ms:.1} ms"), &stats.map(|s| format!("{s:.3}")), 14, 16));
    }
    out.line("\nRotational warp corrects head rotation only; adding the translational");
    out.line("term recovers parallax, and its advantage grows with frame staleness —");
    out.line("why the paper's later versions added it.");

    let ssim_gain: Vec<f64> = rows.iter().map(|(_, s)| s[1].mean - s[0].mean).collect();
    let flip_gain: Vec<f64> = rows.iter().map(|(_, s)| s[3].mean - s[2].mean).collect();
    let grows = |gain: &[f64]| gain.windows(2).all(|w| w[0] < w[1]);
    out.claim(&[
        ("translational_gain_grows_with_staleness", grows(&ssim_gain) && grows(&flip_gain)),
        (
            "translational_wins_beyond_one_frame",
            ssim_gain[1..].iter().chain(&flip_gain[1..]).all(|g| *g > 0.0),
        ),
    ]);
    Ok(())
}
