//! The `timewarp` and `hologram` plugins.
//!
//! Timewarp implements the paper's reprojection component: right before
//! each vsync it takes the latest submitted eye buffer (asynchronous
//! dependence on the application) and the freshest pose (asynchronous
//! dependence on the IMU integrator), reprojects, applies lens
//! distortion + chromatic-aberration correction, and publishes the final
//! display frame. It also records the pose age used — the first term of
//! the motion-to-photon latency formula (§III-E).

use std::sync::Arc;

use illixr_core::obs::Metrics;
use illixr_core::plugin::{IterationReport, Plugin, PluginContext};
use illixr_core::switchboard::{AsyncReader, Writer};
use illixr_core::Time;
use illixr_image::RgbImage;
use illixr_render::plugin::{RenderedFrame, EYEBUFFER_STREAM};
use illixr_sensors::types::{streams, PoseEstimate};

use crate::distortion::{DistortionMesh, DistortionParams};
use crate::hologram::{compute_hologram, HologramConfig};
use crate::reprojection::{ReprojectionConfig, WarpMap};

/// Stream carrying final (reprojected + corrected) display frames.
pub const DISPLAY_STREAM: &str = "display";

/// A display-ready frame.
#[derive(Debug, Clone)]
pub struct WarpedFrame {
    /// The corrected left-eye image.
    pub left: Arc<RgbImage>,
    /// The corrected right-eye image.
    pub right: Arc<RgbImage>,
    /// The pose the frame was warped to.
    pub display_pose: PoseEstimate,
    /// Age of that pose when the warp started (the `t_imu_age` term of
    /// the MTP formula).
    pub pose_age: std::time::Duration,
    /// When the warp ran.
    pub warp_time: Time,
}

/// The `timewarp` plugin (reprojection + distortion correction).
pub struct TimewarpPlugin {
    config: ReprojectionConfig,
    mesh: DistortionMesh,
    frame_reader: Option<AsyncReader<RenderedFrame>>,
    pose_reader: Option<AsyncReader<PoseEstimate>>,
    out_writer: Option<Writer<WarpedFrame>>,
    timer: Metrics,
}

impl TimewarpPlugin {
    /// Creates the plugin.
    pub fn new(config: ReprojectionConfig, distortion: DistortionParams) -> Self {
        Self {
            config,
            mesh: DistortionMesh::new(&distortion),
            frame_reader: None,
            pose_reader: None,
            out_writer: None,
            timer: Metrics::new(),
        }
    }

    /// Task-level timing (Table VII instrumentation).
    pub fn task_metrics(&self) -> Metrics {
        self.timer.clone()
    }
}

impl Plugin for TimewarpPlugin {
    fn name(&self) -> &str {
        "timewarp"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.frame_reader = Some(
            ctx.switchboard
                .topic::<RenderedFrame>(EYEBUFFER_STREAM)
                .expect("stream")
                .async_reader(),
        );
        self.pose_reader = Some(
            ctx.switchboard
                .topic::<PoseEstimate>(streams::FAST_POSE)
                .expect("stream")
                .async_reader(),
        );
        self.out_writer =
            Some(ctx.switchboard.topic::<WarpedFrame>(DISPLAY_STREAM).expect("stream").writer());
    }

    fn iterate(&mut self, ctx: &PluginContext) -> IterationReport {
        // FBO / state setup is modeled by the scheduler cost; the real
        // work here is the warp itself.
        let Some(frame) = self.frame_reader.as_ref().expect("started").latest() else {
            return IterationReport::skipped();
        };
        let pose_est = self
            .pose_reader
            .as_ref()
            .expect("started")
            .latest()
            .map(|e| e.data)
            .unwrap_or_else(PoseEstimate::identity);
        let now = ctx.clock.now();
        let pose_age = now - pose_est.timestamp;

        // Both eyes are warped between the same two poses, so where a display
        // pixel reads the eye buffer is computed once and sampled twice.
        let (left, right) = {
            let _g = self.timer.host_scope("reprojection");
            let map_for = |img: &RgbImage| {
                let (render, display) = (&frame.render_pose.pose, &pose_est.pose);
                WarpMap::new(img.width(), img.height(), render, display, &self.config)
            };
            let map = map_for(&frame.left);
            let left = map.sample(&frame.left);
            let right = if map.fits(&frame.right) {
                map.sample(&frame.right)
            } else {
                map_for(&frame.right).sample(&frame.right)
            };
            (left, right)
        };
        let (left, right) = {
            let _g = self.timer.host_scope("distortion+chromatic");
            (Arc::new(self.mesh.apply(&left)), Arc::new(self.mesh.apply(&right)))
        };
        self.out_writer.as_ref().expect("started").put(WarpedFrame {
            left,
            right,
            display_pose: pose_est,
            pose_age,
            warp_time: now,
        });
        IterationReport::nominal()
    }
}

/// Stream marking each computed hologram.
pub(crate) const HOLOGRAM_STREAM: &str = "hologram";

/// Published once per computed hologram.
#[derive(Debug, Clone)]
pub(crate) struct HologramResult;

/// The `hologram` plugin: converts the latest display frame into a
/// two-plane hologram (near = lower half, far = upper half — a crude
/// depth split standing in for real per-pixel depth).
pub struct HologramPlugin {
    config: HologramConfig,
    display_reader: Option<AsyncReader<WarpedFrame>>,
    out_writer: Option<Writer<HologramResult>>,
}

impl HologramPlugin {
    /// Creates the plugin.
    pub fn new(config: HologramConfig) -> Self {
        Self { config, display_reader: None, out_writer: None }
    }
}

impl Plugin for HologramPlugin {
    fn name(&self) -> &str {
        "hologram"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.display_reader = Some(
            ctx.switchboard.topic::<WarpedFrame>(DISPLAY_STREAM).expect("stream").async_reader(),
        );
        self.out_writer = Some(
            ctx.switchboard.topic::<HologramResult>(HOLOGRAM_STREAM).expect("stream").writer(),
        );
    }

    fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
        let Some(frame) = self.display_reader.as_ref().expect("started").latest() else {
            return IterationReport::skipped();
        };
        // Downsample the left eye to hologram resolution and split into
        // two depth planes by image half.
        let (w, h) = (self.config.width, self.config.height);
        let luma = frame.left.to_luma();
        let resized = illixr_image::GrayImage::from_fn(w, h, |x, y| {
            let sx = x as f32 / w as f32 * luma.width() as f32;
            let sy = y as f32 / h as f32 * luma.height() as f32;
            luma.sample_bilinear(sx, sy)
        });
        let near = illixr_image::GrayImage::from_fn(w, h, |x, y| {
            if y >= h / 2 {
                resized.get(x, y)
            } else {
                0.0
            }
        });
        let far =
            illixr_image::GrayImage::from_fn(
                w,
                h,
                |x, y| {
                    if y < h / 2 {
                        resized.get(x, y)
                    } else {
                        0.0
                    }
                },
            );
        // The phase map would drive a holographic display; the testbed has
        // none, so the stream carries only the fact that one was computed.
        compute_hologram(&[near, far], &self.config, None);
        self.out_writer.as_ref().expect("started").put(HologramResult);
        IterationReport::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_core::boundary::fnv1a;
    use illixr_core::plugin::RuntimeBuilder;
    use illixr_core::SimClock;
    use illixr_math::{Pose, Quat, Vec3};

    fn publish_frame(ctx: &PluginContext, t: Time) {
        let img =
            Arc::new(RgbImage::from_fn(64, 64, |x, y| [x as f32 / 64.0, y as f32 / 64.0, 0.5]));
        ctx.switchboard.topic::<RenderedFrame>(EYEBUFFER_STREAM).expect("stream").writer().put(
            RenderedFrame {
                render_pose: PoseEstimate {
                    timestamp: t,
                    pose: Pose::IDENTITY,
                    velocity: Vec3::ZERO,
                },
                submit_time: t,
                left: img.clone(),
                right: img,
            },
        );
    }

    #[test]
    fn timewarp_publishes_corrected_frames_with_pose_age() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let out =
            ctx.switchboard.topic::<WarpedFrame>(DISPLAY_STREAM).expect("stream").sync_reader(8);
        let mut tw = TimewarpPlugin::new(
            ReprojectionConfig::rotational(1.2, 1.0),
            DistortionParams::default(),
        );
        tw.start(&ctx);
        publish_frame(&ctx, Time::from_millis(0));
        ctx.switchboard.topic::<PoseEstimate>(streams::FAST_POSE).expect("stream").writer().put(
            PoseEstimate {
                timestamp: Time::from_millis(14),
                pose: Pose::new(Vec3::ZERO, Quat::from_axis_angle(Vec3::UNIT_Y, 0.05)),
                velocity: Vec3::ZERO,
            },
        );
        clock.advance_to(Time::from_millis(16));
        let report = tw.iterate(&ctx);
        assert!(report.did_work);
        let frame = out.try_recv().unwrap();
        assert_eq!(frame.pose_age, std::time::Duration::from_millis(2));
        assert_eq!(frame.warp_time, Time::from_millis(16));
        assert_eq!(frame.left.width(), 64);
    }

    fn striped_eye(w: usize, h: usize, shift: usize) -> Arc<RgbImage> {
        Arc::new(RgbImage::from_fn(w, h, |x, y| {
            [x as f32 / w as f32, y as f32 / h as f32, ((x + shift + 2 * y) % 7) as f32 / 7.0]
        }))
    }

    fn pin_config() -> ReprojectionConfig {
        ReprojectionConfig::translational(1.2, 1.0, 2.0)
    }

    fn pin_poses() -> (Pose, Pose) {
        (
            Pose::new(Vec3::new(0.1, 1.6, -0.3), Quat::IDENTITY),
            Pose::new(
                Vec3::new(0.12, 1.59, -0.28),
                Quat::from_axis_angle(Vec3::new(0.2, 1.0, 0.1).normalized(), 0.06),
            ),
        )
    }

    /// One translational frame through the plugin, a head turn and a step
    /// between its render and display poses.
    fn warp_one_frame(left: Arc<RgbImage>, right: Arc<RgbImage>) -> WarpedFrame {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let out =
            ctx.switchboard.topic::<WarpedFrame>(DISPLAY_STREAM).expect("stream").sync_reader(8);
        let mut tw = TimewarpPlugin::new(pin_config(), DistortionParams::default());
        tw.start(&ctx);
        let (render, display) = pin_poses();
        ctx.switchboard.topic::<RenderedFrame>(EYEBUFFER_STREAM).expect("stream").writer().put(
            RenderedFrame {
                render_pose: PoseEstimate {
                    timestamp: Time::ZERO,
                    pose: render,
                    velocity: Vec3::ZERO,
                },
                submit_time: Time::ZERO,
                left,
                right,
            },
        );
        ctx.switchboard.topic::<PoseEstimate>(streams::FAST_POSE).expect("stream").writer().put(
            PoseEstimate { timestamp: Time::from_millis(14), pose: display, velocity: Vec3::ZERO },
        );
        clock.advance_to(Time::from_millis(16));
        assert!(tw.iterate(&ctx).did_work);
        out.try_recv().unwrap().data.clone()
    }

    fn digest(img: &RgbImage) -> u64 {
        fnv1a(img.as_slice().iter().flatten().flat_map(|v| v.to_bits().to_le_bytes()))
    }

    /// Taken from the plugin that warped each eye on its own (two
    /// `reproject` calls a frame): FNV-1a over every bit of both corrected
    /// eyes of one frame whose eyes differ.
    #[test]
    fn timewarp_frame_bits_are_pinned_for_both_eyes() {
        let frame = warp_one_frame(striped_eye(96, 96, 0), striped_eye(96, 96, 3));
        let got = [digest(&frame.left), digest(&frame.right)];
        assert_eq!(got, [0xa1f9_fa17_09a3_bd46, 0x9870_db9b_8216_9c64], "got {got:#018x?}");
    }

    /// A right eye of another size gets a map of its own, not the left's.
    #[test]
    fn timewarp_warps_eyes_of_different_sizes_each_through_its_own_map() {
        let (left, right) = (striped_eye(96, 96, 0), striped_eye(64, 48, 3));
        let frame = warp_one_frame(left.clone(), right.clone());
        let mesh = DistortionMesh::new(&DistortionParams::default());
        let (render, display) = pin_poses();
        for (got, eye) in [(&frame.left, &left), (&frame.right, &right)] {
            let map = WarpMap::new(eye.width(), eye.height(), &render, &display, &pin_config());
            let want = mesh.apply(&map.sample(eye));
            assert_eq!((got.width(), got.height()), (eye.width(), eye.height()));
            assert_eq!(digest(got), digest(&want));
        }
    }

    #[test]
    fn timewarp_skips_without_input_frame() {
        let ctx = RuntimeBuilder::new(Arc::new(SimClock::new())).build();
        let mut tw = TimewarpPlugin::new(
            ReprojectionConfig::rotational(1.2, 1.0),
            DistortionParams::default(),
        );
        tw.start(&ctx);
        assert!(!tw.iterate(&ctx).did_work);
    }

    #[test]
    fn timewarp_tasks_are_timed() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let mut tw = TimewarpPlugin::new(
            ReprojectionConfig::rotational(1.2, 1.0),
            DistortionParams::default(),
        );
        tw.start(&ctx);
        publish_frame(&ctx, Time::ZERO);
        tw.iterate(&ctx);
        let names: Vec<String> = tw.task_metrics().shares().into_iter().map(|(n, _)| n).collect();
        assert!(names.iter().any(|n| n == "reprojection"));
        assert!(names.iter().any(|n| n == "distortion+chromatic"));
    }

    #[test]
    fn hologram_plugin_consumes_display_frames() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let mut tw = TimewarpPlugin::new(
            ReprojectionConfig::rotational(1.2, 1.0),
            DistortionParams::default(),
        );
        let mut holo = HologramPlugin::new(HologramConfig {
            width: 32,
            height: 32,
            iterations: 3,
            ..Default::default()
        });
        tw.start(&ctx);
        holo.start(&ctx);
        assert!(!holo.iterate(&ctx).did_work); // nothing displayed yet
        publish_frame(&ctx, Time::ZERO);
        tw.iterate(&ctx);
        let report = holo.iterate(&ctx);
        assert!(report.did_work);
        let reader = ctx
            .switchboard
            .topic::<HologramResult>(HOLOGRAM_STREAM)
            .expect("stream")
            .async_reader();
        assert!(reader.latest().is_some());
    }
}
