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
use crate::reprojection::{reproject, ReprojectionConfig};

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

        let warp = |img: &RgbImage| {
            let warped = {
                let _g = self.timer.host_scope("reprojection");
                reproject(img, &frame.render_pose.pose, &pose_est.pose, &self.config)
            };
            let _g = self.timer.host_scope("distortion+chromatic");
            self.mesh.apply(&warped)
        };
        let left = Arc::new(warp(&frame.left));
        let right = Arc::new(warp(&frame.right));
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

/// Stream carrying hologram quality diagnostics.
pub const HOLOGRAM_STREAM: &str = "hologram";

/// Published hologram diagnostics.
#[derive(Debug, Clone)]
pub struct HologramResult {
    /// Per-plane reconstruction correlation.
    pub plane_correlation: Vec<f64>,
}

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
        let holo = compute_hologram(&[near, far], &self.config, None);
        self.out_writer
            .as_ref()
            .expect("started")
            .put(HologramResult { plane_correlation: holo.plane_correlation });
        IterationReport::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let result = ctx
            .switchboard
            .topic::<HologramResult>(HOLOGRAM_STREAM)
            .expect("stream")
            .async_reader()
            .latest()
            .unwrap();
        assert_eq!(result.plane_correlation.len(), 2);
    }
}
