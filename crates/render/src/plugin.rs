//! The `application` plugin: the game-engine stand-in.
//!
//! Samples the freshest `fast_pose` (asynchronous dependence, Fig 2),
//! renders left/right eye buffers and submits them on the `eyebuffer`
//! stream — exactly the role a Godot application plays above the OpenXR
//! interface in the paper. Reprojection later warps these buffers to an
//! even fresher pose.

use std::sync::Arc;

use illixr_core::plugin::{IterationReport, Plugin, PluginContext};
use illixr_core::switchboard::{AsyncReader, Writer};
use illixr_core::Time;
use illixr_image::RgbImage;
use illixr_math::Vec3;
use illixr_sensors::types::{streams, PoseEstimate};

use crate::apps::{AppScene, Application};
use crate::raster::Rasterizer;

/// Stream carrying submitted eye buffers.
pub const EYEBUFFER_STREAM: &str = "eyebuffer";

/// Interpupillary distance, meters.
pub const IPD: f64 = 0.064;

/// A stereo frame submitted by the application.
#[derive(Debug, Clone)]
pub struct RenderedFrame {
    /// The pose the frame was rendered with (its timestamp is the pose's
    /// sensor time — reprojection uses this to compute staleness).
    pub render_pose: PoseEstimate,
    /// When rendering finished (frame submission time).
    pub submit_time: Time,
    /// Left eye buffer.
    pub left: Arc<RgbImage>,
    /// Right eye buffer.
    pub right: Arc<RgbImage>,
}

/// The plugin.
pub struct ApplicationPlugin {
    scene: AppScene,
    raster: Rasterizer,
    eye_width: usize,
    eye_height: usize,
    fov_y: f64,
    pose_reader: Option<AsyncReader<PoseEstimate>>,
    frame_writer: Option<Writer<RenderedFrame>>,
    nominal_fragments: f64,
}

impl ApplicationPlugin {
    /// Creates the plugin for `app` with per-eye resolution
    /// `eye_width × eye_height`.
    pub fn new(app: Application, seed: u64, eye_width: usize, eye_height: usize) -> Self {
        Self {
            scene: app.build(seed),
            raster: Rasterizer::new(eye_width, eye_height),
            eye_width,
            eye_height,
            fov_y: 1.57, // ~90° (paper Table III field-of-view 90)
            pose_reader: None,
            frame_writer: None,
            nominal_fragments: (eye_width * eye_height) as f64,
        }
    }
}

impl Plugin for ApplicationPlugin {
    fn name(&self) -> &str {
        "application"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.pose_reader = Some(
            ctx.switchboard
                .topic::<PoseEstimate>(streams::FAST_POSE)
                .expect("stream")
                .async_reader(),
        );
        self.frame_writer = Some(
            ctx.switchboard.topic::<RenderedFrame>(EYEBUFFER_STREAM).expect("stream").writer(),
        );
    }

    fn iterate(&mut self, ctx: &PluginContext) -> IterationReport {
        // Asynchronous pose read: freshest available estimate; render
        // with identity until tracking comes up.
        let pose_est = self
            .pose_reader
            .as_ref()
            .expect("start() must run before iterate()")
            .latest()
            .map(|e| e.data)
            .unwrap_or_else(PoseEstimate::identity);
        let now = ctx.clock.now();
        self.scene.animate_to(now.as_secs_f64());
        let aspect = self.eye_width as f64 / self.eye_height as f64;

        let render_eye = |offset: f64, raster: &mut Rasterizer| {
            let mut eye_pose = pose_est.pose;
            eye_pose.position = pose_est.pose.transform_point(Vec3::new(offset, 0.0, 0.0));
            self.scene.render(raster, &eye_pose, self.fov_y, aspect)
        };
        let stats_l = render_eye(-IPD / 2.0, &mut self.raster);
        let left = Arc::new(self.raster.take_framebuffer());
        let stats_r = render_eye(IPD / 2.0, &mut self.raster);
        let right = Arc::new(self.raster.take_framebuffer());

        self.frame_writer.as_ref().expect("start() must run before iterate()").put(RenderedFrame {
            render_pose: pose_est,
            submit_time: now,
            left,
            right,
        });
        // Work factor: scene-dependent base cost plus view-dependent
        // fill-rate variation.
        let frag_factor =
            (stats_l.fragments + stats_r.fragments) as f64 / (2.0 * self.nominal_fragments);
        let work = self.scene.application().render_cost_factor() * (0.7 + 0.6 * frag_factor);
        IterationReport::with_work(work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_core::plugin::RuntimeBuilder;
    use illixr_core::SimClock;
    use illixr_math::{Pose, Quat};

    #[test]
    fn renders_and_submits_stereo_frames() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let frames = ctx
            .switchboard
            .topic::<RenderedFrame>(EYEBUFFER_STREAM)
            .expect("stream")
            .sync_reader(8);
        let pose_writer =
            ctx.switchboard.topic::<PoseEstimate>(streams::FAST_POSE).expect("stream").writer();
        let mut plugin = ApplicationPlugin::new(Application::ArDemo, 1, 64, 64);
        plugin.start(&ctx);
        pose_writer.put(PoseEstimate {
            timestamp: Time::from_millis(10),
            pose: Pose::new(Vec3::new(0.0, 1.6, 2.0), Quat::IDENTITY),
            velocity: Vec3::ZERO,
        });
        clock.advance_to(Time::from_millis(16));
        let report = plugin.iterate(&ctx);
        assert!(report.did_work);
        let frame = frames.try_recv().expect("frame submitted");
        assert_eq!(frame.render_pose.timestamp, Time::from_millis(10));
        assert_eq!(frame.submit_time, Time::from_millis(16));
        assert_eq!(frame.left.width(), 64);
        // Stereo parallax: the two eyes differ.
        assert!(frame.left.mean_abs_diff(&frame.right) > 1e-5);
    }

    #[test]
    fn renders_identity_pose_before_tracking() {
        let ctx = RuntimeBuilder::new(Arc::new(SimClock::new())).build();
        let frames = ctx
            .switchboard
            .topic::<RenderedFrame>(EYEBUFFER_STREAM)
            .expect("stream")
            .sync_reader(8);
        let mut plugin = ApplicationPlugin::new(Application::Platformer, 2, 48, 48);
        plugin.start(&ctx);
        plugin.iterate(&ctx);
        let frame = frames.try_recv().unwrap();
        assert_eq!(frame.render_pose.pose, Pose::IDENTITY);
    }

    #[test]
    fn sponza_costs_more_work_than_ardemo() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let mut sponza = ApplicationPlugin::new(Application::Sponza, 3, 64, 64);
        let mut ar = ApplicationPlugin::new(Application::ArDemo, 3, 64, 64);
        sponza.start(&ctx);
        ar.start(&ctx);
        let ws = sponza.iterate(&ctx).work_factor;
        let wa = ar.iterate(&ctx).work_factor;
        assert!(ws > 2.0 * wa, "sponza {ws} vs ardemo {wa}");
    }
}
