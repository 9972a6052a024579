//! The `eye_tracking` plugin.
//!
//! Renders synthetic eye-camera images for both eyes (batch size 2 — one
//! image per eye, the paper's low-GPU-utilization observation), runs the
//! segmentation CNN and publishes a `BinocularGaze` on the `gaze`
//! stream. The paper runs eye tracking standalone (no OpenXR gaze
//! interface existed for applications at the time, §III-B); the plugin
//! is nevertheless fully stream-integrated so future consumers can read
//! it.

use illixr_core::plugin::{IterationReport, Plugin, PluginContext};
use illixr_core::switchboard::Writer;

use crate::eye::{render_eye, EyeParams};
use crate::gaze::{estimate_gaze, GazeEstimate};
use crate::net::SegmentationNet;

/// Gaze estimates for both eyes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BinocularGaze {
    /// Left-eye estimate.
    pub left: GazeEstimate,
    /// Right-eye estimate.
    pub right: GazeEstimate,
}

/// Stream name for gaze estimates.
pub(crate) const GAZE_STREAM: &str = "gaze";

/// The plugin. Gaze follows a smooth scan pattern over time.
pub struct EyeTrackingPlugin {
    net: SegmentationNet,
    params: EyeParams,
    writer: Option<Writer<BinocularGaze>>,
}

impl EyeTrackingPlugin {
    /// Creates the plugin with default eye-image dimensions.
    pub fn new() -> Self {
        Self { net: SegmentationNet::new(), params: EyeParams::default(), writer: None }
    }

    /// True gaze at time `t` (a Lissajous scan within the eye's range).
    pub(crate) fn true_gaze(t_secs: f64) -> (f64, f64) {
        (0.3 * (0.7 * t_secs).sin(), 0.2 * (1.1 * t_secs).cos())
    }
}

impl Default for EyeTrackingPlugin {
    fn default() -> Self {
        Self::new()
    }
}

impl Plugin for EyeTrackingPlugin {
    fn name(&self) -> &str {
        "eye_tracking"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.writer =
            Some(ctx.switchboard.topic::<BinocularGaze>(GAZE_STREAM).expect("stream").writer());
    }

    fn iterate(&mut self, ctx: &PluginContext) -> IterationReport {
        let t = ctx.clock.now().as_secs_f64();
        let (gx, gy) = Self::true_gaze(t);
        // Batch of two: left and right eye (vergence ignored; the right
        // eye mirrors horizontally).
        let mut left_params = self.params;
        left_params.gaze_x = gx;
        left_params.gaze_y = gy;
        let mut right_params = self.params;
        right_params.gaze_x = -gx;
        right_params.gaze_y = gy;

        let left_img = render_eye(&left_params);
        let right_img = render_eye(&right_params);
        let left_mask = self.net.segment(&left_img);
        let right_mask = self.net.segment(&right_img);
        let left = estimate_gaze(&left_mask, left_params.width, left_params.height);
        let right = estimate_gaze(&right_mask, right_params.width, right_params.height);
        self.writer
            .as_ref()
            .expect("start() must run before iterate()")
            .put(BinocularGaze { left, right });
        IterationReport::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_core::plugin::RuntimeBuilder;
    use illixr_core::{SimClock, Time};
    use std::sync::Arc;

    #[test]
    fn plugin_publishes_gaze_tracking_truth() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let reader =
            ctx.switchboard.topic::<BinocularGaze>(GAZE_STREAM).expect("stream").async_reader();
        let mut plugin = EyeTrackingPlugin::new();
        plugin.start(&ctx);
        clock.advance_to(Time::from_millis(800));
        plugin.iterate(&ctx);
        let gaze = reader.latest().expect("gaze published");
        let (gx, gy) = EyeTrackingPlugin::true_gaze(0.8);
        assert!((gaze.left.gaze_x - gx).abs() < 0.1, "{} vs {gx}", gaze.left.gaze_x);
        assert!((gaze.left.gaze_y - gy).abs() < 0.1);
        assert!((gaze.right.gaze_x + gx).abs() < 0.1); // mirrored
        assert!(gaze.left.pupil_pixels > 0);
    }

    #[test]
    fn gaze_follows_motion_over_time() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let reader =
            ctx.switchboard.topic::<BinocularGaze>(GAZE_STREAM).expect("stream").sync_reader(16);
        let mut plugin = EyeTrackingPlugin::new();
        plugin.start(&ctx);
        for k in 0..5 {
            clock.advance_to(Time::from_millis(k * 700));
            plugin.iterate(&ctx);
        }
        let estimates = reader.drain();
        assert_eq!(estimates.len(), 5);
        // Gaze must change over the scan.
        let first = estimates.first().unwrap().left.gaze_x;
        let spread = estimates.iter().map(|g| (g.left.gaze_x - first).abs()).fold(0.0, f64::max);
        assert!(spread > 0.05, "gaze did not move: spread {spread}");
    }
}
