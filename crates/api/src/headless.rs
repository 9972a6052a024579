//! The headless backend: bridges sessions into the local single-client
//! runtime pipeline (`illixr-system`'s [`IntegratedExperiment`]).
//!
//! On the first [`PoseTimeline::next_pose`] the device lazily runs a
//! full RuntimeBuilder-based discrete-event experiment — synthetic
//! sensors, VIO, rendering, asynchronous reprojection — and then replays
//! its displayed-frame log as the session's pose timeline: each pose's
//! timestamp is the vsync an MTP sample was accepted at and the pose is
//! the one actually displayed there.

use std::time::Duration;

use illixr_core::Time;
use illixr_math::Pose;
use illixr_platform::Platform;
use illixr_render::apps::Application;
use illixr_system::experiment::{ExperimentConfig, IntegratedExperiment};

use crate::device::PoseTimeline;
use crate::error::SessionError;
use crate::registry::Discovery;
use crate::types::{Feature, SessionMode};

/// Parameters for the local-pipeline backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadlessConfig {
    /// Which application the pipeline renders.
    pub app: Application,
    /// Which hardware model the pipeline is timed against.
    pub platform: Platform,
    /// Simulated run length (bounds the frame stream).
    pub duration: Duration,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for HeadlessConfig {
    /// Platformer on the desktop platform, 2 simulated seconds, seed
    /// 42.
    fn default() -> Self {
        Self {
            app: Application::Platformer,
            platform: Platform::Desktop,
            duration: Duration::from_secs(2),
            seed: 42,
        }
    }
}

/// Registers devices backed by the local integrated pipeline.
///
/// Supports `inline` and `immersive-vr`; `immersive-ar` is refused
/// (the local pipeline has no camera passthrough), and so are
/// `hit-test` / `anchors` (no world geometry service).
pub struct HeadlessDiscovery {
    config: HeadlessConfig,
}

impl HeadlessDiscovery {
    /// A discovery running the given experiment per device.
    pub fn new(config: HeadlessConfig) -> Self {
        Self { config }
    }
}

impl Discovery for HeadlessDiscovery {
    fn name(&self) -> &'static str {
        "headless"
    }

    fn supports_mode(&self, mode: SessionMode) -> bool {
        matches!(mode, SessionMode::Inline | SessionMode::ImmersiveVr)
    }

    fn supported_features(&self, _mode: SessionMode) -> Vec<Feature> {
        vec![Feature::Viewer, Feature::Local, Feature::LocalFloor, Feature::HandTracking]
    }

    fn build_device(
        &mut self,
        _mode: SessionMode,
        _granted: &[Feature],
    ) -> Result<(Box<dyn PoseTimeline>, u64), SessionError> {
        let device = HeadlessDevice { config: self.config, poses: None, report: String::new() };
        Ok((Box::new(device), self.config.seed))
    }
}

/// A device replaying one integrated-experiment run.
struct HeadlessDevice {
    config: HeadlessConfig,
    poses: Option<std::vec::IntoIter<(Time, Pose)>>,
    report: String,
}

impl HeadlessDevice {
    /// Runs the experiment and returns its displayed-pose log, each
    /// pose at the vsync its MTP sample was accepted at.
    fn run(&mut self) -> Vec<(Time, Pose)> {
        let config = ExperimentConfig {
            duration: self.config.duration,
            ..ExperimentConfig::quick(self.config.app, self.config.platform)
        }
        .with_seed(self.config.seed);
        let result = IntegratedExperiment::run(&config);
        let poses: Vec<(Time, Pose)> = result
            .mtp
            .iter()
            .zip(result.displayed_poses.iter())
            .map(|(sample, pose)| (sample.display_vsync, *pose))
            .collect();
        let mean_mtp_ms = if result.mtp.is_empty() {
            0.0
        } else {
            result.mtp.iter().map(|s| s.total().as_secs_f64() * 1e3).sum::<f64>()
                / result.mtp.len() as f64
        };
        self.report = format!(
            "headless app={} platform={:?} seed={} frames={} mean_mtp_ms={:.3}",
            self.config.app.label(),
            self.config.platform,
            self.config.seed,
            poses.len(),
            mean_mtp_ms
        );
        poses
    }
}

impl PoseTimeline for HeadlessDevice {
    /// Runs the experiment on the first call.
    fn next_pose(&mut self) -> Option<(Time, Pose)> {
        if self.poses.is_none() {
            self.poses = Some(self.run().into_iter());
        }
        self.poses.as_mut()?.next()
    }

    fn report(&self) -> String {
        self.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::types::SessionInit;

    #[test]
    fn headless_session_replays_pipeline_frames_deterministically() {
        let run = || {
            let mut registry = Registry::new();
            registry.register(Box::new(HeadlessDiscovery::new(HeadlessConfig {
                duration: Duration::from_secs(1),
                ..HeadlessConfig::default()
            })));
            let init = SessionInit::new().optional(&[Feature::HandTracking]);
            let mut session = registry.request_session(SessionMode::ImmersiveVr, &init).unwrap();
            let n = session.run(u64::MAX);
            assert!(n > 30, "1 simulated second at 120 Hz should display >30 frames, got {n}");
            (session.transcript().to_owned(), session.report())
        };
        let (transcript_a, report_a) = run();
        let (transcript_b, report_b) = run();
        assert_eq!(transcript_a, transcript_b);
        assert_eq!(report_a, report_b);
        assert!(report_a.starts_with("headless app=Platformer"));
    }
}
