//! The mock backend: scripted poses and input for deterministic tests,
//! modeled on webxr-api's headless `MockDiscovery`.
//!
//! Poses come from a seeded [`Trajectory`], and the session scripts
//! input from the same seed. Two devices built from the same
//! [`MockConfig`] replay bit-identical frame and event streams, which
//! makes this the backend golden tests negotiate against.

use illixr_core::Time;
use illixr_math::Pose;
use illixr_sensors::Trajectory;

use crate::device::PoseTimeline;
use crate::error::SessionError;
use crate::registry::Discovery;
use crate::types::{Feature, SessionMode};

/// Parameters for a scripted mock device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MockConfig {
    /// Seed for the pose trajectory and input script.
    pub seed: u64,
    /// Frames the device delivers before its timeline ends.
    pub frames: u64,
    /// Frame cadence.
    pub frame_hz: f64,
}

impl MockConfig {
    /// 120 frames at 60 Hz with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, frames: 120, frame_hz: 60.0 }
    }
}

/// Registers scripted mock devices supporting every mode and feature.
pub struct MockDiscovery {
    config: MockConfig,
}

impl MockDiscovery {
    /// A discovery with the default 120-frame script for `seed`.
    pub fn new(seed: u64) -> Self {
        Self { config: MockConfig::new(seed) }
    }

    /// A discovery with explicit script parameters.
    pub fn with_config(config: MockConfig) -> Self {
        Self { config }
    }
}

impl Discovery for MockDiscovery {
    fn name(&self) -> &'static str {
        "mock"
    }

    fn supports_mode(&self, _mode: SessionMode) -> bool {
        true
    }

    fn supported_features(&self, _mode: SessionMode) -> Vec<Feature> {
        Feature::ALL.to_vec()
    }

    fn build_device(
        &mut self,
        _mode: SessionMode,
        _granted: &[Feature],
    ) -> Result<(Box<dyn PoseTimeline>, u64), SessionError> {
        let device = MockDevice {
            config: self.config,
            trajectory: Trajectory::gentle(self.config.seed),
            index: 0,
        };
        Ok((Box::new(device), self.config.seed))
    }
}

/// A scripted device: a seeded trajectory sampled at a fixed cadence.
struct MockDevice {
    config: MockConfig,
    trajectory: Trajectory,
    index: u64,
}

impl PoseTimeline for MockDevice {
    fn next_pose(&mut self) -> Option<(Time, Pose)> {
        if self.index >= self.config.frames {
            return None;
        }
        let period_ns = (1e9 / self.config.frame_hz).round() as u64;
        let time = Time::from_nanos(self.index * period_ns);
        self.index += 1;
        Some((time, self.trajectory.pose(time)))
    }

    fn report(&self) -> String {
        format!(
            "mock seed={} frames={} delivered={}",
            self.config.seed, self.config.frames, self.index
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::types::SessionInit;

    #[test]
    fn same_seed_devices_replay_identical_transcripts() {
        let run = || {
            let mut registry = Registry::new();
            registry.register(Box::new(MockDiscovery::new(21)));
            let init = SessionInit::new().optional(&[Feature::HandTracking, Feature::HitTest]);
            let mut session = registry.request_session(SessionMode::ImmersiveAr, &init).unwrap();
            while session.pump().is_some() {}
            session.transcript().to_owned()
        };
        let a = run();
        assert!(!a.is_empty());
        assert_eq!(a, run());
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed| {
            let mut registry = Registry::new();
            registry.register(Box::new(MockDiscovery::new(seed)));
            let mut session =
                registry.request_session(SessionMode::Inline, &SessionInit::new()).unwrap();
            while session.pump().is_some() {}
            session.transcript().to_owned()
        };
        assert_ne!(run(1), run(2));
    }
}
