//! The mock backend: scripted poses and input for deterministic tests,
//! modeled on webxr-api's headless `MockDiscovery`.
//!
//! Poses come from a seeded [`Trajectory`]; input follows the shared
//! `scripted_input` script; hit-tests intersect a floor plane at
//! `y = 0`. Two devices built from the same [`MockConfig`] replay
//! bit-identical frame and event streams, which makes this the backend
//! golden tests negotiate against.

use illixr_core::Time;
use illixr_sensors::Trajectory;

use crate::device::DeviceApi;
use crate::error::SessionError;
use crate::registry::Discovery;
use crate::types::{
    floor_hit, scripted_input, views_for, EnvironmentBlendMode, Feature, Frame, HitTestResult, Ray,
    SessionMode,
};

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
        mode: SessionMode,
        granted: &[Feature],
    ) -> Result<Box<dyn DeviceApi>, SessionError> {
        Ok(Box::new(MockDevice {
            config: self.config,
            mode,
            granted: granted.to_vec(),
            trajectory: Trajectory::gentle(self.config.seed),
            index: 0,
        }))
    }
}

/// A scripted device: seeded trajectory, scripted buttons, floor-plane
/// world geometry.
struct MockDevice {
    config: MockConfig,
    mode: SessionMode,
    granted: Vec<Feature>,
    trajectory: Trajectory,
    index: u64,
}

impl DeviceApi for MockDevice {
    fn backend(&self) -> &'static str {
        "mock"
    }

    fn granted_features(&self) -> &[Feature] {
        &self.granted
    }

    fn blend_mode(&self) -> EnvironmentBlendMode {
        self.mode.blend_mode()
    }

    fn wait_frame(&mut self) -> Option<Frame> {
        if self.index >= self.config.frames {
            return None;
        }
        let period_ns = (1e9 / self.config.frame_hz).round() as u64;
        let time = Time::from_nanos(self.index * period_ns);
        let viewer = self.trajectory.pose(time);
        let hands = self.granted.contains(&Feature::HandTracking);
        let frame = Frame {
            index: self.index,
            time,
            viewer,
            views: views_for(self.mode, &viewer),
            inputs: scripted_input(self.config.seed, self.index, &viewer, hands),
        };
        self.index += 1;
        Some(frame)
    }

    fn hit_test(&self, _frame: &Frame, ray: &Ray, source: u32) -> Vec<HitTestResult> {
        floor_hit(ray, 0.0, source).into_iter().collect()
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
