//! The remote backend: opens sessions against `illixr-server`'s
//! event-driven multi-session engine.
//!
//! All sessions requested from one [`RemoteDiscovery`] share one
//! server: each `build_device` appends a [`SessionConfig`] (standard
//! seed `11 + 2·id`, rates and admission load-weight derived from the
//! negotiated mode and features), and the first pose requested from any
//! device runs the whole server timeline once via [`ServerBuilder`].
//! This is how mixed inline / immersive-VR / immersive-AR sessions
//! coexist on a single server, and it keeps the identity contract: an
//! `immersive-vr` session with default features contributes exactly
//! `SessionConfig::new(seed)`, so a single-session run's
//! [`PoseTimeline::report`] (the server's `summary_text()`) is
//! bit-identical to a direct
//! `ServerBuilder::new().sessions(1).duration(d).build().run()`.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use illixr_core::Time;
use illixr_math::Pose;
use illixr_server::{ServerBuilder, ServerReport, SessionConfig};

use crate::device::PoseTimeline;
use crate::error::SessionError;
use crate::registry::Discovery;
use crate::types::{Feature, SessionMode};

/// Parameters for the server-backed backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteConfig {
    /// Simulated server run length shared by every session.
    pub duration: Duration,
}

impl Default for RemoteConfig {
    /// 2 simulated seconds.
    fn default() -> Self {
        Self { duration: Duration::from_secs(2) }
    }
}

/// Additional admission load-weight per negotiated feature: hand
/// tracking, hit testing and anchors all add per-frame server work the
/// raw byte rates don't capture.
fn load_weight(mode: SessionMode, granted: &[Feature]) -> f64 {
    let mut weight = 1.0;
    if granted.contains(&Feature::HandTracking) {
        weight += 0.25;
    }
    if granted.contains(&Feature::HitTest) {
        weight += 0.2;
    }
    if granted.contains(&Feature::Anchors) {
        weight += 0.15;
    }
    if mode == SessionMode::Inline {
        // Inline sessions composite at 60 Hz into a flat viewport.
        weight *= 0.5;
    }
    weight
}

/// The server run shared by every device from one discovery.
struct RemoteShared {
    config: RemoteConfig,
    sessions: Vec<SessionConfig>,
    report: Option<Arc<ServerReport>>,
}

impl RemoteShared {
    /// Runs the server once, with every adopted session aboard.
    fn ensure_run(&mut self) -> Arc<ServerReport> {
        if let Some(report) = &self.report {
            return report.clone();
        }
        let mut builder =
            ServerBuilder::new().sessions(self.sessions.len()).duration(self.config.duration);
        for (i, session) in self.sessions.iter().enumerate() {
            let config = *session;
            builder = builder.configure_session(i, move |s| *s = config);
        }
        let report = Arc::new(builder.build().run());
        self.report = Some(report.clone());
        report
    }
}

/// Registers devices that adopt sessions into one shared server run.
pub struct RemoteDiscovery {
    shared: Arc<Mutex<RemoteShared>>,
}

impl RemoteDiscovery {
    /// A discovery whose devices will share one server run.
    pub fn new(config: RemoteConfig) -> Self {
        Self {
            shared: Arc::new(Mutex::new(RemoteShared {
                config,
                sessions: Vec::new(),
                report: None,
            })),
        }
    }

    /// Runs the server (if it has not run yet) and returns the full
    /// report — the aggregate view across every adopted session.
    pub fn server_report(&self) -> Arc<ServerReport> {
        self.shared.lock().expect("remote state lock").ensure_run()
    }

    /// A second handle onto the same shared server run — lets a caller
    /// keep an aggregate-report view after registering the discovery.
    pub fn handle(&self) -> RemoteDiscovery {
        Self { shared: self.shared.clone() }
    }
}

impl Discovery for RemoteDiscovery {
    fn name(&self) -> &'static str {
        "remote"
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
    ) -> Result<(Box<dyn PoseTimeline>, u64), SessionError> {
        let mut shared = self.shared.lock().expect("remote state lock");
        if shared.report.is_some() {
            return Err(SessionError::Backend(
                "remote server already ran its timeline; open every session before the first \
                 frame"
                    .to_owned(),
            ));
        }
        let id = shared.sessions.len() as u32;
        let seed = 11 + 2 * u64::from(id);
        let mut config = SessionConfig::new(seed);
        if mode == SessionMode::Inline {
            config.display_hz = 60.0;
        }
        config.load_weight = load_weight(mode, granted);
        shared.sessions.push(config);
        let device =
            RemoteDevice { shared: self.shared.clone(), id, poses: None, report: String::new() };
        Ok((Box::new(device), seed))
    }
}

/// One adopted server session, replaying its displayed-frame log.
struct RemoteDevice {
    shared: Arc<Mutex<RemoteShared>>,
    id: u32,
    poses: Option<std::vec::IntoIter<(Time, Pose)>>,
    report: String,
}

impl RemoteDevice {
    /// Triggers the shared server run if no device has yet and returns
    /// this session's displayed-frame log.
    fn run(&mut self) -> Vec<(Time, Pose)> {
        let report = self.shared.lock().expect("remote state lock").ensure_run();
        let session = report.session(self.id).expect("adopted session exists in report");
        self.report = report.summary_text();
        session.telemetry().displayed_frames.iter().map(|d| (d.time, d.pose)).collect()
    }
}

impl PoseTimeline for RemoteDevice {
    fn next_pose(&mut self) -> Option<(Time, Pose)> {
        if self.poses.is_none() {
            self.poses = Some(self.run().into_iter());
        }
        self.poses.as_mut()?.next()
    }

    /// The shared server's `summary_text()` — the artifact the golden
    /// test compares against a direct `ServerBuilder` run.
    fn report(&self) -> String {
        self.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::types::SessionInit;

    fn quick_config() -> RemoteConfig {
        RemoteConfig { duration: Duration::from_millis(500) }
    }

    #[test]
    fn sessions_after_the_run_started_are_refused() {
        let discovery = RemoteDiscovery::new(quick_config());
        let shared = discovery.shared.clone();
        let mut registry = Registry::new();
        registry.register(Box::new(discovery));
        let mut session =
            registry.request_session(SessionMode::ImmersiveVr, &SessionInit::new()).unwrap();
        assert!(session.pump().is_some(), "server run should yield frames");
        let err = registry.request_session(SessionMode::Inline, &SessionInit::new()).unwrap_err();
        assert!(matches!(err, SessionError::Backend(_)));
        assert!(shared.lock().unwrap().report.is_some());
    }

    #[test]
    fn feature_and_mode_load_weights() {
        assert_eq!(load_weight(SessionMode::ImmersiveVr, &[Feature::Viewer, Feature::Local]), 1.0);
        assert!(load_weight(SessionMode::ImmersiveVr, &[Feature::HandTracking]) > 1.0);
        assert!(load_weight(SessionMode::Inline, &[]) < 1.0);
    }
}
