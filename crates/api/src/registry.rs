//! The backend registry: discovery registration and session
//! negotiation, modeled on webxr-api's `MainThreadRegistry`.

use crate::device::PoseTimeline;
use crate::error::SessionError;
use crate::session::Session;
use crate::types::{Feature, SessionInit, SessionMode};

/// A pluggable backend: advertises what it can do and builds devices
/// for negotiated sessions (webxr-api's `DiscoveryAPI`).
pub trait Discovery: Send {
    /// Stable backend name for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Whether this backend can open sessions of `mode` at all.
    fn supports_mode(&self, mode: SessionMode) -> bool;

    /// The features this backend can grant for `mode` (beyond the mode
    /// defaults, which are always granted).
    fn supported_features(&self, mode: SessionMode) -> Vec<Feature>;

    /// Opens a device for an already-negotiated session and returns it
    /// with the seed the session's scripted input follows.
    ///
    /// # Errors
    ///
    /// Backend-specific refusals, typically [`SessionError::Backend`].
    fn build_device(
        &mut self,
        mode: SessionMode,
        granted: &[Feature],
    ) -> Result<(Box<dyn PoseTimeline>, u64), SessionError>;
}

/// Holds every registered [`Discovery`] and negotiates sessions against
/// them in registration order.
///
/// # Examples
///
/// ```
/// use illixr_api::{MockDiscovery, Registry, SessionInit, SessionMode};
///
/// let mut registry = Registry::new();
/// registry.register(Box::new(MockDiscovery::new(7)));
/// let session =
///     registry.request_session(SessionMode::ImmersiveVr, &SessionInit::new()).unwrap();
/// assert_eq!(session.backend(), "mock");
/// ```
#[derive(Default)]
pub struct Registry {
    discoveries: Vec<Box<dyn Discovery>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a backend. Earlier registrations win when several
    /// could satisfy the same request.
    pub fn register(&mut self, discovery: Box<dyn Discovery>) {
        self.discoveries.push(discovery);
    }

    /// Names of every registered backend, in registration order.
    pub fn backends(&self) -> Vec<&'static str> {
        self.discoveries.iter().map(|d| d.name()).collect()
    }

    /// Whether any backend could open a `mode` session (WebXR
    /// `isSessionSupported`).
    pub fn supports_session(&self, mode: SessionMode) -> bool {
        self.discoveries.iter().any(|d| d.supports_mode(mode))
    }

    /// Negotiates a session (WebXR `requestSession`): walks backends in
    /// registration order, negotiates `init` against each mode-matching
    /// one, and opens a [`Session`] on the first that accepts.
    ///
    /// # Errors
    ///
    /// When every backend refuses, the most specific refusal wins:
    /// [`SessionError::RequiredFeatureDenied`] over
    /// [`SessionError::Backend`] over [`SessionError::UnsupportedMode`]
    /// over [`SessionError::NoMatchingDevice`] (the empty-registry
    /// answer).
    pub fn request_session(
        &mut self,
        mode: SessionMode,
        init: &SessionInit,
    ) -> Result<Session, SessionError> {
        let mut best: Option<SessionError> = None;
        let keep_best = |err: SessionError, best: &mut Option<SessionError>| {
            if best.as_ref().is_none_or(|b| err.specificity() > b.specificity()) {
                *best = Some(err);
            }
        };
        for discovery in &mut self.discoveries {
            if !discovery.supports_mode(mode) {
                keep_best(SessionError::UnsupportedMode(mode), &mut best);
                continue;
            }
            let supported = discovery.supported_features(mode);
            match init.negotiate(mode, &supported) {
                Ok(granted) => match discovery.build_device(mode, &granted) {
                    Ok((device, seed)) => {
                        return Ok(Session::new(mode, granted, discovery.name(), device, seed))
                    }
                    Err(err) => keep_best(err, &mut best),
                },
                Err(err) => keep_best(err, &mut best),
            }
        }
        Err(best.unwrap_or(SessionError::NoMatchingDevice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headless::{HeadlessConfig, HeadlessDiscovery};
    use crate::mock::MockDiscovery;

    #[test]
    fn empty_registry_reports_no_matching_device() {
        let mut registry = Registry::new();
        let err =
            registry.request_session(SessionMode::ImmersiveVr, &SessionInit::new()).unwrap_err();
        assert_eq!(err, SessionError::NoMatchingDevice);
        assert!(!registry.supports_session(SessionMode::Inline));
    }

    #[test]
    fn unsupported_mode_is_reported_per_backend() {
        // The headless backend has no camera passthrough: immersive-ar
        // is refused with the mode error, not a generic failure.
        let mut registry = Registry::new();
        registry.register(Box::new(HeadlessDiscovery::new(HeadlessConfig::default())));
        let err =
            registry.request_session(SessionMode::ImmersiveAr, &SessionInit::new()).unwrap_err();
        assert_eq!(err, SessionError::UnsupportedMode(SessionMode::ImmersiveAr));
        assert!(registry.supports_session(SessionMode::ImmersiveVr));
        assert!(!registry.supports_session(SessionMode::ImmersiveAr));
    }

    #[test]
    fn required_feature_denial_beats_mode_mismatch() {
        // Headless cannot do hit-test; a second AR-incapable view of the
        // same backend must not mask the feature denial.
        let mut registry = Registry::new();
        registry.register(Box::new(HeadlessDiscovery::new(HeadlessConfig::default())));
        let init = SessionInit::new().required(&[Feature::HitTest]);
        let err = registry.request_session(SessionMode::ImmersiveVr, &init).unwrap_err();
        assert_eq!(err, SessionError::RequiredFeatureDenied(Feature::HitTest));
    }

    #[test]
    fn first_capable_backend_wins() {
        let mut registry = Registry::new();
        registry.register(Box::new(HeadlessDiscovery::new(HeadlessConfig::default())));
        registry.register(Box::new(MockDiscovery::new(5)));
        // Headless refuses AR, mock accepts: the request falls through.
        let session =
            registry.request_session(SessionMode::ImmersiveAr, &SessionInit::new()).unwrap();
        assert_eq!(session.backend(), "mock");
        // VR with defaults is served by the first registration.
        let session =
            registry.request_session(SessionMode::ImmersiveVr, &SessionInit::new()).unwrap();
        assert_eq!(session.backend(), "headless");
    }

    #[test]
    fn backends_lists_registration_order() {
        let mut registry = Registry::new();
        registry.register(Box::new(MockDiscovery::new(1)));
        registry.register(Box::new(HeadlessDiscovery::new(HeadlessConfig::default())));
        assert_eq!(registry.backends(), vec!["mock", "headless"]);
    }
}
