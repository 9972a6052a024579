//! illixr-api: a WebXR-style device/session front-end over pluggable
//! backends.
//!
//! The rest of the workspace answers *how an XR runtime behaves* — this
//! crate answers *how an application talks to one*. It models the WebXR
//! Device API the way servo's `webxr-api` does: a [`Registry`] holds
//! pluggable [`Discovery`] backends; an application asks for a session
//! by [`SessionMode`] plus a [`SessionInit`] feature request
//! (required features fail the request when unsupported, optional ones
//! are dropped); negotiation yields a typed [`Session`] whose frame
//! loop, input events and hit-test results all flow over lossless
//! switchboard topics ([`session::streams`]).
//!
//! A backend is a [`PoseTimeline`]: it supplies the viewer poses it
//! displays and a run report, nothing else. The session builds every
//! frame from those poses (per-mode views, input scripted from the seed
//! the backend names) and answers hit-tests against the floor plane, so
//! two backends that display the same poses deliver the same streams.
//!
//! Three backends ship with the crate:
//!
//! * [`MockDiscovery`] — a seeded trajectory for deterministic tests;
//!   same seed, bit-identical streams;
//! * [`HeadlessDiscovery`] — bridges into the local single-client
//!   pipeline (`illixr-system`'s integrated experiment), replaying its
//!   displayed-pose log as the session timeline;
//! * [`RemoteDiscovery`] — adopts sessions into one shared
//!   `illixr-server` run, feeding negotiated features into admission
//!   control via the session load-weight; an immersive-VR session with
//!   default features is configured identically to a plain
//!   `ServerBuilder` session, so its report is bit-identical to a
//!   direct run.
//!
//! # Examples
//!
//! ```
//! use illixr_api::{Feature, MockDiscovery, Registry, SessionInit, SessionMode};
//!
//! let mut registry = Registry::new();
//! registry.register(Box::new(MockDiscovery::new(7)));
//!
//! let init = SessionInit::new()
//!     .required(&[Feature::LocalFloor])
//!     .optional(&[Feature::HandTracking, Feature::HitTest]);
//! let mut session = registry.request_session(SessionMode::ImmersiveVr, &init).unwrap();
//! assert!(session.granted_features().contains(&Feature::HandTracking));
//!
//! let frames = session.frames();
//! let inputs = session.input_events();
//! while session.pump().is_some() {}
//!
//! assert_eq!(frames.drain().len(), 120);
//! assert!(!inputs.drain().is_empty());
//! assert!(session.ended());
//! ```

pub mod device;
pub mod error;
pub mod headless;
pub mod mock;
pub mod registry;
pub mod remote;
pub mod session;
pub mod types;

pub use device::PoseTimeline;
pub use error::SessionError;
pub use headless::{HeadlessConfig, HeadlessDiscovery};
pub use mock::{MockConfig, MockDiscovery};
pub use registry::{Discovery, Registry};
pub use remote::{RemoteConfig, RemoteDiscovery};
pub use session::{payloads, Session};
pub use types::{
    EnvironmentBlendMode, Eye, Feature, Frame, Handedness, HitTestEvent, HitTestResult, InputEvent,
    InputEventKind, InputState, Ray, SessionInit, SessionMode, View,
};
