//! The integrated ILLIXR-rs system.
//!
//! The plugins of all three pipelines (perception, visual, audio) are
//! declared once and run by two executors:
//!
//! * [`registry`] — the **standard pipeline**: every stock plugin
//!   constructible by name, and the `registry::STANDARD_PIPELINE` rows
//!   saying which run, on what resource, at which Table III rate, with
//!   what offset, deadline rule, priority and class;
//! * [`testbed`] — **live mode**: one OS thread per row on the wall
//!   clock (what the paper runs on real hardware);
//! * [`experiment`] — **simulated mode**: the same rows on the
//!   discrete-event engine with per-platform timing/power models, which
//!   is how one machine reproduces the desktop / Jetson-HP / Jetson-LP
//!   comparisons of §IV deterministically;
//! * [`openxr`] — a minimal OpenXR-style application interface
//!   (`wait_frame` / `locate_views` / `submit_frame`), the Monado role
//!   in the paper's stack;
//! * [`config`] — the tuned system parameters of Table III and the
//!   device aspirations of Table I.

pub mod config;
pub mod experiment;
pub mod offload;
pub mod openxr;
pub mod registry;
pub mod testbed;

pub use config::{SystemConfig, TableIRequirements};
pub use experiment::{ExperimentConfig, ExperimentResult, IntegratedExperiment};
pub use offload::{OffloadLink, OffloadedPlugin};
pub use openxr::{XrFrameState, XrInstance, XrSession};
pub use testbed::LiveTestbed;
