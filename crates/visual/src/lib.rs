//! The visual pipeline: asynchronous reprojection, lens-distortion and
//! chromatic-aberration correction, and computational holography
//! (paper Table II, visual pipeline rows).
//!
//! * [`reprojection`] — rotational *and* translational timewarp: warps
//!   the application's (stale) eye buffer to the freshest predicted pose
//!   right before vsync, the latency compensator at the heart of every
//!   XR runtime (§II-A, van Waveren's asynchronous timewarp);
//! * [`distortion`] — mesh-based radial lens distortion with per-channel
//!   coefficients for chromatic aberration correction (Table VII's
//!   "Reprojection" task list includes the correction passes);
//! * [`hologram`] — weighted Gerchberg-Saxton phase retrieval over
//!   multiple depth planes (the adaptive-display component, Table VII);
//! * [`plugins`] — the `timewarp` and `hologram` plugins.

pub mod distortion;
pub mod hologram;
pub mod plugins;
pub mod reprojection;

pub use distortion::{DistortionMesh, DistortionParams};
pub use hologram::{Hologram, HologramConfig};
pub use plugins::{HologramPlugin, TimewarpPlugin, WarpedFrame, DISPLAY_STREAM};
pub use reprojection::{reproject, ReprojectionConfig};
