//! Eye tracking: a RITnet-style segmentation CNN over synthetic eye
//! images (paper Table II: "Eye Tracking — RITnet — Python, CUDA").
//!
//! The paper characterizes eye tracking as "a typical deep neural
//! network" spending ~74 % of its time in convolutions (§IV-B). This
//! crate reproduces that computational shape from scratch:
//!
//! * [`net`] — a small fixed-weight encoder-decoder CNN (conv / ReLU /
//!   max-pool / upsample) producing a 4-class segmentation (background,
//!   sclera, iris, pupil), processed one image per eye (batch 2, the
//!   paper's low-GPU-utilization observation);
//! * [`eye`] — a synthetic eye-image generator (sclera + iris + pupil
//!   ellipses with gaze-dependent offsets), the OpenEDS stand-in;
//! * [`gaze`] — pupil-centroid extraction and gaze-angle estimation from
//!   the segmentation mask;
//! * [`plugin`] — the `eye_tracking` plugin publishing gaze estimates.
//!
//! Weights are procedurally initialized (deterministic); the point is the
//! compute/memory behaviour and the dataflow, not learned accuracy —
//! the pupil is still localized correctly because the synthetic pupil is
//! the darkest region and the fixed filters preserve that ordering
//! through the pipeline (verified by tests).

pub mod eye;
pub mod gaze;
pub mod net;
pub mod plugin;

pub use eye::{render_eye, EyeParams};
pub use net::SegmentationNet;
pub use plugin::EyeTrackingPlugin;
