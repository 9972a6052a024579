//! Quality-of-experience metrics (paper §II-C, §III-E).
//!
//! * [`mtp`] — motion-to-photon latency:
//!   `latency = t_imu_age + t_reprojection + t_swap` (the exact formula
//!   of §III-E, excluding `t_display` like the paper);
//! * [`ate`] — absolute trajectory error for the VIO accuracy/performance
//!   ablation (§V-E);
//! * [`report`] — aggregation helpers that turn telemetry into the
//!   mean ± std rows of Tables IV and V;
//! * [`video`] — pose judder over the displayed pose sequence, the §II-C
//!   direction of temporal rather than image quality.
//!
//! SSIM and FLIP — the offline image-quality metrics of Table V — live in
//! `illixr-image`, next to the pixel types they operate on.

pub mod ate;
pub mod mtp;
pub mod report;
pub mod video;

pub use ate::absolute_trajectory_error;
pub use mtp::{MtpCalculator, MtpSample};
pub use report::MeanStd;
pub use video::pose_judder;
