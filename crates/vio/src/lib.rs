//! Visual-inertial odometry: head tracking for the perception pipeline.
//!
//! A from-scratch reproduction of the OpenVINS-style sliding-window
//! **MSCKF** the paper uses as its VIO component (Table II), with the
//! task structure of Table VI:
//!
//! | paper task | module |
//! |---|---|
//! | feature detection (FAST) | [`fast`] |
//! | feature matching (KLT) | [`klt`], [`frontend`] |
//! | feature initialization (triangulation, Gauss-Newton) | [`triangulate`] |
//! | MSCKF update (nullspace projection, chi², QR, EKF) | [`msckf`] |
//! | SLAM update | [`msckf`] (long-lived-track updates; see DESIGN.md) |
//! | marginalization | [`msckf`] |
//!
//! [`alternative`] fills Table II's second VIO slot (Kimera-VIO in the
//! paper) with a structurally different estimator: map-based
//! frame-to-frame tracking with Gauss-Newton PnP.
//!
//! The `imu_integrator` component (RK4 in the paper, Table II) lives in
//! [`integrator`]: it re-propagates the latest VIO state through the IMU
//! stream to produce the high-rate `fast_pose` that reprojection samples.
//!
//! The filter consumes real synthetic images — FAST corners are detected
//! on pixels, KLT tracks them across frames — so runtime is genuinely
//! input-dependent, reproducing the execution-time variability of
//! Fig 4/§IV-B.

pub mod alternative;
pub mod fast;
pub mod frontend;
pub mod integrator;
pub mod klt;
pub mod msckf;
pub mod plugins;
pub mod triangulate;

pub use alternative::{FrameToFrameConfig, FrameToFrameVio};
pub use fast::{detect_fast, Corner};
pub use frontend::{FrontEnd, TrackedFeature};
pub use integrator::{propagate, ImuState};
pub use msckf::{Msckf, VioConfig};
pub use plugins::{AlternativeVioPlugin, GroundTruthPosePlugin, ImuIntegratorPlugin, VioPlugin};
