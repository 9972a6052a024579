//! Sensor substrate: the synthetic equivalent of ILLIXR's ZED Mini
//! camera + IMU front end.
//!
//! The paper's live experiments walk a physical camera through a lab
//! (§III-A) and its offline experiments replay the EuRoC *Vicon Room 1
//! Medium* dataset. This crate replaces both with deterministic synthetic
//! equivalents that exercise the same code paths:
//!
//! * [`trajectory`] — smooth 6-DoF head trajectories (sums of sinusoids,
//!   so velocity/acceleration/angular-velocity are analytic);
//! * [`imu`] — an IMU error model (white noise + bias random walk +
//!   gravity) sampling the trajectory at 500 Hz;
//! * [`camera`] — pinhole/stereo projection models;
//! * [`world`] — a landmark world rendered into real grayscale images
//!   that the VIO front end detects and tracks features on;
//! * [`dataset`] — pre-generated sequences with ground truth (the
//!   EuRoC-replacement), plus CSV save/load for the offline-player plugin;
//! * [`plugins`] — the `camera` and `imu` plugins, in interchangeable
//!   *live-synthetic* and *offline-player* variants publishing to the same
//!   switchboard streams (paper §II-B: "appearing indistinguishable from a
//!   real camera/IMU to the rest of the system"); the camera stream
//!   carries the view, and the first consumer that reads pixels renders
//!   them ([`types::CameraFrame`]);
//! * [`wire`] — boundary payload codecs: how a camera frame (by pose)
//!   and an IMU sample cross the record/replay determinism boundary.

pub mod camera;
pub mod dataset;
pub mod imu;
pub mod plugins;
pub mod trajectory;
pub mod types;
pub mod wire;
pub mod world;

pub use camera::{PinholeCamera, StereoRig};
pub use dataset::SyntheticDataset;
pub use imu::ImuModel;
pub use plugins::{OfflineImuCameraPlugin, SyntheticCameraPlugin, SyntheticImuPlugin};
pub use trajectory::Trajectory;
pub use types::{CameraFrame, ImuSample, PoseEstimate, StereoFrame};
pub use world::LandmarkWorld;
