//! Linear algebra and geometry substrate for ILLIXR-rs.
//!
//! This crate provides everything the XR pipelines need from a maths library,
//! implemented from scratch: small fixed-size vectors and matrices
//! ([`Vec3`], [`Mat3`], [`Mat4`]), unit quaternions ([`Quat`]) and rigid-body
//! poses ([`Pose`]), dynamically sized matrices ([`DMatrix`]) with the
//! decompositions the VIO filter relies on (Cholesky, Householder QR, SVD),
//! SO(3) exponential/logarithm maps, and streaming statistics.
//!
//! # Examples
//!
//! ```
//! use illixr_math::{Quat, Vec3, Pose};
//!
//! let pose = Pose::new(Vec3::new(1.0, 2.0, 3.0), Quat::from_axis_angle(Vec3::UNIT_Y, 0.5));
//! let p_world = pose.transform_point(Vec3::new(0.0, 0.0, -1.0));
//! assert!((p_world - pose.position).norm() > 0.9);
//! ```

pub mod decomp;
pub mod dmatrix;
pub mod matrix;
pub mod pose;
pub mod quat;
pub mod so3;
pub mod stats;
pub mod vector;

pub use decomp::{Cholesky, Qr, Svd};
pub use dmatrix::DMatrix;
pub use matrix::{Mat2, Mat3, Mat4};
pub use pose::Pose;
pub use quat::Quat;
pub use so3::{skew, so3_exp, so3_log};
pub use stats::{percentile, OnlineStats};
pub use vector::{Vec2, Vec3, Vec4};

/// Convenience alias used throughout the workspace for scalar values.
pub(crate) type Real = f64;
