//! Image-processing substrate for ILLIXR-rs.
//!
//! Provides the grayscale and RGB image buffers flowing through the
//! perception and visual pipelines, the stencil kernels the paper's task
//! breakdowns identify (Gaussian and bilateral filters, gradients), image
//! pyramids for KLT tracking, and the two end-to-end image-quality metrics
//! ILLIXR reports: **SSIM** and **FLIP** (Table V).
//!
//! # Examples
//!
//! ```
//! use illixr_image::{GrayImage, ssim};
//! let a = GrayImage::from_fn(64, 48, |x, y| ((x + y) % 7) as f32 / 7.0);
//! assert!((ssim(&a, &a) - 1.0).abs() < 1e-6);
//! ```

pub mod draw;
pub mod flip;
pub mod gray;
pub mod pyramid;
pub mod rgb;
pub mod ssim;
pub mod stencil;
pub mod wide;

pub use flip::flip;
pub use gray::{AxisTerm, GrayImage};
pub use pyramid::Pyramid;
pub use rgb::RgbImage;
pub use ssim::ssim;
pub use stencil::{bilateral_filter, gaussian_blur};
