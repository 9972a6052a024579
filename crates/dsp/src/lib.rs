//! Signal-processing substrate for ILLIXR-rs.
//!
//! Provides the kernels the audio pipeline (psychoacoustic filtering,
//! HRTF binauralization) and the hologram generator (plane-to-plane field
//! propagation) are built on: complex arithmetic, an iterative radix-2
//! FFT, fast convolution, window functions and biquad filters — all
//! implemented from scratch.
//!
//! # Examples
//!
//! ```
//! use illixr_dsp::{fft, ifft, Complex};
//! let signal: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
//! let spectrum = fft(&signal);
//! let back = ifft(&spectrum);
//! for (a, b) in signal.iter().zip(&back) {
//!     assert!((a.re - b.re).abs() < 1e-9);
//! }
//! ```

pub mod complex;
pub mod convolution;
pub mod fft;
pub mod filter;
pub mod window;

pub use complex::Complex;
pub use convolution::{convolve_direct, fft_convolve, OverlapSave};
pub use fft::{fft, fft_2d, fft_in_place, ifft, ifft_2d, ifft_in_place};
pub use filter::Biquad;
