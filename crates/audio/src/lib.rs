//! The audio pipeline: spatial audio via higher-order ambisonics
//! (paper Table II: libspatialaudio — ambisonic encoding, manipulation
//! and binauralization).
//!
//! * [`ambisonics`] — 2nd-order HOA encoding (9 channels, ACN/SN3D real
//!   spherical harmonics) and soundfield summation — Table VII's
//!   "normalization / encoding / summation" tasks;
//! * [`rotation`] — exact yaw rotation and frontal zoom of a soundfield
//!   from the listener's pose — Table VII's "rotation / zoom";
//! * [`hrtf`] — a parametric synthetic HRIR bank (ITD + head-shadow +
//!   pinna notch), the stand-in for measured HRTF data;
//! * [`binaural`] — virtual-speaker decode + FFT convolution with the
//!   HRIRs, plus the psychoacoustic (frequency-domain shelf) filter —
//!   Table VII's "psychoacoustic filter / binauralization";
//! * [`sources`] — deterministic test sources (the Freesound-clip
//!   stand-ins);
//! * [`plugins`] — the `audio_encoding` and `audio_playback` plugins
//!   (48 kHz, 1024-sample blocks, Table III).

pub mod ambisonics;
pub mod binaural;
pub mod hrtf;
pub mod plugins;
pub mod rotation;
pub mod sources;

pub use ambisonics::{encode_block, Soundfield};
pub use binaural::{psychoacoustic_filter, BinauralDecoder};
pub use hrtf::HrirBank;
pub use plugins::{AudioEncodingPlugin, AudioPlaybackPlugin};
pub use rotation::rotate_yaw;
pub use sources::SoundSource;
