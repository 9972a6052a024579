//! Second-order higher-order-ambisonics (HOA) encoding.
//!
//! Channels follow ACN ordering with SN3D normalization. A mono source
//! at azimuth θ (counter-clockwise from +X) and elevation φ encodes as
//! `soundfield[ch][i] = Y_ch(θ, φ) · sample[i]` — the
//! `Y[j][i] = D × X[j]` pattern of Table VII, a dense column-major
//! soundfield access.

/// Ambisonic order.
pub(crate) const ORDER: usize = 2;
/// Channel count for 2nd order: `(ORDER + 1)²`.
pub(crate) const CHANNELS: usize = (ORDER + 1) * (ORDER + 1);

/// A block of HOA audio: `CHANNELS` channels × `len` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Soundfield {
    /// Channel-major samples: `data[ch][i]`.
    pub data: Vec<Vec<f64>>,
}

impl Soundfield {
    /// A silent soundfield of `len` samples.
    pub(crate) fn silent(len: usize) -> Self {
        Self { data: vec![vec![0.0; len]; CHANNELS] }
    }

    /// Samples per channel.
    pub(crate) fn len(&self) -> usize {
        self.data[0].len()
    }

    /// Adds another soundfield in place (HOA summation, Table VII).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub(crate) fn add_assign(&mut self, other: &Soundfield) {
        assert_eq!(self.len(), other.len(), "soundfield length mismatch");
        for (dst, src) in self.data.iter_mut().zip(&other.data) {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }

    /// Total energy across channels.
    pub fn energy(&self) -> f64 {
        self.data.iter().flatten().map(|v| v * v).sum()
    }
}

/// Real spherical harmonics (ACN/SN3D) up to order 2 for a direction.
///
/// `azimuth` is counter-clockwise from +X in the horizontal plane;
/// `elevation` is up from the horizon. Returns the 9 coefficients.
pub(crate) fn sh_coefficients(azimuth: f64, elevation: f64) -> [f64; CHANNELS] {
    let (sa, ca) = azimuth.sin_cos();
    let (se, ce) = elevation.sin_cos();
    let (s2a, c2a) = (2.0 * azimuth).sin_cos();
    // Direction cosines.
    let x = ce * ca;
    let y = ce * sa;
    let z = se;
    [
        1.0,                                 // W  (ACN 0)
        y,                                   // Y  (ACN 1)
        z,                                   // Z  (ACN 2)
        x,                                   // X  (ACN 3)
        3.0f64.sqrt() / 2.0 * ce * ce * s2a, // V  (ACN 4)
        3.0f64.sqrt() / 2.0 * (2.0 * z * y), // T  (ACN 5)
        0.5 * (3.0 * z * z - 1.0),           // R  (ACN 6)
        3.0f64.sqrt() / 2.0 * (2.0 * z * x), // S  (ACN 7)
        3.0f64.sqrt() / 2.0 * ce * ce * c2a, // U  (ACN 8)
    ]
}

/// Normalizes 16-bit-style integer samples to `[-1, 1]` floats —
/// Table VII's "normalization: INT16 → FP32" task.
pub(crate) fn normalize_block(samples_i16: &[i16]) -> Vec<f64> {
    samples_i16.iter().map(|&s| s as f64 / 32768.0).collect()
}

/// Encodes a mono block arriving from direction `(azimuth, elevation)`
/// into a 2nd-order soundfield — Table VII's "encoding: sample to
/// soundfield mapping".
pub fn encode_block(mono: &[f64], azimuth: f64, elevation: f64) -> Soundfield {
    let coeff = sh_coefficients(azimuth, elevation);
    let mut field = Soundfield::silent(mono.len());
    for (ch, &c) in coeff.iter().enumerate() {
        for (dst, &s) in field.data[ch].iter_mut().zip(mono) {
            *dst = c * s;
        }
    }
    field
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w_channel_is_omnidirectional() {
        for az in [0.0, 1.0, -2.0] {
            for el in [0.0, 0.5] {
                assert_eq!(sh_coefficients(az, el)[0], 1.0);
            }
        }
    }

    #[test]
    fn frontal_source_excites_x_not_y() {
        let c = sh_coefficients(0.0, 0.0); // +X direction
        assert!((c[3] - 1.0).abs() < 1e-12); // X
        assert!(c[1].abs() < 1e-12); // Y
        assert!(c[2].abs() < 1e-12); // Z
    }

    #[test]
    fn lateral_source_excites_y() {
        let c = sh_coefficients(std::f64::consts::FRAC_PI_2, 0.0); // +Y
        assert!((c[1] - 1.0).abs() < 1e-12);
        assert!(c[3].abs() < 1e-12);
    }

    #[test]
    fn overhead_source_excites_z_and_r() {
        let c = sh_coefficients(0.0, std::f64::consts::FRAC_PI_2);
        assert!((c[2] - 1.0).abs() < 1e-12); // Z
        assert!((c[6] - 1.0).abs() < 1e-12); // R = (3z²-1)/2 = 1
    }

    #[test]
    fn encode_scales_samples_by_coefficients() {
        let mono = vec![1.0, -0.5, 0.25];
        let field = encode_block(&mono, 0.0, 0.0);
        assert_eq!(field.data[0], mono); // W copies
        assert_eq!(field.data[3], mono); // X copies for frontal
        assert!(field.data[1].iter().all(|&v| v == 0.0)); // Y silent
    }

    #[test]
    fn summation_superimposes() {
        let a = encode_block(&[1.0; 8], 0.0, 0.0);
        let b = encode_block(&[1.0; 8], std::f64::consts::FRAC_PI_2, 0.0);
        let mut sum = a.clone();
        sum.add_assign(&b);
        assert_eq!(sum.data[0][0], 2.0); // W doubled
        assert_eq!(sum.data[3][0], 1.0); // X from a only
        assert_eq!(sum.data[1][0], 1.0); // Y from b only
    }

    #[test]
    fn normalization_full_scale() {
        let out = normalize_block(&[i16::MIN, 0, i16::MAX]);
        assert!((out[0] + 1.0).abs() < 1e-9);
        assert_eq!(out[1], 0.0);
        assert!((out[2] - 0.99997).abs() < 1e-4);
    }

    #[test]
    fn sh_magnitudes_bounded() {
        for k in 0..100 {
            let az = k as f64 * 0.063;
            let el = (k as f64 * 0.029).sin();
            for c in sh_coefficients(az, el) {
                assert!(c.abs() <= 1.0 + 1e-9, "coefficient {c} out of bound");
            }
        }
    }
}
