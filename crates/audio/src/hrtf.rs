//! A parametric synthetic HRIR (head-related impulse response) bank.
//!
//! Real HRTF datasets are measured on dummy heads; this stand-in
//! synthesizes the three dominant cues analytically — interaural time
//! difference (Woodworth's spherical-head model), interaural level
//! difference / head shadow (a one-pole low-pass on the far ear), and a
//! pinna-like spectral notch — which is enough for the binauralization
//! stage to exercise the exact compute pattern of the real component
//! (per-speaker FIR convolution via FFT).

/// HRIR length in taps.
pub const HRIR_TAPS: usize = 64;

/// Head radius, meters (average adult).
const HEAD_RADIUS: f64 = 0.0875;
/// Speed of sound, m/s.
const SPEED_OF_SOUND: f64 = 343.0;

/// A left/right pair of impulse responses for one direction.
#[derive(Debug, Clone, PartialEq)]
pub struct HrirPair {
    /// Left-ear impulse response.
    pub left: Vec<f64>,
    /// Right-ear impulse response.
    pub right: Vec<f64>,
}

/// A bank of HRIRs for a set of directions.
#[derive(Debug, Clone)]
pub struct HrirBank {
    pairs: Vec<HrirPair>,
    azimuths: Vec<f64>,
}

impl HrirBank {
    /// Synthesizes a bank for the given horizontal-plane azimuths
    /// (radians, counter-clockwise from front/+X).
    pub(crate) fn synthesize(sample_rate: f64, azimuths: &[f64]) -> Self {
        let pairs = azimuths.iter().map(|&az| synthesize_pair(sample_rate, az)).collect();
        Self { pairs, azimuths: azimuths.to_vec() }
    }

    /// Number of directions.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The HRIR pair for direction index `i`.
    pub fn pair(&self, i: usize) -> &HrirPair {
        &self.pairs[i]
    }

    /// The azimuth of direction index `i`.
    pub(crate) fn azimuth(&self, i: usize) -> f64 {
        self.azimuths[i]
    }
}

/// Woodworth ITD for a source at `azimuth` (0 = front, +π/2 = left).
fn itd_seconds(azimuth: f64) -> f64 {
    // Positive = sound reaches the LEFT ear first.
    let a = azimuth.sin().asin(); // wrap into [-π/2, π/2] lobe
    HEAD_RADIUS / SPEED_OF_SOUND * (a + a.sin())
}

fn synthesize_pair(sample_rate: f64, azimuth: f64) -> HrirPair {
    let itd = itd_seconds(azimuth);
    // Left ear leads for positive azimuth (source on the left).
    let delay_left = (-itd).max(0.0);
    let delay_right = itd.max(0.0);
    // Head shadow: the contralateral ear hears a low-passed, quieter
    // signal. Shadow strength follows |sin(az)|.
    let shadow = azimuth.sin().abs();
    let make_ear = |delay_s: f64, shadowed: bool| -> Vec<f64> {
        let mut h = vec![0.0; HRIR_TAPS];
        let delay_taps = delay_s * sample_rate;
        let d0 = delay_taps.floor() as usize;
        let frac = delay_taps - d0 as f64;
        let gain = if shadowed { 1.0 - 0.55 * shadow } else { 1.0 };
        if d0 + 1 < HRIR_TAPS {
            // Fractional-delay impulse.
            h[d0] = gain * (1.0 - frac);
            h[d0 + 1] = gain * frac;
        }
        if shadowed && shadow > 0.0 {
            // One-pole low-pass smear of the impulse (head shadow).
            let alpha = 0.35 + 0.45 * shadow;
            let mut state = 0.0;
            for v in h.iter_mut() {
                state = alpha * state + (1.0 - alpha) * *v;
                *v = state;
            }
        }
        // Pinna notch: a small negative echo a fixed delay later.
        let notch_delay = (0.00025 * sample_rate) as usize; // 0.25 ms
        if d0 + notch_delay + 1 < HRIR_TAPS {
            h[d0 + notch_delay] -= 0.3 * gain;
        }
        h
    };
    // Source on the left (azimuth > 0): right ear is shadowed.
    let left_shadowed = azimuth.sin() < 0.0;
    HrirPair {
        left: make_ear(delay_left, left_shadowed),
        right: make_ear(delay_right, !left_shadowed && azimuth.sin() != 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak_index(h: &[f64]) -> usize {
        h.iter().enumerate().max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap()).unwrap().0
    }

    fn energy(h: &[f64]) -> f64 {
        h.iter().map(|v| v * v).sum()
    }

    #[test]
    fn frontal_source_is_symmetric() {
        let bank = HrirBank::synthesize(48_000.0, &[0.0]);
        let p = bank.pair(0);
        assert_eq!(peak_index(&p.left), peak_index(&p.right));
        assert!((energy(&p.left) - energy(&p.right)).abs() < 1e-9);
    }

    #[test]
    fn lateral_source_produces_itd() {
        let bank = HrirBank::synthesize(48_000.0, &[std::f64::consts::FRAC_PI_2]); // left
        let p = bank.pair(0);
        // Left ear hears it first.
        assert!(peak_index(&p.left) < peak_index(&p.right), "no ITD");
    }

    #[test]
    fn lateral_source_produces_ild() {
        let bank = HrirBank::synthesize(48_000.0, &[std::f64::consts::FRAC_PI_2]);
        let p = bank.pair(0);
        assert!(energy(&p.left) > 1.5 * energy(&p.right), "no ILD");
    }

    #[test]
    fn mirrored_azimuths_mirror_ears() {
        let bank = HrirBank::synthesize(48_000.0, &[0.6, -0.6]);
        let l = bank.pair(0);
        let r = bank.pair(1);
        for i in 0..HRIR_TAPS {
            assert!((l.left[i] - r.right[i]).abs() < 1e-12);
            assert!((l.right[i] - r.left[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn itd_magnitude_realistic() {
        // Max ITD for a human head ≈ 0.6–0.7 ms.
        let itd = itd_seconds(std::f64::consts::FRAC_PI_2);
        assert!(itd > 4e-4 && itd < 8e-4, "itd {itd}");
    }
}
