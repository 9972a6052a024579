//! Biquad IIR filters (RBJ cookbook designs) used by the psychoacoustic
//! stage of audio playback and for IMU signal conditioning.

use std::f64::consts::PI;

/// A direct-form-I biquad filter section.
///
/// # Examples
///
/// ```
/// use illixr_dsp::Biquad;
/// let mut lp = Biquad::low_pass(48_000.0, 1000.0, 0.707);
/// // DC passes through a low-pass unchanged once settled.
/// let mut y = 0.0;
/// for _ in 0..4096 { y = lp.process(1.0); }
/// assert!((y - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
}

impl Biquad {
    /// Creates a filter from normalized coefficients (`a0 == 1`).
    pub(crate) fn from_coefficients(b0: f64, b1: f64, b2: f64, a1: f64, a2: f64) -> Self {
        Self { b0, b1, b2, a1, a2, x1: 0.0, x2: 0.0, y1: 0.0, y2: 0.0 }
    }

    /// RBJ low-pass design.
    ///
    /// # Panics
    ///
    /// Panics when `cutoff_hz` is not in `(0, sample_rate/2)` or `q <= 0`.
    pub fn low_pass(sample_rate: f64, cutoff_hz: f64, q: f64) -> Self {
        let (w0, alpha, cos_w0) = rbj_params(sample_rate, cutoff_hz, q);
        let _ = w0;
        let b1 = 1.0 - cos_w0;
        let b0 = b1 / 2.0;
        let b2 = b0;
        let a0 = 1.0 + alpha;
        Self::from_coefficients(b0 / a0, b1 / a0, b2 / a0, -2.0 * cos_w0 / a0, (1.0 - alpha) / a0)
    }

    /// Processes one sample.
    #[inline]
    pub fn process(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.b1 * self.x1 + self.b2 * self.x2
            - self.a1 * self.y1
            - self.a2 * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Processes a block in place.
    pub fn process_block(&mut self, block: &mut [f64]) {
        for v in block {
            *v = self.process(*v);
        }
    }
}

fn rbj_params(sample_rate: f64, cutoff_hz: f64, q: f64) -> (f64, f64, f64) {
    assert!(cutoff_hz > 0.0 && cutoff_hz < sample_rate / 2.0, "cutoff must be below Nyquist");
    assert!(q > 0.0, "Q must be positive");
    let w0 = 2.0 * PI * cutoff_hz / sample_rate;
    (w0, w0.sin() / (2.0 * q), w0.cos())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steady-state RMS of a unit sine through a fresh copy of `filter`.
    fn rms_of_sine(mut filter: Biquad, freq: f64, rate: f64) -> f64 {
        let n = 8192;
        let mut acc = 0.0;
        for i in 0..n {
            let x = (2.0 * PI * freq * i as f64 / rate).sin();
            let y = filter.process(x);
            if i >= n / 2 {
                acc += y * y;
            }
        }
        (acc / (n / 2) as f64).sqrt()
    }

    #[test]
    fn low_pass_attenuates_high_frequencies() {
        let rate = 48_000.0;
        let lp = Biquad::low_pass(rate, 1_000.0, 0.707);
        let passband = rms_of_sine(lp, 100.0, rate);
        let stopband = rms_of_sine(lp, 15_000.0, rate);
        assert!(passband > 10.0 * stopband, "pass={passband} stop={stopband}");
    }

    #[test]
    #[should_panic]
    fn cutoff_above_nyquist_panics() {
        let _ = Biquad::low_pass(48_000.0, 30_000.0, 0.707);
    }
}
