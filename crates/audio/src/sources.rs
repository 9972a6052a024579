//! Deterministic test sound sources — the stand-ins for the paper's
//! Freesound clips ("Science Teacher Lecturing", "Radio Recording").

use illixr_core::boundary::Xoshiro256pp;

/// A block-based mono source with a (possibly moving) direction.
#[derive(Debug, Clone)]
pub struct SoundSource {
    kind: SourceKind,
    sample_rate: f64,
    phase: f64,
    sample_index: u64,
    rng: Xoshiro256pp,
    /// Base azimuth, radians.
    pub azimuth: f64,
    /// Orbit rate, radians/second (sources can move around the
    /// listener).
    pub orbit_rate: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SourceKind {
    /// Speech-like: a tone with syllabic amplitude and pitch modulation
    /// (the "lecture" stand-in).
    Speech { base_freq: f64 },
    /// Band-limited noise (the "radio recording" stand-in).
    Noise { level: f64 },
}

impl SoundSource {
    /// A speech-like source ("Science Teacher Lecturing").
    pub fn lecture(sample_rate: f64, azimuth: f64, seed: u64) -> Self {
        Self::new(SourceKind::Speech { base_freq: 160.0 }, sample_rate, azimuth, seed)
    }

    /// A noise source ("Radio Recording").
    pub(crate) fn radio(sample_rate: f64, azimuth: f64, seed: u64) -> Self {
        Self::new(SourceKind::Noise { level: 0.25 }, sample_rate, azimuth, seed)
    }

    fn new(kind: SourceKind, sample_rate: f64, azimuth: f64, seed: u64) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        Self {
            kind,
            sample_rate,
            phase: 0.0,
            sample_index: 0,
            rng: Xoshiro256pp::new(seed ^ 0xA0D10),
            azimuth,
            orbit_rate: 0.0,
        }
    }

    /// Makes the source orbit the listener at `rate` rad/s.
    pub(crate) fn with_orbit(mut self, rate: f64) -> Self {
        self.orbit_rate = rate;
        self
    }

    /// Current azimuth (accounting for orbit).
    pub(crate) fn current_azimuth(&self) -> f64 {
        self.azimuth + self.orbit_rate * self.sample_index as f64 / self.sample_rate
    }

    /// Generates the next block of `len` samples.
    pub fn next_block(&mut self, len: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let t = self.sample_index as f64 / self.sample_rate;
            let v = match self.kind {
                SourceKind::Speech { base_freq } => {
                    // Syllables at ~4 Hz, vibrato at ~6 Hz.
                    let envelope = (0.5 + 0.5 * (std::f64::consts::TAU * 4.0 * t).sin()).powi(2);
                    let freq = base_freq * (1.0 + 0.08 * (std::f64::consts::TAU * 6.0 * t).sin());
                    self.phase += std::f64::consts::TAU * freq / self.sample_rate;
                    (self.phase.sin() + 0.4 * (2.0 * self.phase).sin()) * 0.35 * envelope
                }
                SourceKind::Noise { level } => {
                    // First-order smoothed noise ≈ band-limited.
                    let white = self.rng.uniform(-1.0..1.0);
                    self.phase = 0.85 * self.phase + 0.15 * white;
                    self.phase * level * 4.0
                }
            };
            out.push(v);
            self.sample_index += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_deterministic_by_seed() {
        let mut a = SoundSource::radio(48_000.0, 0.0, 7);
        let mut b = SoundSource::radio(48_000.0, 0.0, 7);
        assert_eq!(a.next_block(256), b.next_block(256));
    }

    #[test]
    fn lecture_has_amplitude_modulation() {
        let mut src = SoundSource::lecture(48_000.0, 0.0, 1);
        let block = src.next_block(48_000);
        // RMS over 50 ms windows must vary (syllables).
        let win = 2400;
        let rms: Vec<f64> = block
            .chunks(win)
            .map(|c| (c.iter().map(|v| v * v).sum::<f64>() / c.len() as f64).sqrt())
            .collect();
        let max = rms.iter().cloned().fold(0.0, f64::max);
        let min = rms.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 3.0 * (min + 1e-6), "no modulation: max {max} min {min}");
    }

    #[test]
    fn orbit_moves_azimuth() {
        let mut src = SoundSource::lecture(48_000.0, 0.0, 1).with_orbit(1.0);
        assert_eq!(src.current_azimuth(), 0.0);
        src.next_block(48_000); // 1 second
        assert!((src.current_azimuth() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_bounded() {
        for mut src in
            [SoundSource::lecture(48_000.0, 0.0, 2), SoundSource::radio(48_000.0, 0.0, 3)]
        {
            let block = src.next_block(4096);
            assert!(block.iter().all(|v| v.abs() <= 1.5), "sample out of range");
        }
    }
}
