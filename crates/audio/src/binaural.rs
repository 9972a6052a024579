//! Binauralization and the psychoacoustic filter (Table VII
//! "audio playback" tasks).
//!
//! The soundfield decodes to a ring of virtual speakers; each speaker
//! feed convolves with that direction's HRIR pair (streaming FFT
//! convolution — the paper's "FFT; frequency-domain convolution; IFFT;
//! butterfly pattern"), and the ear signals sum to stereo.

use illixr_dsp::convolution::OverlapSave;
use illixr_dsp::fft::{fft_in_place, ifft_in_place, next_power_of_two};
use illixr_dsp::Complex;

use crate::ambisonics::{sh_coefficients, Soundfield, CHANNELS};
use crate::hrtf::HrirBank;

/// A stereo audio block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StereoBlock {
    /// Left channel.
    pub left: Vec<f64>,
    /// Right channel.
    pub right: Vec<f64>,
}

/// Applies the psychoacoustic optimization filter: a frequency-domain
/// high-shelf that compensates the near-field bass boost of headphone
/// reproduction. Processes every soundfield channel (FFT → shape →
/// IFFT).
pub fn psychoacoustic_filter(field: &Soundfield, sample_rate: f64) -> Soundfield {
    let n = field.len();
    let fft_len = next_power_of_two(n.max(2));
    // The shelf is the same for every channel: one gain per bin per call.
    let gains: Vec<f64> = (0..fft_len)
        .map(|k| {
            // Bin frequency (symmetric for the upper half).
            let bin = if k <= fft_len / 2 { k } else { fft_len - k };
            let freq = bin as f64 * sample_rate / fft_len as f64;
            // Gentle shelf: -3 dB below 120 Hz, unity above 500 Hz.
            if freq < 120.0 {
                0.7
            } else if freq < 500.0 {
                0.7 + 0.3 * (freq - 120.0) / 380.0
            } else {
                1.0
            }
        })
        .collect();
    let mut out = field.clone();
    for ch in 0..CHANNELS {
        let mut buf = vec![Complex::ZERO; fft_len];
        for (dst, &src) in buf.iter_mut().zip(&field.data[ch]) {
            dst.re = src;
        }
        fft_in_place(&mut buf);
        for (v, &gain) in buf.iter_mut().zip(&gains) {
            *v = v.scale(gain);
        }
        ifft_in_place(&mut buf);
        for (dst, src) in out.data[ch].iter_mut().zip(&buf) {
            *dst = src.re;
        }
    }
    out
}

/// A streaming binaural decoder: soundfield blocks in, stereo out.
#[derive(Debug)]
pub struct BinauralDecoder {
    /// Per-speaker decode gains: `gains[speaker][channel]`.
    gains: Vec<[f64; CHANNELS]>,
    /// Per-speaker convolvers (left, right).
    convolvers: Vec<(OverlapSave, OverlapSave)>,
    block_len: usize,
}

impl BinauralDecoder {
    /// Creates a decoder over a horizontal ring of `bank.len()` virtual
    /// speakers operating on blocks of `block_len` samples.
    ///
    /// # Panics
    ///
    /// Panics when the bank is empty or `block_len` is zero.
    pub fn new(bank: &HrirBank, block_len: usize) -> Self {
        assert!(!bank.is_empty(), "HRIR bank must not be empty");
        assert!(block_len > 0, "block length must be positive");
        let n = bank.len();
        let mut gains = Vec::with_capacity(n);
        let mut convolvers = Vec::with_capacity(n);
        for i in 0..n {
            // "Projection" (pseudo-inverse-free) decode: speaker gain =
            // SH coefficients at the speaker direction / speaker count.
            let c = sh_coefficients(bank.azimuth(i), 0.0);
            let mut g = [0.0; CHANNELS];
            for (dst, &src) in g.iter_mut().zip(&c) {
                *dst = src / n as f64;
            }
            gains.push(g);
            let p = bank.pair(i);
            convolvers.push((
                OverlapSave::new(&p.left, block_len),
                OverlapSave::new(&p.right, block_len),
            ));
        }
        Self { gains, convolvers, block_len }
    }

    /// Processes one soundfield block into a stereo block.
    ///
    /// (Index-based channel loop is intentional: `gains` is a fixed-size
    /// array addressed by ACN channel number.)
    ///
    /// # Panics
    ///
    /// Panics when the block length differs from the constructor's.
    #[allow(clippy::needless_range_loop)]
    pub fn process(&mut self, field: &Soundfield) -> StereoBlock {
        assert_eq!(field.len(), self.block_len, "block length mismatch");
        let mut left = vec![0.0; self.block_len];
        let mut right = vec![0.0; self.block_len];
        let mut feed = vec![0.0; self.block_len];
        for (g, (conv_l, conv_r)) in self.gains.iter().zip(self.convolvers.iter_mut()) {
            // Decode: speaker feed = Σ_ch gain[ch] · field[ch].
            for (i, f) in feed.iter_mut().enumerate() {
                let mut acc = 0.0;
                for ch in 0..CHANNELS {
                    acc += g[ch] * field.data[ch][i];
                }
                *f = acc;
            }
            // HRTF convolution (streaming, state carried across blocks). Both
            // ears filter the same feed: one forward transform serves the pair.
            let (l, r) = OverlapSave::process_pair(conv_l, conv_r, &feed);
            for i in 0..self.block_len {
                left[i] += l[i];
                right[i] += r[i];
            }
        }
        StereoBlock { left, right }
    }
}

/// A standard 8-speaker horizontal ring bank at `sample_rate`.
pub fn default_ring_bank(sample_rate: f64) -> HrirBank {
    let azimuths: Vec<f64> = (0..8).map(|i| i as f64 * std::f64::consts::TAU / 8.0).collect();
    HrirBank::synthesize(sample_rate, &azimuths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ambisonics::encode_block;
    use illixr_core::boundary::fnv1a;

    fn tone(len: usize, freq: f64, rate: f64) -> Vec<f64> {
        (0..len).map(|i| (std::f64::consts::TAU * freq * i as f64 / rate).sin() * 0.5).collect()
    }

    fn rms(x: &[f64]) -> f64 {
        (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }

    fn digest(samples: impl IntoIterator<Item = f64>) -> u64 {
        fnv1a(samples.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
    }

    /// Taken from the decoder that ran a left and a right convolver over
    /// each speaker feed on their own, and from the shelf that computed its
    /// gain per bin per channel: every bit of four streamed 1024-sample
    /// blocks through both stages.
    #[test]
    fn filter_and_decoder_output_bits_are_pinned() {
        let rate = 48_000.0;
        let mut decoder = BinauralDecoder::new(&default_ring_bank(rate), 1024);
        let signal = tone(4096, 440.0, rate);
        let mut digests = Vec::new();
        for (k, chunk) in signal.chunks(1024).enumerate() {
            let field = encode_block(chunk, 0.4 + 0.3 * k as f64, 0.1);
            let shaped = psychoacoustic_filter(&field, rate);
            let out = decoder.process(&shaped);
            digests.push(digest(shaped.data.iter().flatten().copied()));
            digests.push(digest(out.left.into_iter().chain(out.right)));
        }
        let want: [u64; 8] = [
            0x13b0_cc99_4c01_dda2,
            0x8ede_3c2f_bf85_b2bb,
            0x508f_df42_5293_2b52,
            0x1ed4_8ee2_36dd_e36f,
            0xbab9_3e98_14ed_7b5f,
            0x7aff_6ed1_3959_e39b,
            0x799e_5b03_5065_b4d5,
            0x61ad_2b5d_b954_953f,
        ];
        assert_eq!(digests, want, "got {digests:#018x?}");
    }

    #[test]
    fn left_source_is_louder_in_left_ear() {
        let rate = 48_000.0;
        let bank = default_ring_bank(rate);
        let mut decoder = BinauralDecoder::new(&bank, 1024);
        // Source at +90° (left).
        let field = encode_block(&tone(1024, 440.0, rate), std::f64::consts::FRAC_PI_2, 0.0);
        // Run several blocks to pass the convolution warm-up.
        let mut out = StereoBlock::default();
        for _ in 0..4 {
            out = decoder.process(&field);
        }
        assert!(
            rms(&out.left) > 1.3 * rms(&out.right),
            "L {} R {}",
            rms(&out.left),
            rms(&out.right)
        );
    }

    #[test]
    fn frontal_source_is_balanced() {
        let rate = 48_000.0;
        let bank = default_ring_bank(rate);
        let mut decoder = BinauralDecoder::new(&bank, 1024);
        let field = encode_block(&tone(1024, 330.0, rate), 0.0, 0.0);
        let mut out = StereoBlock::default();
        for _ in 0..4 {
            out = decoder.process(&field);
        }
        let ratio = rms(&out.left) / rms(&out.right).max(1e-12);
        assert!((0.85..1.18).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn psychoacoustic_filter_attenuates_bass() {
        let rate = 48_000.0;
        let low = encode_block(&tone(2048, 60.0, rate), 0.0, 0.0);
        let high = encode_block(&tone(2048, 2000.0, rate), 0.0, 0.0);
        let low_f = psychoacoustic_filter(&low, rate);
        let high_f = psychoacoustic_filter(&high, rate);
        let low_ratio = rms(&low_f.data[0]) / rms(&low.data[0]);
        let high_ratio = rms(&high_f.data[0]) / rms(&high.data[0]);
        assert!(low_ratio < 0.8, "bass not attenuated: {low_ratio}");
        assert!(high_ratio > 0.95, "treble should pass: {high_ratio}");
    }

    #[test]
    fn streaming_blocks_are_continuous() {
        // No discontinuity between consecutive processed blocks: feed a
        // continuous tone split across blocks, check the seam.
        let rate = 48_000.0;
        let bank = default_ring_bank(rate);
        let mut decoder = BinauralDecoder::new(&bank, 256);
        let signal = tone(1024, 500.0, rate);
        let mut all_left = Vec::new();
        for chunk in signal.chunks(256) {
            let field = encode_block(chunk, 0.3, 0.0);
            all_left.extend(decoder.process(&field).left);
        }
        // Max sample-to-sample jump in the steady state should be small
        // relative to the amplitude (a tone at 500 Hz changes slowly).
        let max_jump = all_left[300..].windows(2).map(|w| (w[1] - w[0]).abs()).fold(0.0, f64::max);
        let amp = all_left[300..].iter().cloned().fold(0.0, |a: f64, b| a.max(b.abs()));
        assert!(max_jump < 0.25 * amp.max(1e-9), "seam discontinuity {max_jump} vs amp {amp}");
    }
}
