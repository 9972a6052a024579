//! Direct and FFT-based convolution, including a streaming overlap-save
//! convolver for block-based audio processing.
//!
//! An overlap-save step is `ifft(fft(history ++ block) · fft(kernel))`, and
//! only the last factor knows the kernel. Two convolvers filtering one
//! signal (a left and a right HRIR) therefore share the forward transform:
//! [`OverlapSave::process_pair`] computes it once when the two agree on
//! transform length and history, and is otherwise two [`OverlapSave::process`]
//! calls — the same bits out either way, which the tests pin against two
//! independent convolvers.

use crate::complex::Complex;
use crate::fft::{fft_in_place, ifft_in_place, next_power_of_two};

/// Direct (time-domain) full convolution. Output length is
/// `signal.len() + kernel.len() - 1`.
pub fn convolve_direct(signal: &[f64], kernel: &[f64]) -> Vec<f64> {
    if signal.is_empty() || kernel.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; signal.len() + kernel.len() - 1];
    for (i, &s) in signal.iter().enumerate() {
        if s == 0.0 {
            continue;
        }
        for (j, &k) in kernel.iter().enumerate() {
            out[i + j] += s * k;
        }
    }
    out
}

/// FFT-based full convolution. Matches [`convolve_direct`] to numerical
/// precision but runs in `O(n log n)`.
pub fn fft_convolve(signal: &[f64], kernel: &[f64]) -> Vec<f64> {
    if signal.is_empty() || kernel.is_empty() {
        return Vec::new();
    }
    let out_len = signal.len() + kernel.len() - 1;
    let n = next_power_of_two(out_len);
    let mut a = vec![Complex::ZERO; n];
    let mut b = vec![Complex::ZERO; n];
    for (dst, &src) in a.iter_mut().zip(signal) {
        dst.re = src;
    }
    for (dst, &src) in b.iter_mut().zip(kernel) {
        dst.re = src;
    }
    fft_in_place(&mut a);
    fft_in_place(&mut b);
    for (x, y) in a.iter_mut().zip(&b) {
        *x *= *y;
    }
    ifft_in_place(&mut a);
    a.truncate(out_len);
    a.into_iter().map(|c| c.re).collect()
}

/// Streaming overlap-save convolver: applies a fixed FIR kernel to a
/// sequence of equally sized blocks with correct state carried between
/// blocks. This is how the audio playback component applies HRTFs to
/// 1024-sample blocks (paper Table III).
///
/// # Examples
///
/// ```
/// use illixr_dsp::OverlapSave;
/// let kernel = [0.5, 0.25];
/// let mut conv = OverlapSave::new(&kernel, 8);
/// let block = [1.0; 8];
/// let out = conv.process(&block);
/// assert_eq!(out.len(), 8);
/// assert!((out[0] - 0.5).abs() < 1e-12);   // only kernel[0] overlaps sample 0
/// assert!((out[1] - 0.75).abs() < 1e-12);  // steady state
/// ```
#[derive(Debug, Clone)]
pub struct OverlapSave {
    kernel_spectrum: Vec<Complex>,
    fft_len: usize,
    block_len: usize,
    overlap: Vec<f64>,
}

impl OverlapSave {
    /// Creates a convolver for `kernel` operating on blocks of
    /// `block_len` samples.
    ///
    /// # Panics
    ///
    /// Panics when the kernel is empty or `block_len` is zero.
    pub fn new(kernel: &[f64], block_len: usize) -> Self {
        assert!(!kernel.is_empty(), "overlap-save kernel must not be empty");
        assert!(block_len > 0, "block length must be positive");
        let fft_len = next_power_of_two(block_len + kernel.len() - 1).max(2);
        let mut spec = vec![Complex::ZERO; fft_len];
        for (dst, &src) in spec.iter_mut().zip(kernel) {
            dst.re = src;
        }
        fft_in_place(&mut spec);
        Self { kernel_spectrum: spec, fft_len, block_len, overlap: vec![0.0; kernel.len() - 1] }
    }

    /// Processes one block, returning exactly `block.len()` output samples.
    ///
    /// # Panics
    ///
    /// Panics when `block.len() != block_len` given at construction.
    pub fn process(&mut self, block: &[f64]) -> Vec<f64> {
        let spectrum = self.input_spectrum(block);
        self.finish(spectrum, block)
    }

    /// Processes one block through two convolvers that filter the same
    /// signal with different kernels (an HRIR pair), returning `(a, b)`'s
    /// outputs — to the bit what `a.process(block)` and `b.process(block)`
    /// return, and the same state left behind.
    ///
    /// The forward transform of `history ++ block` does not depend on the
    /// kernel, so when the two convolvers agree on transform length and hold
    /// the same history it is computed once and multiplied into each
    /// kernel's spectrum. When they do not (kernels of unequal length, or
    /// convolvers that were fed different blocks before) this is the two
    /// `process` calls.
    ///
    /// # Panics
    ///
    /// Panics when `block.len()` differs from either convolver's `block_len`.
    pub fn process_pair(a: &mut Self, b: &mut Self, block: &[f64]) -> (Vec<f64>, Vec<f64>) {
        // Bits, not `==`: a history of `-0.0` is not one of `0.0`.
        let same_history =
            a.overlap.iter().map(|v| v.to_bits()).eq(b.overlap.iter().map(|v| v.to_bits()));
        if a.fft_len != b.fft_len || a.block_len != b.block_len || !same_history {
            return (a.process(block), b.process(block));
        }
        let spectrum = a.input_spectrum(block);
        (a.finish(spectrum.clone(), block), b.finish(spectrum, block))
    }

    /// The forward transform of the carried history followed by `block`,
    /// zero-padded to the transform length.
    fn input_spectrum(&self, block: &[f64]) -> Vec<Complex> {
        assert_eq!(block.len(), self.block_len, "block size must match constructor");
        let mut buf = vec![Complex::ZERO; self.fft_len];
        for (dst, &src) in buf.iter_mut().zip(self.overlap.iter().chain(block.iter())) {
            dst.re = src;
        }
        fft_in_place(&mut buf);
        buf
    }

    /// Multiplies the input spectrum by the kernel's, transforms back and
    /// moves the history on by `block`.
    fn finish(&mut self, mut buf: Vec<Complex>, block: &[f64]) -> Vec<f64> {
        let m = self.overlap.len(); // kernel_len - 1
        for (x, y) in buf.iter_mut().zip(&self.kernel_spectrum) {
            *x *= *y;
        }
        ifft_in_place(&mut buf);
        // Valid samples start after the first `m` (contaminated) outputs.
        let out: Vec<f64> = buf[m..m + self.block_len].iter().map(|c| c.re).collect();
        // The next block's history is the last `m` samples of
        // `history ++ block`.
        if let Some(fresh) = block.len().checked_sub(m) {
            self.overlap.copy_from_slice(&block[fresh..]);
        } else {
            self.overlap.copy_within(block.len().., 0);
            self.overlap[m - block.len()..].copy_from_slice(block);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_matches_direct() {
        let signal: Vec<f64> = (0..37).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let kernel: Vec<f64> = (0..9).map(|i| (i as f64 * 0.3).sin()).collect();
        let a = convolve_direct(&signal, &kernel);
        let b = fft_convolve(&signal, &kernel);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(convolve_direct(&[], &[1.0]).is_empty());
        assert!(fft_convolve(&[1.0], &[]).is_empty());
    }

    #[test]
    fn identity_kernel() {
        let signal = [1.0, 2.0, 3.0];
        assert_eq!(convolve_direct(&signal, &[1.0]), signal.to_vec());
    }

    #[test]
    fn overlap_save_matches_batch_convolution() {
        let kernel: Vec<f64> = (0..17).map(|i| ((i * 3) % 7) as f64 * 0.1 - 0.2).collect();
        let signal: Vec<f64> = (0..256).map(|i| ((i * 11) % 13) as f64 - 6.0).collect();
        let block = 64;
        let mut conv = OverlapSave::new(&kernel, block);
        let mut streamed = Vec::new();
        for chunk in signal.chunks(block) {
            streamed.extend(conv.process(chunk));
        }
        let batch = convolve_direct(&signal, &kernel);
        for (i, (a, b)) in streamed.iter().zip(batch.iter()).enumerate() {
            assert!((a - b).abs() < 1e-9, "sample {i}: {a} vs {b}");
        }
    }

    /// `process` as first written, kept verbatim as the bit reference: its
    /// own forward transform, the history rebuilt through a fresh vector.
    fn reference_process(conv: &mut OverlapSave, block: &[f64]) -> Vec<f64> {
        assert_eq!(block.len(), conv.block_len, "block size must match constructor");
        let m = conv.overlap.len(); // kernel_len - 1
        let mut buf = vec![Complex::ZERO; conv.fft_len];
        for (dst, &src) in buf.iter_mut().zip(conv.overlap.iter().chain(block.iter())) {
            dst.re = src;
        }
        fft_in_place(&mut buf);
        for (x, y) in buf.iter_mut().zip(&conv.kernel_spectrum) {
            *x *= *y;
        }
        ifft_in_place(&mut buf);
        // Valid samples start after the first `m` (contaminated) outputs.
        let out: Vec<f64> = buf[m..m + conv.block_len].iter().map(|c| c.re).collect();
        // Save the tail of the input as the next block's history.
        let hist: Vec<f64> = conv.overlap.iter().copied().chain(block.iter().copied()).collect();
        let keep = hist.len() - m;
        conv.overlap.copy_from_slice(&hist[keep..]);
        out
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn kernel(len: usize, seed: usize) -> Vec<f64> {
        (0..len).map(|i| (((i + seed) * 29) % 31) as f64 * 0.04 - 0.6).collect()
    }

    /// Six streamed blocks through a pair against the reference run on
    /// clones, outputs and carried history both: kernels of one length
    /// (shared spectrum), of unequal lengths (two `process` calls), longer
    /// than the block (history moves within itself), and of one sample (no
    /// history).
    #[test]
    fn process_pair_is_bit_exact_against_independent_convolvers() {
        for (len_a, len_b, block_len) in [(128, 128, 256), (128, 37, 256), (40, 40, 16), (1, 1, 8)]
        {
            let mut a = OverlapSave::new(&kernel(len_a, 3), block_len);
            let mut b = OverlapSave::new(&kernel(len_b, 11), block_len);
            let (mut ref_a, mut ref_b) = (a.clone(), b.clone());
            for k in 0..6 {
                let block: Vec<f64> =
                    (0..block_len).map(|i| (((i + 97 * k) * 13) % 17) as f64 - 8.0).collect();
                let (got_a, got_b) = OverlapSave::process_pair(&mut a, &mut b, &block);
                let want_a = reference_process(&mut ref_a, &block);
                let want_b = reference_process(&mut ref_b, &block);
                let case = format!("kernels {len_a}/{len_b}, block {k}");
                assert!(bits(&got_a) == bits(&want_a), "{case}: first output");
                assert!(bits(&got_b) == bits(&want_b), "{case}: second output");
                assert!(bits(&a.overlap) == bits(&ref_a.overlap), "{case}: first history");
                assert!(bits(&b.overlap) == bits(&ref_b.overlap), "{case}: second history");
            }
        }
    }

    /// Two convolvers of one shape that were fed different blocks hold
    /// different histories: the pair must not hand the first one's spectrum
    /// to the second.
    #[test]
    fn process_pair_does_not_share_across_different_histories() {
        let mut a = OverlapSave::new(&kernel(9, 3), 8);
        let mut b = OverlapSave::new(&kernel(9, 11), 8);
        a.process(&[1.0; 8]);
        b.process(&[-2.0; 8]);
        let (mut ref_a, mut ref_b) = (a.clone(), b.clone());
        let block = [0.5, -1.0, 2.0, 0.0, 3.0, -0.25, 1.5, 4.0];
        let (got_a, got_b) = OverlapSave::process_pair(&mut a, &mut b, &block);
        assert!(bits(&got_a) == bits(&reference_process(&mut ref_a, &block)));
        assert!(bits(&got_b) == bits(&reference_process(&mut ref_b, &block)));
    }

    #[test]
    #[should_panic]
    fn overlap_save_wrong_block_size_panics() {
        let mut conv = OverlapSave::new(&[1.0], 8);
        conv.process(&[0.0; 4]);
    }
}
