//! Iterative radix-2 Cooley-Tukey FFT, plus 2-D transforms for the
//! hologram propagation kernels.
//!
//! # The twiddle recurrence is pinned
//!
//! Every audio block and hologram plane depends on the last bit of a
//! transform, and a stage's twiddle factors are *defined* by a recurrence:
//! `w₀ = 1`, `wₖ₊₁ = wₖ · cis(±2π / len)`, each product rounded as
//! [`Complex`] multiplies. That is not `cis(±2πk / len)` to the bit, and it
//! is what every block of every stage of every call used to walk for
//! itself. The factors depend on `(len, direction)` and nothing else, so
//! they are built by that same recurrence once a process and read from a
//! table afterwards: every butterfly multiplies by the bits it always did,
//! and the serial dependence `w *= wlen` leaves the inner loop. No plan
//! object and nothing to configure — [`fft_in_place`] and its callers are
//! unchanged. The tests keep the walking transform verbatim as
//! `reference_transform` and compare every bit, both directions, every
//! power of two to 4096.

use std::sync::OnceLock;

use crate::complex::Complex;

/// In-place radix-2 decimation-in-time FFT.
///
/// # Panics
///
/// Panics when `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT (includes the `1/N` scaling).
///
/// # Panics
///
/// Panics when `data.len()` is not a power of two.
pub fn ifft_in_place(data: &mut [Complex]) {
    transform(data, true);
    let scale = 1.0 / data.len() as f64;
    for v in data.iter_mut() {
        *v = v.scale(scale);
    }
}

/// Out-of-place FFT convenience wrapper.
///
/// # Panics
///
/// Panics when `data.len()` is not a power of two.
pub fn fft(data: &[Complex]) -> Vec<Complex> {
    let mut out = data.to_vec();
    fft_in_place(&mut out);
    out
}

/// Out-of-place inverse FFT convenience wrapper.
///
/// # Panics
///
/// Panics when `data.len()` is not a power of two.
pub fn ifft(data: &[Complex]) -> Vec<Complex> {
    let mut out = data.to_vec();
    ifft_in_place(&mut out);
    out
}

/// Row-column 2-D FFT of a `height × width` row-major buffer.
///
/// # Panics
///
/// Panics when `width`/`height` are not powers of two or
/// `data.len() != width * height`.
pub fn fft_2d(data: &mut [Complex], width: usize, height: usize) {
    transform_2d(data, width, height, false);
}

/// Row-column 2-D inverse FFT (includes `1/(W·H)` scaling).
///
/// # Panics
///
/// Panics when `width`/`height` are not powers of two or
/// `data.len() != width * height`.
pub fn ifft_2d(data: &mut [Complex], width: usize, height: usize) {
    transform_2d(data, width, height, true);
    let scale = 1.0 / (width * height) as f64;
    for v in data.iter_mut() {
        *v = v.scale(scale);
    }
}

fn transform_2d(data: &mut [Complex], width: usize, height: usize, inverse: bool) {
    assert_eq!(data.len(), width * height, "2-D FFT: buffer size mismatch");
    // Rows.
    for row in data.chunks_mut(width) {
        transform(row, inverse);
    }
    // Columns via a scratch buffer.
    let mut col = vec![Complex::ZERO; height];
    for c in 0..width {
        for r in 0..height {
            col[r] = data[r * width + c];
        }
        transform(&mut col, inverse);
        for r in 0..height {
            data[r * width + c] = col[r];
        }
    }
}

/// The `len / 2` twiddle factors of the butterfly stage of length `len`, in
/// one direction, by the module's recurrence. One table per `(len,
/// direction)` for the life of the process; a transform of length `n` reads
/// `n − 1` factors in all, as much memory as its own buffer.
fn stage_twiddles(len: usize, inverse: bool) -> &'static [Complex] {
    static TABLES: [[OnceLock<Box<[Complex]>>; usize::BITS as usize]; 2] =
        [const { [const { OnceLock::new() }; usize::BITS as usize] }; 2];
    TABLES[usize::from(inverse)][len.trailing_zeros() as usize].get_or_init(|| {
        let sign = if inverse { 1.0 } else { -1.0 };
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut w = Complex::ONE;
        (0..len / 2)
            .map(|_| {
                let factor = w;
                w *= wlen;
                factor
            })
            .collect()
    })
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterfly stages.
    let mut len = 2;
    while len <= n {
        let twiddles = stage_twiddles(len, inverse);
        for block in data.chunks_exact_mut(len) {
            let (lower, upper) = block.split_at_mut(len / 2);
            for ((a, b), &w) in lower.iter_mut().zip(upper).zip(twiddles) {
                let u = *a;
                let v = *b * w;
                *a = u + v;
                *b = u - v;
            }
        }
        len <<= 1;
    }
}

/// Returns the smallest power of two ≥ `n`.
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// The transform as first written, kept verbatim as the bit reference:
    /// every block of every stage walks `w *= wlen` from `Complex::ONE`.
    /// `transform` must equal it bit for bit.
    fn reference_transform(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation.
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                data.swap(i, j);
            }
        }
        // Butterfly stages.
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            for start in (0..n).step_by(len) {
                let mut w = Complex::ONE;
                for k in 0..len / 2 {
                    let u = data[start + k];
                    let v = data[start + k + len / 2] * w;
                    data[start + k] = u + v;
                    data[start + k + len / 2] = u - v;
                    w *= wlen;
                }
            }
            len <<= 1;
        }
    }

    /// `transform_2d` as first written, over the reference transform.
    fn reference_transform_2d(data: &mut [Complex], width: usize, height: usize, inverse: bool) {
        for row in data.chunks_mut(width) {
            reference_transform(row, inverse);
        }
        let mut col = vec![Complex::ZERO; height];
        for c in 0..width {
            for r in 0..height {
                col[r] = data[r * width + c];
            }
            reference_transform(&mut col, inverse);
            for r in 0..height {
                data[r * width + c] = col[r];
            }
        }
    }

    /// A hashed signal in `[-1, 1)²`: no symmetry for a wrong twiddle to
    /// hide behind, the same on every platform. The mixer borrows one
    /// SplitMix64 constant but is a different function, and a test input
    /// rather than a hash anything records, so it stays as written.
    fn hashed_signal(n: usize) -> Vec<Complex> {
        let unit = |i: u64| {
            let mut v = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            v ^= v >> 29;
            v = v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (v >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        (0..n as u64).map(|i| Complex::new(unit(2 * i), unit(2 * i + 1))).collect()
    }

    fn bits(data: &[Complex]) -> Vec<(u64, u64)> {
        data.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn transform_is_bit_exact_against_the_reference() {
        for log2 in 1..=12 {
            let signal = hashed_signal(1 << log2);
            for inverse in [false, true] {
                let (mut got, mut want) = (signal.clone(), signal.clone());
                transform(&mut got, inverse);
                reference_transform(&mut want, inverse);
                assert!(bits(&got) == bits(&want), "n = 2^{log2}, inverse {inverse}");
            }
        }
    }

    #[test]
    fn transform_2d_is_bit_exact_against_the_reference() {
        for (w, h) in [(32, 32), (64, 16)] {
            let signal = hashed_signal(w * h);
            let (mut got, mut want) = (signal.clone(), signal.clone());
            fft_2d(&mut got, w, h);
            reference_transform_2d(&mut want, w, h, false);
            assert!(bits(&got) == bits(&want), "fft_2d {w}x{h}");
            ifft_2d(&mut got, w, h);
            reference_transform_2d(&mut want, w, h, true);
            let scale = 1.0 / (w * h) as f64;
            want.iter_mut().for_each(|v| *v = v.scale(scale));
            assert!(bits(&got) == bits(&want), "ifft_2d {w}x{h}");
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 16];
        data[0] = Complex::ONE;
        fft_in_place(&mut data);
        for v in &data {
            assert!((v.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sine_concentrates_in_one_bin() {
        let n = 64;
        let freq = 5;
        let signal: Vec<Complex> = (0..n)
            .map(|i| Complex::new((2.0 * PI * freq as f64 * i as f64 / n as f64).sin(), 0.0))
            .collect();
        let spec = fft(&signal);
        // Energy at bins `freq` and `n - freq`, ~nothing elsewhere.
        for (k, v) in spec.iter().enumerate() {
            if k == freq || k == n - freq {
                assert!(v.abs() > n as f64 / 4.0, "bin {k} should carry energy");
            } else {
                assert!(v.abs() < 1e-9, "bin {k} should be empty, got {}", v.abs());
            }
        }
    }

    #[test]
    fn roundtrip_random() {
        let signal: Vec<Complex> = (0..128)
            .map(|i| Complex::new(((i * 37) % 11) as f64 - 5.0, ((i * 13) % 7) as f64))
            .collect();
        let back = ifft(&fft(&signal));
        for (a, b) in signal.iter().zip(&back) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let signal: Vec<Complex> =
            (0..32).map(|i| Complex::new((i as f64 * 0.7).cos(), 0.0)).collect();
        let spec = fft(&signal);
        let time_energy: f64 = signal.iter().map(|v| v.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn fft_2d_roundtrip() {
        let (w, h) = (8, 4);
        let original: Vec<Complex> =
            (0..w * h).map(|i| Complex::new((i % 5) as f64, (i % 3) as f64)).collect();
        let mut data = original.clone();
        fft_2d(&mut data, w, h);
        ifft_2d(&mut data, w, h);
        for (a, b) in original.iter().zip(&data) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_panics() {
        let mut data = vec![Complex::ZERO; 12];
        fft_in_place(&mut data);
    }

    #[test]
    fn length_one_is_identity() {
        let mut data = vec![Complex::new(3.5, -1.0)];
        fft_in_place(&mut data);
        assert_eq!(data[0], Complex::new(3.5, -1.0));
    }
}
