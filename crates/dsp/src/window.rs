//! Window functions for spectral processing.

use std::f64::consts::PI;

/// Blackman window of length `n`.
pub fn blackman(n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    (0..n)
        .map(|i| {
            let x = 2.0 * PI * i as f64 / n as f64;
            0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_bounded() {
        let w = blackman(33);
        assert!(w.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
    }

    #[test]
    fn zero_length_is_empty() {
        assert!(blackman(0).is_empty());
    }
}
