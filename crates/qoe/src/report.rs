//! Aggregation helpers for the paper's mean ± std tables.

use std::fmt;

/// A mean ± standard-deviation pair, printed like the paper's tables
/// ("3.1±1.1").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
}

impl MeanStd {
    /// Computes mean ± std of a slice (std = 0 for fewer than two
    /// samples). Returns `None` for empty input.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let std = if samples.len() > 1 {
            (samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)).sqrt()
        } else {
            0.0
        };
        Some(Self { mean, std })
    }
}

impl fmt::Display for MeanStd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(1);
        write!(f, "{:.prec$}±{:.prec$}", self.mean, self.std)
    }
}

/// Formats a table row: a label column followed by value columns,
/// fixed-width, matching the harness's stdout tables.
pub fn format_row(label: &str, values: &[String], label_width: usize, col_width: usize) -> String {
    let mut row = format!("{label:<label_width$}");
    for v in values {
        row.push_str(&format!(" {v:>col_width$}"));
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_matches_known_values() {
        let s = MeanStd::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std - 2.138089935).abs() < 1e-6); // sample std
    }

    #[test]
    fn single_sample_has_zero_std() {
        let s = MeanStd::of(&[3.5]).unwrap();
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn empty_is_none() {
        assert!(MeanStd::of(&[]).is_none());
    }

    #[test]
    fn display_matches_paper_style() {
        #[allow(clippy::approx_constant)] // a latency sample, not π
        let s = MeanStd { mean: 3.14, std: 1.06 };
        assert_eq!(format!("{s}"), "3.1±1.1");
        assert_eq!(format!("{s:.2}"), "3.14±1.06");
    }

    #[test]
    fn format_row_aligns() {
        let row = format_row("Desktop", &["3.1±1.1".into(), "3.0±0.9".into()], 10, 9);
        assert!(row.starts_with("Desktop   "));
        assert!(row.contains("  3.1±1.1"));
    }
}
