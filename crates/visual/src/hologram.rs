//! Computational holography: weighted Gerchberg-Saxton phase retrieval
//! (paper Table II: "Adaptive display — Weighted Gerchberg–Saxton";
//! Table VII tasks: hologram-to-depth, sum, depth-to-hologram).
//!
//! Computes the phase pattern for a phase-only SLM such that the
//! propagated field reproduces target intensity images at multiple focal
//! depths (multifocal displays, §II-A). Propagation uses the Fresnel
//! transfer function applied in the frequency domain (2-D FFTs).

use illixr_core::obs::Metrics;
use illixr_dsp::complex::Complex;
use illixr_dsp::fft::{fft_2d, ifft_2d};
use illixr_image::GrayImage;

/// Hologram computation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HologramConfig {
    /// Hologram width (power of two).
    pub width: usize,
    /// Hologram height (power of two).
    pub height: usize,
    /// SLM pixel pitch, meters.
    pub pixel_pitch: f64,
    /// Wavelength, meters (green laser default).
    pub wavelength: f64,
    /// Depth-plane distances from the SLM, meters.
    pub plane_depths: Vec<f64>,
    /// Weighted-GS iterations.
    pub iterations: usize,
}

impl Default for HologramConfig {
    fn default() -> Self {
        Self {
            width: 64,
            height: 64,
            pixel_pitch: 8e-6,
            wavelength: 520e-9,
            plane_depths: vec![0.15, 0.3],
            iterations: 10,
        }
    }
}

/// The result: an SLM phase field plus reconstruction diagnostics.
#[derive(Debug, Clone)]
pub struct Hologram {
    /// Phase at each SLM pixel, radians.
    pub phase: Vec<f64>,
    /// Per-plane reconstruction quality: normalized cross-correlation of
    /// achieved intensity with the target.
    pub plane_correlation: Vec<f64>,
    width: usize,
    height: usize,
}

impl Hologram {
    /// Hologram width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Hologram height.
    pub fn height(&self) -> usize {
        self.height
    }
}

/// Computes a hologram reproducing `targets[i]` (amplitude images) at
/// `config.plane_depths[i]`.
///
/// # Panics
///
/// Panics when target count ≠ plane count, when dimensions are not
/// powers of two, or when any target has the wrong size.
pub fn compute_hologram(
    targets: &[GrayImage],
    config: &HologramConfig,
    timer: Option<&Metrics>,
) -> Hologram {
    let (w, h) = (config.width, config.height);
    assert!(w.is_power_of_two() && h.is_power_of_two(), "hologram dims must be powers of two");
    assert_eq!(targets.len(), config.plane_depths.len(), "one target per depth plane");
    for t in targets {
        assert_eq!((t.width(), t.height()), (w, h), "target size mismatch");
    }
    let n = w * h;
    let num_planes = targets.len();

    // Precompute per-plane transfer functions (and their conjugates for
    // back-propagation).
    let transfer: Vec<Vec<Complex>> = config
        .plane_depths
        .iter()
        .map(|&z| fresnel_transfer(w, h, config.pixel_pitch, config.wavelength, z))
        .collect();

    // Target amplitudes, normalized to unit energy per plane.
    let target_amp: Vec<Vec<f64>> = targets
        .iter()
        .map(|t| {
            let energy: f64 = t.as_slice().iter().map(|&v| (v as f64) * (v as f64)).sum();
            let scale = if energy > 0.0 { (n as f64 / energy).sqrt() } else { 1.0 };
            t.as_slice().iter().map(|&v| v as f64 * scale).collect()
        })
        .collect();

    // Initial phase: deterministic pseudo-random (quadratic + hash).
    let mut phase: Vec<f64> = (0..n)
        .map(|i| {
            let x = (i % w) as f64 / w as f64 - 0.5;
            let y = (i / w) as f64 / h as f64 - 0.5;
            std::f64::consts::PI * (7.1 * x * x + 11.3 * y * y)
                + ((i * 2654435761) % 628) as f64 / 100.0
        })
        .collect();
    let mut weights = vec![1.0f64; num_planes];
    let mut plane_correlation = vec![0.0; num_planes];

    for _iter in 0..config.iterations {
        let mut back_sum = vec![Complex::ZERO; n];
        let mut achieved_amp: Vec<Vec<f64>> = Vec::with_capacity(num_planes);
        // --- Hologram → depth planes ---------------------------------
        {
            let _g = timer.map(|t| t.host_scope("hologram-to-depth"));
            for d in 0..num_planes {
                let mut field: Vec<Complex> = phase.iter().map(|&p| Complex::cis(p)).collect();
                fft_2d(&mut field, w, h);
                for (f, t) in field.iter_mut().zip(&transfer[d]) {
                    *f *= *t;
                }
                ifft_2d(&mut field, w, h);
                achieved_amp.push(field.iter().map(|c| c.abs()).collect());
                // Replace amplitude with weighted target, keep phase.
                for (i, f) in field.iter_mut().enumerate() {
                    let a = f.abs().max(1e-12);
                    let desired = weights[d] * target_amp[d][i];
                    *f = f.scale(desired / a);
                }
                // --- Depth plane → hologram (back-propagation) -------
                let _g2 = timer.map(|t| t.host_scope("depth-to-hologram"));
                fft_2d(&mut field, w, h);
                for (f, t) in field.iter_mut().zip(&transfer[d]) {
                    *f *= t.conj();
                }
                ifft_2d(&mut field, w, h);
                {
                    let _g3 = timer.map(|t| t.host_scope("sum"));
                    for (s, f) in back_sum.iter_mut().zip(&field) {
                        *s += *f;
                    }
                }
            }
        }
        // Update weights: planes reconstructed too dimly get boosted.
        for d in 0..num_planes {
            let mean_achieved: f64 = achieved_amp[d]
                .iter()
                .zip(&target_amp[d])
                .filter(|(_, &t)| t > 1e-6)
                .map(|(&a, _)| a)
                .sum::<f64>()
                .max(1e-12);
            let mean_target: f64 = target_amp[d].iter().filter(|&&t| t > 1e-6).sum();
            weights[d] *= (mean_target / mean_achieved).powf(0.5).clamp(0.5, 2.0);
            plane_correlation[d] = correlation(&achieved_amp[d], &target_amp[d]);
        }
        // New phase from the summed back-propagated field.
        for (p, s) in phase.iter_mut().zip(&back_sum) {
            *p = s.arg();
        }
    }

    Hologram { phase, plane_correlation, width: w, height: h }
}

/// Fresnel transfer function `exp(-iπλz(fx² + fy²))` on the FFT grid.
fn fresnel_transfer(w: usize, h: usize, pitch: f64, lambda: f64, z: f64) -> Vec<Complex> {
    let mut out = Vec::with_capacity(w * h);
    for ky in 0..h {
        // FFT frequency ordering: 0..N/2, -N/2..-1.
        let fy = fft_freq(ky, h) / (h as f64 * pitch);
        for kx in 0..w {
            let fx = fft_freq(kx, w) / (w as f64 * pitch);
            let arg = -std::f64::consts::PI * lambda * z * (fx * fx + fy * fy);
            out.push(Complex::cis(arg));
        }
    }
    out
}

fn fft_freq(k: usize, n: usize) -> f64 {
    if k <= n / 2 {
        k as f64
    } else {
        k as f64 - n as f64
    }
}

/// Normalized cross-correlation of two non-negative fields.
fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let ma = a.iter().sum::<f64>() / a.len() as f64;
    let mb = b.iter().sum::<f64>() / b.len() as f64;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        num += (x - ma) * (y - mb);
        da += (x - ma) * (x - ma);
        db += (y - mb) * (y - mb);
    }
    if da <= 0.0 || db <= 0.0 {
        return 0.0;
    }
    num / (da * db).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_image::draw::fill_circle_gray;

    fn disk_target(w: usize, h: usize) -> GrayImage {
        let mut img = GrayImage::new(w, h);
        fill_circle_gray(&mut img, w as f32 / 2.0, h as f32 / 2.0, w as f32 / 6.0, 1.0);
        img
    }

    fn square_target(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            let fx = x as f32 / w as f32;
            let fy = y as f32 / h as f32;
            if (0.25..0.75).contains(&fx) && (0.25..0.42).contains(&fy) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn single_plane_converges() {
        let cfg = HologramConfig { plane_depths: vec![0.2], iterations: 12, ..Default::default() };
        let target = disk_target(cfg.width, cfg.height);
        let holo = compute_hologram(&[target], &cfg, None);
        assert!(holo.plane_correlation[0] > 0.5, "correlation {}", holo.plane_correlation[0]);
    }

    #[test]
    fn two_planes_reconstruct_their_own_targets() {
        let cfg = HologramConfig::default();
        let t0 = disk_target(cfg.width, cfg.height);
        let t1 = square_target(cfg.width, cfg.height);
        let holo = compute_hologram(&[t0, t1], &cfg, None);
        assert!(holo.plane_correlation[0] > 0.35, "plane 0: {}", holo.plane_correlation[0]);
        assert!(holo.plane_correlation[1] > 0.35, "plane 1: {}", holo.plane_correlation[1]);
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let mut cfg =
            HologramConfig { plane_depths: vec![0.2], iterations: 2, ..Default::default() };
        let target = disk_target(cfg.width, cfg.height);
        let short = compute_hologram(std::slice::from_ref(&target), &cfg, None);
        cfg.iterations = 14;
        let long = compute_hologram(&[target], &cfg, None);
        assert!(long.plane_correlation[0] >= short.plane_correlation[0] - 0.05);
    }

    #[test]
    fn phases_are_finite_and_bounded() {
        let cfg = HologramConfig { plane_depths: vec![0.2], iterations: 4, ..Default::default() };
        let target = disk_target(cfg.width, cfg.height);
        let holo = compute_hologram(std::slice::from_ref(&target), &cfg, None);
        assert!(holo.phase.iter().all(|p| p.is_finite() && p.abs() <= std::f64::consts::PI + 1e-9));
    }

    #[test]
    fn task_metrics_covers_table_vii_tasks() {
        let cfg = HologramConfig { iterations: 2, ..Default::default() };
        let timer = Metrics::new();
        let t0 = disk_target(cfg.width, cfg.height);
        let t1 = square_target(cfg.width, cfg.height);
        compute_hologram(&[t0, t1], &cfg, Some(&timer));
        let names: Vec<String> = timer.shares().into_iter().map(|(n, _)| n).collect();
        for expected in ["hologram-to-depth", "sum", "depth-to-hologram"] {
            assert!(names.iter().any(|n| n == expected), "missing '{expected}'");
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_targets_panic() {
        let cfg = HologramConfig::default();
        let _ = compute_hologram(&[disk_target(cfg.width, cfg.height)], &cfg, None);
    }
}
