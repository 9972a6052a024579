//! Image pyramids for coarse-to-fine KLT tracking.

use crate::gray::GrayImage;
use crate::stencil::gaussian_blur;

/// A Gaussian image pyramid: level 0 is the original resolution and each
/// subsequent level halves both dimensions.
#[derive(Debug, Clone)]
pub struct Pyramid {
    levels: Vec<GrayImage>,
}

impl Pyramid {
    /// Builds a pyramid with `num_levels` levels (at least 1).
    ///
    /// Levels stop early when an image dimension would drop below 8 px.
    ///
    /// # Panics
    ///
    /// Panics when `num_levels == 0`.
    pub fn new(base: &GrayImage, num_levels: usize) -> Self {
        assert!(num_levels >= 1, "pyramid needs at least one level");
        let mut levels = Vec::with_capacity(num_levels);
        levels.push(base.clone());
        for _ in 1..num_levels {
            let prev = levels.last().expect("pyramid has at least the base level");
            if prev.width() < 16 || prev.height() < 16 {
                break;
            }
            let smoothed = gaussian_blur(prev, 1.0);
            levels.push(smoothed.downsample_2x());
        }
        Self { levels }
    }

    /// Number of levels actually built.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Returns level `i` (0 = full resolution).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn level(&self, i: usize) -> &GrayImage {
        &self.levels[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pyramid_halves_each_level() {
        let base = GrayImage::from_fn(64, 48, |x, y| ((x + y) % 9) as f32 / 9.0);
        let pyr = Pyramid::new(&base, 3);
        assert_eq!(pyr.num_levels(), 3);
        assert_eq!(pyr.level(1).width(), 32);
        assert_eq!(pyr.level(2).width(), 16);
        assert_eq!(pyr.level(2).height(), 12);
    }

    #[test]
    fn pyramid_stops_for_small_images() {
        let base = GrayImage::from_fn(20, 20, |_, _| 0.5);
        let pyr = Pyramid::new(&base, 5);
        assert!(pyr.num_levels() <= 2);
    }
}
