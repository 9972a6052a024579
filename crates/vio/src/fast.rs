//! FAST corner detection (the "feature detection" task of Table VI).
//!
//! FAST-9 on a 16-pixel Bresenham circle with a corner score and
//! non-maximum suppression over a grid, following the segment-test
//! formulation of Rosten & Drummond.

use illixr_image::GrayImage;

/// Offsets of the 16-pixel Bresenham circle of radius 3.
const CIRCLE: [(i32, i32); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// Number of contiguous circle pixels required (FAST-9).
const ARC_LEN: usize = 9;

/// A detected corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Pixel x.
    pub x: f32,
    /// Pixel y.
    pub y: f32,
    /// Corner score (sum of absolute differences over the arc).
    pub score: f32,
}

/// Detects FAST-9 corners with intensity threshold `threshold` (on the
/// image's own scale), keeping at most `max_corners` after grid
/// non-maximum suppression with `cell` pixel cells.
///
/// # Panics
///
/// Panics when `cell` is zero.
pub fn detect_fast(
    img: &GrayImage,
    threshold: f32,
    max_corners: usize,
    cell: usize,
) -> Vec<Corner> {
    assert!(cell > 0, "NMS cell size must be positive");
    let (w, h) = (img.width(), img.height());
    if w < 8 || h < 8 {
        return Vec::new();
    }
    let cells_x = w.div_ceil(cell);
    let cells_y = h.div_ceil(cell);
    // Best corner per grid cell (grid NMS keeps features spread out, as
    // VIO front ends require).
    let mut best: Vec<Option<Corner>> = vec![None; cells_x * cells_y];
    let row = |y: usize| &img.as_slice()[y * w..(y + 1) * w];
    for y in 3..(h - 3) {
        let (above, mid, below) = (row(y - 3), row(y), row(y + 3));
        for x in 3..(w - 3) {
            // Quick rejection on the 4 compass points of the circle, read
            // from three row slices: all but a few hundred pixels of a
            // frame end here. At least 3 must agree, which is stricter
            // than the arc it guards (a 9-arc can hold with 2), so the test
            // is part of what this detector finds, not only a shortcut.
            let (hi, lo) = (mid[x] + threshold, mid[x] - threshold);
            let (mut brighter, mut darker) = (0, 0);
            for v in [above[x], mid[x + 3], below[x], mid[x - 3]] {
                let is_brighter = v > hi;
                brighter += u32::from(is_brighter);
                darker += u32::from(!is_brighter && v < lo);
            }
            if brighter < 3 && darker < 3 {
                continue;
            }
            let Some(score) = corner_score(img, x, y, threshold) else { continue };
            let idx = (y / cell) * cells_x + (x / cell);
            if best[idx].is_none_or(|c| score > c.score) {
                best[idx] = Some(Corner { x: x as f32, y: y as f32, score });
            }
        }
    }
    let mut corners: Vec<Corner> = best.into_iter().flatten().collect();
    corners.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
    corners.truncate(max_corners);
    corners
}

/// Segment test on a pixel that passed the compass test: returns the
/// corner score when `(x, y)` has a FAST-9 arc. A NaN pixel on the circle
/// makes the score NaN, which ranks against nothing: no corner.
fn corner_score(img: &GrayImage, x: usize, y: usize, threshold: f32) -> Option<f32> {
    let c = img.get(x, y);
    let mut brighter = [false; 16];
    let mut darker = [false; 16];
    let mut diffs = [0.0f32; 16];
    for (i, &(dx, dy)) in CIRCLE.iter().enumerate() {
        let v = img.get((x as i32 + dx) as usize, (y as i32 + dy) as usize);
        diffs[i] = (v - c).abs();
        brighter[i] = v > c + threshold;
        darker[i] = v < c - threshold;
    }
    if !has_arc(&brighter) && !has_arc(&darker) {
        return None;
    }
    let score: f32 = diffs.iter().sum();
    (!score.is_nan()).then_some(score)
}

/// True when `flags` contains `ARC_LEN` contiguous `true` values on the
/// circular buffer.
fn has_arc(flags: &[bool; 16]) -> bool {
    let mut run = 0;
    // Scan twice around to handle wrap.
    for i in 0..32 {
        if flags[i % 16] {
            run += 1;
            if run >= ARC_LEN {
                return true;
            }
        } else {
            run = 0;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_image::draw::fill_circle_gray;

    fn blob_image(n: usize) -> GrayImage {
        let mut img = GrayImage::from_fn(160, 120, |_, _| 0.2);
        for i in 0..n {
            let x = 20.0 + (i % 6) as f32 * 22.0;
            let y = 20.0 + (i / 6) as f32 * 25.0;
            fill_circle_gray(&mut img, x, y, 3.0, 0.9);
        }
        img
    }

    #[test]
    fn detects_bright_blobs() {
        let img = blob_image(12);
        let corners = detect_fast(&img, 0.15, 100, 8);
        assert!(corners.len() >= 12, "found {} corners", corners.len());
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = GrayImage::from_fn(64, 64, |_, _| 0.5);
        assert!(detect_fast(&img, 0.1, 100, 8).is_empty());
    }

    #[test]
    fn corners_near_blob_centers() {
        let mut img = GrayImage::from_fn(64, 64, |_, _| 0.1);
        fill_circle_gray(&mut img, 32.0, 32.0, 3.0, 1.0);
        let corners = detect_fast(&img, 0.2, 10, 16);
        assert!(!corners.is_empty());
        let c = corners[0];
        let d = ((c.x - 32.0).powi(2) + (c.y - 32.0).powi(2)).sqrt();
        assert!(d < 6.0, "corner at ({}, {}) too far from blob", c.x, c.y);
    }

    #[test]
    fn max_corners_respected() {
        let img = blob_image(20);
        let corners = detect_fast(&img, 0.1, 5, 8);
        assert!(corners.len() <= 5);
        // Kept corners are the strongest.
        for w in corners.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn nms_limits_one_corner_per_cell() {
        let img = blob_image(12);
        let corners = detect_fast(&img, 0.1, 1000, 40);
        // 160x120 with 40px cells → at most 4*3 = 12 corners.
        assert!(corners.len() <= 12);
    }

    /// A NaN pixel on a candidate's circle makes its arc sum NaN: that
    /// candidate is no corner, and the others are still ranked.
    #[test]
    fn nan_on_a_circle_is_no_corner() {
        let mut img = GrayImage::from_fn(32, 32, |x, y| {
            if (15..17).contains(&x) && (15..17).contains(&y) {
                0.9
            } else {
                0.1
            }
        });
        img.set(16, 12, f32::NAN);
        let corners = detect_fast(&img, 0.2, 10, 8);
        assert!(!corners.is_empty());
        assert!(corners.iter().all(|c| c.score.is_finite()), "{corners:?}");
    }

    #[test]
    fn tiny_image_is_safe() {
        let img = GrayImage::new(6, 6);
        assert!(detect_fast(&img, 0.1, 10, 8).is_empty());
    }
}
