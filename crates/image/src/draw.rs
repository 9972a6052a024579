//! Simple rasterized drawing primitives used by the synthetic data
//! generators (eye images, test patterns).

use crate::gray::GrayImage;
use crate::rgb::RgbImage;

/// Fills a solid disk centered at `(cx, cy)` with the given radius.
pub fn fill_circle_gray(img: &mut GrayImage, cx: f32, cy: f32, radius: f32, value: f32) {
    let r2 = radius * radius;
    let x0 = ((cx - radius).floor().max(0.0)) as usize;
    let x1 = ((cx + radius).ceil().min(img.width() as f32 - 1.0)).max(0.0) as usize;
    let y0 = ((cy - radius).floor().max(0.0)) as usize;
    let y1 = ((cy + radius).ceil().min(img.height() as f32 - 1.0)).max(0.0) as usize;
    for y in y0..=y1.min(img.height().saturating_sub(1)) {
        for x in x0..=x1.min(img.width().saturating_sub(1)) {
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            if dx * dx + dy * dy <= r2 {
                img.set(x, y, value);
            }
        }
    }
}

/// Fills an axis-aligned ellipse.
pub fn fill_ellipse_gray(img: &mut GrayImage, cx: f32, cy: f32, rx: f32, ry: f32, value: f32) {
    if rx <= 0.0 || ry <= 0.0 {
        return;
    }
    let x0 = ((cx - rx).floor().max(0.0)) as usize;
    let x1 = ((cx + rx).ceil().min(img.width() as f32 - 1.0)).max(0.0) as usize;
    let y0 = ((cy - ry).floor().max(0.0)) as usize;
    let y1 = ((cy + ry).ceil().min(img.height() as f32 - 1.0)).max(0.0) as usize;
    for y in y0..=y1.min(img.height().saturating_sub(1)) {
        for x in x0..=x1.min(img.width().saturating_sub(1)) {
            let dx = (x as f32 - cx) / rx;
            let dy = (y as f32 - cy) / ry;
            if dx * dx + dy * dy <= 1.0 {
                img.set(x, y, value);
            }
        }
    }
}

/// A checkerboard test pattern — the classic distortion-calibration image.
pub fn checkerboard(width: usize, height: usize, cell: usize) -> RgbImage {
    let cell = cell.max(1);
    RgbImage::from_fn(width, height, |x, y| {
        if (x / cell + y / cell).is_multiple_of(2) {
            [1.0, 1.0, 1.0]
        } else {
            [0.0, 0.0, 0.0]
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle_fills_center_not_corner() {
        let mut img = GrayImage::new(16, 16);
        fill_circle_gray(&mut img, 8.0, 8.0, 3.0, 1.0);
        assert_eq!(img.get(8, 8), 1.0);
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    fn circle_clips_at_border() {
        let mut img = GrayImage::new(8, 8);
        fill_circle_gray(&mut img, 0.0, 0.0, 3.0, 1.0);
        assert_eq!(img.get(0, 0), 1.0);
    }

    #[test]
    fn ellipse_respects_radii() {
        let mut img = GrayImage::new(32, 32);
        fill_ellipse_gray(&mut img, 16.0, 16.0, 8.0, 2.0, 1.0);
        assert_eq!(img.get(22, 16), 1.0); // inside along x
        assert_eq!(img.get(16, 22), 0.0); // outside along y
    }

    #[test]
    fn checkerboard_alternates() {
        let img = checkerboard(8, 8, 2);
        assert_eq!(img.get(0, 0), [1.0, 1.0, 1.0]);
        assert_eq!(img.get(2, 0), [0.0, 0.0, 0.0]);
        assert_eq!(img.get(2, 2), [1.0, 1.0, 1.0]);
    }
}
