//! The VIO front end: feature track management across stereo frames.
//!
//! Combines FAST detection and KLT tracking into persistent feature
//! tracks, the input to the MSCKF back end. Task timings are reported
//! under the paper's Table VI task names ("feature detection", "feature
//! matching").

use std::collections::HashSet;

use illixr_core::obs::Metrics;
use illixr_image::GrayImage;
use illixr_math::Vec2;

use crate::fast::detect_fast;
use crate::klt::{track_points_pyramids, KltParams, TrackResult};
use illixr_image::Pyramid;

/// A feature currently tracked by the front end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedFeature {
    /// Stable feature identity across frames.
    pub id: u64,
    /// Position in the left image, pixels.
    pub left: Vec2,
    /// Position in the right image when the stereo match succeeded.
    pub right: Option<Vec2>,
    /// Number of consecutive frames this feature has been tracked.
    pub age: u32,
}

/// Front-end parameters (the VIO knobs of the §V-E accuracy/performance
/// trade-off).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontEndParams {
    /// Maximum number of concurrently tracked features.
    pub max_features: usize,
    /// FAST intensity threshold.
    pub fast_threshold: f32,
    /// Grid cell size for non-maximum suppression / redetection.
    pub nms_cell: usize,
    /// KLT parameters.
    pub klt: KltParams,
}

impl Default for FrontEndParams {
    fn default() -> Self {
        Self { max_features: 60, fast_threshold: 0.12, nms_cell: 24, klt: KltParams::default() }
    }
}

/// Persistent feature tracker.
///
/// # Examples
///
/// ```
/// use illixr_vio::frontend::{FrontEnd, FrontEndParams};
/// use illixr_image::GrayImage;
/// use illixr_image::draw::fill_circle_gray;
///
/// let mut fe = FrontEnd::new(FrontEndParams::default());
/// let mut img = GrayImage::from_fn(96, 96, |_, _| 0.2);
/// fill_circle_gray(&mut img, 30.0, 40.0, 3.0, 0.9);
/// fill_circle_gray(&mut img, 70.0, 60.0, 3.0, 0.9);
/// let tracks = fe.process(&img, &img, None);
/// assert!(!tracks.is_empty());
/// ```
#[derive(Debug)]
pub struct FrontEnd {
    params: FrontEndParams,
    prev_left_pyramid: Option<Pyramid>,
    tracks: Vec<TrackedFeature>,
    next_id: u64,
}

impl FrontEnd {
    /// Creates an empty tracker.
    pub fn new(params: FrontEndParams) -> Self {
        Self { params, prev_left_pyramid: None, tracks: Vec::new(), next_id: 0 }
    }

    /// Ingests a stereo pair, returning the updated track set.
    ///
    /// When `timer` is provided, time is attributed to the Table VI task
    /// names.
    pub fn process(
        &mut self,
        left: &GrayImage,
        right: &GrayImage,
        timer: Option<&Metrics>,
    ) -> Vec<TrackedFeature> {
        // Build this frame's pyramids once; the left pyramid is reused
        // next frame as the temporal-tracking template.
        let left_pyr = {
            let _guard = timer.map(|t| t.host_scope("feature matching"));
            Pyramid::new(left, self.params.klt.levels)
        };
        // --- Temporal feature matching (KLT against the previous frame) -
        {
            let _guard = timer.map(|t| t.host_scope("feature matching"));
            if let Some(prev_pyr) = &self.prev_left_pyramid {
                let points: Vec<Vec2> = self.tracks.iter().map(|t| t.left).collect();
                let results =
                    track_points_pyramids(prev_pyr, &left_pyr, &points, None, &self.params.klt);
                let mut kept = Vec::with_capacity(self.tracks.len());
                for (track, result) in self.tracks.iter().zip(&results) {
                    if let TrackResult::Ok { position, .. } = result {
                        kept.push(TrackedFeature {
                            id: track.id,
                            left: *position,
                            right: None,
                            age: track.age + 1,
                        });
                    }
                }
                self.tracks = kept;
            }
        }

        // --- Feature detection (FAST redetection in empty cells) -------
        {
            let _guard = timer.map(|t| t.host_scope("feature detection"));
            if self.tracks.len() < self.params.max_features {
                let cell = self.params.nms_cell;
                let occupied: HashSet<(usize, usize)> = self
                    .tracks
                    .iter()
                    .map(|t| ((t.left.x as usize) / cell, (t.left.y as usize) / cell))
                    .collect();
                let corners = detect_fast(
                    left,
                    self.params.fast_threshold,
                    self.params.max_features * 2,
                    cell,
                );
                for c in corners {
                    if self.tracks.len() >= self.params.max_features {
                        break;
                    }
                    let key = ((c.x as usize) / cell, (c.y as usize) / cell);
                    if occupied.contains(&key) {
                        continue;
                    }
                    self.tracks.push(TrackedFeature {
                        id: self.next_id,
                        left: Vec2::new(c.x as f64, c.y as f64),
                        right: None,
                        age: 0,
                    });
                    self.next_id += 1;
                }
            }
        }

        // --- Stereo matching (KLT left → right, same-position seed) ----
        {
            let _guard = timer.map(|t| t.host_scope("feature matching"));
            if !self.tracks.is_empty() {
                let right_pyr = Pyramid::new(right, self.params.klt.levels);
                let points: Vec<Vec2> = self.tracks.iter().map(|t| t.left).collect();
                let results =
                    track_points_pyramids(&left_pyr, &right_pyr, &points, None, &self.params.klt);
                for (track, result) in self.tracks.iter_mut().zip(&results) {
                    track.right = match result {
                        TrackResult::Ok { position, .. } => {
                            // A valid stereo match has (near-)positive
                            // disparity and small vertical offset.
                            let disparity = track.left.x - position.x;
                            let dy = (track.left.y - position.y).abs();
                            if disparity > -1.0 && dy < 2.0 {
                                Some(*position)
                            } else {
                                None
                            }
                        }
                        TrackResult::Lost => None,
                    };
                }
            }
        }

        self.prev_left_pyramid = Some(left_pyr);
        self.tracks.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_image::draw::fill_circle_gray;
    use illixr_image::gaussian_blur;

    fn scene(dx: f32) -> GrayImage {
        let mut img = GrayImage::from_fn(160, 120, |x, y| 0.2 + 0.0008 * (x + 2 * y) as f32);
        for i in 0..12 {
            let x = 20.0 + (i % 4) as f32 * 35.0 + dx;
            let y = 20.0 + (i / 4) as f32 * 35.0;
            fill_circle_gray(&mut img, x, y, 3.0, 0.9);
        }
        gaussian_blur(&img, 0.8)
    }

    #[test]
    fn first_frame_detects_features() {
        let mut fe = FrontEnd::new(FrontEndParams::default());
        let img = scene(0.0);
        let tracks = fe.process(&img, &img, None);
        assert!(tracks.len() >= 10, "only {} tracks", tracks.len());
        assert!(tracks.iter().all(|t| t.age == 0));
    }

    #[test]
    fn tracks_persist_across_frames_with_same_ids() {
        let mut fe = FrontEnd::new(FrontEndParams::default());
        let a = scene(0.0);
        let t0 = fe.process(&a, &a, None);
        let ids0: HashSet<u64> = t0.iter().map(|t| t.id).collect();
        let b = scene(2.0);
        let t1 = fe.process(&b, &b, None);
        let survivors = t1.iter().filter(|t| ids0.contains(&t.id) && t.age == 1).count();
        assert!(survivors >= 8, "only {survivors} survivors");
        // Surviving features moved by ~2 px.
        for t in t1.iter().filter(|t| ids0.contains(&t.id)) {
            let orig = t0.iter().find(|o| o.id == t.id).unwrap();
            let dx = t.left.x - orig.left.x;
            assert!((dx - 2.0).abs() < 1.0, "dx {dx}");
        }
    }

    #[test]
    fn stereo_match_has_positive_disparity() {
        let mut fe = FrontEnd::new(FrontEndParams::default());
        let left = scene(0.0);
        let right = scene(-4.0); // right image shifted left = +4 px disparity
        let tracks = fe.process(&left, &right, None);
        let matched: Vec<_> = tracks.iter().filter(|t| t.right.is_some()).collect();
        assert!(!matched.is_empty(), "no stereo matches");
        for t in matched {
            let d = t.left.x - t.right.unwrap().x;
            assert!((d - 4.0).abs() < 1.5, "disparity {d}");
        }
    }

    #[test]
    fn max_features_is_enforced() {
        let mut fe = FrontEnd::new(FrontEndParams { max_features: 5, ..Default::default() });
        let img = scene(0.0);
        let tracks = fe.process(&img, &img, None);
        assert!(tracks.len() <= 5);
    }

    #[test]
    fn task_metrics_records_both_tasks() {
        let timer = Metrics::new();
        let mut fe = FrontEnd::new(FrontEndParams::default());
        let img = scene(0.0);
        fe.process(&img, &img, Some(&timer));
        fe.process(&img, &img, Some(&timer));
        let shares = timer.shares();
        let names: Vec<&str> = shares.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"feature detection"));
        assert!(names.contains(&"feature matching"));
    }
}
