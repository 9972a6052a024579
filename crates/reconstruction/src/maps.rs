//! Depth preprocessing: bilateral filtering, vertex and normal maps
//! (the "camera processing" and "image processing" tasks of Table VI).

use illixr_image::{bilateral_filter, GrayImage};
use illixr_math::Vec3;
use illixr_sensors::camera::PinholeCamera;

/// A depth image in meters; `<= 0` marks invalid pixels.
pub(crate) type DepthFrame = GrayImage;

/// Per-pixel camera-frame 3-D points (`None` where depth is invalid).
pub type VertexMap = Vec<Option<Vec3>>;

/// Per-pixel unit normals (`None` where undefined).
pub type NormalMap = Vec<Option<Vec3>>;

/// Bilateral-filters a depth frame, rejecting invalid depths — the
/// ElasticFusion camera-processing stage.
pub fn preprocess_depth(depth: &DepthFrame) -> DepthFrame {
    bilateral_filter(depth, 1.5, 0.08, 0.0)
}

/// Back-projects a depth frame into a camera-frame vertex map.
pub fn vertex_map(depth: &DepthFrame, cam: &PinholeCamera) -> VertexMap {
    let (w, h) = (depth.width(), depth.height());
    assert_eq!((w, h), (cam.width, cam.height), "depth size must match intrinsics");
    let mut out = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            let d = depth.get(x, y) as f64;
            if d <= 0.0 {
                out.push(None);
            } else {
                let ray = cam.unproject(illixr_math::Vec2::new(x as f64, y as f64));
                out.push(Some(ray * d));
            }
        }
    }
    out
}

/// Computes normals from a vertex map by central differences.
pub fn normal_map(vertices: &VertexMap, width: usize, height: usize) -> NormalMap {
    assert_eq!(vertices.len(), width * height, "vertex map size mismatch");
    let at = |x: usize, y: usize| vertices[y * width + x];
    let mut out = vec![None; vertices.len()];
    for y in 1..height - 1 {
        for x in 1..width - 1 {
            let (Some(right), Some(left), Some(down), Some(up)) =
                (at(x + 1, y), at(x - 1, y), at(x, y + 1), at(x, y - 1))
            else {
                continue;
            };
            let n = (right - left).cross(down - up);
            let norm = n.norm();
            if norm > 1e-12 {
                out[y * width + x] = Some(n / norm);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> PinholeCamera {
        PinholeCamera { fx: 100.0, fy: 100.0, cx: 32.0, cy: 24.0, width: 64, height: 48 }
    }

    fn flat_wall(depth_m: f32) -> DepthFrame {
        DepthFrame::from_fn(64, 48, |_, _| depth_m)
    }

    #[test]
    fn vertex_map_center_pixel_on_axis() {
        let vm = vertex_map(&flat_wall(2.0), &cam());
        let center = vm[24 * 64 + 32].unwrap();
        assert!((center - Vec3::new(0.0, 0.0, 2.0)).norm() < 1e-9);
    }

    #[test]
    fn vertex_map_respects_invalid_depth() {
        let mut d = flat_wall(2.0);
        d.set(10, 10, 0.0);
        let vm = vertex_map(&d, &cam());
        assert!(vm[10 * 64 + 10].is_none());
        assert!(vm[11 * 64 + 11].is_some());
    }

    #[test]
    fn normals_of_frontal_wall_point_at_camera() {
        let vm = vertex_map(&flat_wall(3.0), &cam());
        let nm = normal_map(&vm, 64, 48);
        let n = nm[20 * 64 + 20].unwrap();
        // A z=const plane has normal ±Z; sign depends on winding.
        assert!(n.z.abs() > 0.99, "normal {n}");
    }

    #[test]
    fn preprocess_smooths_but_keeps_invalid() {
        let mut d = flat_wall(2.0);
        d.set(5, 5, 0.0);
        // Salt noise.
        d.set(20, 20, 2.3);
        let filtered = preprocess_depth(&d);
        assert_eq!(filtered.get(5, 5), 0.0);
        assert!((filtered.get(20, 20) - 2.0).abs() < 0.35);
    }

    /// Taken from the per-pixel bilateral filter: FNV-1a over every bit of
    /// `preprocess_depth` on two rendered QVGA `render_depth` frames, the
    /// second with scattered `<= 0` holes punched in and a strip pushed back
    /// by more than 4σ of the range kernel. `illixr-image` compares the
    /// filter against its verbatim predecessor on synthetic frames; this is
    /// the same check on the frames the pipeline filters.
    #[test]
    fn preprocess_bits_are_pinned_on_rendered_depth() {
        use illixr_core::boundary::fnv1a;
        use illixr_core::Time;
        use illixr_sensors::camera::StereoRig;
        use illixr_sensors::trajectory::Trajectory;
        use illixr_sensors::world::LandmarkWorld;

        let world = LandmarkWorld::new(60, Vec3::new(4.0, 2.5, 4.0), 3);
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let traj = Trajectory::gentle(3);
        let clean = world.render_depth(&rig, &traj.pose(Time::from_millis(400)));
        let mut holed = world.render_depth(&rig, &traj.pose(Time::from_millis(900)));
        for y in 0..holed.height() {
            for x in 0..holed.width() {
                match (x * 7 + y * 13) % 29 {
                    0 | 1 => holed.set(x, y, 0.0),
                    2 => holed.set(x, y, -0.25),
                    _ if (100..140).contains(&x) => holed.set(x, y, holed.get(x, y) + 0.5),
                    _ => {}
                }
            }
        }
        let digest =
            |img: &DepthFrame| fnv1a(img.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()));
        let got = [digest(&preprocess_depth(&clean)), digest(&preprocess_depth(&holed))];
        assert_eq!(got, [0x5a45_df56_800c_349c, 0xa4bd_ed04_e694_74ac], "got {got:#018x?}");
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        let d = DepthFrame::new(10, 10);
        let _ = vertex_map(&d, &cam());
    }
}
