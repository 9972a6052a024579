//! Depth preprocessing: bilateral filtering, vertex and normal maps
//! (the "camera processing" and "image processing" tasks of Table VI).
//!
//! The pipeline materialises neither map for the live frame: it reads
//! vertices through `LiveVertices` and takes a normal with
//! `normal_at` only at a pixel fusion reads. [`vertex_map`] and
//! [`normal_map`] run the same per-pixel functions over the whole image,
//! for model predictions and callers that keep a frame's maps.

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

/// Camera-frame vertices addressed by pixel: a materialised map, or a
/// depth frame unprojected where it is read.
pub(crate) trait Vertices {
    /// Image size, `(width, height)`.
    fn size(&self) -> (usize, usize);

    /// The vertex at pixel `(x, y)`, `None` where depth is invalid.
    fn at(&self, x: usize, y: usize) -> Option<Vec3>;
}

/// A row-major vertex map seen as an image.
pub(crate) struct MapView<'a> {
    map: &'a [Option<Vec3>],
    width: usize,
    height: usize,
}

impl<'a> MapView<'a> {
    /// Views `map` as `width × height` pixels.
    ///
    /// # Panics
    ///
    /// Panics when `map.len() != width * height`.
    pub(crate) fn new(map: &'a [Option<Vec3>], width: usize, height: usize) -> Self {
        assert_eq!(map.len(), width * height, "vertex map size mismatch");
        Self { map, width, height }
    }
}

impl Vertices for MapView<'_> {
    fn size(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    #[inline]
    fn at(&self, x: usize, y: usize) -> Option<Vec3> {
        self.map[y * self.width + x]
    }
}

/// A depth frame's camera-frame vertices, unprojected where they are
/// read: `(x − cx)/fx` per column and `(y − cy)/fy` per row are tabled
/// once, so a vertex is [`PinholeCamera::unproject`]'s ray scaled by the
/// depth, to the bit.
pub(crate) struct LiveVertices<'a> {
    depth: &'a DepthFrame,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl<'a> LiveVertices<'a> {
    /// The vertices of `depth` seen through `cam`.
    ///
    /// # Panics
    ///
    /// Panics when the frame's size is not the camera's.
    pub(crate) fn new(depth: &'a DepthFrame, cam: &PinholeCamera) -> Self {
        let (w, h) = (depth.width(), depth.height());
        assert_eq!((w, h), (cam.width, cam.height), "depth size must match intrinsics");
        Self {
            depth,
            xs: (0..w).map(|x| (x as f64 - cam.cx) / cam.fx).collect(),
            ys: (0..h).map(|y| (y as f64 - cam.cy) / cam.fy).collect(),
        }
    }
}

impl Vertices for LiveVertices<'_> {
    fn size(&self) -> (usize, usize) {
        (self.xs.len(), self.ys.len())
    }

    /// `None` where `d <= 0` — a NaN depth stays a (NaN) vertex.
    #[inline]
    fn at(&self, x: usize, y: usize) -> Option<Vec3> {
        let d = self.depth.get(x, y) as f64;
        if d <= 0.0 {
            None
        } else {
            Some(Vec3::new(self.xs[x], self.ys[y], 1.0) * d)
        }
    }
}

/// `f` at every pixel of a `width × height` image, row-major.
fn per_pixel(
    width: usize,
    height: usize,
    mut f: impl FnMut(usize, usize) -> Option<Vec3>,
) -> Vec<Option<Vec3>> {
    let mut out = Vec::with_capacity(width * height);
    for y in 0..height {
        for x in 0..width {
            out.push(f(x, y));
        }
    }
    out
}

/// Back-projects a depth frame into a camera-frame vertex map.
pub fn vertex_map(depth: &DepthFrame, cam: &PinholeCamera) -> VertexMap {
    let live = LiveVertices::new(depth, cam);
    per_pixel(cam.width, cam.height, |x, y| live.at(x, y))
}

/// The unit normal at pixel `(x, y)` by central differences of its four
/// neighbours: `None` on the image border, where a neighbour is `None`,
/// or where the difference vectors are parallel.
pub(crate) fn normal_at(vertices: &impl Vertices, x: usize, y: usize) -> Option<Vec3> {
    let (w, h) = vertices.size();
    if x == 0 || y == 0 || x + 1 >= w || y + 1 >= h {
        return None;
    }
    let (Some(right), Some(left), Some(down), Some(up)) = (
        vertices.at(x + 1, y),
        vertices.at(x - 1, y),
        vertices.at(x, y + 1),
        vertices.at(x, y - 1),
    ) else {
        return None;
    };
    let n = (right - left).cross(down - up);
    let norm = n.norm();
    (norm > 1e-12).then(|| n / norm)
}

/// Computes normals from a vertex map by central differences.
pub fn normal_map(vertices: &VertexMap, width: usize, height: usize) -> NormalMap {
    let view = MapView::new(vertices, width, height);
    per_pixel(width, height, |x, y| normal_at(&view, x, y))
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

    /// `vertex_map` and `normal_map` as first written, kept verbatim as
    /// the bit reference: a ray unprojected per pixel, normals over the
    /// interior only.
    fn reference_maps(depth: &DepthFrame, cam: &PinholeCamera) -> (VertexMap, NormalMap) {
        let (w, h) = (depth.width(), depth.height());
        let mut vertices = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let d = depth.get(x, y) as f64;
                if d <= 0.0 {
                    vertices.push(None);
                } else {
                    let ray = cam.unproject(illixr_math::Vec2::new(x as f64, y as f64));
                    vertices.push(Some(ray * d));
                }
            }
        }
        let at = |x: usize, y: usize| vertices[y * w + x];
        let mut normals = vec![None; vertices.len()];
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                let (Some(right), Some(left), Some(down), Some(up)) =
                    (at(x + 1, y), at(x - 1, y), at(x, y + 1), at(x, y - 1))
                else {
                    continue;
                };
                let n = (right - left).cross(down - up);
                let norm = n.norm();
                if norm > 1e-12 {
                    normals[y * w + x] = Some(n / norm);
                }
            }
        }
        (vertices, normals)
    }

    fn bits(p: Option<Vec3>) -> Option<[u64; 3]> {
        p.map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
    }

    /// A rendered QVGA frame, filtered, with holes of `0.0`, `-0.0`, a
    /// negative depth and NaN punched in: the live view's vertex and
    /// `normal_at` at every pixel, and `vertex_map` and `normal_map`, equal
    /// the reference to the bit. NaN depth stays a (NaN) vertex.
    #[test]
    fn live_vertices_and_normals_match_the_reference_to_the_bit() {
        use illixr_core::Time;
        use illixr_sensors::camera::StereoRig;
        use illixr_sensors::trajectory::Trajectory;
        use illixr_sensors::world::LandmarkWorld;

        let cam = PinholeCamera::qvga();
        let world = LandmarkWorld::new(60, Vec3::new(4.0, 2.5, 4.0), 3);
        let rig = StereoRig::zed_mini(cam);
        let traj = Trajectory::gentle(3);
        let mut depth = preprocess_depth(&world.render_depth(&rig, &traj.pose(Time::ZERO)));
        for y in 0..cam.height {
            for x in 0..cam.width {
                match (x * 7 + y * 13) % 31 {
                    0 => depth.set(x, y, 0.0),
                    1 => depth.set(x, y, -0.0),
                    2 => depth.set(x, y, -0.25),
                    3 => depth.set(x, y, f32::NAN),
                    _ => {}
                }
            }
        }
        let (want_v, want_n) = reference_maps(&depth, &cam);
        let live = LiveVertices::new(&depth, &cam);
        let got_v = vertex_map(&depth, &cam);
        let got_n = normal_map(&got_v, cam.width, cam.height);
        for y in 0..cam.height {
            for x in 0..cam.width {
                let i = y * cam.width + x;
                assert_eq!(bits(live.at(x, y)), bits(want_v[i]), "vertex at ({x}, {y})");
                assert_eq!(bits(normal_at(&live, x, y)), bits(want_n[i]), "normal at ({x}, {y})");
            }
        }
        assert!(got_v.iter().zip(&want_v).all(|(g, w)| bits(*g) == bits(*w)));
        assert!(got_n.iter().zip(&want_n).all(|(g, w)| bits(*g) == bits(*w)));
        assert!(want_v.iter().any(|v| v.is_some_and(|v| v.z.is_nan())), "no NaN vertex");
        assert!(want_n.iter().filter(|n| n.is_some()).count() > cam.width * cam.height / 4);
    }

    /// An image too thin to have an interior has no normals — and no
    /// `height - 1` underflow on an empty one.
    #[test]
    fn normal_map_of_a_map_without_interior_is_all_none() {
        for (w, h) in [(0, 0), (0, 3), (5, 1), (2, 2)] {
            let vertices = vec![Some(Vec3::new(0.0, 0.0, 1.0)); w * h];
            let normals = normal_map(&vertices, w, h);
            assert_eq!(normals.len(), w * h, "{w}x{h}");
            assert!(normals.iter().all(Option::is_none), "{w}x{h}");
        }
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        let d = DepthFrame::new(10, 10);
        let _ = vertex_map(&d, &cam());
    }
}
