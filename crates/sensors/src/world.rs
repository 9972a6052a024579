//! The synthetic landmark world the camera observes.
//!
//! A room-sized box populated with point landmarks. Frames are rendered
//! by projecting landmarks through the stereo rig and splatting small
//! Gaussian blobs over a low-frequency shaded background — enough real
//! image structure for the VIO front end's FAST detector and KLT tracker
//! to operate on actual pixels, which is what makes VIO's runtime
//! input-dependent (paper §IV-B). The same world provides analytic depth
//! images (distance to the room walls) for scene reconstruction.
//!
//! # What a frame costs
//!
//! The background is a product of a function of the column and a function
//! of the row, so a `w × h` stereo frame takes `w` sines and `h` cosines
//! (two tables, shared by both eyes), one multiply-add per pixel per eye,
//! and one `exp` per blob pixel (≈ 38 of the lab's 240 landmarks are in
//! view, each a square of at most 27 × 27). The eye poses and their
//! inverses are computed once per frame, and each eye is one allocation.
//! At QVGA the frame is bound by writing 600 KiB of pixels, not by
//! arithmetic.
//!
//! A depth frame is a normalise and a rotate per pixel, and one division
//! per axis. `unproject`'s two terms come from a per-frame column table and
//! a per-row value. From an origin strictly inside the room, only the wall
//! a ray points towards can lie ahead of it, so the wall behind it on each
//! axis is divided out only from an origin on or outside a wall. The tests
//! hold the first depth renderer verbatim as `reference_render_depth` and
//! compare every bit, those origins included.
//!
//! # Pixels are pinned
//!
//! FAST corners, KLT tracks and through them every `real_vio` digest and
//! golden file depend on the last bit of every pixel. An edit here must
//! keep each pixel's `f32` operations and their association —
//! `0.28 + (0.08 * sin) * cos`, then per blob in landmark order
//! `(old + brightness * exp(-(fx² + fy²) / 2σ²)).min(1.0)` — and the tests
//! hold the first renderer verbatim as `reference_render` to check it.

use illixr_core::boundary::Xoshiro256pp;
use illixr_image::GrayImage;
use illixr_math::{Pose, Vec3};

use crate::camera::StereoRig;

/// A box room with point landmarks.
#[derive(Debug, Clone)]
pub struct LandmarkWorld {
    landmarks: Vec<Vec3>,
    /// Half-extents of the room along x, y, z.
    half_extent: Vec3,
}

impl LandmarkWorld {
    /// Creates a world with `num_landmarks` points scattered on the walls
    /// of a `2·half_extent` box, deterministically from `seed`.
    pub fn new(num_landmarks: usize, half_extent: Vec3, seed: u64) -> Self {
        let mut rng = Xoshiro256pp::new(seed ^ 0x576f_726c_6400); // "World" << 8
        let mut landmarks = Vec::with_capacity(num_landmarks);
        for _ in 0..num_landmarks {
            // Pick a wall (one coordinate pinned to ±half extent) so
            // landmarks sit on surfaces, like visual texture in a room.
            let axis = rng.below(3) as usize;
            let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
            let mut p = Vec3::new(
                rng.uniform(-half_extent.x..half_extent.x),
                rng.uniform(-half_extent.y..half_extent.y),
                rng.uniform(-half_extent.z..half_extent.z),
            );
            p[axis] = sign * half_extent[axis];
            landmarks.push(p);
        }
        Self { landmarks, half_extent }
    }

    /// A default lab-sized room (8 × 5 × 8 m) with 240 landmarks.
    pub fn lab(seed: u64) -> Self {
        Self::new(240, Vec3::new(4.0, 2.5, 4.0), seed)
    }

    /// The landmark positions.
    pub fn landmarks(&self) -> &[Vec3] {
        &self.landmarks
    }

    /// Renders the intensity image seen by `eye` (0 = left, 1 = right) of
    /// the rig at `body_pose`: one half of [`Self::render_stereo`].
    pub fn render(&self, rig: &StereoRig, body_pose: &Pose, eye: usize) -> GrayImage {
        self.render_eye(&FrameShared::new(rig, body_pose), eye)
    }

    /// Renders the `(left, right)` pair seen by the rig at `body_pose`,
    /// computing once what the two eyes share.
    pub fn render_stereo(&self, rig: &StereoRig, body_pose: &Pose) -> (GrayImage, GrayImage) {
        let shared = FrameShared::new(rig, body_pose);
        (self.render_eye(&shared, 0), self.render_eye(&shared, 1))
    }

    fn render_eye(&self, shared: &FrameShared, eye: usize) -> GrayImage {
        let cam = shared.rig.camera;
        let mut img = GrayImage::new(cam.width, cam.height);
        for (y, &c) in shared.rows.iter().enumerate() {
            for (px, &s) in img.row_mut(y).iter_mut().zip(&shared.columns) {
                *px = 0.28 + s * c;
            }
        }
        // Splat landmarks as Gaussian blobs; nearer landmarks are larger.
        let eye_from_world = shared.rig.eye_pose(shared.body_pose, eye).inverse();
        for (i, &lm) in self.landmarks.iter().enumerate() {
            let Some(px) = cam.project(eye_from_world.transform_point(lm)) else { continue };
            // Depth in the *left* camera sizes the blob in both eyes. On
            // paper the right camera's z is the same number; its last bit
            // can differ, so reading it there is a behaviour change.
            let depth = shared.left_from_world.transform_point(lm).z;
            if depth <= 0.2 {
                continue;
            }
            let radius = (3.5 / depth as f32).clamp(1.2, 5.0);
            let brightness = 0.55 + 0.4 * ((i as u64 * 2654435761) % 97) as f32 / 97.0;
            splat_gaussian(&mut img, px.x as f32, px.y as f32, radius, brightness);
        }
        img
    }

    /// Renders a depth image (meters to the room walls) for the left eye.
    ///
    /// This is the synthetic stand-in for the RGB-D input that
    /// ElasticFusion consumes (dyson_lab dataset in the paper).
    pub fn render_depth(&self, rig: &StereoRig, body_pose: &Pose) -> GrayImage {
        let cam = rig.camera;
        let cam_pose = rig.eye_pose(body_pose, 0);
        let room = RoomFromOrigin::new(self.half_extent, cam_pose.position);
        // `unproject`'s x term of each column; its y term is one per row.
        let columns: Vec<f64> = (0..cam.width).map(|x| (x as f64 - cam.cx) / cam.fx).collect();
        let mut img = GrayImage::new(cam.width, cam.height);
        for y in 0..cam.height {
            let row = (y as f64 - cam.cy) / cam.fy;
            for (px, &column) in img.row_mut(y).iter_mut().zip(&columns) {
                let ray_world = cam_pose.transform_vector(Vec3::new(column, row, 1.0).normalized());
                *px = match room.distance(ray_world) {
                    Some(t) => t as f32,
                    None => 0.0, // invalid depth (outside the room looking out)
                };
            }
        }
        img
    }
}

/// The room box seen from one ray origin: what every ray of a depth frame
/// shares.
struct RoomFromOrigin {
    origin: [f64; 3],
    /// Per axis, `wall − origin` of the `−half_extent` and `+half_extent`
    /// walls.
    gaps: [[f64; 2]; 3],
    /// Per axis, `half_extent + 1e-9`: how far off-centre a hit on another
    /// axis's wall may be.
    limits: [f64; 3],
    /// True when the origin is strictly inside the box on every axis.
    inside: bool,
}

impl RoomFromOrigin {
    fn new(half_extent: Vec3, origin: Vec3) -> Self {
        let (h, o) =
            ([half_extent.x, half_extent.y, half_extent.z], [origin.x, origin.y, origin.z]);
        Self {
            origin: o,
            gaps: std::array::from_fn(|a| [-1.0, 1.0].map(|sign| sign * h[a] - o[a])),
            limits: h.map(|h| h + 1e-9),
            inside: (0..3).all(|a| o[a].abs() < h[a]),
        }
    }

    /// Distance along `dir` to the nearest wall hit ahead of the origin
    /// (`t > 1e-6`) within the other two extents; walls are tried axis by
    /// axis, `−` before `+`, and a later hit wins only when strictly
    /// nearer.
    ///
    /// From an origin inside the box, the wall on the side `dir` points away
    /// from has `wall − origin` of the opposite sign to `dir`, so its `t` is
    /// negative: only the other wall is divided out.
    #[inline]
    fn distance(&self, dir: Vec3) -> Option<f64> {
        let dir = [dir.x, dir.y, dir.z];
        let mut best: Option<f64> = None;
        for (axis, (&d, gaps)) in dir.iter().zip(&self.gaps).enumerate() {
            if d.abs() < 1e-12 {
                continue;
            }
            let ahead = usize::from(d > 0.0);
            let walls = if self.inside { &gaps[ahead..=ahead] } else { &gaps[..] };
            for &gap in walls {
                let t = gap / d;
                if t <= 1e-6 {
                    continue;
                }
                // Check the hit point is within the other two extents.
                let within = |a: usize| (self.origin[a] + dir[a] * t).abs() <= self.limits[a];
                if within((axis + 1) % 3) && within((axis + 2) % 3) && best.is_none_or(|b| t < b) {
                    best = Some(t);
                }
            }
        }
        best
    }
}

/// What the two eyes of one frame share.
struct FrameShared<'a> {
    rig: &'a StereoRig,
    body_pose: &'a Pose,
    /// `0.08 * sin(6u + fwd.x)` per column, `u = x / width`.
    columns: Vec<f32>,
    /// `cos(5v + fwd.z)` per row, `v = y / height`.
    rows: Vec<f32>,
    /// World → left camera.
    left_from_world: Pose,
}

impl<'a> FrameShared<'a> {
    fn new(rig: &'a StereoRig, body_pose: &'a Pose) -> Self {
        let cam = rig.camera;
        // Low-frequency background shading keyed to view direction so the
        // image is not flat (KLT needs *some* gradient everywhere).
        let fwd = body_pose.transform_vector(Vec3::UNIT_Z);
        let column = |x: usize| {
            let u = x as f32 / cam.width as f32;
            0.08 * (u * 6.0 + fwd.x as f32).sin()
        };
        let row = |y: usize| {
            let v = y as f32 / cam.height as f32;
            (v * 5.0 + fwd.z as f32).cos()
        };
        Self {
            rig,
            body_pose,
            columns: (0..cam.width).map(column).collect(),
            rows: (0..cam.height).map(row).collect(),
            left_from_world: rig.eye_pose(body_pose, 0).inverse(),
        }
    }
}

/// Additively splats a Gaussian blob (clamped to [0, 1]) over the part of
/// its `(2r + 1)²` square that lies inside the image.
fn splat_gaussian(img: &mut GrayImage, cx: f32, cy: f32, radius: f32, brightness: f32) {
    let r = (radius * 2.5).ceil() as i32;
    let inv_2s2 = 1.0 / (2.0 * radius * radius);
    let clip = |center: f32, len: usize| {
        let c = center as i32;
        let lo = (c - r).clamp(0, len as i32);
        lo as usize..(c + r + 1).clamp(lo, len as i32) as usize
    };
    let xs = clip(cx, img.width());
    for y in clip(cy, img.height()) {
        let fy = y as f32 - cy;
        for (x, px) in xs.clone().zip(&mut img.row_mut(y)[xs.clone()]) {
            let fx = x as f32 - cx;
            let w = (-(fx * fx + fy * fy) * inv_2s2).exp();
            *px = (*px + brightness * w).min(1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::PinholeCamera;

    fn setup() -> (LandmarkWorld, StereoRig) {
        (
            LandmarkWorld::new(120, Vec3::new(4.0, 2.5, 4.0), 7),
            StereoRig::zed_mini(PinholeCamera::qvga()),
        )
    }

    #[test]
    fn landmarks_on_walls() {
        let (world, _) = setup();
        for lm in world.landmarks() {
            let on_wall = (lm.x.abs() - 4.0).abs() < 1e-9
                || (lm.y.abs() - 2.5).abs() < 1e-9
                || (lm.z.abs() - 4.0).abs() < 1e-9;
            assert!(on_wall, "landmark {lm} not on a wall");
        }
    }

    #[test]
    fn render_has_texture() {
        let (world, rig) = setup();
        let img = world.render(&rig, &Pose::IDENTITY, 0);
        let mean = img.mean();
        assert!(mean > 0.1 && mean < 0.9, "mean {mean}");
        // Variance must be non-trivial (blobs + background).
        let var: f32 = img.as_slice().iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>()
            / img.as_slice().len() as f32;
        assert!(var > 1e-4, "variance {var}");
    }

    #[test]
    fn render_changes_with_pose() {
        let (world, rig) = setup();
        let a = world.render(&rig, &Pose::IDENTITY, 0);
        let moved = Pose::new(Vec3::new(0.5, 0.0, 0.0), illixr_math::Quat::IDENTITY);
        let b = world.render(&rig, &moved, 0);
        assert!(a.mean_abs_diff(&b) > 1e-4);
    }

    #[test]
    fn stereo_eyes_differ() {
        let (world, rig) = setup();
        let l = world.render(&rig, &Pose::IDENTITY, 0);
        let r = world.render(&rig, &Pose::IDENTITY, 1);
        assert!(l.mean_abs_diff(&r) > 1e-5);
    }

    /// The renderer as first written, kept verbatim as the pixel
    /// reference: one `sin` and one `cos` per background pixel, the eye
    /// pose composed and inverted per landmark, a four-way bounds test
    /// per blob pixel. `render` must equal it bit for bit. (Only the
    /// brightness hash is widened to `u64`: the same value wherever
    /// `usize` is 64 bits, and no overflow where it is 32.)
    fn reference_render(
        world: &LandmarkWorld,
        rig: &StereoRig,
        body_pose: &Pose,
        eye: usize,
    ) -> GrayImage {
        let cam = rig.camera;
        let fwd = body_pose.transform_vector(Vec3::UNIT_Z);
        let mut img = GrayImage::from_fn(cam.width, cam.height, |x, y| {
            let u = x as f32 / cam.width as f32;
            let v = y as f32 / cam.height as f32;
            0.28 + 0.08 * (u * 6.0 + fwd.x as f32).sin() * (v * 5.0 + fwd.z as f32).cos()
        });
        for (i, &lm) in world.landmarks.iter().enumerate() {
            let left = body_pose.compose(&rig.body_from_left);
            let mut eye_pose = left;
            if eye == 1 {
                eye_pose.position = left.transform_point(Vec3::new(rig.baseline, 0.0, 0.0));
            }
            let Some(px) = cam.project(eye_pose.inverse().transform_point(lm)) else { continue };
            let cam_pose = body_pose.compose(&rig.body_from_left);
            let depth = cam_pose.inverse().transform_point(lm).z;
            if depth <= 0.2 {
                continue;
            }
            let radius = (3.5 / depth as f32).clamp(1.2, 5.0);
            let brightness = 0.55 + 0.4 * ((i as u64 * 2654435761) % 97) as f32 / 97.0;
            reference_splat(&mut img, px.x as f32, px.y as f32, radius, brightness);
        }
        img
    }

    fn reference_splat(img: &mut GrayImage, cx: f32, cy: f32, radius: f32, brightness: f32) {
        let r = (radius * 2.5).ceil() as i32;
        let inv_2s2 = 1.0 / (2.0 * radius * radius);
        for dy in -r..=r {
            for dx in -r..=r {
                let x = cx as i32 + dx;
                let y = cy as i32 + dy;
                if x < 0 || y < 0 || x as usize >= img.width() || y as usize >= img.height() {
                    continue;
                }
                let fx = x as f32 - cx;
                let fy = y as f32 - cy;
                let w = (-(fx * fx + fy * fy) * inv_2s2).exp();
                let old = img.get(x as usize, y as usize);
                img.set(x as usize, y as usize, (old + brightness * w).min(1.0));
            }
        }
    }

    fn bits(img: &GrayImage) -> Vec<u32> {
        img.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts `render` and both halves of `render_stereo` equal the
    /// reference on both eyes of `rig`.
    fn assert_pixel_exact(world: &LandmarkWorld, rig: &StereoRig, pose: &Pose, what: &str) {
        let (left, right) = world.render_stereo(rig, pose);
        for (eye, half) in [left, right].iter().enumerate() {
            let expected = reference_render(world, rig, pose, eye);
            let size = (rig.camera.width, rig.camera.height);
            for (got, name) in [(&world.render(rig, pose, eye), "render"), (half, "render_stereo")]
            {
                assert_eq!((got.width(), got.height()), size, "{what}: {name} eye {eye} size");
                assert!(
                    bits(got) == bits(&expected),
                    "{what}: {name} eye {eye} at {size:?} differs"
                );
            }
        }
    }

    /// QVGA, VGA and a small odd size whose aspect is not 4:3, so a row
    /// table indexed by a column (or the reverse) reads the wrong entry.
    fn pixel_exact_rigs() -> [StereoRig; 3] {
        let odd = PinholeCamera { fx: 22.0, fy: 22.0, cx: 18.5, cy: 11.5, width: 37, height: 23 };
        [PinholeCamera::qvga(), PinholeCamera::vga(), odd].map(StereoRig::zed_mini)
    }

    #[test]
    fn render_is_pixel_exact_along_trajectories() {
        use crate::trajectory::Trajectory;
        use illixr_core::Time;
        let rigs = pixel_exact_rigs();
        let mut poses = 0;
        for seed in 0..8u64 {
            let world = LandmarkWorld::lab(seed);
            for traj in [Trajectory::walking(seed), Trajectory::gentle(seed + 100)] {
                for k in 0..4u64 {
                    let t = Time::from_millis(137 + 67 * seed + 2113 * k);
                    let pose = traj.pose(t);
                    for rig in &rigs {
                        assert_pixel_exact(&world, rig, &pose, &format!("seed {seed} t {t}"));
                    }
                    poses += 1;
                }
            }
        }
        assert!(poses >= 64);
    }

    #[test]
    fn render_is_pixel_exact_at_image_edges_and_behind_the_camera() {
        let world = LandmarkWorld::lab(5);
        let anchor = world.landmarks()[17];
        for rig in &pixel_exact_rigs() {
            let cam = rig.camera;
            let (w, h) = (cam.width as f64, cam.height as f64);
            // Pixel targets for the anchor landmark in the left eye, half
            // a pixel inside each edge, so its blob straddles that edge.
            let targets = [
                (0.5, h / 2.0),
                (w - 0.5, h / 2.0),
                (w / 2.0, 0.5),
                (w / 2.0, h - 0.5),
                (0.5, 0.5),
            ];
            for (u, v) in targets {
                let z = 1.5;
                let offset = Vec3::new((u - cam.cx) * z / cam.fx, (v - cam.cy) * z / cam.fy, z);
                let pose = Pose::new(anchor - offset, illixr_math::Quat::IDENTITY);
                let px = rig.project_world(&pose, anchor, 0).expect("anchor is in view");
                assert!((px.x - u).abs() < 1e-6 && (px.y - v).abs() < 1e-6);
                assert_pixel_exact(&world, rig, &pose, &format!("edge ({u}, {v})"));
            }
            // The anchor behind the camera, and nearer than the 0.2 m
            // cut-off (it projects, and is skipped).
            for z in [-1.5, 0.1] {
                let pose = Pose::new(anchor - Vec3::new(0.0, 0.0, z), illixr_math::Quat::IDENTITY);
                assert_eq!(rig.project_world(&pose, anchor, 0).is_some(), z > 0.0);
                assert_pixel_exact(&world, rig, &pose, &format!("anchor at z = {z}"));
            }
        }
    }

    /// The depth renderer as first written, kept verbatim as the bit
    /// reference: a normalised ray per pixel through `unproject`, tested
    /// against all six walls. `render_depth` must equal it bit for bit.
    fn reference_render_depth(
        world: &LandmarkWorld,
        rig: &StereoRig,
        body_pose: &Pose,
    ) -> GrayImage {
        let cam = rig.camera;
        let cam_pose = rig.eye_pose(body_pose, 0);
        let origin = cam_pose.position;
        GrayImage::from_fn(cam.width, cam.height, |x, y| {
            let ray_cam = cam.unproject(illixr_math::Vec2::new(x as f64, y as f64)).normalized();
            let ray_world = cam_pose.transform_vector(ray_cam);
            match reference_ray_to_box(world, origin, ray_world) {
                Some(t) => t as f32,
                None => 0.0, // invalid depth (outside the room looking out)
            }
        })
    }

    fn reference_ray_to_box(world: &LandmarkWorld, origin: Vec3, dir: Vec3) -> Option<f64> {
        let mut best: Option<f64> = None;
        for axis in 0..3 {
            for sign in [-1.0, 1.0] {
                let wall = sign * world.half_extent[axis];
                let d = dir[axis];
                if d.abs() < 1e-12 {
                    continue;
                }
                let t = (wall - origin[axis]) / d;
                if t <= 1e-6 {
                    continue;
                }
                // Check the hit point is within the other two extents.
                let hit = origin + dir * t;
                let ok = (0..3).all(|a| a == axis || hit[a].abs() <= world.half_extent[a] + 1e-9);
                if ok && best.is_none_or(|b| t < b) {
                    best = Some(t);
                }
            }
        }
        best
    }

    fn assert_depth_exact(world: &LandmarkWorld, rig: &StereoRig, pose: &Pose, what: &str) {
        let got = world.render_depth(rig, pose);
        let expected = reference_render_depth(world, rig, pose);
        assert_eq!((got.width(), got.height()), (rig.camera.width, rig.camera.height), "{what}");
        assert!(
            bits(&got) == bits(&expected),
            "{what}: depth at {}x{} differs",
            got.width(),
            got.height()
        );
    }

    /// QVGA, whose principal point is a whole pixel (so the centre row and
    /// column cast rays with an exactly-zero component), and the odd 37×23
    /// camera.
    fn depth_exact_rigs() -> [StereoRig; 2] {
        let [qvga, _, odd] = pixel_exact_rigs();
        [qvga, odd]
    }

    #[test]
    fn render_depth_is_bit_exact_along_trajectories() {
        use crate::trajectory::Trajectory;
        use illixr_core::Time;
        let mut poses = 0;
        for seed in 0..8u64 {
            let world = LandmarkWorld::lab(seed);
            for traj in [Trajectory::walking(seed), Trajectory::gentle(seed + 100)] {
                for k in 0..4u64 {
                    let t = Time::from_millis(91 + 53 * seed + 1709 * k);
                    for rig in &depth_exact_rigs() {
                        assert_depth_exact(
                            &world,
                            rig,
                            &traj.pose(t),
                            &format!("seed {seed} t {t}"),
                        );
                    }
                    poses += 1;
                }
            }
        }
        assert!(poses >= 64);
    }

    /// Origins the trajectories never reach: outside the room, exactly on a
    /// wall, on an edge and a corner where two and three walls meet, with
    /// axis-aligned orientations whose centre rays have exactly-zero
    /// components, looking in and looking out.
    #[test]
    fn render_depth_is_bit_exact_off_the_trajectories() {
        use illixr_math::Quat;
        let world = LandmarkWorld::lab(2);
        let half_turn_x = Quat::new(0.0, 1.0, 0.0, 0.0);
        let half_turn_y = Quat::new(0.0, 0.0, 1.0, 0.0);
        let turned = Quat::from_axis_angle(Vec3::new(0.3, 1.0, -0.2).normalized(), 0.9);
        let origins = [
            Vec3::ZERO,
            Vec3::new(4.0, 0.0, 0.0),
            Vec3::new(-4.0, 1.0, -1.0),
            Vec3::new(0.5, 2.5, 4.0),
            Vec3::new(4.0, -2.5, -4.0),
            Vec3::new(0.0, 0.0, 4.0),
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::new(5.0, 0.0, 0.0),
            Vec3::new(0.0, 3.0, -6.0),
            Vec3::new(-9.0, 0.2, 0.0),
        ];
        for origin in origins {
            for q in [Quat::IDENTITY, half_turn_x, half_turn_y, turned] {
                for rig in &depth_exact_rigs() {
                    let what = format!("origin {origin}, orientation {q:?}");
                    assert_depth_exact(&world, rig, &Pose::new(origin, q), &what);
                }
            }
        }
    }

    #[test]
    fn depth_inside_room_is_bounded() {
        let (world, rig) = setup();
        let depth = world.render_depth(&rig, &Pose::IDENTITY);
        let diag = (4.0f32 * 4.0 + 2.5 * 2.5 + 4.0 * 4.0).sqrt() * 2.0;
        for &d in depth.as_slice() {
            assert!(d > 0.0 && d <= diag, "depth {d}");
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = LandmarkWorld::new(50, Vec3::new(1.0, 1.0, 1.0), 3);
        let b = LandmarkWorld::new(50, Vec3::new(1.0, 1.0, 1.0), 3);
        assert_eq!(a.landmarks(), b.landmarks());
    }
}
