//! Surfel map (ElasticFusion-style): a flat list of oriented
//! disks merged with incoming depth data, plus a periodic global
//! refinement pass whose cost grows with map size — the source of the
//! paper's reconstruction-time growth and loop-closure spikes (§IV-B).

use illixr_math::{Pose, Vec3};
use illixr_sensors::camera::PinholeCamera;

use crate::maps::{normal_at, Vertices};

/// One surfel: an oriented disk with a confidence counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Surfel {
    /// World position.
    pub position: Vec3,
    /// Unit normal (world frame).
    pub normal: Vec3,
    /// Disk radius, meters.
    pub radius: f64,
    /// Confidence (number of supporting observations).
    pub confidence: f64,
    /// Frame index of the last update.
    pub last_seen: u64,
}

/// The surfel map.
#[derive(Debug, Clone, Default)]
pub(crate) struct SurfelMap {
    surfels: Vec<Surfel>,
    frame: u64,
}

impl SurfelMap {
    /// Creates an empty map.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of surfels in the map.
    pub(crate) fn len(&self) -> usize {
        self.surfels.len()
    }

    /// The surfels.
    pub(crate) fn surfels(&self) -> &[Surfel] {
        &self.surfels
    }

    /// Fuses a frame's vertices (camera frame) taken at `cam_pose` into
    /// the map: existing surfels near a measurement are averaged toward
    /// it; unexplained measurements spawn new surfels.
    ///
    /// Subsamples the input with `stride` to bound map growth: only every
    /// `stride`-th pixel of every `stride`-th row is fused, and its normal
    /// is taken there and nowhere else.
    pub(crate) fn fuse(
        &mut self,
        vertices: &impl Vertices,
        cam: &PinholeCamera,
        cam_pose: &Pose,
        stride: usize,
    ) {
        let stride = stride.max(1);
        self.frame += 1;
        let (w, h) = (cam.width, cam.height);
        assert_eq!(vertices.size(), (w, h), "vertex map size mismatch");
        // Project existing surfels into this frame for association.
        // (Brute-force projective association; ElasticFusion uses GPU
        // index maps — same semantics.)
        let world_to_cam = cam_pose.inverse();
        // Per fused pixel, the nearest surfel so far and its camera-frame
        // depth, kept so it is not transformed again; `NONE` where none
        // projects. A surfel projecting between fused pixels is never
        // read, so the map holds the stride grid only.
        const NONE: usize = usize::MAX;
        let grid_w = w.div_ceil(stride);
        let mut index_map = vec![(NONE, 0.0); grid_w * h.div_ceil(stride)];
        for (i, s) in self.surfels.iter().enumerate() {
            let p_cam = world_to_cam.transform_point(s.position);
            if p_cam.z <= 0.05 {
                continue;
            }
            if let Some(px) = cam.project(p_cam) {
                let (x, y) = (px.x as usize, px.y as usize);
                if x % stride != 0 || y % stride != 0 {
                    continue;
                }
                let idx = y / stride * grid_w + x / stride;
                // Keep the nearest surfel per pixel.
                let (j, z) = index_map[idx];
                if j == NONE || p_cam.z < z {
                    index_map[idx] = (i, p_cam.z);
                }
            }
        }
        for (gy, y) in (0..h).step_by(stride).enumerate() {
            for (gx, x) in (0..w).step_by(stride).enumerate() {
                let Some(v) = vertices.at(x, y) else { continue };
                let Some(n) = normal_at(vertices, x, y) else { continue };
                let p_world = cam_pose.transform_point(v);
                let n_world = cam_pose.transform_vector(n);
                let radius = (v.z * stride as f64 / cam.fx).max(0.002);
                match index_map[gy * grid_w + gx] {
                    (i, _) if i != NONE && (self.surfels[i].position - p_world).norm() < 0.1 => {
                        let s = &mut self.surfels[i];
                        let c = s.confidence;
                        s.position = (s.position * c + p_world) / (c + 1.0);
                        let n_avg = s.normal * c + n_world;
                        s.normal = n_avg.normalized();
                        s.radius = (s.radius * c + radius) / (c + 1.0);
                        s.confidence = c + 1.0;
                        s.last_seen = self.frame;
                    }
                    _ => {
                        self.surfels.push(Surfel {
                            position: p_world,
                            normal: n_world,
                            radius,
                            confidence: 1.0,
                            last_seen: self.frame,
                        });
                    }
                }
            }
        }
    }

    /// Global map refinement — the loop-closure stand-in. Touches every
    /// surfel (deformation-graph style smoothing toward high-confidence
    /// neighbours), so its cost is `O(map size)`, an order of magnitude
    /// above a normal frame once the map has grown.
    pub(crate) fn refine(&mut self) {
        if self.surfels.len() < 2 {
            return;
        }
        // Deterministic pseudo-neighbour smoothing pass: each surfel is
        // pulled slightly toward the running centroid of its spatial
        // bucket, and stale low-confidence surfels are pruned.
        let mut sum = Vec3::ZERO;
        for s in &self.surfels {
            sum += s.position;
        }
        let centroid = sum / self.surfels.len() as f64;
        for s in &mut self.surfels {
            // Weight inversely with confidence: well-observed surfels
            // barely move.
            let alpha = 1e-4 / (1.0 + s.confidence);
            s.position = s.position.lerp(centroid, alpha);
        }
        let frame = self.frame;
        self.surfels.retain(|s| s.confidence >= 2.0 || frame.saturating_sub(s.last_seen) < 30);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::{
        normal_map, preprocess_depth, vertex_map, DepthFrame, LiveVertices, NormalMap, VertexMap,
    };
    use illixr_core::Time;
    use illixr_sensors::camera::StereoRig;
    use illixr_sensors::trajectory::Trajectory;
    use illixr_sensors::world::LandmarkWorld;

    fn cam() -> PinholeCamera {
        PinholeCamera { fx: 60.0, fy: 60.0, cx: 32.0, cy: 24.0, width: 64, height: 48 }
    }

    /// Fuses a frontal wall 2 m ahead of the camera at `pose`, stride 4.
    fn fuse_wall(map: &mut SurfelMap, pose: &Pose) {
        let c = cam();
        let depth = DepthFrame::from_fn(c.width, c.height, |_, _| 2.0);
        map.fuse(&LiveVertices::new(&depth, &c), &c, pose, 4);
    }

    #[test]
    fn fuse_creates_surfels() {
        let mut map = SurfelMap::new();
        fuse_wall(&mut map, &Pose::IDENTITY);
        assert!(map.len() > 50, "only {} surfels", map.len());
    }

    #[test]
    fn refusing_same_view_merges_not_duplicates() {
        let mut map = SurfelMap::new();
        fuse_wall(&mut map, &Pose::IDENTITY);
        let after_first = map.len();
        for _ in 0..3 {
            fuse_wall(&mut map, &Pose::IDENTITY);
        }
        // Some growth at edges is fine, wholesale duplication is not.
        assert!(map.len() < after_first * 2, "{} vs {}", map.len(), after_first);
        // Confidences grew.
        assert!(map.surfels().iter().any(|s| s.confidence > 2.0));
    }

    #[test]
    fn surfels_sit_on_the_wall() {
        let mut map = SurfelMap::new();
        fuse_wall(&mut map, &Pose::IDENTITY);
        for s in map.surfels() {
            assert!((s.position.z - 2.0).abs() < 0.01, "surfel at z {}", s.position.z);
        }
    }

    #[test]
    fn new_viewpoint_adds_coverage() {
        let mut map = SurfelMap::new();
        fuse_wall(&mut map, &Pose::IDENTITY);
        let before = map.len();
        let moved = Pose::new(Vec3::new(1.0, 0.0, 0.0), illixr_math::Quat::IDENTITY);
        fuse_wall(&mut map, &moved);
        assert!(map.len() > before, "no new surfels from a new viewpoint");
    }

    #[test]
    fn refine_preserves_confident_surfels() {
        let mut map = SurfelMap::new();
        for _ in 0..3 {
            fuse_wall(&mut map, &Pose::IDENTITY);
        }
        let before = map.len();
        map.refine();
        // Confident wall surfels survive.
        assert!(map.len() as f64 > before as f64 * 0.5);
        for s in map.surfels() {
            assert!((s.position.z - 2.0).abs() < 0.05);
        }
    }

    /// Fusion as it was while it read full-frame vertex and normal maps
    /// and kept a full-frame association map, kept verbatim as the bit
    /// reference.
    fn reference_fuse(
        map: &mut SurfelMap,
        vertices: &VertexMap,
        normals: &NormalMap,
        cam: &PinholeCamera,
        cam_pose: &Pose,
        stride: usize,
    ) {
        let stride = stride.max(1);
        map.frame += 1;
        let (w, h) = (cam.width, cam.height);
        assert_eq!(vertices.len(), w * h, "vertex map size mismatch");
        let world_to_cam = cam_pose.inverse();
        const NONE: usize = usize::MAX;
        let mut index_map = vec![(NONE, 0.0); w * h];
        for (i, s) in map.surfels.iter().enumerate() {
            let p_cam = world_to_cam.transform_point(s.position);
            if p_cam.z <= 0.05 {
                continue;
            }
            if let Some(px) = cam.project(p_cam) {
                let idx = px.y as usize * w + px.x as usize;
                // Keep the nearest surfel per pixel.
                let (j, z) = index_map[idx];
                if j == NONE || p_cam.z < z {
                    index_map[idx] = (i, p_cam.z);
                }
            }
        }
        for y in (0..h).step_by(stride) {
            for x in (0..w).step_by(stride) {
                let idx = y * w + x;
                let (Some(v), Some(n)) = (vertices[idx], normals[idx]) else { continue };
                let p_world = cam_pose.transform_point(v);
                let n_world = cam_pose.transform_vector(n);
                let radius = (v.z * stride as f64 / cam.fx).max(0.002);
                match index_map[idx] {
                    (i, _) if i != NONE && (map.surfels[i].position - p_world).norm() < 0.1 => {
                        let s = &mut map.surfels[i];
                        let c = s.confidence;
                        s.position = (s.position * c + p_world) / (c + 1.0);
                        let n_avg = s.normal * c + n_world;
                        s.normal = n_avg.normalized();
                        s.radius = (s.radius * c + radius) / (c + 1.0);
                        s.confidence = c + 1.0;
                        s.last_seen = map.frame;
                    }
                    _ => {
                        map.surfels.push(Surfel {
                            position: p_world,
                            normal: n_world,
                            radius,
                            confidence: 1.0,
                            last_seen: map.frame,
                        });
                    }
                }
            }
        }
    }

    fn surfel_bits(map: &SurfelMap) -> Vec<[u64; 9]> {
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        map.surfels()
            .iter()
            .map(|s| {
                let [px, py, pz] = bits(s.position);
                let [nx, ny, nz] = bits(s.normal);
                [px, py, pz, nx, ny, nz, s.radius.to_bits(), s.confidence.to_bits(), s.last_seen]
            })
            .collect()
    }

    /// Twelve frames of a moving camera, with invalid and NaN depths
    /// punched into each, fused at strides 1, 3 (which divides neither 64
    /// nor 48) and 4 into two maps: one through the live view and the
    /// stride-grid association, one through the reference. Every surfel's
    /// bits agree after every frame.
    #[test]
    fn fuse_is_bit_exact_against_the_full_frame_reference() {
        let c = cam();
        let world = LandmarkWorld::new(60, Vec3::new(4.0, 2.5, 4.0), 3);
        let rig = StereoRig::zed_mini(c);
        let traj = Trajectory::gentle(3);
        for stride in [1, 3, 4] {
            let (mut got, mut want) = (SurfelMap::new(), SurfelMap::new());
            for k in 0..12 {
                let pose = traj.pose(Time::from_millis(k * 100));
                let mut depth = preprocess_depth(&world.render_depth(&rig, &pose));
                for y in 0..c.height {
                    for x in 0..c.width {
                        match (x * 7 + y * 13 + k as usize) % 53 {
                            0 => depth.set(x, y, 0.0),
                            1 => depth.set(x, y, -0.0),
                            2 => depth.set(x, y, -0.25),
                            3 => depth.set(x, y, f32::NAN),
                            _ => {}
                        }
                    }
                }
                got.fuse(&LiveVertices::new(&depth, &c), &c, &pose, stride);
                let v = vertex_map(&depth, &c);
                let n = normal_map(&v, c.width, c.height);
                reference_fuse(&mut want, &v, &n, &c, &pose, stride);
                assert!(
                    surfel_bits(&got) == surfel_bits(&want),
                    "stride {stride} frame {k}: {} vs {} surfels",
                    got.len(),
                    want.len()
                );
            }
            assert!(got.len() > 100, "stride {stride}: map did not grow");
        }
    }
}
