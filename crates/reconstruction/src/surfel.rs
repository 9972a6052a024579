//! Surfel map (ElasticFusion-style backend): a flat list of oriented
//! disks merged with incoming depth data, plus a periodic global
//! refinement pass whose cost grows with map size — the source of the
//! paper's reconstruction-time growth and loop-closure spikes (§IV-B).

use illixr_math::{Pose, Vec3};
use illixr_sensors::camera::PinholeCamera;

use crate::maps::{NormalMap, VertexMap};

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

    /// Fuses a frame's vertex/normal maps (camera frame) taken at
    /// `cam_pose` into the map: existing surfels near a measurement are
    /// averaged toward it; unexplained measurements spawn new surfels.
    ///
    /// Subsamples the input with `stride` to bound map growth.
    pub(crate) fn fuse(
        &mut self,
        vertices: &VertexMap,
        normals: &NormalMap,
        cam: &PinholeCamera,
        cam_pose: &Pose,
        stride: usize,
    ) {
        let stride = stride.max(1);
        self.frame += 1;
        let (w, h) = (cam.width, cam.height);
        assert_eq!(vertices.len(), w * h, "vertex map size mismatch");
        // Project existing surfels into this frame for association.
        // (Brute-force projective association; ElasticFusion uses GPU
        // index maps — same semantics.)
        let world_to_cam = cam_pose.inverse();
        // Per pixel, the nearest surfel so far and its camera-frame depth,
        // kept so it is not transformed again; `NONE` where none projects.
        const NONE: usize = usize::MAX;
        let mut index_map = vec![(NONE, 0.0); w * h];
        for (i, s) in self.surfels.iter().enumerate() {
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
    use crate::maps::{normal_map, vertex_map, DepthFrame};

    fn cam() -> PinholeCamera {
        PinholeCamera { fx: 60.0, fy: 60.0, cx: 32.0, cy: 24.0, width: 64, height: 48 }
    }

    fn wall_maps(c: &PinholeCamera, z: f32) -> (VertexMap, NormalMap) {
        let depth = DepthFrame::from_fn(c.width, c.height, |_, _| z);
        let v = vertex_map(&depth, c);
        let n = normal_map(&v, c.width, c.height);
        (v, n)
    }

    #[test]
    fn fuse_creates_surfels() {
        let c = cam();
        let (v, n) = wall_maps(&c, 2.0);
        let mut map = SurfelMap::new();
        map.fuse(&v, &n, &c, &Pose::IDENTITY, 4);
        assert!(map.len() > 50, "only {} surfels", map.len());
    }

    #[test]
    fn refusing_same_view_merges_not_duplicates() {
        let c = cam();
        let (v, n) = wall_maps(&c, 2.0);
        let mut map = SurfelMap::new();
        map.fuse(&v, &n, &c, &Pose::IDENTITY, 4);
        let after_first = map.len();
        for _ in 0..3 {
            map.fuse(&v, &n, &c, &Pose::IDENTITY, 4);
        }
        // Some growth at edges is fine, wholesale duplication is not.
        assert!(map.len() < after_first * 2, "{} vs {}", map.len(), after_first);
        // Confidences grew.
        assert!(map.surfels().iter().any(|s| s.confidence > 2.0));
    }

    #[test]
    fn surfels_sit_on_the_wall() {
        let c = cam();
        let (v, n) = wall_maps(&c, 2.0);
        let mut map = SurfelMap::new();
        map.fuse(&v, &n, &c, &Pose::IDENTITY, 4);
        for s in map.surfels() {
            assert!((s.position.z - 2.0).abs() < 0.01, "surfel at z {}", s.position.z);
        }
    }

    #[test]
    fn new_viewpoint_adds_coverage() {
        let c = cam();
        let (v, n) = wall_maps(&c, 2.0);
        let mut map = SurfelMap::new();
        map.fuse(&v, &n, &c, &Pose::IDENTITY, 4);
        let before = map.len();
        let moved = Pose::new(Vec3::new(1.0, 0.0, 0.0), illixr_math::Quat::IDENTITY);
        map.fuse(&v, &n, &c, &moved, 4);
        assert!(map.len() > before, "no new surfels from a new viewpoint");
    }

    #[test]
    fn refine_preserves_confident_surfels() {
        let c = cam();
        let (v, n) = wall_maps(&c, 2.0);
        let mut map = SurfelMap::new();
        for _ in 0..3 {
            map.fuse(&v, &n, &c, &Pose::IDENTITY, 4);
        }
        let before = map.len();
        map.refine();
        // Confident wall surfels survive.
        assert!(map.len() as f64 > before as f64 * 0.5);
        for s in map.surfels() {
            assert!((s.position.z - 2.0).abs() < 0.05);
        }
    }
}
