//! TSDF voxel volume (KinectFusion-style map backend): integration
//! ("map fusion") and raycasting ("surfel prediction" in the task
//! accounting).

use illixr_math::{Pose, Vec3};
use illixr_sensors::camera::PinholeCamera;

use crate::maps::{DepthFrame, NormalMap, VertexMap};

/// A truncated signed distance field over a regular voxel grid.
#[derive(Debug, Clone)]
pub struct TsdfVolume {
    dims: [usize; 3],
    voxel_size: f64,
    origin: Vec3,
    truncation: f64,
    tsdf: Vec<f32>,
    weight: Vec<f32>,
}

impl TsdfVolume {
    /// Creates a volume of `dims` voxels with the given voxel size,
    /// whose minimum corner sits at `origin`.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero or `voxel_size <= 0`.
    pub fn new(dims: [usize; 3], voxel_size: f64, origin: Vec3) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "volume dims must be positive");
        assert!(voxel_size > 0.0, "voxel size must be positive");
        let n = dims[0] * dims[1] * dims[2];
        Self {
            dims,
            voxel_size,
            origin,
            truncation: voxel_size * 4.0,
            tsdf: vec![1.0; n],
            weight: vec![0.0; n],
        }
    }

    /// A volume covering a `2·half_extent` room centred at the origin
    /// with `res³` voxels.
    pub fn room(half_extent: Vec3, res: usize) -> Self {
        let size = 2.0 * half_extent.max_abs() * 1.1;
        let voxel = size / res as f64;
        Self::new([res; 3], voxel, Vec3::splat(-size / 2.0))
    }

    /// Number of voxels with non-zero integration weight.
    pub(crate) fn occupied_voxels(&self) -> usize {
        self.weight.iter().filter(|&&w| w > 0.0).count()
    }

    #[inline]
    fn index(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.dims[1] + y) * self.dims[0] + x
    }

    /// World position of a voxel center.
    fn voxel_center(&self, x: usize, y: usize, z: usize) -> Vec3 {
        self.origin
            + Vec3::new(
                (x as f64 + 0.5) * self.voxel_size,
                (y as f64 + 0.5) * self.voxel_size,
                (z as f64 + 0.5) * self.voxel_size,
            )
    }

    /// Integrates a depth frame taken from `cam_pose` (camera-to-world).
    ///
    /// The classic KinectFusion projective update: each voxel projects
    /// into the frame, the SDF along the ray is updated with a weighted
    /// running average.
    pub fn integrate(&mut self, depth: &DepthFrame, cam: &PinholeCamera, cam_pose: &Pose) {
        let world_to_cam = cam_pose.inverse();
        for z in 0..self.dims[2] {
            for y in 0..self.dims[1] {
                for x in 0..self.dims[0] {
                    let p_world = self.voxel_center(x, y, z);
                    let p_cam = world_to_cam.transform_point(p_world);
                    if p_cam.z <= 0.05 {
                        continue;
                    }
                    let Some(px) = cam.project(p_cam) else { continue };
                    let d_meas = depth.get(px.x as usize, px.y as usize) as f64;
                    if d_meas <= 0.0 {
                        continue;
                    }
                    let sdf = d_meas - p_cam.z;
                    if sdf < -self.truncation {
                        continue; // occluded: no information
                    }
                    let tsdf_new = (sdf / self.truncation).clamp(-1.0, 1.0) as f32;
                    let idx = self.index(x, y, z);
                    let w_old = self.weight[idx];
                    let w_new = (w_old + 1.0).min(64.0);
                    self.tsdf[idx] = (self.tsdf[idx] * w_old + tsdf_new) / (w_old + 1.0);
                    self.weight[idx] = w_new;
                }
            }
        }
    }

    /// Trilinear TSDF sample at a world point; `None` outside the volume
    /// or in unobserved space.
    pub(crate) fn sample(&self, p: Vec3) -> Option<f64> {
        let g = (p - self.origin) / self.voxel_size - Vec3::splat(0.5);
        let (x0, y0, z0) = (g.x.floor() as isize, g.y.floor() as isize, g.z.floor() as isize);
        if x0 < 0
            || y0 < 0
            || z0 < 0
            || x0 as usize + 1 >= self.dims[0]
            || y0 as usize + 1 >= self.dims[1]
            || z0 as usize + 1 >= self.dims[2]
        {
            return None;
        }
        let (fx, fy, fz) = (g.x - x0 as f64, g.y - y0 as f64, g.z - z0 as f64);
        let mut acc = 0.0;
        let mut wsum = 0.0;
        for dz in 0..2usize {
            for dy in 0..2usize {
                for dx in 0..2usize {
                    let idx =
                        self.index((x0 as usize) + dx, (y0 as usize) + dy, (z0 as usize) + dz);
                    if self.weight[idx] <= 0.0 {
                        return None;
                    }
                    let w = (if dx == 1 { fx } else { 1.0 - fx })
                        * (if dy == 1 { fy } else { 1.0 - fy })
                        * (if dz == 1 { fz } else { 1.0 - fz });
                    acc += w * self.tsdf[idx] as f64;
                    wsum += w;
                }
            }
        }
        Some(acc / wsum.max(1e-12))
    }

    /// Raycasts the volume from `cam_pose`, producing predicted vertex
    /// and normal maps (the model the next frame's ICP aligns against).
    pub(crate) fn raycast(
        &self,
        cam: &PinholeCamera,
        cam_pose: &Pose,
        max_depth: f64,
    ) -> (VertexMap, NormalMap) {
        let (w, h) = (cam.width, cam.height);
        let mut vmap: VertexMap = vec![None; w * h];
        let step = self.voxel_size;
        let origin = cam_pose.position;
        let world_to_cam = cam_pose.inverse();
        for py in 0..h {
            for px in 0..w {
                let ray_cam =
                    cam.unproject(illixr_math::Vec2::new(px as f64, py as f64)).normalized();
                let ray_world = cam_pose.transform_vector(ray_cam);
                // March until a sign change from + to −.
                let mut t = 0.3;
                let mut prev: Option<(f64, f64)> = None; // (t, tsdf)
                while t < max_depth {
                    let p = origin + ray_world * t;
                    match self.sample(p) {
                        Some(v) => {
                            if let Some((tp, vp)) = prev {
                                if vp > 0.0 && v <= 0.0 {
                                    // Linear interpolation of the zero crossing.
                                    let tz = tp + (t - tp) * vp / (vp - v);
                                    let hit = origin + ray_world * tz;
                                    // Store the *camera-frame* vertex to
                                    // match the live frame's vertex map.
                                    vmap[py * w + px] = Some(world_to_cam.transform_point(hit));
                                    break;
                                }
                            }
                            prev = Some((t, v));
                            // Skip proportionally to distance when far.
                            t += (v.abs() * self.truncation).max(step * 0.5);
                        }
                        None => {
                            prev = None;
                            t += step;
                        }
                    }
                }
            }
        }
        let nmap = crate::maps::normal_map(&vmap, w, h);
        (vmap, nmap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> PinholeCamera {
        PinholeCamera { fx: 60.0, fy: 60.0, cx: 32.0, cy: 24.0, width: 64, height: 48 }
    }

    /// A flat wall at z = `wall_z` in front of an identity camera.
    fn wall_depth(wall_z: f32) -> DepthFrame {
        // Depth along the optical axis is constant for a frontal plane
        // (perspective depth = z, not range).
        DepthFrame::from_fn(64, 48, |_, _| wall_z)
    }

    #[test]
    fn integrate_marks_surface_voxels() {
        let mut vol = TsdfVolume::new([32, 32, 32], 0.125, Vec3::new(-2.0, -2.0, 0.0));
        vol.integrate(&wall_depth(2.0), &cam(), &Pose::IDENTITY);
        assert!(vol.occupied_voxels() > 100);
        // TSDF at the wall should be ~0, in front of it positive.
        let on_wall = vol.sample(Vec3::new(0.0, 0.0, 2.0)).unwrap();
        let in_front = vol.sample(Vec3::new(0.0, 0.0, 1.6)).unwrap();
        assert!(on_wall.abs() < 0.3, "wall tsdf {on_wall}");
        assert!(in_front > 0.5, "free space tsdf {in_front}");
    }

    #[test]
    fn raycast_recovers_wall_depth() {
        let mut vol = TsdfVolume::new([64, 64, 64], 0.0625, Vec3::new(-2.0, -2.0, 0.0));
        let c = cam();
        vol.integrate(&wall_depth(2.0), &c, &Pose::IDENTITY);
        let (vmap, _n) = vol.raycast(&c, &Pose::IDENTITY, 5.0);
        let center = vmap[24 * 64 + 32].expect("center ray must hit the wall");
        assert!((center.z - 2.0).abs() < 0.08, "raycast depth {}", center.z);
    }

    #[test]
    fn repeated_integration_reinforces() {
        let mut vol = TsdfVolume::new([32, 32, 32], 0.125, Vec3::new(-2.0, -2.0, 0.0));
        let c = cam();
        for _ in 0..5 {
            vol.integrate(&wall_depth(2.0), &c, &Pose::IDENTITY);
        }
        let v1 = vol.sample(Vec3::new(0.0, 0.0, 2.0)).unwrap();
        assert!(v1.abs() < 0.3);
    }

    #[test]
    fn sample_outside_is_none() {
        let vol = TsdfVolume::new([8, 8, 8], 0.5, Vec3::ZERO);
        assert!(vol.sample(Vec3::new(-1.0, 0.0, 0.0)).is_none());
        assert!(vol.sample(Vec3::new(100.0, 0.0, 0.0)).is_none());
        // Inside but unobserved:
        assert!(vol.sample(Vec3::new(2.0, 2.0, 2.0)).is_none());
    }

    #[test]
    fn room_constructor_covers_extent() {
        let vol = TsdfVolume::room(Vec3::new(4.0, 2.5, 4.0), 64);
        // A point near the wall should be inside the grid (observed or
        // not, sampling must not panic).
        let _ = vol.sample(Vec3::new(3.9, 0.0, 0.0));
    }
}
