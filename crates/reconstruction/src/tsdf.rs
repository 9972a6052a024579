//! TSDF voxel volume: KinectFusion's projective integration.
//!
//! No pipeline fuses into it: scene reconstruction is the surfel
//! pipeline. [`TsdfVolume::new`] and [`TsdfVolume::integrate`] stay only
//! because `perf/` times them as its fusion kernel.

use illixr_math::{Pose, Vec3};
use illixr_sensors::camera::PinholeCamera;

use crate::maps::DepthFrame;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::preprocess_depth;
    use illixr_core::boundary::fnv1a;
    use illixr_core::Time;
    use illixr_sensors::camera::StereoRig;
    use illixr_sensors::trajectory::Trajectory;
    use illixr_sensors::world::LandmarkWorld;

    fn cam() -> PinholeCamera {
        PinholeCamera { fx: 60.0, fy: 60.0, cx: 32.0, cy: 24.0, width: 64, height: 48 }
    }

    /// A flat wall at z = `wall_z` in front of an identity camera.
    fn wall_depth(wall_z: f32) -> DepthFrame {
        // Depth along the optical axis is constant for a frontal plane
        // (perspective depth = z, not range).
        DepthFrame::from_fn(64, 48, |_, _| wall_z)
    }

    /// The TSDF value and weight of the voxel holding world point `p`.
    fn voxel_at(vol: &TsdfVolume, p: Vec3) -> (f32, f32) {
        let g = (p - vol.origin) / vol.voxel_size;
        let idx = vol.index(g.x as usize, g.y as usize, g.z as usize);
        (vol.tsdf[idx], vol.weight[idx])
    }

    #[test]
    fn integrate_marks_surface_voxels() {
        let mut vol = TsdfVolume::new([32, 32, 32], 0.125, Vec3::new(-2.0, -2.0, 0.0));
        vol.integrate(&wall_depth(2.0), &cam(), &Pose::IDENTITY);
        assert!(vol.weight.iter().filter(|&&w| w > 0.0).count() > 100);
        // TSDF at the wall should be ~0, in front of it positive.
        let (on_wall, w_wall) = voxel_at(&vol, Vec3::new(0.0, 0.0, 2.0));
        let (in_front, w_front) = voxel_at(&vol, Vec3::new(0.0, 0.0, 1.6));
        assert!(w_wall > 0.0 && w_front > 0.0, "unobserved: {w_wall}, {w_front}");
        assert!(on_wall.abs() < 0.3, "wall tsdf {on_wall}");
        assert!(in_front > 0.5, "free space tsdf {in_front}");
    }

    #[test]
    fn repeated_integration_reinforces() {
        let mut vol = TsdfVolume::new([32, 32, 32], 0.125, Vec3::new(-2.0, -2.0, 0.0));
        let c = cam();
        for _ in 0..5 {
            vol.integrate(&wall_depth(2.0), &c, &Pose::IDENTITY);
        }
        let (v1, w1) = voxel_at(&vol, Vec3::new(0.0, 0.0, 2.0));
        assert_eq!(w1, 5.0);
        assert!(v1.abs() < 0.3);
    }

    /// FNV-1a over every voxel's TSDF and weight bits after integrating
    /// 10 filtered QVGA depth frames of the gentle walk through the
    /// 60-landmark room, each at its true pose.
    #[test]
    fn integrate_bits_are_pinned_over_ten_qvga_frames() {
        let world = LandmarkWorld::new(60, Vec3::new(4.0, 2.5, 4.0), 3);
        let cam = PinholeCamera::qvga();
        let rig = StereoRig::zed_mini(cam);
        let traj = Trajectory::gentle(3);
        let mut vol = TsdfVolume::new([64; 3], 0.125, Vec3::splat(-4.0));
        for k in 0..10 {
            let pose = traj.pose(Time::from_millis(k * 66));
            vol.integrate(&preprocess_depth(&world.render_depth(&rig, &pose)), &cam, &pose);
        }
        let bits = vol.tsdf.iter().chain(&vol.weight).flat_map(|v| v.to_bits().to_le_bytes());
        let hash = fnv1a(bits);
        assert_eq!(hash, 0xdf53_58ea_5916_f4e3, "got {hash:#018x}");
    }
}
