//! The scene-reconstruction pipeline: the five Table VI tasks wired
//! together over a choice of map backend.

use illixr_core::obs::Metrics;
use illixr_math::{Pose, Vec3};
use illixr_sensors::camera::PinholeCamera;

use crate::icp::icp_point_to_plane_gated;
use crate::maps::{normal_map, preprocess_depth, vertex_map, DepthFrame};
use crate::surfel::SurfelMap;
use crate::tsdf::TsdfVolume;

/// Which dense map representation backs the pipeline.
#[derive(Debug)]
pub enum MapBackend {
    /// KinectFusion-style TSDF volume.
    Tsdf(TsdfVolume),
    /// ElasticFusion-style surfel map.
    Surfel(SurfelMap),
}

/// Output of processing one depth frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneOutput {
    /// Estimated camera-to-world pose of this frame.
    pub pose: Pose,
    /// Current map size (occupied voxels or surfel count).
    pub map_size: usize,
    /// True when this frame triggered a global refinement pass.
    pub refined: bool,
    /// ICP residual (0 when ICP was skipped, e.g. the first frame).
    pub icp_residual: f64,
}

/// The pipeline.
#[derive(Debug)]
pub struct ScenePipeline {
    cam: PinholeCamera,
    backend: MapBackend,
    pose: Pose,
    frame: u64,
    /// Run a global refinement every this many frames (surfel backend).
    refine_interval: u64,
    /// Surfel fusion stride.
    stride: usize,
}

impl ScenePipeline {
    /// Creates a pipeline with the given backend and initial pose.
    pub fn new(cam: PinholeCamera, backend: MapBackend, initial_pose: Pose) -> Self {
        Self { cam, backend, pose: initial_pose, frame: 0, refine_interval: 25, stride: 4 }
    }

    /// A surfel pipeline covering a room (the default ElasticFusion-like
    /// configuration starred in Table II).
    pub fn elastic_fusion_like(cam: PinholeCamera, initial_pose: Pose) -> Self {
        Self::new(cam, MapBackend::Surfel(SurfelMap::new()), initial_pose)
    }

    /// A KinectFusion-like TSDF pipeline for a room of `half_extent`.
    pub fn kinect_fusion_like(cam: PinholeCamera, half_extent: Vec3, initial_pose: Pose) -> Self {
        Self::new(cam, MapBackend::Tsdf(TsdfVolume::room(half_extent, 64)), initial_pose)
    }

    /// Sets the global-refinement cadence (frames between passes).
    ///
    /// # Panics
    ///
    /// Panics when `frames` is zero.
    pub fn set_refine_interval(&mut self, frames: u64) {
        assert!(frames > 0, "refine interval must be positive");
        self.refine_interval = frames;
    }

    /// Current map size.
    pub fn map_size(&self) -> usize {
        match &self.backend {
            MapBackend::Tsdf(v) => v.occupied_voxels(),
            MapBackend::Surfel(m) => m.len(),
        }
    }

    /// Processes one depth frame, optionally with an external pose prior
    /// (e.g. from VIO); without one, the previous pose is the prior
    /// (pure ICP odometry).
    pub fn process(
        &mut self,
        depth: &DepthFrame,
        pose_prior: Option<Pose>,
        timer: Option<&Metrics>,
    ) -> SceneOutput {
        self.frame += 1;
        let prior = pose_prior.unwrap_or(self.pose);

        // Camera processing: bilateral filter + invalid-depth rejection.
        let filtered = {
            let _g = timer.map(|t| t.host_scope("camera processing"));
            preprocess_depth(depth)
        };

        // Image processing: vertex + normal map generation.
        let (live_v, live_n) = {
            let _g = timer.map(|t| t.host_scope("image processing"));
            let v = vertex_map(&filtered, &self.cam);
            let n = normal_map(&v, self.cam.width, self.cam.height);
            (v, n)
        };

        // Surfel prediction: predict the model view at the prior pose.
        let model = {
            let _g = timer.map(|t| t.host_scope("surfel prediction"));
            match &self.backend {
                MapBackend::Tsdf(vol) => {
                    if self.frame == 1 {
                        None
                    } else {
                        Some(vol.raycast(&self.cam, &prior, 12.0))
                    }
                }
                MapBackend::Surfel(_) => {
                    // ElasticFusion predicts from the surfel index map;
                    // we reuse the previous live frame via the TSDF-free
                    // path: the previous maps are not retained, so we
                    // predict from surfels by splatting. For simplicity
                    // and the same dataflow, splat surfels here.
                    if self.frame == 1 {
                        None
                    } else {
                        Some(self.splat_surfels(&prior))
                    }
                }
            }
        };

        // Pose estimation: point-to-plane ICP against the prediction.
        let mut residual = 0.0;
        {
            let _g = timer.map(|t| t.host_scope("pose estimation"));
            if let Some((model_v, model_n)) = &model {
                // Frame-rate odometry: inter-frame motion is centimeters,
                // so gate the correction accordingly (10 cm total, 5 cm
                // per iteration). Gated-out solves fall back to the prior.
                if let Some(result) = icp_point_to_plane_gated(
                    &live_v,
                    model_v,
                    model_n,
                    self.cam.width,
                    &prior,
                    10,
                    0.10,
                    0.05,
                ) {
                    self.pose = result.pose;
                    residual = result.residual;
                } else {
                    self.pose = prior; // tracking failure: trust the prior
                }
            } else {
                self.pose = prior;
            }
        }

        // Map fusion.
        {
            let _g = timer.map(|t| t.host_scope("map fusion"));
            match &mut self.backend {
                MapBackend::Tsdf(vol) => vol.integrate(&filtered, &self.cam, &self.pose),
                MapBackend::Surfel(map) => {
                    map.fuse(&live_v, &live_n, &self.cam, &self.pose, self.stride)
                }
            }
        }

        // Periodic global refinement (loop-closure stand-in).
        let refined = if self.frame.is_multiple_of(self.refine_interval) {
            let _g = timer.map(|t| t.host_scope("map fusion"));
            if let MapBackend::Surfel(map) = &mut self.backend {
                map.refine();
                true
            } else {
                false
            }
        } else {
            false
        };

        SceneOutput { pose: self.pose, map_size: self.map_size(), refined, icp_residual: residual }
    }

    /// Splat surfels into a predicted vertex/normal map at `pose`
    /// (the surfel-backend model prediction).
    fn splat_surfels(&self, pose: &Pose) -> (crate::maps::VertexMap, crate::maps::NormalMap) {
        let (w, h) = (self.cam.width, self.cam.height);
        let mut vmap: crate::maps::VertexMap = vec![None; w * h];
        let mut depth_buf = vec![f64::INFINITY; w * h];
        let world_to_cam = pose.inverse();
        if let MapBackend::Surfel(map) = &self.backend {
            for s in map.surfels() {
                let p_cam = world_to_cam.transform_point(s.position);
                if p_cam.z <= 0.05 {
                    continue;
                }
                let Some(px) = self.cam.project(p_cam) else { continue };
                // Splat radius in pixels.
                let r_px = (s.radius * self.cam.fx / p_cam.z).ceil().max(1.0) as i64;
                let (cx, cy) = (px.x as i64, px.y as i64);
                for dy in -r_px..=r_px {
                    for dx in -r_px..=r_px {
                        let (x, y) = (cx + dx, cy + dy);
                        if x < 0 || y < 0 || x >= w as i64 || y >= h as i64 {
                            continue;
                        }
                        let idx = y as usize * w + x as usize;
                        if p_cam.z < depth_buf[idx] {
                            depth_buf[idx] = p_cam.z;
                            vmap[idx] = Some(p_cam);
                        }
                    }
                }
            }
        }
        let nmap = normal_map(&vmap, w, h);
        (vmap, nmap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_core::Time;
    use illixr_sensors::camera::StereoRig;
    use illixr_sensors::trajectory::Trajectory;
    use illixr_sensors::world::LandmarkWorld;

    fn small_cam() -> PinholeCamera {
        PinholeCamera { fx: 60.0, fy: 60.0, cx: 32.0, cy: 24.0, width: 64, height: 48 }
    }

    fn scene_setup() -> (LandmarkWorld, StereoRig, Trajectory) {
        (
            LandmarkWorld::new(60, Vec3::new(4.0, 2.5, 4.0), 3),
            StereoRig::zed_mini(small_cam()),
            Trajectory::gentle(3),
        )
    }

    #[test]
    fn surfel_pipeline_tracks_gentle_motion() {
        let (world, rig, traj) = scene_setup();
        let mut pipe = ScenePipeline::elastic_fusion_like(small_cam(), traj.pose(Time::ZERO));
        let mut worst = 0.0f64;
        for k in 0..12 {
            let t = Time::from_millis(k * 100);
            let truth = traj.pose(t);
            let depth = world.render_depth(&rig, &truth);
            let out = pipe.process(&depth, None, None);
            let err = out.pose.translation_distance(&truth);
            worst = worst.max(err);
        }
        assert!(worst < 0.25, "worst pose error {worst} m");
    }

    #[test]
    fn map_grows_over_frames() {
        let (world, rig, traj) = scene_setup();
        let mut pipe = ScenePipeline::elastic_fusion_like(small_cam(), traj.pose(Time::ZERO));
        let mut sizes = Vec::new();
        for k in 0..8 {
            let t = Time::from_millis(k * 150);
            let depth = world.render_depth(&rig, &traj.pose(t));
            let out = pipe.process(&depth, Some(traj.pose(t)), None);
            sizes.push(out.map_size);
        }
        assert!(sizes[7] > sizes[0], "map did not grow: {sizes:?}");
    }

    #[test]
    fn refinement_fires_periodically() {
        let (world, rig, traj) = scene_setup();
        let mut pipe = ScenePipeline::elastic_fusion_like(small_cam(), traj.pose(Time::ZERO));
        pipe.set_refine_interval(5);
        let mut refined_frames = Vec::new();
        for k in 0..11 {
            let t = Time::from_millis(k * 100);
            let depth = world.render_depth(&rig, &traj.pose(t));
            let out = pipe.process(&depth, Some(traj.pose(t)), None);
            if out.refined {
                refined_frames.push(k);
            }
        }
        assert_eq!(refined_frames, vec![4, 9]); // frames 5 and 10 (1-based)
    }

    #[test]
    fn tsdf_backend_accumulates_and_tracks() {
        let (world, rig, traj) = scene_setup();
        let mut pipe = ScenePipeline::kinect_fusion_like(
            small_cam(),
            Vec3::new(4.0, 2.5, 4.0),
            traj.pose(Time::ZERO),
        );
        for k in 0..4 {
            let t = Time::from_millis(k * 150);
            let truth = traj.pose(t);
            let depth = world.render_depth(&rig, &truth);
            let out = pipe.process(&depth, None, None);
            assert!(out.pose.translation_distance(&truth) < 0.3);
        }
        assert!(pipe.map_size() > 500, "tsdf occupied {}", pipe.map_size());
    }

    #[test]
    fn task_metrics_covers_table_vi_tasks() {
        let (world, rig, traj) = scene_setup();
        let timer = Metrics::new();
        let mut pipe = ScenePipeline::elastic_fusion_like(small_cam(), traj.pose(Time::ZERO));
        for k in 0..3 {
            let t = Time::from_millis(k * 100);
            let depth = world.render_depth(&rig, &traj.pose(t));
            pipe.process(&depth, None, Some(&timer));
        }
        let names: Vec<String> = timer.shares().into_iter().map(|(n, _)| n).collect();
        for expected in [
            "camera processing",
            "image processing",
            "pose estimation",
            "surfel prediction",
            "map fusion",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing '{expected}' in {names:?}");
        }
    }
}
