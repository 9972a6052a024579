//! The scene-reconstruction pipeline: the five Table VI tasks wired
//! together over an ElasticFusion-style surfel map.

use illixr_core::obs::Metrics;
use illixr_math::{Pose, Vec3};
use illixr_sensors::camera::PinholeCamera;

use crate::icp::icp_gated;
use crate::maps::{normal_map, preprocess_depth, DepthFrame, LiveVertices, NormalMap, VertexMap};
use crate::surfel::SurfelMap;

/// Fusion associates and fuses every this many pixels in each direction.
const FUSION_STRIDE: usize = 4;

/// Output of processing one depth frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneOutput {
    /// Estimated camera-to-world pose of this frame.
    pub pose: Pose,
    /// Surfel count after this frame's fusion.
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
    map: SurfelMap,
    pose: Pose,
    frame: u64,
    /// Run a global refinement every this many frames.
    refine_interval: u64,
}

impl ScenePipeline {
    /// A surfel pipeline starting from `initial_pose` (the
    /// ElasticFusion-like configuration starred in Table II).
    pub fn elastic_fusion_like(cam: PinholeCamera, initial_pose: Pose) -> Self {
        Self { cam, map: SurfelMap::new(), pose: initial_pose, frame: 0, refine_interval: 25 }
    }

    /// Sets the global-refinement cadence (frames between passes).
    ///
    /// # Panics
    ///
    /// Panics when `frames` is zero.
    #[cfg(test)]
    pub(crate) fn set_refine_interval(&mut self, frames: u64) {
        assert!(frames > 0, "refine interval must be positive");
        self.refine_interval = frames;
    }

    /// Processes one depth frame by pure ICP odometry: the previous
    /// frame's pose is the prior.
    pub fn process(&mut self, depth: &DepthFrame, timer: Option<&Metrics>) -> SceneOutput {
        self.frame += 1;
        let prior = self.pose;

        // Camera processing: bilateral filter + invalid-depth rejection.
        let filtered = {
            let _g = timer.map(|t| t.host_scope("camera processing"));
            preprocess_depth(depth)
        };

        // Image processing: the live frame's vertices are the filtered
        // depth unprojected where ICP and fusion read them, through
        // per-column and per-row ray tables; fusion takes a normal only at
        // a pixel it fuses. Neither live map is built.
        let live = {
            let _g = timer.map(|t| t.host_scope("image processing"));
            LiveVertices::new(&filtered, &self.cam)
        };

        // Surfel prediction: ElasticFusion renders the model view from its
        // surfel index map on the GPU. Here every surfel in view is
        // splatted at the prior pose into a vertex map, and its normals
        // are taken from that map as a live frame's are. The first frame
        // has no model to predict.
        let model = {
            let _g = timer.map(|t| t.host_scope("surfel prediction"));
            (self.frame > 1).then(|| self.splat_surfels(&prior))
        };

        // Pose estimation: point-to-plane ICP against the prediction.
        let mut residual = 0.0;
        {
            let _g = timer.map(|t| t.host_scope("pose estimation"));
            // Frame-rate odometry: inter-frame motion is centimeters, so
            // gate the correction accordingly (10 cm total, 5 cm per
            // iteration). A gated-out solve (tracking failure) keeps the
            // prior.
            if let Some((model_v, model_n)) = &model {
                if let Some(result) = icp_gated(&live, model_v, model_n, &prior, 10, 0.10, 0.05) {
                    self.pose = result.pose;
                    residual = result.residual;
                }
            }
        }
        // The model maps go before fusion grows the surfel list.
        drop(model);

        // Map fusion.
        {
            let _g = timer.map(|t| t.host_scope("map fusion"));
            self.map.fuse(&live, &self.cam, &self.pose, FUSION_STRIDE);
        }

        // Periodic global refinement (loop-closure stand-in).
        let refined = self.frame.is_multiple_of(self.refine_interval);
        if refined {
            let _g = timer.map(|t| t.host_scope("map fusion"));
            self.map.refine();
        }

        SceneOutput { pose: self.pose, map_size: self.map.len(), refined, icp_residual: residual }
    }

    /// Splats the surfels into a predicted vertex/normal map at `pose` (the
    /// model prediction).
    ///
    /// Each surfel in view covers a square of `2r + 1` pixels a side around
    /// its projection, clipped to the image, and a pixel keeps the nearest
    /// surfel that covers it — the first of equals, by a strict `<` on
    /// camera-frame depth. The splat loop writes only that depth and the
    /// winner's index; the vertex map is built from the winners afterwards.
    fn splat_surfels(&self, pose: &Pose) -> (VertexMap, NormalMap) {
        let (w, h) = (self.cam.width, self.cam.height);
        let surfels = self.map.surfels();
        let mut depth_buf = vec![f64::INFINITY; w * h];
        // Per pixel, the index into `in_view` of its nearest surfel;
        // `u32::MAX` (past the end of `in_view`) where none covers it.
        let mut owner = vec![u32::MAX; w * h];
        // Reserved up front: growing by doubling copies, holding old and
        // new at once.
        let mut in_view: Vec<Vec3> = Vec::with_capacity(surfels.len());
        let world_to_cam = pose.inverse();
        for s in surfels {
            let p_cam = world_to_cam.transform_point(s.position);
            if p_cam.z <= 0.05 {
                continue;
            }
            let Some(px) = self.cam.project(p_cam) else { continue };
            // Splat radius in pixels.
            let r_px = (s.radius * self.cam.fx / p_cam.z).ceil().max(1.0) as i64;
            let clip = |c: f64, len: usize| {
                let c = c as i64;
                (c - r_px).max(0) as usize..(c + 1).saturating_add(r_px).min(len as i64) as usize
            };
            let xs = clip(px.x, w);
            let id = in_view.len() as u32;
            in_view.push(p_cam);
            for y in clip(px.y, h) {
                let span = y * w + xs.start..y * w + xs.end;
                for (d, o) in depth_buf[span.clone()].iter_mut().zip(&mut owner[span]) {
                    if p_cam.z < *d {
                        *d = p_cam.z;
                        *o = id;
                    }
                }
            }
        }
        // Each buffer goes once read for the last time, so the splat's peak
        // memory is the two maps it returns.
        drop(depth_buf);
        let vmap: VertexMap = owner.iter().map(|&o| in_view.get(o as usize).copied()).collect();
        drop((owner, in_view));
        let nmap = normal_map(&vmap, w, h);
        (vmap, nmap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_core::boundary::fnv1a;
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
            let out = pipe.process(&depth, None);
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
            let out = pipe.process(&depth, None);
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
            let out = pipe.process(&depth, None);
            if out.refined {
                refined_frames.push(k);
            }
        }
        assert_eq!(refined_frames, vec![4, 9]); // frames 5 and 10 (1-based)
    }

    /// The surfel splat as first written, kept verbatim as the bit
    /// reference: every pixel of every splat box bounds-tested, the vertex
    /// written each time a nearer surfel takes the pixel.
    fn reference_splat_surfels(
        cam: &PinholeCamera,
        map: &SurfelMap,
        pose: &Pose,
    ) -> (crate::maps::VertexMap, crate::maps::NormalMap) {
        let (w, h) = (cam.width, cam.height);
        let mut vmap: crate::maps::VertexMap = vec![None; w * h];
        let mut depth_buf = vec![f64::INFINITY; w * h];
        let world_to_cam = pose.inverse();
        for s in map.surfels() {
            let p_cam = world_to_cam.transform_point(s.position);
            if p_cam.z <= 0.05 {
                continue;
            }
            let Some(px) = cam.project(p_cam) else { continue };
            // Splat radius in pixels.
            let r_px = (s.radius * cam.fx / p_cam.z).ceil().max(1.0) as i64;
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
        let nmap = normal_map(&vmap, w, h);
        (vmap, nmap)
    }

    fn map_bits(map: &[Option<Vec3>]) -> Vec<Option<[u64; 3]>> {
        map.iter().map(|p| p.map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])).collect()
    }

    /// The prediction of every frame of a map grown over 12 frames, at the
    /// small camera and at QVGA, against the reference on the same map.
    #[test]
    fn splat_surfels_is_bit_exact_on_a_growing_map() {
        let (world, _, traj) = scene_setup();
        for cam in [small_cam(), PinholeCamera::qvga()] {
            let rig = StereoRig::zed_mini(cam);
            let mut pipe = ScenePipeline::elastic_fusion_like(cam, traj.pose(Time::ZERO));
            for k in 0..12 {
                let t = Time::from_millis(k * 100);
                let prior = traj.pose(t);
                let map = &pipe.map;
                let (got_v, got_n) = pipe.splat_surfels(&prior);
                let (want_v, want_n) = reference_splat_surfels(&cam, map, &prior);
                let what = format!("{}x{} frame {k}, {} surfels", cam.width, cam.height, map.len());
                assert!(map_bits(&got_v) == map_bits(&want_v), "{what}: vertices differ");
                assert!(map_bits(&got_n) == map_bits(&want_n), "{what}: normals differ");
                pipe.process(&world.render_depth(&rig, &prior), None);
            }
            assert!(pipe.map.len() > 100, "{}x{}: map did not grow", cam.width, cam.height);
        }
    }

    /// Taken before the depth renderer, the surfel splat and the fusion's
    /// association were reworked: FNV-1a over 30 QVGA frames of pure-ICP
    /// odometry through the whole pipeline — every depth pixel, every pose
    /// component, the map size and the ICP residual of each frame, across a
    /// refinement pass.
    #[test]
    fn scene_pipeline_bits_are_pinned_over_thirty_qvga_frames() {
        let (world, _, traj) = scene_setup();
        let cam = PinholeCamera::qvga();
        let rig = StereoRig::zed_mini(cam);
        let mut pipe = ScenePipeline::elastic_fusion_like(cam, traj.pose(Time::ZERO));
        let mut bytes = Vec::new();
        for k in 0..30 {
            let depth = world.render_depth(&rig, &traj.pose(Time::from_millis(k * 66)));
            bytes.extend(depth.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()));
            let out = pipe.process(&depth, None);
            let (p, q) = (out.pose.position, out.pose.orientation);
            for v in [p.x, p.y, p.z, q.w, q.x, q.y, q.z, out.icp_residual] {
                bytes.extend(v.to_bits().to_le_bytes());
            }
            bytes.extend((out.map_size as u64).to_le_bytes());
        }
        let hash = fnv1a(bytes);
        assert_eq!(hash, 0xa56b_0fdc_fc97_01a7, "got {hash:#018x}");
    }

    #[test]
    fn task_metrics_covers_table_vi_tasks() {
        let (world, rig, traj) = scene_setup();
        let timer = Metrics::new();
        let mut pipe = ScenePipeline::elastic_fusion_like(small_cam(), traj.pose(Time::ZERO));
        for k in 0..3 {
            let t = Time::from_millis(k * 100);
            let depth = world.render_depth(&rig, &traj.pose(t));
            pipe.process(&depth, Some(&timer));
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
