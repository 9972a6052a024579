//! An alternative head-tracking implementation: map-based frame-to-frame
//! visual-inertial odometry.
//!
//! Paper Table II lists two interchangeable VIO implementations —
//! OpenVINS (the starred MSCKF, [`crate::msckf`]) and Kimera-VIO. This
//! module fills the alternative slot with a structurally different
//! estimator, exercising the runtime's interchangeability claim with a
//! genuinely distinct algorithm rather than a parameter tweak:
//!
//! 1. stereo-triangulate features into a persistent world-anchored
//!    **local map** (depth from disparity at first sighting);
//! 2. each frame, predict the pose by IMU propagation (RK4);
//! 3. refine with **Gauss-Newton PnP**: minimize the reprojection error
//!    of tracked map points in the new left image;
//! 4. blend the IMU prediction and the visual solution with a
//!    complementary gain, and cull stale map points.
//!
//! Unlike the MSCKF it keeps no covariance and re-uses map points across
//! frames (drift accumulates through the map anchors instead of the
//! filter state) — the classic lightweight-odometry trade-off: on the
//! synthetic Vicon-Room-like data this tracker holds decimeter accuracy
//! where the MSCKF holds centimeters, at a fraction of the per-frame
//! cost (no covariance propagation, no windowed updates).

use std::collections::HashMap;

use illixr_core::obs::Metrics;
use illixr_math::{Cholesky, DMatrix, Pose, Quat, Vec3};
use illixr_sensors::camera::StereoRig;
use illixr_sensors::types::{ImuSample, StereoFrame};

use crate::frontend::{FrontEnd, FrontEndParams};
use crate::integrator::{propagate, ImuState, Scheme};

/// Configuration of the frame-to-frame tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameToFrameConfig {
    /// Front-end parameters.
    pub frontend: FrontEndParams,
    /// Gauss-Newton iterations per frame.
    pub gn_iterations: usize,
    /// Minimum map points tracked for a visual update; below this the
    /// frame is IMU-only.
    pub min_points: usize,
    /// Complementary blend toward the visual solution per frame, `(0,1]`.
    pub visual_gain: f64,
    /// Drop map points unseen for this many frames.
    pub max_point_age: u32,
    /// Minimum stereo disparity (pixels) to trust triangulated depth —
    /// small disparities give unusably noisy anchors.
    pub min_disparity_px: f64,
}

impl Default for FrameToFrameConfig {
    fn default() -> Self {
        // A deeper pyramid than the MSCKF front end: with no covariance
        // to gate mistracks, this tracker depends on KLT surviving fast
        // rotation, so spend more on tracking robustness.
        let mut frontend = FrontEndParams::default();
        frontend.klt.levels = 4;
        frontend.klt.window_radius = 5;
        Self {
            frontend,
            gn_iterations: 6,
            min_points: 8,
            visual_gain: 0.6,
            max_point_age: 30,
            min_disparity_px: 2.5,
        }
    }
}

/// A world-anchored map point, refined over repeated stereo sightings.
#[derive(Debug, Clone, Copy)]
struct MapPoint {
    position: Vec3,
    last_seen_frame: u64,
    /// Number of stereo observations folded into `position`.
    observations: f64,
}

/// The frame-to-frame visual-inertial tracker.
pub struct FrameToFrameVio {
    config: FrameToFrameConfig,
    rig: StereoRig,
    frontend: FrontEnd,
    map: HashMap<u64, MapPoint>,
    state: ImuState,
    imu_buffer: Vec<ImuSample>,
    frame_index: u64,
    /// Previous frame's refined pose + time, for the velocity update.
    prev_refined: Option<(illixr_core::Time, Pose)>,
}

impl std::fmt::Debug for FrameToFrameVio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrameToFrameVio({} map points)", self.map.len())
    }
}

/// Result of processing one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameToFrameOutput {
    /// The updated state.
    pub state: ImuState,
    /// Map points used in the PnP solve (0 = IMU-only frame).
    pub points_used: usize,
    /// Current map size.
    pub map_size: usize,
}

impl FrameToFrameVio {
    /// Creates the tracker.
    pub fn new(config: FrameToFrameConfig, rig: StereoRig, initial: ImuState) -> Self {
        Self {
            frontend: FrontEnd::new(config.frontend),
            config,
            rig,
            map: HashMap::new(),
            state: initial,
            imu_buffer: Vec::new(),
            frame_index: 0,
            prev_refined: None,
        }
    }

    /// Buffers an IMU sample.
    pub fn process_imu(&mut self, sample: ImuSample) {
        self.imu_buffer.push(sample);
    }

    /// Processes one stereo frame.
    pub fn process_frame(
        &mut self,
        frame: &StereoFrame,
        timer: Option<&Metrics>,
    ) -> FrameToFrameOutput {
        self.frame_index += 1;
        // --- IMU prediction ------------------------------------------
        {
            let _g = timer.map(|t| t.host_scope("imu prediction"));
            let samples: Vec<ImuSample> = self
                .imu_buffer
                .iter()
                .copied()
                .filter(|s| s.timestamp <= frame.timestamp)
                .collect();
            if let Some(last) = samples.last() {
                self.state = propagate(&self.state, &samples, Scheme::Rk4);
                let keep_from = *last;
                self.imu_buffer.retain(|s| s.timestamp > frame.timestamp);
                self.imu_buffer.insert(0, keep_from);
            }
            self.state.timestamp = frame.timestamp;
        }

        // --- Feature tracking -----------------------------------------
        let tracks = self.frontend.process(&frame.left, &frame.right, timer);

        // --- PnP refinement against the map -----------------------------
        let cam = self.rig.camera;
        let mut observations: Vec<(Vec3, Vec3)> = Vec::new(); // (map point, normalized obs ray)
        for t in &tracks {
            if let Some(mp) = self.map.get_mut(&t.id) {
                mp.last_seen_frame = self.frame_index;
                let norm =
                    Vec3::new((t.left.x - cam.cx) / cam.fx, (t.left.y - cam.cy) / cam.fy, 1.0);
                // Weight well-observed anchors more by duplicating their
                // constraint (cheap confidence weighting).
                let weight = (mp.observations.sqrt() as usize).clamp(1, 3);
                for _ in 0..weight {
                    observations.push((mp.position, norm));
                }
            }
        }
        let mut points_used = 0;
        if observations.len() >= self.config.min_points {
            let _g = timer.map(|t| t.host_scope("pnp refinement"));
            if let Some(visual_pose) =
                gauss_newton_pnp(&observations, &self.state.pose, self.config.gn_iterations)
            {
                points_used = observations.len();
                // Complementary blend: lean on vision, keep IMU smoothness.
                self.state.pose =
                    self.state.pose.interpolate(&visual_pose, self.config.visual_gain);
                // Velocity correction — without it the IMU-integrated
                // velocity drifts unbounded and eventually drags the pose
                // away faster than vision can pull it back.
                if let Some((prev_t, prev_pose)) = self.prev_refined {
                    let dt = (frame.timestamp - prev_t).as_secs_f64();
                    if dt > 1e-4 {
                        let visual_velocity = (self.state.pose.position - prev_pose.position) / dt;
                        self.state.velocity =
                            self.state.velocity.lerp(visual_velocity, self.config.visual_gain);
                    }
                }
                self.prev_refined = Some((frame.timestamp, self.state.pose));
            }
        }
        if points_used == 0 {
            // Vision outage: without a covariance to bound it, the
            // IMU-integrated velocity random-walks and would drag the
            // pose arbitrarily far. Leak it toward zero (bounded-error
            // prior: the user is in a room) and cap the speed.
            self.state.velocity *= 0.85;
        }
        let speed = self.state.velocity.norm();
        if speed > 3.0 {
            self.state.velocity *= 3.0 / speed;
        }

        // --- Map management ---------------------------------------------
        {
            let _g = timer.map(|t| t.host_scope("map management"));
            // Triangulate every stereo-matched track and fold it into the
            // map: new anchors are created, existing anchors are running
            // averages of all their sightings (stereo depth noise is
            // ~zero-mean, so anchors converge instead of staying frozen
            // at their first noisy estimate).
            for t in tracks.iter() {
                let Some(right) = t.right else { continue };
                let disparity = t.left.x - right.x;
                if disparity < self.config.min_disparity_px {
                    continue; // too far: depth noise would poison the map
                }
                let Some(depth) = self.rig.depth_from_disparity(disparity) else { continue };
                if !(0.3..20.0).contains(&depth) {
                    continue;
                }
                let ray = cam.unproject(illixr_math::Vec2::new(t.left.x, t.left.y));
                let p_cam = ray * depth;
                let p_world = self.state.pose.transform_point(p_cam);
                match self.map.get_mut(&t.id) {
                    Some(mp) => {
                        let n = mp.observations;
                        mp.position = (mp.position * n + p_world) / (n + 1.0);
                        mp.observations = n + 1.0;
                    }
                    None => {
                        self.map.insert(
                            t.id,
                            MapPoint {
                                position: p_world,
                                last_seen_frame: self.frame_index,
                                observations: 1.0,
                            },
                        );
                    }
                }
            }
            // Cull stale points.
            let horizon = self.frame_index.saturating_sub(self.config.max_point_age as u64);
            self.map.retain(|_, mp| mp.last_seen_frame >= horizon);
        }

        FrameToFrameOutput { state: self.state, points_used, map_size: self.map.len() }
    }
}

/// Gauss-Newton PnP: refines a camera-to-world pose so that each world
/// point reprojects onto its observed normalized ray.
///
/// Error-state convention matches the MSCKF:
/// `R_true = R_est · Exp([δθ]×)` with `p_c = Rᵀ (p_w − t)`.
fn gauss_newton_pnp(
    observations: &[(Vec3, Vec3)],
    initial: &Pose,
    iterations: usize,
) -> Option<Pose> {
    let mut pose = *initial;
    for _iter in 0..iterations {
        // Tight inlier gate anchored on the IMU prediction: the
        // prediction is centimeter-accurate over one frame, so any
        // feature more than ~6 px off is a front-end mistrack (a KLT
        // jump to a neighbouring blob) and must not enter the solve —
        // the role the MSCKF's chi² gate plays in the main VIO.
        let gate = 0.03;
        let mut h = DMatrix::zeros(6, 6);
        let mut g = DMatrix::zeros(6, 1);
        let r_wc = pose.orientation.to_rotation_matrix();
        let r_cw = r_wc.transpose();
        let mut used = 0;
        for &(p_w, obs_ray) in observations {
            let p_c = r_cw * (p_w - pose.position);
            if p_c.z < 0.05 {
                continue;
            }
            let (x, y, z) = (p_c.x, p_c.y, p_c.z);
            let res_u = obs_ray.x - x / z;
            let res_v = obs_ray.y - y / z;
            if res_u.abs() > gate || res_v.abs() > gate {
                continue;
            }
            let jpi = [[1.0 / z, 0.0, -x / (z * z)], [0.0, 1.0 / z, -y / (z * z)]];
            // ∂p_c/∂δθ = [p_c]× ; ∂p_c/∂δp = −R_cw.
            let dth = illixr_math::skew(p_c);
            let mut jrow = [[0.0f64; 6]; 2];
            #[allow(clippy::needless_range_loop)] // small fixed-size index math
            for (rr, jr) in jrow.iter_mut().enumerate() {
                for cc in 0..3 {
                    let mut acc_th = 0.0;
                    let mut acc_p = 0.0;
                    for k in 0..3 {
                        acc_th += jpi[rr][k] * dth.m[k][cc];
                        acc_p += jpi[rr][k] * (-r_cw.m[k][cc]);
                    }
                    jr[cc] = acc_th;
                    jr[3 + cc] = acc_p;
                }
            }
            let residuals = [res_u, res_v];
            for (jr, &res) in jrow.iter().zip(&residuals) {
                for a in 0..6 {
                    for b in 0..6 {
                        h[(a, b)] += jr[a] * jr[b];
                    }
                    g[(a, 0)] += jr[a] * res;
                }
            }
            used += 1;
        }
        if used < 6 {
            return None;
        }
        // Damped solve; residual Jacobian sign: res = z − π(p), and
        // ∂res/∂x = −J, so the GN step solves (JᵀJ) δ = Jᵀ res with the
        // Jacobians above already carrying the projection derivative.
        let mean_diag = (0..6).map(|i| h[(i, i)]).sum::<f64>() / 6.0;
        for i in 0..6 {
            h[(i, i)] += 1e-4 * mean_diag + 1e-12;
        }
        let chol = Cholesky::new(&h).ok()?;
        let step = chol.solve(&g);
        let dtheta = Vec3::new(step[(0, 0)], step[(1, 0)], step[(2, 0)]);
        let dp = Vec3::new(step[(3, 0)], step[(4, 0)], step[(5, 0)]);
        if !dtheta.is_finite() || !dp.is_finite() {
            return None;
        }
        // Clamp implausible steps instead of aborting (frame-rate
        // refinement: true corrections are centimeters).
        let (mut dp, mut dtheta) = (dp, dtheta);
        if dp.norm() > 0.2 {
            dp = dp * (0.2 / dp.norm());
        }
        if dtheta.norm() > 0.3 {
            dtheta = dtheta * (0.3 / dtheta.norm());
        }
        pose = Pose::new(
            pose.position + dp,
            (pose.orientation * Quat::from_rotation_vector(dtheta)).normalized(),
        );
        if dtheta.norm() + dp.norm() < 1e-10 {
            break;
        }
    }
    Some(pose)
}

#[cfg(test)]
mod tests {
    use super::*;

    use illixr_sensors::camera::PinholeCamera;
    use illixr_sensors::dataset::SyntheticDataset;

    #[test]
    fn pnp_recovers_small_pose_offset() {
        // Synthetic: 20 world points observed from a known camera; start
        // GN from a perturbed pose and require convergence back.
        let truth = Pose::new(Vec3::new(0.2, -0.1, 0.3), Quat::from_euler(0.2, -0.1, 0.05));
        let mut observations = Vec::new();
        for i in 0..20 {
            let p_w = Vec3::new((i % 5) as f64 - 2.0, (i / 5) as f64 - 1.5, 4.0 + (i % 3) as f64);
            let p_c = truth.inverse().transform_point(p_w);
            observations.push((p_w, Vec3::new(p_c.x / p_c.z, p_c.y / p_c.z, 1.0)));
        }
        let mut start = truth;
        start.position += Vec3::new(0.03, -0.02, 0.04);
        start.orientation = start.orientation * Quat::from_rotation_vector(Vec3::splat(0.01));
        let refined = gauss_newton_pnp(&observations, &start, 10).unwrap();
        assert!(
            refined.translation_distance(&truth) < 1e-6,
            "pos err {}",
            refined.translation_distance(&truth)
        );
        assert!(refined.rotation_distance(&truth) < 1e-6);
    }

    #[test]
    fn pnp_rejects_underconstrained_input() {
        let obs = vec![(Vec3::new(0.0, 0.0, 3.0), Vec3::new(0.0, 0.0, 1.0)); 3];
        assert!(gauss_newton_pnp(&obs, &Pose::IDENTITY, 5).is_none());
    }

    #[test]
    fn tracks_a_dataset_with_bounded_drift() {
        // Seed calibrated to a mid-difficulty trajectory under the
        // seeded generator, `Xoshiro256pp`.
        let ds = SyntheticDataset::vicon_room_like(21, 4.0);
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let gt0 = ds.ground_truth[0];
        let init = ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity);
        let mut vio = FrameToFrameVio::new(FrameToFrameConfig::default(), rig, init);
        let mut worst = 0.0f64;
        let mut any_visual = false;
        for (imu, frame) in ds.replay(&rig) {
            imu.iter().for_each(|&s| vio.process_imu(s));
            let frame = frame.stereo();
            let out = vio.process_frame(&frame, None);
            any_visual |= out.points_used > 0;
            let err = out.state.pose.translation_distance(&ds.ground_truth_pose(frame.timestamp));
            worst = worst.max(err);
        }
        assert!(any_visual, "the PnP stage never fired");
        // This lightweight tracker's accuracy class is decimeters (drift
        // enters through map anchors created from already-drifted poses);
        // the MSCKF achieves centimeters on the same data. The bound here
        // guards robustness (no divergence), not parity.
        assert!(worst < 0.8, "worst drift {worst:.3} m over 4 s");
    }

    #[test]
    fn map_is_bounded_by_culling() {
        let ds = SyntheticDataset::vicon_room_like(31, 3.0);
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let gt0 = ds.ground_truth[0];
        let config = FrameToFrameConfig { max_point_age: 5, ..Default::default() };
        let mut vio = FrameToFrameVio::new(
            config,
            rig,
            ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity),
        );
        let mut max_map = 0;
        for (imu, frame) in ds.replay(&rig) {
            imu.iter().for_each(|&s| vio.process_imu(s));
            max_map = max_map.max(vio.process_frame(&frame.stereo(), None).map_size);
        }
        // Budget 60 features + short age → map stays small.
        assert!(max_map < 200, "map grew to {max_map}");
    }
}
