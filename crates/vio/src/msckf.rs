//! The MSCKF back end (OpenVINS-style sliding-window filter).
//!
//! State: the current inertial state (orientation, position, velocity,
//! gyro/accel biases) plus a sliding window of cloned camera poses.
//! Camera features tracked by the [`crate::frontend`] are triangulated
//! across the window ("feature initialization") and applied as EKF
//! updates after projecting out the feature position via the left
//! null space of `H_f` ("MSCKF update"), with chi² gating and QR
//! measurement compression — the task structure of paper Table VI.
//!
//! Long-lived tracks that survive a full window are consumed and kept
//! alive with a fresh observation history ("SLAM update" in the task
//! accounting). Unlike OpenVINS we do not keep landmark positions in the
//! state vector; DESIGN.md documents this simplification.
//!
//! Error-state convention: body-side attitude error,
//! `R_true = R_est · Exp([δθ]×)`, with error vector ordering
//! `[δθ, δp, δv, δb_g, δb_a, (δθ_ci, δp_ci)*]`.

use std::collections::HashMap;

use illixr_core::obs::Metrics;
use illixr_core::Time;
use illixr_math::{skew, so3_exp, Cholesky, DMatrix, Pose, Qr, Quat, Vec2, Vec3};
use illixr_sensors::camera::PinholeCamera;
use illixr_sensors::types::{ImuSample, StereoFrame};

use crate::frontend::{FrontEnd, FrontEndParams};
use crate::integrator::{propagate_rk4, ImuState};
use crate::triangulate::{triangulate_feature, Observation};

/// Size of the inertial error block.
const IMU_DIM: usize = 15;
/// Size of one clone's error block.
const CLONE_DIM: usize = 6;

/// MSCKF configuration — the paper's §V-E ablation switches between
/// [`VioConfig::fast`] and [`VioConfig::accurate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VioConfig {
    /// Camera intrinsics for measurement normalization.
    pub camera: PinholeCamera,
    /// Front-end parameters (tracked-feature budget).
    pub frontend: FrontEndParams,
    /// Sliding-window length (number of pose clones).
    pub window_size: usize,
    /// Minimum observations before a feature can be used in an update.
    pub min_observations: usize,
    /// Pixel measurement noise (1σ, pixels).
    pub pixel_noise: f64,
    /// Gyro white-noise density (rad/s/√Hz).
    pub gyro_noise: f64,
    /// Accel white-noise density (m/s²/√Hz).
    pub accel_noise: f64,
    /// Gyro bias random walk.
    pub gyro_walk: f64,
    /// Accel bias random walk.
    pub accel_walk: f64,
}

impl VioConfig {
    /// The lower-accuracy, lower-cost configuration (fewer tracked
    /// points, shorter window) — §V-E's cheap setting.
    pub fn fast(camera: PinholeCamera) -> Self {
        Self {
            camera,
            frontend: FrontEndParams { max_features: 30, ..Default::default() },
            window_size: 6,
            min_observations: 4,
            pixel_noise: 1.0,
            gyro_noise: 8.7e-4,
            accel_noise: 1.4e-3,
            gyro_walk: 1.0e-5,
            accel_walk: 8.0e-5,
        }
    }

    /// The higher-accuracy configuration (§V-E: ~1.5× per-frame cost for
    /// lower trajectory error).
    pub fn accurate(camera: PinholeCamera) -> Self {
        Self {
            frontend: FrontEndParams { max_features: 70, ..Default::default() },
            window_size: 10,
            min_observations: 4,
            ..Self::fast(camera)
        }
    }
}

/// A cloned camera pose in the sliding window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CloneState {
    id: u64,
    timestamp: Time,
    pose: Pose,
}

/// Output of processing one camera frame.
#[derive(Debug, Clone)]
pub struct VioOutput {
    /// The updated inertial state at the frame timestamp.
    pub state: ImuState,
    /// Number of features currently tracked.
    pub tracked_features: usize,
    /// Number of features consumed by MSCKF updates this frame.
    pub msckf_features: usize,
    /// Number of long-lived features consumed by SLAM-style updates.
    pub slam_features: usize,
    /// Total measurement rows applied this frame.
    pub update_rows: usize,
}

/// The filter.
pub struct Msckf {
    config: VioConfig,
    state: ImuState,
    clones: Vec<CloneState>,
    cov: DMatrix,
    frontend: FrontEnd,
    /// feature id → (clone id, normalized left observation).
    observations: HashMap<u64, Vec<(u64, Vec2)>>,
    next_clone_id: u64,
    imu_buffer: Vec<ImuSample>,
}

impl std::fmt::Debug for Msckf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Msckf({} clones, {} tracked features)",
            self.clones.len(),
            self.observations.len()
        )
    }
}

impl Msckf {
    /// Creates a filter at the given initial state.
    pub fn new(config: VioConfig, initial: ImuState) -> Self {
        let mut cov = DMatrix::zeros(IMU_DIM, IMU_DIM);
        // Initial uncertainty: near-exact pose (benchmark initialization),
        // loose velocity and biases.
        for i in 0..3 {
            cov[(i, i)] = 1e-5; // attitude
            cov[(3 + i, 3 + i)] = 1e-5; // position
            cov[(6 + i, 6 + i)] = 1e-2; // velocity
            cov[(9 + i, 9 + i)] = 1e-4; // gyro bias
            cov[(12 + i, 12 + i)] = 1e-2; // accel bias
        }
        Self {
            frontend: FrontEnd::new(config.frontend),
            config,
            state: initial,
            clones: Vec::new(),
            cov,
            observations: HashMap::new(),
            next_clone_id: 0,
            imu_buffer: Vec::new(),
        }
    }

    /// The current inertial state estimate.
    pub fn state(&self) -> &ImuState {
        &self.state
    }

    /// Buffers an IMU sample for the next propagation.
    pub fn process_imu(&mut self, sample: ImuSample) {
        self.imu_buffer.push(sample);
    }

    /// Processes one stereo frame: propagate → clone → track →
    /// initialize + update → marginalize.
    pub fn process_frame(&mut self, frame: &StereoFrame, timer: Option<&Metrics>) -> VioOutput {
        // --- Propagation + cloning ("other" in the task table) ----------
        {
            let _g = timer.map(|t| t.host_scope("other"));
            self.propagate_to(frame.timestamp);
            self.clone_state(frame.timestamp);
        }

        // --- Front end (detection + matching, timed internally) ---------
        let tracks = self.frontend.process(&frame.left, &frame.right, timer);
        let clone_id = self.clones.last().expect("clone_state just pushed").id;
        let cam = self.config.camera;
        let mut live_ids = Vec::with_capacity(tracks.len());
        for t in &tracks {
            let norm = Vec2::new((t.left.x - cam.cx) / cam.fx, (t.left.y - cam.cy) / cam.fy);
            self.observations.entry(t.id).or_default().push((clone_id, norm));
            live_ids.push(t.id);
        }

        // --- Select features for updates --------------------------------
        let min_obs = self.config.min_observations;
        let window = self.config.window_size;
        let mut msckf_ids = Vec::new();
        let mut slam_ids = Vec::new();
        for (&fid, obs) in &self.observations {
            let alive = live_ids.contains(&fid);
            if !alive && obs.len() >= min_obs {
                msckf_ids.push(fid); // lost track → MSCKF feature
            } else if alive && obs.len() >= window {
                slam_ids.push(fid); // long-lived track → SLAM-style update
            }
        }
        msckf_ids.sort_unstable();
        slam_ids.sort_unstable();

        // --- Feature initialization + updates ---------------------------
        let mut update_rows = 0;
        let mut used_msckf = 0;
        let mut used_slam = 0;
        let mut stacked_h: Option<DMatrix> = None;
        let mut stacked_r: Option<DMatrix> = None;
        for (ids, is_slam) in [(&msckf_ids, false), (&slam_ids, true)] {
            for &fid in ids.iter() {
                let obs = self.observations.get(&fid).cloned().unwrap_or_default();
                let feature = {
                    let _g = timer.map(|t| t.host_scope("feature initialization"));
                    self.initialize_feature(&obs)
                };
                if let Some(p_f) = feature {
                    let _g = timer.map(|t| {
                        t.host_scope(if is_slam { "SLAM update" } else { "MSCKF update" })
                    });
                    if let Some((h, r)) = self.feature_jacobians(&obs, p_f) {
                        if self.chi2_gate(&h, &r) {
                            update_rows += r.rows();
                            if is_slam {
                                used_slam += 1;
                            } else {
                                used_msckf += 1;
                            }
                            stacked_h = Some(match stacked_h {
                                Some(prev) => prev.vstack(&h),
                                None => h,
                            });
                            stacked_r = Some(match stacked_r {
                                Some(prev) => prev.vstack(&r),
                                None => r,
                            });
                        }
                    }
                }
                // Consume the observations. Dead tracks are removed;
                // live (SLAM) tracks restart with an *empty* history —
                // every consumed observation is correlated with the
                // state after the update, so re-using any of them in a
                // later triangulation would double-count information
                // and make the filter inconsistent.
                if is_slam {
                    if let Some(v) = self.observations.get_mut(&fid) {
                        v.clear();
                    }
                } else {
                    self.observations.remove(&fid);
                }
            }
        }
        if let (Some(h), Some(r)) = (stacked_h, stacked_r) {
            let _g = timer.map(|t| t.host_scope("MSCKF update"));
            self.apply_update(h, r);
        }

        // --- Marginalization --------------------------------------------
        {
            let _g = timer.map(|t| t.host_scope("marginalization"));
            self.marginalize();
        }

        VioOutput {
            state: self.state,
            tracked_features: tracks.len(),
            msckf_features: used_msckf,
            slam_features: used_slam,
            update_rows,
        }
    }

    /// Propagates the nominal state and covariance through buffered IMU
    /// samples up to `t`.
    fn propagate_to(&mut self, t: Time) {
        // Partition buffer: samples to integrate now vs. keep for later.
        let samples: Vec<ImuSample> =
            self.imu_buffer.iter().copied().filter(|s| s.timestamp <= t).collect();
        self.imu_buffer.retain(|s| s.timestamp > t);
        // Keep the last consumed sample as the left endpoint of the next
        // interval.
        if let Some(last) = samples.last() {
            self.imu_buffer.insert(0, *last);
        }
        for pair in samples.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if b.timestamp <= self.state.timestamp {
                continue;
            }
            let dt = (b.timestamp - a.timestamp).as_secs_f64();
            if dt <= 0.0 {
                continue;
            }
            let w = (a.gyro + b.gyro) * 0.5 - self.state.gyro_bias;
            let acc = (a.accel + b.accel) * 0.5 - self.state.accel_bias;
            let r_est = self.state.pose.orientation.to_rotation_matrix();

            // Nominal propagation (RK4).
            self.state = propagate_rk4(&self.state, a, b);

            // Covariance propagation, first order.
            let n = self.cov.rows();
            let mut phi_i = DMatrix::identity(IMU_DIM);
            let exp_neg = so3_exp(-(w * dt));
            for r in 0..3 {
                for c in 0..3 {
                    phi_i[(r, c)] = exp_neg.m[r][c];
                }
            }
            // δθ / δbg
            for i in 0..3 {
                phi_i[(i, 9 + i)] = -dt;
            }
            // δv / δθ = -R [a]× dt ; δv / δba = -R dt
            let va = (r_est * skew(acc)).scale(-dt);
            let vb = r_est.scale(-dt);
            for r in 0..3 {
                for c in 0..3 {
                    phi_i[(6 + r, c)] = va.m[r][c];
                    phi_i[(6 + r, 12 + c)] = vb.m[r][c];
                }
            }
            // δp / δv = I dt
            for i in 0..3 {
                phi_i[(3 + i, 6 + i)] = dt;
            }

            // P_II ← Φ P_II Φᵀ + Q ; P_IC ← Φ P_IC.
            let p_ii = self.cov.block(0, 0, IMU_DIM, IMU_DIM);
            let mut new_ii = &(&phi_i * &p_ii) * &phi_i.transpose();
            let (sg, sa) = (self.config.gyro_noise, self.config.accel_noise);
            let (wg, wa) = (self.config.gyro_walk, self.config.accel_walk);
            for i in 0..3 {
                new_ii[(i, i)] += sg * sg * dt;
                new_ii[(6 + i, 6 + i)] += sa * sa * dt;
                new_ii[(9 + i, 9 + i)] += wg * wg * dt;
                new_ii[(12 + i, 12 + i)] += wa * wa * dt;
                new_ii[(3 + i, 3 + i)] += 1e-12; // keep position PD
            }
            self.cov.set_block(0, 0, &new_ii);
            if n > IMU_DIM {
                let p_ic = self.cov.block(0, IMU_DIM, IMU_DIM, n - IMU_DIM);
                let new_ic = &phi_i * &p_ic;
                self.cov.set_block(0, IMU_DIM, &new_ic);
                self.cov.set_block(IMU_DIM, 0, &new_ic.transpose());
            }
            self.cov.symmetrize();
        }
        // Advance the nominal state to exactly t (constant-rate
        // extrapolation over the sub-sample remainder is negligible at
        // 500 Hz; we simply stamp the time).
        if self.state.timestamp < t {
            self.state.timestamp = t;
        }
    }

    /// Clones the current pose into the window and augments covariance.
    fn clone_state(&mut self, t: Time) {
        let id = self.next_clone_id;
        self.next_clone_id += 1;
        self.clones.push(CloneState { id, timestamp: t, pose: self.state.pose });
        let old_n = self.cov.rows();
        let new_n = old_n + CLONE_DIM;
        let mut new_cov = DMatrix::zeros(new_n, new_n);
        new_cov.set_block(0, 0, &self.cov);
        // J maps IMU errors to the new clone's errors: δθ_c = δθ, δp_c = δp.
        // Rows of the new block are J · P (J selects rows 0..3 and 3..6).
        let p_top = self.cov.block(0, 0, CLONE_DIM, old_n); // rows [δθ; δp]
        new_cov.set_block(old_n, 0, &p_top);
        new_cov.set_block(0, old_n, &p_top.transpose());
        let p_corner = self.cov.block(0, 0, CLONE_DIM, CLONE_DIM);
        new_cov.set_block(old_n, old_n, &p_corner);
        self.cov = new_cov;
    }

    /// Triangulates a feature from its observation history.
    fn initialize_feature(&self, obs: &[(u64, Vec2)]) -> Option<Vec3> {
        let mut views = Vec::with_capacity(obs.len());
        for &(cid, pt) in obs {
            let clone = self.clones.iter().find(|c| c.id == cid)?;
            views.push(Observation { cam_pose: clone.pose, point: pt });
        }
        if views.len() < 2 {
            return None;
        }
        triangulate_feature(&views)
    }

    /// Builds the null-space-projected Jacobian and residual for one
    /// feature.
    #[allow(clippy::needless_range_loop)] // small fixed-size index math
    fn feature_jacobians(&self, obs: &[(u64, Vec2)], p_f: Vec3) -> Option<(DMatrix, DMatrix)> {
        let n = self.cov.rows();
        let mut rows = Vec::new(); // (H_x row, H_f row, residual)
        for &(cid, z) in obs {
            let Some(idx) = self.clones.iter().position(|c| c.id == cid) else { continue };
            let clone = &self.clones[idx];
            let r_wc = clone.pose.orientation.to_rotation_matrix(); // body→world
            let r_cw = r_wc.transpose();
            let p_c = r_cw * (p_f - clone.pose.position);
            if p_c.z < 0.05 {
                continue;
            }
            let (x, y, zc) = (p_c.x, p_c.y, p_c.z);
            let res = Vec2::new(z.x - x / zc, z.y - y / zc);
            // J_π (2×3)
            let jpi = [[1.0 / zc, 0.0, -x / (zc * zc)], [0.0, 1.0 / zc, -y / (zc * zc)]];
            // ∂p_c/∂δθ_i = [p_c]× ; ∂p_c/∂δp_i = -R_cw ; ∂p_c/∂p_f = R_cw.
            let dth = skew(p_c);
            let col_base = IMU_DIM + idx * CLONE_DIM;
            let mut hx = vec![0.0; 2 * n];
            let mut hf = [[0.0; 3]; 2];
            for rr in 0..2 {
                for cc in 0..3 {
                    let mut acc_th = 0.0;
                    let mut acc_p = 0.0;
                    let mut acc_f = 0.0;
                    for k in 0..3 {
                        acc_th += jpi[rr][k] * dth.m[k][cc];
                        acc_p += jpi[rr][k] * (-r_cw.m[k][cc]);
                        acc_f += jpi[rr][k] * r_cw.m[k][cc];
                    }
                    hx[rr * n + col_base + cc] = acc_th;
                    hx[rr * n + col_base + 3 + cc] = acc_p;
                    hf[rr][cc] = acc_f;
                }
            }
            rows.push((hx, hf, res));
        }
        if rows.len() < 2 {
            return None;
        }
        let m = rows.len() * 2;
        let mut h_x = DMatrix::zeros(m, n);
        let mut h_f = DMatrix::zeros(m, 3);
        let mut r = DMatrix::zeros(m, 1);
        for (i, (hx, hf, res)) in rows.iter().enumerate() {
            for c in 0..n {
                h_x[(2 * i, c)] = hx[c];
                h_x[(2 * i + 1, c)] = hx[n + c];
            }
            for c in 0..3 {
                h_f[(2 * i, c)] = hf[0][c];
                h_f[(2 * i + 1, c)] = hf[1][c];
            }
            r[(2 * i, 0)] = res.x;
            r[(2 * i + 1, 0)] = res.y;
        }
        // Project onto the left null space of H_f: rows 3.. of QᵀH_x.
        if m <= 3 {
            return None;
        }
        let qr = Qr::new(&h_f).ok()?;
        let h0 = qr.q_transpose_mul(&h_x);
        let r0 = qr.q_transpose_mul(&r);
        let h = h0.block(3, 0, m - 3, n);
        let r = r0.block(3, 0, m - 3, 1);
        Some((h, r))
    }

    /// 95 % chi² gate on the projected residual.
    fn chi2_gate(&self, h: &DMatrix, r: &DMatrix) -> bool {
        let sigma = self.config.pixel_noise / self.config.camera.fx;
        let mut s = &(h * &self.cov) * &h.transpose();
        for i in 0..s.rows() {
            s[(i, i)] += sigma * sigma;
        }
        let Ok(chol) = Cholesky::new(&s) else { return false };
        let sol = chol.solve(r);
        let gamma = r.dot(&sol);
        gamma <= chi2_95(r.rows())
    }

    /// EKF update with QR compression and Joseph-form covariance update.
    fn apply_update(&mut self, mut h: DMatrix, mut r: DMatrix) {
        let n = self.cov.rows();
        // Measurement compression when over-determined.
        if h.rows() > n {
            if let Ok(qr) = Qr::new(&h) {
                let hc = qr.q_transpose_mul(&h);
                let rc = qr.q_transpose_mul(&r);
                h = hc.block(0, 0, n, n);
                r = rc.block(0, 0, n, 1);
            }
        }
        let sigma = self.config.pixel_noise / self.config.camera.fx;
        let noise = sigma * sigma;
        let ph_t = self.cov.mul_transpose(&h); // P Hᵀ (n × m)
        let mut s = &h * &ph_t; // H P Hᵀ
        for i in 0..s.rows() {
            s[(i, i)] += noise;
        }
        let Ok(chol) = Cholesky::new(&s) else { return };
        // K = P Hᵀ S⁻¹ → solve S Kᵀ = (P Hᵀ)ᵀ.
        let k_t = chol.solve(&ph_t.transpose());
        let k = k_t.transpose(); // n × m
        let dx = &k * &r;
        // Joseph form: P ← (I − K H) P (I − K H)ᵀ + K R Kᵀ.
        let mut ikh = DMatrix::identity(n);
        let kh = &k * &h;
        ikh = &ikh - &kh;
        let mut new_cov = &(&ikh * &self.cov) * &ikh.transpose();
        let krk = k.mul_transpose(&k).scale(noise);
        new_cov = &new_cov + &krk;
        new_cov.symmetrize();
        if !new_cov.is_finite() || !dx.is_finite() {
            return; // reject a numerically broken update
        }
        self.cov = new_cov;
        self.inject(&dx);
    }

    /// Applies an error-state correction to the nominal state.
    fn inject(&mut self, dx: &DMatrix) {
        let dtheta = Vec3::new(dx[(0, 0)], dx[(1, 0)], dx[(2, 0)]);
        let dp = Vec3::new(dx[(3, 0)], dx[(4, 0)], dx[(5, 0)]);
        let dv = Vec3::new(dx[(6, 0)], dx[(7, 0)], dx[(8, 0)]);
        let dbg = Vec3::new(dx[(9, 0)], dx[(10, 0)], dx[(11, 0)]);
        let dba = Vec3::new(dx[(12, 0)], dx[(13, 0)], dx[(14, 0)]);
        self.state.pose = Pose::new(
            self.state.pose.position + dp,
            (self.state.pose.orientation * Quat::from_rotation_vector(dtheta)).normalized(),
        );
        self.state.velocity += dv;
        self.state.gyro_bias += dbg;
        self.state.accel_bias += dba;
        for (i, clone) in self.clones.iter_mut().enumerate() {
            let base = IMU_DIM + i * CLONE_DIM;
            let cth = Vec3::new(dx[(base, 0)], dx[(base + 1, 0)], dx[(base + 2, 0)]);
            let cp = Vec3::new(dx[(base + 3, 0)], dx[(base + 4, 0)], dx[(base + 5, 0)]);
            clone.pose = Pose::new(
                clone.pose.position + cp,
                (clone.pose.orientation * Quat::from_rotation_vector(cth)).normalized(),
            );
        }
    }

    /// Drops the oldest clones beyond the window, with their covariance
    /// rows/columns and any observations that reference them.
    fn marginalize(&mut self) {
        while self.clones.len() > self.config.window_size {
            let victim = self.clones.remove(0);
            let base = IMU_DIM; // oldest clone sits first after the IMU block
            let idx: Vec<usize> = (base..base + CLONE_DIM).collect();
            self.cov = self.cov.remove_rows_cols(&idx);
            for obs in self.observations.values_mut() {
                obs.retain(|(cid, _)| *cid != victim.id);
            }
        }
        self.observations.retain(|_, v| !v.is_empty());
    }
}

/// Approximate 95th-percentile chi-square quantile (Wilson-Hilferty).
pub(crate) fn chi2_95(dof: usize) -> f64 {
    let k = dof.max(1) as f64;
    let z = 1.6449; // Φ⁻¹(0.95)
    let t = 1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt();
    k * t * t * t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::{propagate, Scheme};
    use illixr_sensors::camera::StereoRig;
    use illixr_sensors::dataset::SyntheticDataset;
    use std::sync::Arc;

    #[test]
    fn chi2_quantiles_are_sane() {
        // Known values: χ²₀.₉₅(1) ≈ 3.84, χ²₀.₉₅(10) ≈ 18.31.
        assert!((chi2_95(1) - 3.84).abs() < 0.15);
        assert!((chi2_95(10) - 18.31).abs() < 0.3);
        assert!(chi2_95(5) < chi2_95(20));
    }

    /// End-to-end: the filter tracks a noisy walking sequence far better
    /// than IMU dead reckoning.
    #[test]
    fn msckf_beats_dead_reckoning() {
        let seed = 21;
        let duration = 4.0;
        let ds = Arc::new(SyntheticDataset::vicon_room_like(seed, duration));
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let gt0 = &ds.ground_truth[0];
        let init = ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity);
        let mut filter = Msckf::new(VioConfig::fast(PinholeCamera::qvga()), init);

        for (imu, frame) in ds.replay(&rig) {
            imu.iter().for_each(|&s| filter.process_imu(s));
            let frame = frame.stereo();
            let out = filter.process_frame(&frame, None);
            assert!(out.state.pose.is_finite(), "filter diverged at frame {}", frame.seq);
        }

        // Dead-reckoning baseline over the same noisy IMU stream.
        let dead = propagate(&init, &ds.imu, Scheme::Rk4);

        let end_t = *ds.camera_times.last().unwrap();
        let truth = ds.ground_truth_pose(end_t);
        let vio_err = filter.state().pose.translation_distance(&truth);
        let dead_err = dead.pose.translation_distance(&ds.ground_truth_pose(dead.timestamp));
        assert!(
            vio_err < dead_err,
            "VIO ({vio_err:.3} m) should beat dead reckoning ({dead_err:.3} m)"
        );
        assert!(vio_err < 0.5, "VIO drifted {vio_err:.3} m over {duration} s");
    }

    #[test]
    fn updates_actually_fire() {
        let ds = Arc::new(SyntheticDataset::vicon_room_like(33, 3.0));
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let gt0 = &ds.ground_truth[0];
        let init = ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity);
        let mut filter = Msckf::new(VioConfig::fast(PinholeCamera::qvga()), init);
        let mut total_updates = 0;
        for (imu, frame) in ds.replay(&rig) {
            imu.iter().for_each(|&s| filter.process_imu(s));
            let frame = frame.stereo();
            let out = filter.process_frame(&frame, None);
            total_updates += out.msckf_features + out.slam_features;
            assert!(out.tracked_features > 0, "no features tracked at frame {}", frame.seq);
        }
        assert!(total_updates > 10, "only {total_updates} feature updates fired");
    }

    #[test]
    fn window_is_bounded() {
        let ds = Arc::new(SyntheticDataset::vicon_room_like(4, 2.0));
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let cfg = VioConfig::fast(PinholeCamera::qvga());
        let gt0 = &ds.ground_truth[0];
        let mut filter =
            Msckf::new(cfg, ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity));
        for (imu, frame) in ds.replay(&rig) {
            imu.iter().for_each(|&s| filter.process_imu(s));
            filter.process_frame(&frame.stereo(), None);
            assert!(filter.clones.len() <= cfg.window_size);
            assert_eq!(filter.cov.rows(), IMU_DIM + filter.clones.len() * CLONE_DIM);
        }
    }

    #[test]
    fn task_metrics_covers_table_vi_tasks() {
        let ds = Arc::new(SyntheticDataset::vicon_room_like(8, 2.0));
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let gt0 = &ds.ground_truth[0];
        let mut filter = Msckf::new(
            VioConfig::fast(PinholeCamera::qvga()),
            ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity),
        );
        let timer = Metrics::new();
        for (imu, frame) in ds.replay(&rig) {
            imu.iter().for_each(|&s| filter.process_imu(s));
            filter.process_frame(&frame.stereo(), Some(&timer));
        }
        let names: Vec<String> = timer.shares().into_iter().map(|(n, _)| n).collect();
        for expected in [
            "feature detection",
            "feature matching",
            "feature initialization",
            "MSCKF update",
            "marginalization",
            "other",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing task '{expected}' in {names:?}");
        }
    }
}
