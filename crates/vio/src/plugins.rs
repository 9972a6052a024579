//! The `vio` and `imu_integrator` plugins (paper Fig 2: camera → VIO is
//! a synchronous dependence; IMU → integrator is synchronous; integrator
//! publishes the fast pose that reprojection reads asynchronously).

use illixr_core::plugin::{IterationReport, Plugin, PluginContext};
use illixr_core::switchboard::{SyncReader, Writer};
use illixr_sensors::types::{streams, CameraFrame, ImuSample, PoseEstimate, StereoFrame};

use crate::integrator::{ImuState, Scheme};
use crate::msckf::{Msckf, VioConfig};

/// The stream side both head trackers share: every camera frame and IMU
/// sample in (synchronous dependences — Fig 2, solid arrows), the slow
/// pose out, and the frame gate between them.
#[derive(Default)]
struct TrackerStreams {
    camera_reader: Option<SyncReader<CameraFrame>>,
    imu_reader: Option<SyncReader<ImuSample>>,
    pose_writer: Option<Writer<PoseEstimate>>,
    /// A frame waiting for IMU coverage (frames must not be processed
    /// before IMU samples spanning their timestamp have arrived —
    /// essential when sensors arrive over a jittery link).
    pending_frame: Option<CameraFrame>,
    latest_imu: illixr_core::Time,
}

impl TrackerStreams {
    fn start(&mut self, ctx: &PluginContext) {
        let sb = &ctx.switchboard;
        self.camera_reader =
            Some(sb.topic::<CameraFrame>(streams::CAMERA).expect("stream").sync_reader(8));
        self.imu_reader =
            Some(sb.topic::<ImuSample>(streams::IMU).expect("stream").sync_reader(2048));
        self.pose_writer =
            Some(sb.topic::<PoseEstimate>(streams::SLOW_POSE).expect("stream").writer());
    }

    /// Drains all pending IMU samples into `on_imu`, then yields at most
    /// one camera frame (the component runs at the camera rate). A frame
    /// is held until IMU samples covering its timestamp have arrived, so
    /// delayed/jittery sensor delivery (e.g. an offloaded link) never
    /// loses motion. The tracker reads pixels, so this is where the
    /// frame is rendered — on the tracker's iteration, and only once it
    /// is released.
    fn next_frame(&mut self, mut on_imu: impl FnMut(ImuSample)) -> Option<StereoFrame> {
        let imu = self.imu_reader.as_ref().expect("start() must run before iterate()");
        for s in imu.drain_iter() {
            self.latest_imu = self.latest_imu.max(s.data.timestamp);
            on_imu(s.data);
        }
        if self.pending_frame.is_none() {
            let cam = self.camera_reader.as_ref().expect("start() must run before iterate()");
            self.pending_frame = cam.try_recv().map(|e| e.data.clone());
        }
        let latest_imu = self.latest_imu;
        self.pending_frame.take_if(|f| latest_imu >= f.timestamp).map(|f| f.stereo())
    }

    fn publish(&self, timestamp: illixr_core::Time, state: &ImuState) {
        self.pose_writer.as_ref().expect("start() must run before iterate()").put(PoseEstimate {
            timestamp,
            pose: state.pose,
            velocity: state.velocity,
        });
    }
}

/// The head-tracking plugin: consumes every camera frame and IMU sample,
/// publishes the slow accurate pose on `slow_pose`.
pub struct VioPlugin {
    filter: Msckf,
    streams: TrackerStreams,
    nominal_features: f64,
}

impl VioPlugin {
    /// Creates the plugin with the given filter configuration and
    /// initial state.
    pub fn new(config: VioConfig, initial: ImuState) -> Self {
        let nominal_features = config.frontend.max_features.max(1) as f64;
        Self {
            filter: Msckf::new(config, initial),
            streams: TrackerStreams::default(),
            nominal_features,
        }
    }

    /// The current state estimate.
    pub fn state(&self) -> &ImuState {
        self.filter.state()
    }
}

impl Plugin for VioPlugin {
    fn name(&self) -> &str {
        "vio"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.streams.start(ctx);
    }

    fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
        let Some(frame) = self.streams.next_frame(|s| self.filter.process_imu(s)) else {
            return IterationReport::skipped();
        };
        let out = self.filter.process_frame(&frame, None);
        self.streams.publish(frame.timestamp, &out.state);
        // Input-dependent work: tracked features plus update volume,
        // relative to the nominal budget.
        let work = (out.tracked_features as f64 + 2.0 * out.update_rows as f64 / 10.0)
            / self.nominal_features;
        IterationReport::with_work(work.max(0.2))
    }
}

/// The high-rate pose plugin: re-propagates the latest VIO state through
/// the IMU stream (RK4, Table II) and publishes `fast_pose`.
pub struct ImuIntegratorPlugin {
    scheme: Scheme,
    imu_reader: Option<SyncReader<ImuSample>>,
    slow_pose_reader: Option<illixr_core::switchboard::AsyncReader<PoseEstimate>>,
    fast_writer: Option<Writer<PoseEstimate>>,
    /// IMU history for re-propagation from the last VIO anchor.
    history: Vec<ImuSample>,
    state: ImuState,
    anchor_timestamp: illixr_core::Time,
}

impl ImuIntegratorPlugin {
    /// Creates the integrator (RK4 by default, like OpenVINS).
    pub fn new(initial: ImuState) -> Self {
        Self {
            scheme: Scheme::Rk4,
            imu_reader: None,
            slow_pose_reader: None,
            fast_writer: None,
            history: Vec::new(),
            state: initial,
            anchor_timestamp: illixr_core::Time::ZERO,
        }
    }

    /// Switches the integration scheme (plugin interchangeability).
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// The integrator's internal state for a failover snapshot:
    /// `(state, history, anchor_timestamp)`.
    pub fn snapshot_parts(&self) -> (ImuState, Vec<ImuSample>, illixr_core::Time) {
        (self.state, self.history.clone(), self.anchor_timestamp)
    }

    /// Restores a snapshot taken with
    /// [`ImuIntegratorPlugin::snapshot_parts`]. Nothing is published;
    /// the next `iterate` continues exactly where the snapshotted
    /// instance would have.
    pub fn restore_parts(
        &mut self,
        state: ImuState,
        history: Vec<ImuSample>,
        anchor_timestamp: illixr_core::Time,
    ) {
        self.state = state;
        self.history = history;
        self.anchor_timestamp = anchor_timestamp;
    }
}

impl Plugin for ImuIntegratorPlugin {
    fn name(&self) -> &str {
        "imu_integrator"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.imu_reader = Some(
            ctx.switchboard.topic::<ImuSample>(streams::IMU).expect("stream").sync_reader(2048),
        );
        self.slow_pose_reader = Some(
            ctx.switchboard
                .topic::<PoseEstimate>(streams::SLOW_POSE)
                .expect("stream")
                .async_reader(),
        );
        self.fast_writer = Some(
            ctx.switchboard.topic::<PoseEstimate>(streams::FAST_POSE).expect("stream").writer(),
        );
    }

    fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
        // Collect new IMU samples.
        let imu = self.imu_reader.as_ref().expect("start() must run before iterate()");
        let mut new_samples = 0u32;
        for s in imu.drain_iter() {
            self.history.push(s.data);
            new_samples += 1;
        }
        if new_samples == 0 {
            return IterationReport::skipped();
        }
        // Re-anchor on a fresh VIO estimate (asynchronous dependence:
        // take the latest, Fig 2 dashed arrow).
        if let Some(anchor) = self.slow_pose_reader.as_ref().expect("started").latest() {
            if anchor.timestamp > self.anchor_timestamp {
                self.anchor_timestamp = anchor.timestamp;
                self.state = ImuState {
                    timestamp: anchor.timestamp,
                    pose: anchor.pose,
                    velocity: anchor.velocity,
                    gyro_bias: self.state.gyro_bias,
                    accel_bias: self.state.accel_bias,
                };
                // Drop history older than the anchor (keep one sample
                // before it as the integration left endpoint).
                let split = self.history.partition_point(|s| s.timestamp <= anchor.timestamp);
                if split > 1 {
                    self.history.drain(0..split - 1);
                }
            }
        }
        // Propagate from the anchor through the (remaining) history.
        self.state = crate::integrator::propagate(&self.state, &self.history, self.scheme);
        // Keep only the last sample as the next left endpoint.
        if self.history.len() > 1 {
            let last = *self.history.last().expect("non-empty");
            self.history.clear();
            self.history.push(last);
        }
        self.fast_writer.as_ref().expect("start() must run before iterate()").put(PoseEstimate {
            timestamp: self.state.timestamp,
            pose: self.state.pose,
            velocity: self.state.velocity,
        });
        IterationReport::with_work(new_samples as f64)
    }
}

/// The alternative head-tracking plugin (Table II's second VIO slot):
/// wraps [`crate::alternative::FrameToFrameVio`] behind exactly the same
/// streams as [`VioPlugin`], so the two estimators are drop-in
/// interchangeable.
pub struct AlternativeVioPlugin {
    tracker: crate::alternative::FrameToFrameVio,
    streams: TrackerStreams,
}

impl AlternativeVioPlugin {
    /// Creates the plugin.
    pub fn new(
        config: crate::alternative::FrameToFrameConfig,
        rig: illixr_sensors::camera::StereoRig,
        initial: ImuState,
    ) -> Self {
        Self {
            tracker: crate::alternative::FrameToFrameVio::new(config, rig, initial),
            streams: TrackerStreams::default(),
        }
    }
}

impl Plugin for AlternativeVioPlugin {
    fn name(&self) -> &str {
        "vio"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.streams.start(ctx);
    }

    fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
        let Some(frame) = self.streams.next_frame(|s| self.tracker.process_imu(s)) else {
            return IterationReport::skipped();
        };
        let out = self.tracker.process_frame(&frame, None);
        self.streams.publish(frame.timestamp, &out.state);
        // Lightweight tracker: roughly half the nominal MSCKF work.
        IterationReport::with_work(0.4 + 0.2 * out.points_used as f64 / 60.0)
    }
}

/// Convenience: a fast-pose provider that publishes ground-truth poses —
/// the "idealized configuration" used for image-quality baselines
/// (§III-E).
pub struct GroundTruthPosePlugin {
    trajectory: illixr_sensors::trajectory::Trajectory,
    writer: Option<Writer<PoseEstimate>>,
}

impl GroundTruthPosePlugin {
    /// Creates the plugin.
    pub fn new(trajectory: illixr_sensors::trajectory::Trajectory) -> Self {
        Self { trajectory, writer: None }
    }
}

impl Plugin for GroundTruthPosePlugin {
    fn name(&self) -> &str {
        "gt_pose"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.writer = Some(
            ctx.switchboard.topic::<PoseEstimate>(streams::FAST_POSE).expect("stream").writer(),
        );
    }

    fn iterate(&mut self, ctx: &PluginContext) -> IterationReport {
        let t = ctx.clock.now();
        self.writer.as_ref().expect("start() must run before iterate()").put(PoseEstimate {
            timestamp: t,
            pose: self.trajectory.pose(t),
            velocity: self.trajectory.velocity(t),
        });
        IterationReport::nominal()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use illixr_core::plugin::RuntimeBuilder;
    use illixr_core::{SimClock, Time};
    use illixr_sensors::camera::{PinholeCamera, StereoRig};
    use illixr_sensors::dataset::SyntheticDataset;
    use illixr_sensors::plugins::OfflineImuCameraPlugin;
    use illixr_sensors::trajectory::Trajectory;

    /// Full perception pipeline: offline player → VIO → integrator.
    #[test]
    fn perception_pipeline_end_to_end() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let ds = Arc::new(SyntheticDataset::vicon_room_like(17, 2.5));
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let gt0 = &ds.ground_truth[0];
        let init = ImuState::from_pose(gt0.timestamp, gt0.pose, gt0.velocity);

        let mut source = OfflineImuCameraPlugin::new(ds.clone(), rig);
        let mut vio = VioPlugin::new(VioConfig::fast(PinholeCamera::qvga()), init);
        let mut integ = ImuIntegratorPlugin::new(init);
        source.start(&ctx);
        vio.start(&ctx);
        integ.start(&ctx);

        let fast_pose = ctx
            .switchboard
            .topic::<PoseEstimate>(streams::FAST_POSE)
            .expect("stream")
            .async_reader();
        let slow_pose = ctx
            .switchboard
            .topic::<PoseEstimate>(streams::SLOW_POSE)
            .expect("stream")
            .async_reader();

        // Drive everything at the camera cadence (66.7 ms ticks).
        let steps = 36; // 2.4 s
        for k in 0..steps {
            clock.advance_to(Time::from_secs_f64(k as f64 / 15.0));
            source.iterate(&ctx);
            vio.iterate(&ctx);
            integ.iterate(&ctx);
        }

        let slow = slow_pose.latest().expect("VIO produced poses");
        let fast = fast_pose.latest().expect("integrator produced poses");
        assert!(fast.timestamp >= slow.timestamp, "fast pose should be at least as fresh");
        let t_end = fast.timestamp;
        let truth = ds.ground_truth_pose(t_end);
        let err = fast.pose.translation_distance(&truth);
        assert!(err < 0.6, "fast pose error {err:.3} m");
    }

    #[test]
    fn vio_holds_frames_until_imu_coverage() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let init = ImuState::identity();
        let mut vio = VioPlugin::new(VioConfig::fast(PinholeCamera::qvga()), init);
        vio.start(&ctx);
        // A frame at t=100 ms with no IMU coverage yet → held, unrendered.
        let frame = CameraFrame::new(
            Time::from_millis(100),
            0,
            Arc::new(illixr_sensors::world::LandmarkWorld::lab(1)),
            StereoRig::zed_mini(PinholeCamera::qvga()),
            illixr_math::Pose::IDENTITY,
        );
        ctx.switchboard
            .topic::<CameraFrame>(streams::CAMERA)
            .expect("stream")
            .writer()
            .put(frame.clone());
        assert!(!vio.iterate(&ctx).did_work, "frame processed without IMU coverage");
        assert!(!frame.is_rendered(), "a held frame is not rendered");
        // IMU up to 99 ms: still not covered.
        let imu_writer = ctx
            .switchboard
            .topic::<illixr_sensors::types::ImuSample>(streams::IMU)
            .expect("stream")
            .writer();
        imu_writer.put(illixr_sensors::types::ImuSample {
            timestamp: Time::from_millis(99),
            gyro: illixr_math::Vec3::ZERO,
            accel: illixr_math::Vec3::new(0.0, 9.80665, 0.0),
        });
        assert!(!vio.iterate(&ctx).did_work);
        // IMU reaching 101 ms → the frame is processed.
        imu_writer.put(illixr_sensors::types::ImuSample {
            timestamp: Time::from_millis(101),
            gyro: illixr_math::Vec3::ZERO,
            accel: illixr_math::Vec3::new(0.0, 9.80665, 0.0),
        });
        assert!(vio.iterate(&ctx).did_work, "covered frame must be processed");
        assert!(frame.is_rendered(), "the tracker read the frame's pixels");
    }

    #[test]
    fn integrator_skips_without_input() {
        let ctx = RuntimeBuilder::new(Arc::new(SimClock::new())).build();
        let mut integ = ImuIntegratorPlugin::new(ImuState::identity());
        integ.start(&ctx);
        assert!(!integ.iterate(&ctx).did_work);
    }

    #[test]
    fn ground_truth_plugin_publishes_exact_pose() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let traj = Trajectory::walking(3);
        let mut p = GroundTruthPosePlugin::new(traj.clone());
        p.start(&ctx);
        let reader = ctx
            .switchboard
            .topic::<PoseEstimate>(streams::FAST_POSE)
            .expect("stream")
            .async_reader();
        clock.advance_to(Time::from_millis(500));
        p.iterate(&ctx);
        let est = reader.latest().unwrap();
        assert!(est.pose.translation_distance(&traj.pose(Time::from_millis(500))) < 1e-12);
    }
}
