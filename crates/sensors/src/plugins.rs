//! Camera and IMU plugins.
//!
//! Two interchangeable providers publish the same `camera` and `imu`
//! streams (paper §II-B, Table II lists ZED and RealSense variants):
//!
//! * [`SyntheticCameraPlugin`] + [`SyntheticImuPlugin`] — the
//!   "live-synthetic" pair, generating sensor data on the fly from a
//!   trajectory + world (the stand-in for walking a ZED Mini through a
//!   lab);
//! * [`OfflineImuCameraPlugin`] — the offline player, replaying a
//!   pre-generated [`SyntheticDataset`] (the stand-in for EuRoC
//!   playback). Downstream plugins cannot tell the difference.
//!
//! Neither camera renders. Both publish a [`CameraFrame`] — the view the
//! pixels are a pure function of — and the first consumer that calls
//! [`CameraFrame::stereo`] renders the pair for every holder of the frame
//! (`crate::types` has the contract). Live, replayed, frozen and restored
//! frames are all built the same way, so they are pixel-identical by
//! construction. In live mode the render's host time is therefore the VIO
//! thread's, not the camera thread's; simulated cost is unaffected.

use std::cell::Cell;
use std::sync::Arc;

use illixr_core::plugin::{IterationReport, Plugin, PluginContext};
use illixr_core::switchboard::Writer;
use illixr_core::Time;

use crate::camera::StereoRig;
use crate::dataset::SyntheticDataset;
use crate::imu::{ImuModel, ImuNoise};
use crate::trajectory::Trajectory;
use crate::types::{streams, CameraFrame, ImuSample};
use crate::wire::CameraRecord;
use crate::world::LandmarkWorld;

/// Publishes synthetic stereo frames on the `camera` stream.
///
/// Each `iterate` publishes the view for the current clock time, so the
/// frame content truly depends on the trajectory. The context's fault
/// plan can drop frames (a skipped iteration) or freeze the feed
/// (re-publishing the last frame with its stale timestamp, the way a
/// wedged camera driver repeats its DMA buffer).
pub struct SyntheticCameraPlugin {
    trajectory: Trajectory,
    world: Arc<LandmarkWorld>,
    rig: StereoRig,
    writer: Option<Writer<CameraFrame>>,
    seq: u64,
    /// The last *fresh* frame: what a freeze window repeats.
    last_frame: Option<CameraFrame>,
}

impl SyntheticCameraPlugin {
    /// Creates the plugin.
    pub fn new(trajectory: Trajectory, world: Arc<LandmarkWorld>, rig: StereoRig) -> Self {
        Self { trajectory, world, rig, writer: None, seq: 0, last_frame: None }
    }

    /// Sequence number the next fresh frame will carry. Part of the
    /// failover snapshot surface.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// `(timestamp, seq)` of the last *fresh* frame published, if any.
    /// Enough to rebuild the frame at restore time: its view is the
    /// trajectory pose at that timestamp, and its pixels are a pure
    /// function of the view.
    pub fn last_frame_info(&self) -> Option<(Time, u64)> {
        self.last_frame.as_ref().map(|f| (f.timestamp, f.seq))
    }

    /// Restores the plugin to a snapshotted state: the next sequence
    /// number plus the identity of the last fresh frame, whose view is
    /// rebuilt from the trajectory. Nothing is rendered and nothing is
    /// published; a freeze window that later repeats the frame yields
    /// pixels identical to the snapshotted one's if anyone reads them.
    pub fn restore_state(&mut self, seq: u64, last: Option<(Time, u64)>) {
        self.seq = seq;
        self.last_frame = last.map(|(timestamp, frame_seq)| {
            let pose = self.trajectory.pose(timestamp);
            CameraFrame::new(timestamp, frame_seq, self.world.clone(), self.rig, pose)
        });
    }
}

impl Plugin for SyntheticCameraPlugin {
    fn name(&self) -> &str {
        "camera"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.writer =
            Some(ctx.switchboard.topic::<CameraFrame>(streams::CAMERA).expect("stream").writer());
    }

    fn iterate(&mut self, ctx: &PluginContext) -> IterationReport {
        let t = ctx.clock.now();
        let writer = self.writer.as_ref().expect("start() must run before iterate()");
        // The frame a live crossing built, so a frozen repeat shares the
        // last fresh frame's pixels; a replayed frame is the view from its
        // recorded pose.
        let live = Cell::new(None);
        let crossing = ctx.boundary.cross(streams::CAMERA, t.as_nanos(), || {
            let seq = self.seq;
            self.seq += 1;
            if !ctx.fault.sensors_quiet() {
                let faults = ctx.fault.sensor("camera");
                if faults.drop_frame(t.as_nanos(), seq) {
                    return None;
                }
                if faults.frozen(t.as_nanos()) {
                    if let Some(last) = &self.last_frame {
                        // Repeat the stale frame (old timestamp, old
                        // content) under a fresh sequence number.
                        live.set(Some(last.repeated_as(seq)));
                        let (timestamp, pose) = (last.timestamp, last.pose());
                        let rec = CameraRecord { timestamp, seq, work_factor: 0.1, pose };
                        return Some((t.as_nanos(), rec));
                    }
                }
            }
            let pose = self.trajectory.pose(t);
            let frame = CameraFrame::new(t, seq, self.world.clone(), self.rig, pose);
            self.last_frame = Some(frame.clone());
            live.set(Some(frame));
            Some((t.as_nanos(), CameraRecord { timestamp: t, seq, work_factor: 1.0, pose }))
        });
        let mut report = IterationReport::skipped();
        for (_, rec) in crossing {
            writer.put(match live.take() {
                Some(frame) => frame,
                None => {
                    CameraFrame::new(rec.timestamp, rec.seq, self.world.clone(), self.rig, rec.pose)
                }
            });
            report = IterationReport::with_work(rec.work_factor);
        }
        report
    }
}

/// Publishes synthetic IMU samples on the `imu` stream.
///
/// The context's fault plan can open sample gaps (the sample is still
/// drawn from the model — keeping its noise stream aligned with the
/// unfaulted run — but not published), add a bias jump to both
/// measurement axes inside a window, or overlay a wideband noise burst.
pub struct SyntheticImuPlugin {
    model: ImuModel,
    writer: Option<Writer<ImuSample>>,
    seq: u64,
}

impl SyntheticImuPlugin {
    /// Creates the plugin sampling at `rate_hz` (paper: 500 Hz).
    pub fn new(trajectory: Trajectory, noise: ImuNoise, rate_hz: f64, seed: u64) -> Self {
        Self { model: ImuModel::new(trajectory, noise, rate_hz, seed), writer: None, seq: 0 }
    }
}

impl Plugin for SyntheticImuPlugin {
    fn name(&self) -> &str {
        "imu"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.writer =
            Some(ctx.switchboard.topic::<ImuSample>(streams::IMU).expect("stream").writer());
    }

    fn iterate(&mut self, ctx: &PluginContext) -> IterationReport {
        let now = ctx.clock.now();
        let writer = self.writer.as_ref().expect("start() must run before iterate()");
        // A replayed sample is the recorded post-fault one: the model and
        // the fault plan never run for it.
        let crossing = ctx.boundary.cross(streams::IMU, now.as_nanos(), || {
            let mut sample = self.model.next_sample();
            let seq = self.seq;
            self.seq += 1;
            if !ctx.fault.sensors_quiet() {
                let faults = ctx.fault.sensor("imu");
                let t_ns = sample.timestamp.as_nanos();
                if faults.imu_gap(t_ns, seq) {
                    return None;
                }
                let bias = faults.bias(t_ns);
                let noise = faults.noise(t_ns, seq);
                if bias != 0.0 || noise != 0.0 {
                    let accel_err = bias + noise;
                    // Gyro axes are rad/s; scale the same disturbance down.
                    let gyro_err = 0.1 * accel_err;
                    sample.accel += illixr_math::Vec3::new(accel_err, accel_err, accel_err);
                    sample.gyro += illixr_math::Vec3::new(gyro_err, gyro_err, gyro_err);
                }
            }
            Some((now.as_nanos(), sample))
        });
        let mut report = IterationReport::skipped();
        for (_, sample) in crossing {
            writer.put(sample);
            report = IterationReport::nominal();
        }
        report
    }
}

/// Replays a pre-generated dataset onto **both** the `camera` and `imu`
/// streams — the offline camera+IMU component of paper §II-B.
///
/// Drive it at the IMU rate; camera frames are emitted whenever a camera
/// timestamp falls due.
pub struct OfflineImuCameraPlugin {
    dataset: Arc<SyntheticDataset>,
    rig: StereoRig,
    imu_writer: Option<Writer<ImuSample>>,
    cam_writer: Option<Writer<CameraFrame>>,
    next_imu: usize,
    next_cam: usize,
}

impl OfflineImuCameraPlugin {
    /// Creates the player.
    pub fn new(dataset: Arc<SyntheticDataset>, rig: StereoRig) -> Self {
        Self { dataset, rig, imu_writer: None, cam_writer: None, next_imu: 0, next_cam: 0 }
    }
}

impl Plugin for OfflineImuCameraPlugin {
    fn name(&self) -> &str {
        "offline_imu_cam"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.imu_writer =
            Some(ctx.switchboard.topic::<ImuSample>(streams::IMU).expect("stream").writer());
        self.cam_writer =
            Some(ctx.switchboard.topic::<CameraFrame>(streams::CAMERA).expect("stream").writer());
    }

    fn iterate(&mut self, ctx: &PluginContext) -> IterationReport {
        let now = ctx.clock.now();
        let mut emitted = 0u32;
        // Emit every IMU sample that has come due.
        while self.next_imu < self.dataset.imu.len()
            && self.dataset.imu[self.next_imu].timestamp <= now
        {
            self.imu_writer
                .as_ref()
                .expect("start() must run before iterate()")
                .put(self.dataset.imu[self.next_imu]);
            self.next_imu += 1;
            emitted += 1;
        }
        // Emit camera frames that have come due.
        while self.next_cam < self.dataset.camera_times.len()
            && self.dataset.camera_times[self.next_cam] <= now
        {
            self.cam_writer
                .as_ref()
                .expect("start() must run before iterate()")
                .put(self.dataset.frame(&self.rig, self.next_cam));
            self.next_cam += 1;
            emitted += 1;
        }
        if emitted == 0 {
            IterationReport::skipped()
        } else {
            IterationReport::with_work(emitted as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::PinholeCamera;
    use illixr_core::{RuntimeBuilder, SimClock};

    fn sim_ctx() -> (PluginContext, SimClock) {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        (ctx, clock)
    }

    /// A context whose fault plan freezes the camera from 50 to 200 ms.
    fn frozen_camera_ctx() -> (PluginContext, SimClock) {
        use illixr_core::fault::{FaultKind, FaultPlan, FaultWindow};
        let clock = SimClock::new();
        let plan = FaultPlan::new(9).with_window(FaultWindow::new(
            FaultKind::CameraFreeze,
            "camera",
            Time::from_millis(50).as_nanos(),
            Time::from_millis(200).as_nanos(),
            1.0,
        ));
        let ctx =
            RuntimeBuilder::new(Arc::new(clock.clone())).with_fault_plan(Arc::new(plan)).build();
        (ctx, clock)
    }

    #[test]
    fn synthetic_camera_publishes_frames() {
        let (ctx, clock) = sim_ctx();
        let reader =
            ctx.switchboard.topic::<CameraFrame>(streams::CAMERA).expect("stream").sync_reader(16);
        let world = Arc::new(LandmarkWorld::new(50, illixr_math::Vec3::new(3.0, 2.0, 3.0), 1));
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let mut plugin = SyntheticCameraPlugin::new(Trajectory::walking(1), world, rig);
        plugin.start(&ctx);
        clock.advance_to(Time::from_millis(66));
        plugin.iterate(&ctx);
        let frame = reader.try_recv().unwrap();
        assert_eq!(frame.timestamp, Time::from_millis(66));
        assert!(!frame.is_rendered(), "publishing renders nothing");
        assert_eq!(frame.stereo().left.width(), 320);
        assert!(frame.is_rendered());
    }

    #[test]
    fn synthetic_imu_publishes_at_fixed_cadence() {
        let (ctx, _clock) = sim_ctx();
        let reader =
            ctx.switchboard.topic::<ImuSample>(streams::IMU).expect("stream").sync_reader(64);
        let mut plugin =
            SyntheticImuPlugin::new(Trajectory::walking(2), ImuNoise::default(), 500.0, 2);
        plugin.start(&ctx);
        for _ in 0..5 {
            plugin.iterate(&ctx);
        }
        let samples = reader.drain();
        assert_eq!(samples.len(), 5);
        assert_eq!((samples[1].timestamp - samples[0].timestamp).as_micros(), 2000);
    }

    #[test]
    fn offline_player_is_stream_compatible() {
        let (ctx, clock) = sim_ctx();
        let imu_reader =
            ctx.switchboard.topic::<ImuSample>(streams::IMU).expect("stream").sync_reader(4096);
        let cam_reader =
            ctx.switchboard.topic::<CameraFrame>(streams::CAMERA).expect("stream").sync_reader(64);
        let ds = Arc::new(SyntheticDataset::generate(
            Trajectory::walking(3),
            LandmarkWorld::new(40, illixr_math::Vec3::new(3.0, 2.0, 3.0), 3),
            ImuNoise::default(),
            0.5,
            15.0,
            500.0,
            3,
        ));
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let mut plugin = OfflineImuCameraPlugin::new(ds.clone(), rig);
        plugin.start(&ctx);
        // First tick at t=0 publishes the first samples.
        plugin.iterate(&ctx);
        assert!(!imu_reader.is_empty());
        assert_eq!(cam_reader.len(), 1);
        // Advance 100 ms: ~50 IMU samples and 1–2 camera frames due.
        clock.advance_to(Time::from_millis(100));
        plugin.iterate(&ctx);
        assert!(imu_reader.len() >= 50);
        assert!(cam_reader.len() >= 2);
    }

    #[test]
    fn camera_freeze_window_repeats_the_stale_frame() {
        let (ctx, clock) = frozen_camera_ctx();
        let reader =
            ctx.switchboard.topic::<CameraFrame>(streams::CAMERA).expect("stream").sync_reader(16);
        let world = Arc::new(LandmarkWorld::new(50, illixr_math::Vec3::new(3.0, 2.0, 3.0), 1));
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let mut plugin = SyntheticCameraPlugin::new(Trajectory::walking(1), world, rig);
        plugin.start(&ctx);
        clock.advance_to(Time::from_millis(33));
        plugin.iterate(&ctx); // before the window: fresh frame
        clock.advance_to(Time::from_millis(66));
        plugin.iterate(&ctx); // inside the window: frozen
        let frames = reader.drain();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].timestamp, frames[0].timestamp, "frozen frame keeps stale stamp");
        assert_eq!(frames[1].data.seq, 1, "sequence numbering still advances");
        assert!(
            Arc::ptr_eq(&frames[0].stereo().left, &frames[1].stereo().left),
            "same image repeated"
        );
    }

    #[test]
    fn restored_camera_repeats_the_snapshotted_frame_pixel_exact() {
        let world = Arc::new(LandmarkWorld::new(50, illixr_math::Vec3::new(3.0, 2.0, 3.0), 1));
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let trajectory = Trajectory::walking(1);

        // The instance that dies: one fresh frame, then a snapshot.
        let (ctx, clock) = sim_ctx();
        let reader =
            ctx.switchboard.topic::<CameraFrame>(streams::CAMERA).expect("stream").sync_reader(16);
        let mut plugin = SyntheticCameraPlugin::new(trajectory.clone(), world.clone(), rig);
        plugin.start(&ctx);
        clock.advance_to(Time::from_millis(33));
        plugin.iterate(&ctx);
        let original = reader.try_recv().unwrap().stereo();
        let (seq, last) = (plugin.seq(), plugin.last_frame_info());

        // Its replacement, restored from the snapshot into a freeze window.
        let (ctx, clock) = frozen_camera_ctx();
        let reader =
            ctx.switchboard.topic::<CameraFrame>(streams::CAMERA).expect("stream").sync_reader(16);
        let mut restored = SyntheticCameraPlugin::new(trajectory.clone(), world.clone(), rig);
        restored.start(&ctx);
        restored.restore_state(seq, last);
        assert_eq!(restored.last_frame_info(), last);
        for ms in [66, 133] {
            clock.advance_to(Time::from_millis(ms));
            restored.iterate(&ctx);
        }
        let repeats = reader.drain();
        assert_eq!(repeats.len(), 2);
        assert_eq!(repeats[0].timestamp, original.timestamp, "the snapshotted frame, repeated");
        assert_eq!((repeats[0].data.seq, repeats[1].data.seq), (1, 2));
        // Both repeats went out before anyone read the restored frame;
        // the first read renders once for both.
        assert!(repeats.iter().all(|f| !f.is_rendered()), "restore and repeat render nothing");
        let second = repeats[1].stereo();
        assert!(repeats[0].is_rendered(), "one cell behind every repeat");
        assert!(Arc::ptr_eq(&repeats[0].stereo().left, &second.left));
        assert_eq!(second.left.as_slice(), original.left.as_slice());
        assert_eq!(second.right.as_slice(), original.right.as_slice());
        let (left, right) = world.render_stereo(&rig, &trajectory.pose(original.timestamp));
        assert_eq!(second.left.as_slice(), left.as_slice(), "restored frame is the world's render");
        assert_eq!(second.right.as_slice(), right.as_slice());
    }

    #[test]
    fn imu_gap_skips_publish_but_keeps_the_model_stream_aligned() {
        use illixr_core::fault::{FaultKind, FaultPlan, FaultWindow};
        // Faulted run: gap window covering samples 2..4 (4 ms..8 ms).
        let plan = FaultPlan::new(5).with_window(FaultWindow::new(
            FaultKind::ImuGap,
            "imu",
            Time::from_millis(3).as_nanos(),
            Time::from_millis(8).as_nanos(),
            1.0,
        ));
        let ctx =
            RuntimeBuilder::new(Arc::new(SimClock::new())).with_fault_plan(Arc::new(plan)).build();
        let reader =
            ctx.switchboard.topic::<ImuSample>(streams::IMU).expect("stream").sync_reader(64);
        let mut plugin =
            SyntheticImuPlugin::new(Trajectory::walking(2), ImuNoise::default(), 500.0, 2);
        plugin.start(&ctx);
        for _ in 0..5 {
            plugin.iterate(&ctx);
        }
        let faulted = reader.drain();
        assert!(faulted.len() < 5, "gap window suppressed samples");

        // Unfaulted run with the same model seed: published samples
        // outside the gap are bit-identical (the model still advanced
        // through the gap).
        let (ctx2, _clock) = sim_ctx();
        let reader2 =
            ctx2.switchboard.topic::<ImuSample>(streams::IMU).expect("stream").sync_reader(64);
        let mut plugin2 =
            SyntheticImuPlugin::new(Trajectory::walking(2), ImuNoise::default(), 500.0, 2);
        plugin2.start(&ctx2);
        for _ in 0..5 {
            plugin2.iterate(&ctx2);
        }
        let clean = reader2.drain();
        assert_eq!(clean.len(), 5);
        for f in &faulted {
            assert!(
                clean.iter().any(|c| c.data == f.data),
                "surviving samples match the unfaulted stream"
            );
        }
    }

    #[test]
    fn recorded_faulted_sensors_replay_bit_identically_under_a_quiet_plan() {
        use illixr_core::boundary::{TraceRecorder, TraceSource};
        use illixr_core::fault::{FaultKind, FaultPlan, FaultWindow, StochasticRates};

        let world = || Arc::new(LandmarkWorld::new(50, illixr_math::Vec3::new(3.0, 2.0, 3.0), 1));
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());

        // Record a run with a camera freeze, IMU noise bursts and
        // stochastic drops.
        let plan = FaultPlan::new(13)
            .with_window(FaultWindow::new(
                FaultKind::CameraFreeze,
                "camera",
                Time::from_millis(100).as_nanos(),
                Time::from_millis(250).as_nanos(),
                1.0,
            ))
            .with_window(FaultWindow::new(
                FaultKind::ImuNoiseBurst,
                "imu",
                Time::from_millis(50).as_nanos(),
                Time::from_millis(300).as_nanos(),
                0.5,
            ))
            .with_rates(StochasticRates { camera_drop: 0.2, ..StochasticRates::ZERO });
        let recorder = TraceRecorder::new(13, 0);
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone()))
            .with_fault_plan(Arc::new(plan))
            .with_recorder(recorder.clone())
            .build();
        let cam_reader =
            ctx.switchboard.topic::<CameraFrame>(streams::CAMERA).expect("stream").sync_reader(64);
        let imu_reader =
            ctx.switchboard.topic::<ImuSample>(streams::IMU).expect("stream").sync_reader(4096);
        let mut camera = SyntheticCameraPlugin::new(Trajectory::walking(1), world(), rig);
        let mut imu =
            SyntheticImuPlugin::new(Trajectory::walking(1), ImuNoise::default(), 500.0, 13);
        camera.start(&ctx);
        imu.start(&ctx);
        for step in 0..6u64 {
            clock.advance_to(Time::from_millis(step * 66));
            camera.iterate(&ctx);
            for _ in 0..33 {
                imu.iterate(&ctx);
            }
        }
        let rec_frames = cam_reader.drain();
        let rec_samples = imu_reader.drain();
        let trace = Arc::new(recorder.snapshot());
        assert!(trace.stream("camera").is_some() && trace.stream("imu").is_some());
        // Live frames, fresh and frozen, are the world's render at the
        // trajectory pose of their (possibly stale) timestamp — and so is
        // what the boundary recorded for them.
        let (live_world, live_trajectory) = (world(), Trajectory::walking(1));
        let transform = illixr_core::boundary::SessionTransform::IDENTITY;
        for (frame, rec) in rec_frames.iter().zip(trace.stream("camera").unwrap()) {
            let rec = crate::wire::decode_camera(&rec.payload, rec.tag_ns, &transform).unwrap();
            assert_eq!((rec.timestamp, rec.seq), (frame.timestamp, frame.data.seq));
            let stereo = frame.stereo();
            for pose in [live_trajectory.pose(frame.timestamp), rec.pose] {
                let (left, right) = live_world.render_stereo(&rig, &pose);
                assert_eq!(stereo.left.as_slice(), left.as_slice());
                assert_eq!(stereo.right.as_slice(), right.as_slice());
            }
        }

        // Replay under a quiet plan, same iterate schedule: published
        // values must match bit-for-bit and the re-recorded trace must
        // equal the original byte-for-byte.
        let rerec = TraceRecorder::new(13, 0);
        let clock2 = SimClock::new();
        let ctx2 = RuntimeBuilder::new(Arc::new(clock2.clone()))
            .with_trace(TraceSource::new(trace.clone()))
            .with_recorder(rerec.clone())
            .build();
        let cam_reader2 =
            ctx2.switchboard.topic::<CameraFrame>(streams::CAMERA).expect("stream").sync_reader(64);
        let imu_reader2 =
            ctx2.switchboard.topic::<ImuSample>(streams::IMU).expect("stream").sync_reader(4096);
        let mut camera2 = SyntheticCameraPlugin::new(Trajectory::walking(99), world(), rig);
        let mut imu2 =
            SyntheticImuPlugin::new(Trajectory::walking(99), ImuNoise::default(), 500.0, 7);
        camera2.start(&ctx2);
        imu2.start(&ctx2);
        for step in 0..6u64 {
            clock2.advance_to(Time::from_millis(step * 66));
            camera2.iterate(&ctx2);
            for _ in 0..33 {
                imu2.iterate(&ctx2);
            }
        }
        let rep_frames = cam_reader2.drain();
        let rep_samples = imu_reader2.drain();
        assert_eq!(rec_frames.len(), rep_frames.len());
        for (a, b) in rec_frames.iter().zip(rep_frames.iter()) {
            assert_eq!(a.timestamp, b.timestamp);
            assert_eq!(a.data.seq, b.data.seq);
            let (a, b) = (a.stereo(), b.stereo());
            assert_eq!(a.left.as_slice(), b.left.as_slice(), "replayed frame must be pixel-exact");
            assert_eq!(a.right.as_slice(), b.right.as_slice());
        }
        assert_eq!(
            rec_samples.iter().map(|s| s.data).collect::<Vec<_>>(),
            rep_samples.iter().map(|s| s.data).collect::<Vec<_>>()
        );
        assert_eq!(rerec.snapshot().encode(), trace.encode());
    }

    #[test]
    fn offline_player_reports_skip_when_idle() {
        let (ctx, _clock) = sim_ctx();
        let ds = Arc::new(SyntheticDataset::vicon_room_like(5, 0.1));
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let mut plugin = OfflineImuCameraPlugin::new(ds, rig);
        plugin.start(&ctx);
        plugin.iterate(&ctx); // consumes t=0 data
        let report = plugin.iterate(&ctx); // clock unchanged → nothing due
        assert!(!report.did_work);
    }
}
