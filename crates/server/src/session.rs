//! One client session: a thin-client XR device attached to the server.
//!
//! Each session owns a full client-side runtime — its own switchboard,
//! synthetic camera + IMU along a per-seed trajectory, and the IMU
//! integrator publishing the fast pose — exactly the perception half of
//! the single-client pipeline. The heavy stages are offloaded: VIO runs
//! server-side on [`VioJob`]s (one camera frame plus the IMU window
//! since the previous frame), and rendering is cloud-side — the client
//! receives [`RenderToken`]s, warps the newest one at each vsync, and
//! measures motion-to-photon latency from the pose the server rendered
//! with. The session never advances time itself; the server's event
//! loop drives [`ClientSession::on_imu_due`] /
//! [`ClientSession::on_camera_due`] / [`ClientSession::on_vsync`] under
//! the shared simulated clock.

use std::sync::Arc;
use std::time::Duration;

use illixr_core::boundary::Boundary;
use illixr_core::fault::FaultPlan;
use illixr_core::plugin::{Plugin, PluginContext, RuntimeBuilder};
use illixr_core::switchboard::{AsyncReader, SyncReader, Writer};
use illixr_core::{Clock, Time, TopicStats};
use illixr_qoe::mtp::MtpCalculator;
use illixr_sensors::camera::{PinholeCamera, StereoRig};
use illixr_sensors::imu::ImuNoise;
use illixr_sensors::plugins::{SyntheticCameraPlugin, SyntheticImuPlugin};
use illixr_sensors::trajectory::Trajectory;
use illixr_sensors::types::{streams, CameraFrame, ImuSample, PoseEstimate};
use illixr_sensors::world::LandmarkWorld;
use illixr_vio::integrator::ImuState;
use illixr_vio::plugins::ImuIntegratorPlugin;

/// Per-session parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Seed for the session's trajectory, world and IMU noise — distinct
    /// seeds give every client an independent walk through its own room.
    pub seed: u64,
    /// When the session asks the server to admit it.
    pub connect_at: Time,
    /// Mid-run departure, if any.
    pub disconnect_at: Option<Time>,
    /// Camera frame rate (paper Table III: 15 Hz).
    pub camera_hz: f64,
    /// IMU sample rate (500 Hz).
    pub imu_hz: f64,
    /// Display refresh rate (120 Hz).
    pub display_hz: f64,
    /// Multiplier on the session's offered-load estimate, fed into
    /// admission control. `1.0` is a plain session; front-ends raise it
    /// for sessions whose negotiated features (hand tracking, hit
    /// testing, anchors) add per-frame server work that the raw
    /// byte/pool rates don't capture.
    pub load_weight: f64,
}

impl SessionConfig {
    /// Paper Table III rates, connecting at t=0.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            connect_at: Time::ZERO,
            disconnect_at: None,
            camera_hz: 15.0,
            imu_hz: 500.0,
            display_hz: 120.0,
            load_weight: 1.0,
        }
    }
}

/// Session lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Created, not yet at its connect time.
    Pending,
    /// Admitted at full rates.
    Running,
    /// Admitted at halved camera/render rates.
    Degraded,
    /// Refused by admission control; never attached.
    Rejected,
    /// Departed (mid-run or at end of run).
    Disconnected,
    /// Lost to a crashed engine fault domain and not (yet) recovered —
    /// the terminal state of a session whose shard died with failover
    /// disabled or its restart budget exhausted.
    Quarantined,
}

impl SessionState {
    /// Stable lowercase label for reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Self::Pending => "pending",
            Self::Running => "running",
            Self::Degraded => "degraded",
            Self::Rejected => "rejected",
            Self::Disconnected => "disconnected",
            Self::Quarantined => "quarantined",
        }
    }
}

/// One unit of offloaded VIO work: a camera frame plus the IMU window
/// covering it.
///
/// The frame is the camera stream's [`CameraFrame`] — the view, not
/// pixels: a server running real VIO renders it when the filter reads it
/// (`CameraFrame::stereo`), and ideal VIO, which reads only
/// `frame.timestamp`, never does. Zero-copy by construction: clones of
/// the frame share its view and any rendered pair, and the IMU window is
/// an exact-size `Arc<[ImuSample]>` frozen at the camera tick, so
/// cloning a job — uplink queue, scheduler batch, VIO worker — never
/// copies payload bytes, and the window is freed with the job's last
/// clone.
#[derive(Debug, Clone)]
pub struct VioJob {
    /// Originating session.
    pub session: u32,
    /// The frame to process.
    pub frame: CameraFrame,
    /// IMU samples since the previous frame, through the frame time.
    pub imu: Arc<[ImuSample]>,
}

/// A request for one cloud-rendered frame, stamped with the freshest
/// client pose.
#[derive(Debug, Clone, Copy)]
pub struct RenderRequest {
    /// Originating session.
    pub session: u32,
    /// Request sequence number.
    pub seq: u64,
    /// Sensor timestamp of the pose the server should render with.
    pub pose_timestamp: Time,
    /// When the client issued the request (the vsync it was sent from).
    /// Carried through to the token so the client can decompose MTP
    /// into sense / round-trip / queue stages exactly.
    pub requested_at: Time,
}

/// A cloud-rendered frame arriving at the client. No pixels — the
/// model tracks only what latency accounting needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderToken {
    /// Matches the originating request's sequence number.
    pub seq: u64,
    /// Sensor timestamp of the pose the frame was rendered with; its
    /// age at display time is the dominant MTP term.
    pub pose_timestamp: Time,
    /// Copied from the originating request (see
    /// [`RenderRequest::requested_at`]).
    pub requested_at: Time,
}

/// One frame the client actually put on its display: the vsync it was
/// shown at and the pose the late warp used. Session front-ends
/// (`illixr-api`) reconstruct a client-visible frame stream from this
/// log after the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisplayedFrame {
    /// The vsync instant the frame was displayed at.
    pub time: Time,
    /// The fast pose the warp used (ground-truth trajectory pose until
    /// the first server estimate lands).
    pub pose: illixr_math::Pose,
}

/// Per-session run counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionTelemetry {
    /// Total motion-to-photon latency per displayed frame, ns.
    pub mtp_ns: Vec<u64>,
    /// Per-displayed-frame display time and warp pose, in display
    /// order (same length as `mtp_ns`).
    pub displayed_frames: Vec<DisplayedFrame>,
    /// Vsyncs that displayed a fresh cloud frame.
    pub frames_displayed: u64,
    /// Vsyncs with no fresh frame to show.
    pub frames_dropped: u64,
    /// VIO jobs shipped uplink.
    pub vio_jobs: u64,
    /// Server pose estimates received.
    pub poses_received: u64,
    /// Render tokens received.
    pub tokens_received: u64,
    /// Render requests sent.
    pub requests_sent: u64,
}

impl SessionTelemetry {
    /// Mean MTP across displayed frames.
    pub(crate) fn mean_mtp(&self) -> Duration {
        if self.mtp_ns.is_empty() {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.mtp_ns.iter().sum::<u64>() / self.mtp_ns.len() as u64)
        }
    }

    /// 99th-percentile MTP (nearest-rank).
    pub(crate) fn p99_mtp(&self) -> Duration {
        if self.mtp_ns.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.mtp_ns.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted.len());
        Duration::from_nanos(sorted[rank - 1])
    }
}

/// The client half of one session.
pub struct ClientSession {
    /// Session id (index into the server's session table).
    pub id: u32,
    /// The session's parameters.
    pub config: SessionConfig,
    /// Current lifecycle state.
    pub state: SessionState,
    /// Run counters.
    pub telemetry: SessionTelemetry,
    trajectory: Trajectory,
    pub(crate) ctx: PluginContext,
    camera: SyntheticCameraPlugin,
    imu: SyntheticImuPlugin,
    integrator: ImuIntegratorPlugin,
    /// Uplink taps: what the remote-VIO client ships to the server.
    camera_reader: Option<SyncReader<CameraFrame>>,
    imu_reader: Option<SyncReader<ImuSample>>,
    /// Server pose estimates re-enter the client pipeline here.
    slow_pose_writer: Option<Writer<PoseEstimate>>,
    fast_pose: Option<AsyncReader<PoseEstimate>>,
    mtp: MtpCalculator,
    /// IMU window accumulating between camera frames; frozen into the
    /// next [`VioJob`] at the camera tick.
    imu_window: Vec<ImuSample>,
    /// Newest undisplayed token plus its arrival time at the client.
    latest_token: Option<(RenderToken, Time)>,
    displayed_seq: Option<u64>,
    request_seq: u64,
    vsync_index: u64,
    /// Total IMU plugin iterations (connect burn included) — the model
    /// fast-forward count a failover restore replays.
    imu_iterations: u64,
    /// Latest server pose estimate delivered, kept for checkpoints so a
    /// delivered-but-not-yet-anchored slow pose survives a restore.
    last_slow_pose: Option<PoseEstimate>,
}

impl ClientSession {
    /// Builds the client for session `id`. Nothing runs until
    /// [`ClientSession::connect`].
    pub fn new(id: u32, config: SessionConfig, clock: Arc<dyn Clock>) -> Self {
        Self::with_obs(
            id,
            config,
            clock,
            illixr_core::obs::Tracer::disabled(),
            illixr_core::obs::Metrics::disabled(),
        )
    }

    /// Builds the client with an observability sink: its switchboard,
    /// warp and MTP instrumentation record through `tracer`/`metrics`.
    /// Pass a tracer scoped per session (`tracer.scoped("s3/")`) so
    /// track names and flow ids stay distinguishable across sessions.
    pub(crate) fn with_obs(
        id: u32,
        config: SessionConfig,
        clock: Arc<dyn Clock>,
        tracer: illixr_core::obs::Tracer,
        metrics: illixr_core::obs::Metrics,
    ) -> Self {
        let (trajectory, camera, imu, integrator) = Self::sensor_pipeline(config.seed, &config);
        Self {
            id,
            config,
            state: SessionState::Pending,
            telemetry: SessionTelemetry::default(),
            camera,
            imu,
            integrator,
            trajectory,
            ctx: RuntimeBuilder::new(clock).with_obs(tracer, metrics).build(),
            camera_reader: None,
            imu_reader: None,
            slow_pose_writer: None,
            fast_pose: None,
            mtp: MtpCalculator::new(Duration::from_secs_f64(1.0 / config.display_hz)),
            imu_window: Vec::new(),
            latest_token: None,
            displayed_seq: None,
            request_seq: 0,
            vsync_index: 0,
            imu_iterations: 0,
            last_slow_pose: None,
        }
    }

    /// The client's sensing side as a function of `seed`: ground-truth
    /// trajectory, the camera and IMU that sample it, and the integrator
    /// anchored on it at connect time.
    fn sensor_pipeline(
        seed: u64,
        config: &SessionConfig,
    ) -> (Trajectory, SyntheticCameraPlugin, SyntheticImuPlugin, ImuIntegratorPlugin) {
        let trajectory = Trajectory::walking(seed);
        let world = Arc::new(LandmarkWorld::lab(seed));
        let rig = StereoRig::zed_mini(PinholeCamera::qvga());
        let camera = SyntheticCameraPlugin::new(trajectory.clone(), world, rig);
        let imu =
            SyntheticImuPlugin::new(trajectory.clone(), ImuNoise::default(), config.imu_hz, seed);
        let integrator = ImuIntegratorPlugin::new(ImuState::from_pose(
            config.connect_at,
            trajectory.pose(config.connect_at),
            trajectory.velocity(config.connect_at),
        ));
        (trajectory, camera, imu, integrator)
    }

    /// Injects faults into this session's sensor pipeline: the camera
    /// and IMU plugins consult `plan` (targets `"camera"` / `"imu"`).
    /// Call before [`ClientSession::connect`].
    pub(crate) fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.ctx.fault = plan;
        self
    }

    /// Attaches a determinism boundary. A recording boundary captures
    /// this session's sensor inputs; a replaying one feeds them back —
    /// in which case the trajectory, world and sensor plugins are
    /// rebuilt from the *trace header's* seed so replayed frames and
    /// ground truth match the recorded session, not this session's
    /// config seed. Call before [`ClientSession::connect`].
    pub(crate) fn with_boundary(mut self, boundary: Boundary) -> Self {
        if let Some(src) = boundary.source() {
            (self.trajectory, self.camera, self.imu, self.integrator) =
                Self::sensor_pipeline(src.header().seed, &self.config);
        }
        self.ctx.boundary = Arc::new(boundary);
        self
    }

    /// The session's ground-truth trajectory (the server's ideal-VIO
    /// mode and final-error accounting read it).
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// Camera period in IMU steps: frames land exactly on IMU sample
    /// times so every frame arrives already covered by inertial data.
    /// Degraded sessions run the camera at half rate.
    pub(crate) fn camera_steps(&self) -> u64 {
        let steps = (self.config.imu_hz / self.config.camera_hz).round().max(1.0) as u64;
        if self.state == SessionState::Degraded {
            steps * 2
        } else {
            steps
        }
    }

    /// Attaches the session at `now`: starts the client plugins,
    /// fast-forwards the IMU model so its sample times align with the
    /// shared clock (the model emits on its own 1/rate grid from t=0),
    /// and only then subscribes the pipeline readers — late joiners must
    /// not see a backlog of pre-connect samples.
    ///
    /// Returns the IMU step index of the first live sample; the server
    /// schedules ticks from there.
    pub fn connect(&mut self, now: Time, degraded: bool) -> u64 {
        self.camera.start(&self.ctx);
        self.imu.start(&self.ctx);
        // Burn pre-connect samples while nothing is subscribed.
        let first_step = (now.as_secs_f64() * self.config.imu_hz).round() as u64;
        for _ in 0..first_step {
            self.imu.iterate(&self.ctx);
        }
        self.imu_iterations = first_step;
        self.integrator.start(&self.ctx);
        self.subscribe();
        self.state = if degraded { SessionState::Degraded } else { SessionState::Running };
        first_step
    }

    /// Subscribes the pipeline taps. Runs only after the IMU model's
    /// pre-connect (or pre-snapshot) samples were burned, so a late
    /// joiner never sees their backlog.
    fn subscribe(&mut self) {
        let sb = &self.ctx.switchboard;
        self.camera_reader =
            Some(sb.topic::<CameraFrame>(streams::CAMERA).expect("stream").sync_reader(8));
        self.imu_reader =
            Some(sb.topic::<ImuSample>(streams::IMU).expect("stream").sync_reader(2048));
        self.slow_pose_writer =
            Some(sb.topic::<PoseEstimate>(streams::SLOW_POSE).expect("stream").writer());
        self.fast_pose =
            Some(sb.topic::<PoseEstimate>(streams::FAST_POSE).expect("stream").async_reader());
    }

    /// One IMU tick: emit the next sample and let the integrator
    /// re-propagate the fast pose.
    pub fn on_imu_due(&mut self) {
        self.imu_iterations += 1;
        self.imu.iterate(&self.ctx);
        self.integrator.iterate(&self.ctx);
        let reader = self.imu_reader.as_ref().expect("connect() must run first");
        for s in reader.drain_iter() {
            self.imu_window.push(s.data);
        }
    }

    /// One camera tick: take the (unrendered) frame for the current clock
    /// time and package it with the accumulated IMU window as an offload
    /// job.
    /// `None` when no frame was published this tick — a recorded camera
    /// drop during replay, or a replayed frame not yet due under the
    /// session's transform; the IMU window keeps accumulating.
    pub fn on_camera_due(&mut self) -> Option<VioJob> {
        self.camera.iterate(&self.ctx);
        let reader = self.camera_reader.as_ref().expect("connect() must run first");
        // Newest wins if a replaying camera caught up several frames.
        let frame = reader.drain_iter().last()?.data.clone();
        // The filled window ships in the job as an exact-size, shared,
        // zero-copy payload; the next window starts empty.
        let imu = std::mem::take(&mut self.imu_window).into();
        self.telemetry.vio_jobs += 1;
        Some(VioJob { session: self.id, frame, imu })
    }

    /// A server pose estimate arrived over the downlink: feed it back
    /// into the client pipeline as the slow pose (the integrator
    /// re-anchors on it at the next IMU tick).
    pub fn on_pose_delivered(&mut self, pose: PoseEstimate) {
        self.telemetry.poses_received += 1;
        self.last_slow_pose = Some(pose);
        self.slow_pose_writer.as_ref().expect("connect() must run first").put(pose);
    }

    /// A cloud-rendered frame arrived. Newest wins; an out-of-order
    /// older token is dropped. The arrival time (read off the shared
    /// clock) feeds the queue stage of the MTP decomposition.
    pub fn on_token_delivered(&mut self, token: RenderToken) {
        self.telemetry.tokens_received += 1;
        if self.latest_token.is_none_or(|(t, _)| token.seq > t.seq) {
            self.latest_token = Some((token, self.ctx.clock.now()));
        }
    }

    /// One vsync: display the newest undisplayed token (warping it for
    /// `warp_cost`) or record a dropped frame, then issue the next
    /// render request stamped with the freshest local pose. Degraded
    /// sessions request on every other vsync.
    pub fn on_vsync(&mut self, now: Time, warp_cost: Duration) -> Option<RenderRequest> {
        match self.latest_token {
            Some((token, arrived)) if self.displayed_seq.is_none_or(|d| token.seq > d) => {
                self.displayed_seq = Some(token.seq);
                let sample = self.mtp.sample(token.pose_timestamp, now, now + warp_cost);
                self.telemetry.mtp_ns.push(sample.total().as_nanos() as u64);
                let pose = self
                    .latest_fast_pose()
                    .map(|p| p.pose)
                    .unwrap_or_else(|| self.trajectory.pose(now));
                self.telemetry.displayed_frames.push(DisplayedFrame { time: now, pose });
                self.telemetry.frames_displayed += 1;
                self.record_frame_obs(&token, arrived, now, &sample);
            }
            _ => self.telemetry.frames_dropped += 1,
        }
        self.vsync_index += 1;
        if self.state == SessionState::Degraded && self.vsync_index.is_multiple_of(2) {
            return None;
        }
        let pose_timestamp = self
            .fast_pose
            .as_ref()
            .expect("connect() must run first")
            .latest()
            .map(|p| p.timestamp)
            .unwrap_or(self.config.connect_at);
        let seq = self.request_seq;
        self.request_seq += 1;
        self.telemetry.requests_sent += 1;
        Some(RenderRequest { session: self.id, seq, pose_timestamp, requested_at: now })
    }

    /// Records the displayed frame's warp span and its exact MTP stage
    /// decomposition. The stages partition the sample's total:
    /// `sense` (pose age when the request left) + `round_trip` (request
    /// → token arrival) + `queue` (arrival → vsync) reconstruct the
    /// sample's `imu_age` term, and `reprojection`/`swap` are the
    /// sample's own; so `mtp.sense + mtp.round_trip + mtp.queue +
    /// mtp.warp + mtp.swap == mtp.total` frame by frame.
    fn record_frame_obs(
        &self,
        token: &RenderToken,
        arrived: Time,
        now: Time,
        sample: &illixr_qoe::mtp::MtpSample,
    ) {
        let tracer = &self.ctx.tracer;
        if tracer.is_enabled() {
            tracer.record_span_args(
                "warp",
                "warp",
                now.as_nanos(),
                (now + sample.reprojection).as_nanos(),
                &[("token_seq", format!("{}", token.seq))],
            );
        }
        let metrics = &self.ctx.metrics;
        if metrics.is_enabled() {
            let sense =
                token.requested_at.as_nanos().saturating_sub(token.pose_timestamp.as_nanos());
            let round_trip = arrived.as_nanos().saturating_sub(token.requested_at.as_nanos());
            let queue = now.as_nanos().saturating_sub(arrived.as_nanos());
            metrics.record_ns("mtp.sense", sense);
            metrics.record_ns("mtp.round_trip", round_trip);
            metrics.record_ns("mtp.queue", queue);
            metrics.record_ns("mtp.warp", sample.reprojection.as_nanos() as u64);
            metrics.record_ns("mtp.swap", sample.swap.as_nanos() as u64);
            metrics.record_ns("mtp.total", sample.total().as_nanos() as u64);
        }
    }

    /// Detaches the session.
    pub(crate) fn disconnect(&mut self) {
        self.camera.stop();
        self.imu.stop();
        self.integrator.stop();
        self.state = SessionState::Disconnected;
    }

    /// The freshest local pose estimate, if any.
    pub(crate) fn latest_fast_pose(&self) -> Option<PoseEstimate> {
        self.fast_pose.as_ref().and_then(|r| r.latest()).map(|p| **p)
    }

    /// Translation error of the freshest fast pose against ground
    /// truth, meters.
    pub(crate) fn pose_error(&self) -> Option<f64> {
        self.latest_fast_pose()
            .map(|p| p.pose.translation_distance(&self.trajectory.pose(p.timestamp)))
    }

    /// End-of-run switchboard counters for this session's streams.
    pub(crate) fn stream_stats(&self) -> Vec<TopicStats> {
        self.ctx.switchboard.stats()
    }

    /// Exports this session's per-topic switchboard counters as
    /// `topic.s{id}/{stream}.*` gauges (no-op when metrics are
    /// disabled).
    pub(crate) fn export_topic_gauges(&self) {
        illixr_core::obs::export_topic_gauges(
            &self.ctx.switchboard,
            &self.ctx.metrics,
            &format!("s{}/", self.id),
        );
    }

    /// Freezes the session into a deterministic
    /// [`SessionSnapshot`](crate::snapshot::SessionSnapshot):
    /// state-machine fields, plugin internals and telemetry, everything
    /// a `ClientSession::restore` needs to resume bit-identically.
    /// Only meaningful for attached (Running/Degraded) sessions.
    pub fn snapshot(&self) -> crate::snapshot::SessionSnapshot {
        let (integrator_state, integrator_history, anchor_timestamp) =
            self.integrator.snapshot_parts();
        crate::snapshot::SessionSnapshot {
            degraded: self.state == SessionState::Degraded,
            imu_iterations: self.imu_iterations,
            camera_seq: self.camera.seq(),
            last_cam: self.camera.last_frame_info(),
            integrator_state,
            integrator_history,
            anchor_timestamp,
            imu_window: self.imu_window.clone(),
            // Peek (not `latest()`): a checkpoint must not emit flow
            // events or consume the reader's once-per-event marker, or
            // arming checkpoints would perturb the live trace.
            fast_pose: self.fast_pose.as_ref().and_then(|r| r.peek_latest()).map(|p| **p),
            last_slow_pose: self.last_slow_pose,
            latest_token: self.latest_token,
            displayed_seq: self.displayed_seq,
            request_seq: self.request_seq,
            vsync_index: self.vsync_index,
            telemetry: self.telemetry.clone(),
        }
    }

    /// Rebuilds a session from a snapshot, on a fresh private
    /// [`illixr_core::SimClock`] (returned so the caller can drive
    /// catch-up replay through it before handing the session the live
    /// lane runtime via `adopt_runtime`).
    ///
    /// The reconstruction retraces [`ClientSession::connect`]'s start
    /// order exactly — plugins start, the IMU model fast-forwards by
    /// the snapshotted iteration count *before* any reader subscribes,
    /// the integrator's internals are restored before its `start` (which
    /// only subscribes, never publishes) — then re-seeds the pose topics
    /// from the snapshotted latest values and restores the plain state
    /// fields. Observability is disabled during restore and replay so
    /// re-applied events never double-record into live histograms.
    pub(crate) fn restore(
        id: u32,
        config: SessionConfig,
        snap: &crate::snapshot::SessionSnapshot,
        fault: Arc<FaultPlan>,
    ) -> (Self, illixr_core::SimClock) {
        let temp_clock = illixr_core::SimClock::new();
        let mut s = Self::new(id, config, Arc::new(temp_clock.clone()));
        s.ctx.fault = fault;
        s.camera.start(&s.ctx);
        s.imu.start(&s.ctx);
        // Fast-forward the IMU model with nothing subscribed: the
        // model's RNG stream advances exactly as many draws as the
        // snapshotted session had taken.
        for _ in 0..snap.imu_iterations {
            s.imu.iterate(&s.ctx);
        }
        s.imu_iterations = snap.imu_iterations;
        s.integrator.restore_parts(
            snap.integrator_state,
            snap.integrator_history.clone(),
            snap.anchor_timestamp,
        );
        s.integrator.start(&s.ctx);
        s.subscribe();
        let sb = &s.ctx.switchboard;
        s.camera.restore_state(snap.camera_seq, snap.last_cam);
        // Re-seed the pose topics. The fast pose is what vsyncs stamp
        // requests with; the slow pose covers an estimate delivered but
        // not yet anchored (re-anchoring an already-anchored estimate
        // is a no-op thanks to the integrator's timestamp guard).
        if let Some(fp) = snap.fast_pose {
            sb.topic::<PoseEstimate>(streams::FAST_POSE).expect("stream").writer().put(fp);
        }
        if let Some(sp) = snap.last_slow_pose {
            s.slow_pose_writer.as_ref().expect("just set").put(sp);
        }
        s.state = if snap.degraded { SessionState::Degraded } else { SessionState::Running };
        s.telemetry = snap.telemetry.clone();
        s.imu_window = snap.imu_window.clone();
        s.latest_token = snap.latest_token;
        s.displayed_seq = snap.displayed_seq;
        s.request_seq = snap.request_seq;
        s.vsync_index = snap.vsync_index;
        s.last_slow_pose = snap.last_slow_pose;
        (s, temp_clock)
    }

    /// Swaps the session onto the live lane runtime after catch-up
    /// replay: the shared clock plus the lane's tracer and metrics.
    /// Every plugin reads these through the context by reference, so
    /// the swap takes effect at the next event.
    pub(crate) fn adopt_runtime(
        &mut self,
        clock: Arc<dyn Clock>,
        tracer: illixr_core::obs::Tracer,
        metrics: illixr_core::obs::Metrics,
    ) {
        self.ctx.clock = clock;
        self.ctx.tracer = tracer;
        self.ctx.metrics = metrics;
    }

    /// Marks the session quarantined (its fault domain crashed and no
    /// recovery is in flight).
    pub(crate) fn quarantine(&mut self) {
        self.state = SessionState::Quarantined;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_core::SimClock;

    fn session_at(connect: Time) -> (ClientSession, SimClock) {
        let clock = SimClock::new();
        let mut config = SessionConfig::new(7);
        config.connect_at = connect;
        let session = ClientSession::new(0, config, Arc::new(clock.clone()));
        (session, clock)
    }

    #[test]
    fn imu_fast_forward_aligns_timestamps_with_the_clock() {
        let connect = Time::from_millis(500);
        let (mut s, clock) = session_at(connect);
        clock.advance_to(connect);
        let first_step = s.connect(connect, false);
        assert_eq!(first_step, 250, "500 ms at 500 Hz");
        s.on_imu_due();
        let sample = s.imu_window.last().expect("tick emits a sample");
        assert_eq!(sample.timestamp, Time::from_secs_f64(250.0 / 500.0));
    }

    #[test]
    fn camera_tick_packages_the_imu_window() {
        let (mut s, clock) = session_at(Time::ZERO);
        s.connect(Time::ZERO, false);
        for k in 0..=33 {
            clock.advance_to(Time::from_secs_f64(k as f64 / 500.0));
            s.on_imu_due();
        }
        let job = s.on_camera_due().expect("live camera publishes every tick");
        assert_eq!(job.imu.len(), 34);
        assert_eq!(job.frame.timestamp, Time::from_secs_f64(33.0 / 500.0));
        // The window covers the frame: last IMU sample is at frame time.
        assert_eq!(job.imu.last().unwrap().timestamp, job.frame.timestamp);
        // The window does not carry over.
        assert!(s.imu_window.is_empty());
    }

    #[test]
    fn a_shipped_window_belongs_to_its_job() {
        let (mut s, clock) = session_at(Time::ZERO);
        s.connect(Time::ZERO, false);
        let imu_ticks = |s: &mut ClientSession, steps: std::ops::Range<u32>| {
            for k in steps {
                clock.advance_to(Time::from_secs_f64(k as f64 / 500.0));
                s.on_imu_due();
            }
        };
        imu_ticks(&mut s, 0..34);
        s.on_camera_due().expect("first frame");
        imu_ticks(&mut s, 34..67);
        let job = s.on_camera_due().expect("second frame");
        // The job owns its window outright, holding exactly the ticks
        // since the previous frame; the session keeps no buffer behind.
        assert_eq!(Arc::strong_count(&job.imu), 1);
        assert_eq!(job.imu.len(), 33);
        assert!(s.imu_window.is_empty());
        assert_eq!(s.imu_window.capacity(), 0);
        // A window part-filled at a checkpoint survives a restore.
        imu_ticks(&mut s, 67..71);
        let snap = s.snapshot();
        assert_eq!(snap.imu_window.len(), 4);
        let fault = Arc::new(illixr_core::fault::FaultPlan::quiet());
        let (restored, _clock) = ClientSession::restore(1, s.config, &snap, fault);
        assert_eq!(restored.imu_window, snap.imu_window);
    }

    #[test]
    fn vsync_without_token_drops_and_with_token_displays_once() {
        let (mut s, clock) = session_at(Time::ZERO);
        s.connect(Time::ZERO, false);
        let vsync = Time::from_secs_f64(1.0 / 120.0);
        clock.advance_to(vsync);
        s.on_vsync(vsync, Duration::from_millis(1));
        assert_eq!(s.telemetry.frames_dropped, 1);
        s.on_token_delivered(RenderToken {
            seq: 0,
            pose_timestamp: Time::ZERO,
            requested_at: Time::ZERO,
        });
        let v2 = Time::from_secs_f64(2.0 / 120.0);
        s.on_vsync(v2, Duration::from_millis(1));
        assert_eq!(s.telemetry.frames_displayed, 1);
        // Same token again: stale, counts as a drop.
        s.on_vsync(Time::from_secs_f64(3.0 / 120.0), Duration::from_millis(1));
        assert_eq!(s.telemetry.frames_dropped, 2);
        let mtp = Duration::from_nanos(s.telemetry.mtp_ns[0]);
        // Pose from t=0 displayed after v2 + 1 ms warp + swap.
        assert!(mtp >= v2 - Time::ZERO, "mtp {mtp:?}");
    }

    #[test]
    fn degraded_session_requests_every_other_vsync() {
        let (mut s, _clock) = session_at(Time::ZERO);
        s.connect(Time::ZERO, true);
        assert_eq!(s.state, SessionState::Degraded);
        let mut requests = 0;
        for k in 0..8 {
            let t = Time::from_secs_f64(k as f64 / 120.0);
            if s.on_vsync(t, Duration::from_millis(1)).is_some() {
                requests += 1;
            }
        }
        assert_eq!(requests, 4);
        // Degraded camera runs at half rate: twice the IMU steps.
        assert_eq!(s.camera_steps(), 66);
    }

    #[test]
    fn telemetry_percentiles() {
        let t = SessionTelemetry {
            mtp_ns: (1..=100u64).map(|k| k * 1_000_000).collect(),
            frames_displayed: 100,
            frames_dropped: 25,
            ..SessionTelemetry::default()
        };
        assert_eq!(t.p99_mtp(), Duration::from_millis(99));
        assert_eq!(t.mean_mtp(), Duration::from_nanos(50_500_000));
    }
}
