//! The four workloads: how a seed becomes inputs, how one repetition
//! runs, and what it must produce to count as correct.
//!
//! Every workload is a closed batch — one simulation run of a stated
//! size on one thread (`workers(1)`). The programs under test receive
//! only the configs generated here; they never see the seed's origin
//! or the workload's name.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use illixr_core::fault::{FaultKind, FaultPlan, FaultWindow};
use illixr_core::link::LinkProfile;
use illixr_core::obs::{chrome_trace_json, metrics_csv};
use illixr_core::{SimClock, Time};
use illixr_platform::spec::Platform;
use illixr_render::apps::Application;
use illixr_server::{
    AdmissionConfig, ClientSession, FailoverConfig, FailoverPolicy, LinkConfig, PlacementPolicy,
    ReplayLoad, SchedulerConfig, ServerBuilder, ServerReport, SessionConfig, SessionSnapshot,
};
use illixr_system::experiment::{ExperimentConfig, ExperimentResult, IntegratedExperiment};
use illixr_trace::{Checkpoint, Trace};

use crate::stats::{fnv1a, splitmix};

/// Seed used when none is given; the committed `expected/*.digest`
/// files are the digests of this seed.
pub const DEFAULT_SEED: u64 = 11;

/// Display rate every workload runs at (paper Table III).
const DISPLAY_HZ: f64 = 120.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EdgeFleet,
    EdgeThin,
    DevicePipeline,
    FaultReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::EdgeFleet, Workload::EdgeThin, Workload::DevicePipeline, Workload::FaultReplay];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeFleet => "edge_fleet",
            Workload::EdgeThin => "edge_thin",
            Workload::DevicePipeline => "device_pipeline",
            Workload::FaultReplay => "fault_replay",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::EdgeFleet => {
                "128 full-rate sessions on the edge pool: the multi-user case as users run it; \
                 about four fifths of host time is illixr-sensors camera rendering"
            }
            Workload::EdgeThin => {
                "500 sparse-keyframe sessions on the same server: engine, switchboard, rings, \
                 link and IMU path dominate, so a sensors gain that costs the engine shows"
            }
            Workload::DevicePipeline => {
                "the paper's single-user integrated run with extended components: all host time \
                 is in the real kernels under SimEngine; illixr-server does nothing"
            }
            Workload::FaultReplay => {
                "failover, record, byte-identical replay and traced fan-out: the only workload \
                 where trace, snapshot, fault, supervisor and obs code does its work"
            }
        }
    }

    /// Generates the workload's inputs from `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::EdgeFleet => Inputs::Fleet(edge_fleet_builder(seed)),
            Workload::EdgeThin => Inputs::Fleet(edge_thin_builder(seed)),
            Workload::DevicePipeline => Inputs::Device(device_config(seed)),
            Workload::FaultReplay => Inputs::Fault(seed),
        }
    }
}

/// Generated inputs of one workload: everything a repetition needs,
/// so repetitions of one run are the identical configuration.
#[derive(Debug, Clone)]
pub enum Inputs {
    Fleet(ServerBuilder),
    Device(ExperimentConfig),
    Fault(u64),
}

impl Inputs {
    /// Runs one repetition and checks what it produced.
    pub fn rep(&self) -> Rep {
        match self {
            Inputs::Fleet(builder) => fleet_rep(builder.clone()),
            Inputs::Device(config) => device_rep(config),
            Inputs::Fault(seed) => fault_rep(*seed),
        }
    }
}

/// What one repetition simulated. Host time is measured by the caller,
/// around [`Inputs::rep`]; nothing in here is host time.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Simulated seconds covered (phases summed).
    pub sim_s: f64,
    /// Switchboard publishes + link transfers + pool jobs.
    pub ops: u64,
    /// Motion-to-photon of every displayed frame, simulated ns.
    pub mtp_ns: Vec<u64>,
    /// Vsyncs attempted, counting every vsync of a session that was
    /// rejected, quarantined or lost.
    pub vsyncs: u64,
    /// Vsyncs that showed a fresh frame.
    pub displayed: u64,
    /// FNV-1a over every deterministic artifact of the repetition.
    pub digest: u64,
    /// One line per failed correctness check.
    pub failures: Vec<String>,
    /// How often each timed entry point ran, for the residual estimate.
    pub calls: Calls,
}

/// Call counts of one repetition, by the layer entry point that the
/// traced run prices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calls {
    pub connects: u64,
    pub imu_ticks: u64,
    pub camera_frames: u64,
    pub vsyncs: u64,
    pub poses: u64,
    pub tokens: u64,
    pub link_transfers: u64,
    pub pool_jobs: u64,
}

impl Rep {
    fn absorb(&mut self, other: Rep) {
        self.sim_s += other.sim_s;
        self.ops += other.ops;
        self.mtp_ns.extend(other.mtp_ns);
        self.vsyncs += other.vsyncs;
        self.displayed += other.displayed;
        self.digest = fnv1a(&[self.digest.to_le_bytes(), other.digest.to_le_bytes()].concat());
        self.failures.extend(other.failures);
        let (a, b) = (&mut self.calls, other.calls);
        a.connects += b.connects;
        a.imu_ticks += b.imu_ticks;
        a.camera_frames += b.camera_frames;
        a.vsyncs += b.vsyncs;
        a.poses += b.poses;
        a.tokens += b.tokens;
        a.link_transfers += b.link_transfers;
        a.pool_jobs += b.pool_jobs;
    }

    /// Share of attempted vsyncs that showed nothing new.
    pub fn frame_miss_rate(&self) -> f64 {
        if self.vsyncs == 0 {
            0.0
        } else {
            self.vsyncs.saturating_sub(self.displayed) as f64 / self.vsyncs as f64
        }
    }
}

// --- Edge fleets ---------------------------------------------------------

/// Simulated length of one `edge_fleet` repetition. The issue sized
/// fleets at 2 sim-s; the run-time cap of the benchmark contract leaves
/// room for 0.5 (7 camera frames a session), and session counts were
/// kept instead of duration.
const FLEET_DURATION: Duration = Duration::from_millis(500);

/// `edge_thin` runs 500 sessions for 1 sim-s where the issue sized
/// 1 000 for 2: a repetition of 1 000 takes 3.5 s and touches 683 MiB,
/// which left three repetitions a run and the widest run-to-run spread
/// of the four workloads. Keyframes are at 1.5 Hz: every session sends
/// exactly one camera frame a repetition, at t = 0.667 s, and none at
/// the closing instant (the engine runs events at t = end, so 1 Hz or
/// 2 Hz would render a second frame that nothing consumes). The job,
/// pool and pose path is exercised and camera rendering stays a
/// minority share, as the issue sized it.
const THIN_SESSIONS: usize = 500;
const THIN_DURATION: Duration = Duration::from_secs(1);
const THIN_CAMERA_HZ: f64 = 1.5;

/// `scaling_sessions`' edge-pool profile: 30/100 Gbit/s ingress, a
/// 32-worker pool at 0.5 ms per update, 1 ms ticks, deadline-aware
/// trimming at 30 ms, 32 engine shards, synthetic poses. The seed picks
/// every session's trajectory and world.
fn fleet_builder(seed: u64, sessions: usize, duration: Duration, camera_hz: f64) -> ServerBuilder {
    ServerBuilder::new()
        .sessions(sessions)
        .duration(duration)
        .shards(32)
        .workers(1)
        .link(LinkConfig {
            uplink_bps: 30e9,
            downlink_bps: 100e9,
            base_latency: Duration::from_millis(2),
            jitter_sigma: 0.0,
            seed: 0,
        })
        .scheduler(SchedulerConfig {
            workers: 32,
            batch_setup: Duration::from_millis(2),
            per_job: Duration::from_micros(500),
            placement: PlacementPolicy::DeadlineAware { deadline: Duration::from_millis(30) },
        })
        .tune(|c| {
            c.server_tick = Duration::from_millis(1);
            for (i, s) in c.sessions.iter_mut().enumerate() {
                *s = SessionConfig { camera_hz, ..SessionConfig::new(splitmix(seed, i as u64)) };
            }
        })
}

/// `edge_fleet`: 128 sessions at paper Table III rates.
pub fn edge_fleet_builder(seed: u64) -> ServerBuilder {
    fleet_builder(seed, 128, FLEET_DURATION, 15.0)
}

/// `edge_thin`: 500 sparse-keyframe sessions.
pub fn edge_thin_builder(seed: u64) -> ServerBuilder {
    fleet_builder(seed, THIN_SESSIONS, THIN_DURATION, THIN_CAMERA_HZ)
}

fn fleet_rep(builder: ServerBuilder) -> Rep {
    let report = builder.build().run();
    let mut rep = server_rep(&report);
    // Quiet plan, nobody rejected mid-run: every admitted session's
    // vsyncs are either displayed or dropped, none unaccounted.
    conserve_vsyncs(&report, &mut rep);
    rep
}

/// Vsyncs one healthy session attempts in `duration`.
fn expected_vsyncs(duration: Duration) -> u64 {
    (duration.as_secs_f64() * DISPLAY_HZ).ceil() as u64
}

/// Folds a server report into a [`Rep`]: counts, pooled MTP and the
/// digest of `summary_text()`.
pub fn server_rep(report: &ServerReport) -> Rep {
    let mut rep = Rep { sim_s: report.duration.as_secs_f64(), ..Rep::default() };
    let per_session = expected_vsyncs(report.duration);
    for s in report.sessions() {
        let t = s.telemetry();
        rep.mtp_ns.extend_from_slice(&t.mtp_ns);
        rep.displayed += t.frames_displayed;
        rep.vsyncs += per_session.max(t.frames_displayed + t.frames_dropped);
        rep.ops += s.stream_stats().iter().map(|t| t.seq).sum::<u64>();
        rep.calls.imu_ticks +=
            s.stream_stats().iter().find(|t| t.name == "imu").map_or(0, |t| t.seq);
        rep.calls.camera_frames += t.vio_jobs;
        rep.calls.vsyncs += t.frames_displayed + t.frames_dropped;
        rep.calls.poses += t.poses_received;
        rep.calls.tokens += t.tokens_received;
    }
    rep.calls.connects = report.admitted() as u64;
    rep.calls.link_transfers = report.uplink.transfers + report.downlink.transfers;
    rep.calls.pool_jobs = report.scheduler.jobs;
    rep.ops += rep.calls.link_transfers + rep.calls.pool_jobs;
    rep.digest = fnv1a(report.summary_text().as_bytes());
    rep
}

fn conserve_vsyncs(report: &ServerReport, rep: &mut Rep) {
    let per_session = expected_vsyncs(report.duration);
    for s in report.sessions() {
        let t = s.telemetry();
        let seen = t.frames_displayed + t.frames_dropped;
        if seen != 0 && seen != per_session {
            rep.failures.push(format!(
                "session {}: displayed {} + dropped {} != {per_session} vsyncs",
                s.id(),
                t.frames_displayed,
                t.frames_dropped
            ));
        }
    }
}

// --- Device pipeline -------------------------------------------------------

/// One simulated second: 120 display frames, so p90 has 12 beyond it.
const DEVICE_DURATION: Duration = Duration::from_secs(1);

pub fn device_config(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper(Application::Platformer, Platform::Desktop)
        .with_extended_components()
        .with_seed(seed);
    config.duration = DEVICE_DURATION;
    config
}

fn device_rep(config: &ExperimentConfig) -> Rep {
    let result = IntegratedExperiment::run(config);
    let mut rep = Rep {
        sim_s: result.duration.as_secs_f64(),
        ops: result.stream_stats.iter().map(|t| t.seq).sum(),
        mtp_ns: result.mtp.iter().map(|s| s.total().as_nanos() as u64).collect(),
        vsyncs: expected_vsyncs(result.duration),
        digest: fnv1a(device_text(&result).as_bytes()),
        ..Rep::default()
    };
    rep.displayed = rep.mtp_ns.len() as u64;
    rep.vsyncs = rep.vsyncs.max(rep.displayed);
    rep
}

/// The deterministic text of a device run: every MTP sample, every
/// component's counters, every stream's publish count.
pub fn device_text(result: &ExperimentResult) -> String {
    let mut out = String::new();
    for s in &result.mtp {
        let _ = writeln!(
            out,
            "mtp vsync={} age={} warp={} swap={}",
            s.display_vsync.as_nanos(),
            s.imu_age.as_nanos(),
            s.reprojection.as_nanos(),
            s.swap.as_nanos()
        );
    }
    for name in device_components(result) {
        let c = result.stats(&name).expect("listed component has stats");
        let _ = writeln!(
            out,
            "component {name} n={} drops={} misses={} mean={} cpu={}",
            c.invocations,
            c.drops,
            c.deadline_misses,
            c.mean_execution.as_nanos(),
            c.total_cpu.as_nanos()
        );
    }
    for t in &result.stream_stats {
        let _ = writeln!(out, "stream {} seq={} dropped={}", t.name, t.seq, t.dropped);
    }
    let _ = writeln!(out, "cpu={:.9} gpu={:.9}", result.cpu_util, result.gpu_util);
    out
}

/// Components of an extended integrated run, in a fixed order.
pub const DEVICE_COMPONENTS: [&str; 10] = [
    "camera",
    "imu",
    "vio",
    "imu_integrator",
    "application",
    "timewarp",
    "audio_encoding",
    "audio_playback",
    "eye_tracking",
    "scene_reconstruction",
];

fn device_components(result: &ExperimentResult) -> Vec<String> {
    DEVICE_COMPONENTS.iter().filter(|c| result.stats(c).is_some()).map(|c| c.to_string()).collect()
}

/// Runs the device workload once and returns the full result, for the
/// traced run's per-component call counts.
pub fn device_result(seed: u64) -> ExperimentResult {
    IntegratedExperiment::run(&device_config(seed))
}

// --- Fault / replay --------------------------------------------------------

const FAILOVER_SESSIONS: usize = 32;
const FAILOVER_SHARDS: usize = 8;
const FAILOVER_DURATION: Duration = Duration::from_millis(600);
const CRASHED_SHARDS: [usize; 2] = [1, 2];
const CRASHES_PER_SHARD: u32 = 3;
const FIRST_CRASH: Duration = Duration::from_millis(150);
const CRASH_SPACING: Duration = Duration::from_millis(120);
const CHECKPOINT_EVERY: Duration = Duration::from_millis(100);
const RECORD_DURATION: Duration = Duration::from_secs(1);
/// The recorded session's fault schedule is the same on every seed:
/// which windows `FaultPlan::scheduled` draws decides how many camera
/// frames reach VIO in phases (b) to (d), and host time per simulated
/// second moved by a quarter between schedules. The seed still picks
/// the trajectory, the world, the link jitter and the fan-out phases.
const FAULT_SCHEDULE_SEED: u64 = DEFAULT_SEED;
const FAN_OUT_SESSIONS: usize = 8;

/// Phase (a): `failover_sweep`'s catch-up cell — 32 sessions on 8
/// shards, two shards crashed three times each, checkpoint + catch-up
/// recovery. `armed == false` is the same fleet under a quiet plan
/// with failover left at its default, the baseline of the paired rep.
pub fn failover_builder(seed: u64, armed: bool) -> ServerBuilder {
    let builder = ServerBuilder::new()
        .sessions(FAILOVER_SESSIONS)
        .duration(FAILOVER_DURATION)
        .shards(FAILOVER_SHARDS)
        .workers(1)
        .link(LinkConfig::from_profile(LinkProfile::lan(), seed))
        .admission(AdmissionConfig {
            degrade_threshold: f64::INFINITY,
            reject_threshold: f64::INFINITY,
        })
        .tune(|c| {
            for (i, s) in c.sessions.iter_mut().enumerate() {
                *s = SessionConfig::new(splitmix(seed, i as u64));
            }
        });
    if !armed {
        return builder;
    }
    let mut plan = FaultPlan::new(seed);
    for (i, shard) in CRASHED_SHARDS.iter().enumerate() {
        for k in 0..CRASHES_PER_SHARD {
            let at = (FIRST_CRASH + CRASH_SPACING * k + Duration::from_millis(30) * i as u32)
                .as_nanos() as u64;
            plan = plan.with_window(FaultWindow::new(
                FaultKind::WorkerCrash,
                &format!("shard/{shard}"),
                at,
                at + 1,
                1.0,
            ));
        }
    }
    builder.fault_plan(plan).failover(FailoverConfig {
        policy: FailoverPolicy::CheckpointCatchup,
        checkpoint_every: Some(CHECKPOINT_EVERY),
        ..FailoverConfig::default()
    })
}

/// Phases (b) and (c): one `real_vio` session under the scheduled fault
/// plan of [`FAULT_SCHEDULE_SEED`], boundary recorded and obs on. With `replay`, the same run fed
/// from the recording instead of live generators.
pub fn record_builder(seed: u64, replay: Option<Arc<Trace>>) -> ServerBuilder {
    let builder = ServerBuilder::new()
        .sessions(1)
        .configure_session(0, |s| s.seed = splitmix(seed, 0))
        .duration(RECORD_DURATION)
        .workers(1)
        .real_vio(true)
        .fault_plan(FaultPlan::scheduled(
            FAULT_SCHEDULE_SEED,
            0.5,
            RECORD_DURATION.as_nanos() as u64,
        ))
        .record_boundary(true)
        .trace(true);
    match replay {
        Some(trace) => builder.replay(ReplayLoad::identity(trace)),
        None => builder,
    }
}

/// Phase (d): the recording fanned out to 8 `real_vio` sessions with
/// per-session phase jitter and dilation; `obs` switches tracing.
pub fn fan_out_builder(seed: u64, trace: Arc<Trace>, obs: bool) -> ServerBuilder {
    ServerBuilder::new()
        .sessions(FAN_OUT_SESSIONS)
        .duration(RECORD_DURATION)
        .workers(1)
        .real_vio(true)
        .trace(obs)
        .tune(|c| {
            c.admission.degrade_threshold = 10.0;
            c.admission.reject_threshold = 10.0;
        })
        .replay(ReplayLoad::fan_out(trace, seed, Duration::from_millis(40), 0.05))
}

fn fault_rep(seed: u64) -> Rep {
    // (a) failover.
    let mut rep = server_rep(&failover_builder(seed, true).build().run());

    // (b) record, then encode.
    let recorded = record_builder(seed, None).build().run();
    let mut record = server_rep(&recorded);
    conserve_vsyncs(&recorded, &mut record);
    let recorded_summary = record.digest;
    let bytes = recorded.boundary_trace.expect("record_boundary(true) yields a trace").encode();
    record.digest = fnv1a(&[&record.digest.to_le_bytes()[..], &bytes].concat());
    rep.absorb(record);

    // (c) decode, identity replay, re-record: must be the same bytes.
    let decoded = match Trace::decode(&bytes) {
        Ok(t) => Arc::new(t),
        Err(e) => {
            rep.failures.push(format!("Trace::decode of a fresh encode: {e}"));
            return rep;
        }
    };
    if decoded.encode() != bytes {
        rep.failures.push("Trace encode/decode/encode changed bytes".to_owned());
    }
    let replayed = record_builder(seed, Some(decoded.clone())).build().run();
    let mut replay = server_rep(&replayed);
    let rerecorded = replayed.boundary_trace.expect("replay re-records").encode();
    if rerecorded != bytes {
        replay.failures.push(format!(
            "replay re-record differs from the recording ({} vs {} bytes)",
            rerecorded.len(),
            bytes.len()
        ));
    }
    if replay.digest != recorded_summary {
        replay.failures.push("identity replay's report differs from the recording's".to_owned());
    }
    rep.absorb(replay);

    // (d) fan-out with obs on, then export.
    let fanned = fan_out_builder(seed, decoded, true).build().run();
    let mut fan = server_rep(&fanned);
    let json = chrome_trace_json(&fanned.tracer);
    let csv = metrics_csv(&fanned.metrics);
    fan.digest = fnv1a(
        &[&fan.digest.to_le_bytes()[..], &fnv1a(json.as_bytes()).to_le_bytes(), csv.as_bytes()]
            .concat(),
    );
    rep.absorb(fan);

    rep.failures.extend(container_round_trips(seed));
    rep
}

/// `SessionSnapshot` and `Checkpoint` must survive encode → decode →
/// encode byte for byte, on a snapshot of a session that has run.
pub fn container_round_trips(seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let snapshot_bytes = live_snapshot(seed).encode();
    match SessionSnapshot::decode(&snapshot_bytes) {
        Ok(snap) if snap.encode() == snapshot_bytes => {}
        Ok(_) => failures.push("SessionSnapshot round trip changed bytes".to_owned()),
        Err(e) => failures.push(format!("SessionSnapshot::decode of a fresh encode: {e}")),
    }
    let mut checkpoint = Checkpoint::new(seed, fnv1a(b"perf"), 100_000_000);
    for i in 0..4 {
        checkpoint.entries.push((format!("s{i}/session"), snapshot_bytes.clone()));
    }
    let bytes = checkpoint.encode();
    match Checkpoint::decode(&bytes) {
        Ok(c) if c == checkpoint && c.encode() == bytes => {}
        Ok(_) => failures.push("Checkpoint round trip changed content".to_owned()),
        Err(e) => failures.push(format!("Checkpoint::decode of a fresh encode: {e}")),
    }
    failures
}

/// A snapshot of a session 100 simulated ms into its life: IMU window
/// half full, one camera frame out, poses anchored.
pub fn live_snapshot(seed: u64) -> SessionSnapshot {
    let clock = SimClock::new();
    let config = SessionConfig::new(splitmix(seed, 0));
    let mut session = ClientSession::new(0, config, Arc::new(clock.clone()));
    session.connect(Time::ZERO, false);
    for k in 1..=50u64 {
        clock.advance_to(Time::from_millis(2 * k));
        session.on_imu_due();
        if k == 34 {
            session.on_camera_due();
        }
        if k % 4 == 0 {
            session.on_vsync(Time::from_millis(2 * k), Duration::from_millis(1));
        }
    }
    session.snapshot()
}
