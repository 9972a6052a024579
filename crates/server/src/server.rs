//! The multi-session edge server: configuration, builder API and run
//! reports. The discrete-event core lives in the private `engine`
//! module.
//!
//! Three shared resources create the contention the scaling benchmark
//! measures:
//!
//! * the [`SharedLink`] — every VIO job, pose, render request and
//!   frame token serializes through finite uplink/downlink bandwidth;
//! * the [`BatchScheduler`] — VIO updates from all sessions are batched
//!   per server tick onto a fixed worker pool;
//! * the renderer — one cloud render per request, modeled as a fixed
//!   cost (the pool contention story lives in the VIO scheduler).
//!
//! Everything runs under one simulated timeline. Events are ordered by
//! `(time, kind priority, session, insertion seq)`, so two runs with
//! identical configs produce bit-identical reports — regardless of the
//! shard or worker count the engine executes them with.
//!
//! Entry point:
//!
//! ```
//! use std::time::Duration;
//! use illixr_server::ServerBuilder;
//!
//! let report = ServerBuilder::new()
//!     .sessions(4)
//!     .duration(Duration::from_secs(1))
//!     .build()
//!     .run();
//! for session in report.sessions() {
//!     let mtp = session.mtp();
//!     println!("s{}: mean mtp {:?}", session.id(), mtp.mean);
//! }
//! ```

use std::sync::Arc;
use std::time::Duration;

use illixr_core::boundary::{fan_out_transform, ReplayError, Trace, TraceHeader, TraceSource};
use illixr_core::TopicStats;

use crate::admission::{AdmissionConfig, AdmissionRecord};
use crate::engine::Engine;
use crate::link::{DirectionStats, LinkConfig};
use crate::scheduler::{SchedulerConfig, SchedulerStats};
use crate::session::{SessionConfig, SessionState, SessionTelemetry};

#[allow(unused_imports)] // doc links
use crate::link::SharedLink;
#[allow(unused_imports)] // doc links
use crate::scheduler::BatchScheduler;

/// Full server-run parameters. Built through [`ServerBuilder`]; the
/// fields stay public so benches can sweep them via
/// [`ServerBuilder::tune`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The sessions to run (index = session id).
    pub sessions: Vec<SessionConfig>,
    /// Shared link parameters.
    pub link: LinkConfig,
    /// VIO worker-pool parameters.
    pub scheduler: SchedulerConfig,
    /// Admission thresholds.
    pub admission: AdmissionConfig,
    /// Simulated run length.
    pub duration: Duration,
    /// Server tick period: pending VIO jobs are batched every tick.
    /// Must be positive: [`Server::run`] panics on a zero tick.
    pub server_tick: Duration,
    /// Run the real per-session MSCKF server-side. When false the
    /// server returns ground-truth poses — the cheap mode unit tests
    /// and admission studies use.
    pub real_vio: bool,
    /// Record spans, flow events and histograms for the whole run
    /// ([`ServerReport::tracer`] / [`ServerReport::metrics`]). All
    /// timestamps come from the simulated timeline, so traces are
    /// bit-identical across identically-configured runs.
    pub trace: bool,
    /// Fault-injection plan, consulted by the shared link (targets
    /// `"uplink"` / `"downlink"`) and every session's sensor pipeline
    /// (quiet — a guaranteed no-op — by default).
    pub fault_plan: Arc<illixr_core::fault::FaultPlan>,
    /// Record every session's sensor boundary (scoped `s{id}/`) and the
    /// shared link's transfer delays into
    /// [`ServerReport::boundary_trace`].
    pub record_boundary: bool,
    /// Drive the run from a recorded trace instead of live generators —
    /// identity replay or trace-driven load generation (see
    /// [`ReplayLoad`]).
    pub replay: Option<ReplayLoad>,
    /// Session-state shards in the engine. Results are invariant to
    /// this (the shard-invariance golden test pins it); it only tunes
    /// parallel granularity.
    pub shards: usize,
    /// Threads a wide batch (16 or more shard items) is forked across,
    /// the coordinator included; narrower batches run on the
    /// coordinator alone. `0` = auto (available parallelism); capped at
    /// `shards`. Results are invariant to this too.
    pub workers: usize,
    /// Crash-consistent session failover: how the engine recovers
    /// sessions whose fault domain (their shard) crashed. The default
    /// ([`FailoverPolicy::Disabled`], no checkpoints) is bit-identical
    /// to the historical engine.
    pub failover: FailoverConfig,
}

/// How the engine recovers sessions lost to a crashed fault domain
/// (a shard killed by a `FaultKind::WorkerCrash` window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailoverPolicy {
    /// No recovery: a crashed shard quarantines its sessions for the
    /// rest of the run (their shadow lanes keep the rest of the engine's
    /// contention identical, but the sessions display nothing).
    #[default]
    Disabled,
    /// Reboot the session from scratch after
    /// `FailoverConfig::RESTART_DELAY`: fresh state anchored to
    /// ground truth at the recovery instant, telemetry lost.
    RestartOnly,
    /// Restore the last `ILXC` checkpoint, then replay the journaled
    /// boundary events since the snapshot tag — the recovered session
    /// rejoins the live run with the exact state an uncrashed session
    /// would have.
    CheckpointCatchup,
}

impl FailoverPolicy {
    /// Stable lowercase label for reports and config hashing.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Self::Disabled => "disabled",
            Self::RestartOnly => "restart",
            Self::CheckpointCatchup => "catchup",
        }
    }
}

/// Failover tuning (see [`FailoverPolicy`]), set as a whole through
/// [`ServerBuilder::failover`]; checkpointing is the
/// [`checkpoint_every`](Self::checkpoint_every) field. The recovery
/// costs are constants: a ~250 ms process reboot versus a ~5 ms
/// snapshot restore plus ~2 µs per replayed boundary event. The faults
/// are the fault plan's: `WorkerCrash` windows kill shards, and a
/// `CheckpointCorrupt` window makes a restore fall back to a restart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverConfig {
    /// Recovery policy for crashed fault domains.
    pub policy: FailoverPolicy,
    /// Checkpoint epoch: attached sessions snapshot at the first
    /// `ServerBatch` boundary at or after each multiple of this period.
    /// `None` disables checkpointing (restart-only recovery at best).
    pub checkpoint_every: Option<Duration>,
}

impl FailoverConfig {
    /// Simulated cost of rebooting a session from scratch.
    pub(crate) const RESTART_DELAY: Duration = Duration::from_millis(250);
    /// Simulated cost of decoding + restoring one checkpoint.
    pub(crate) const RESTORE_COST: Duration = Duration::from_millis(5);
    /// Simulated cost per journaled event replayed during catch-up.
    pub(crate) const CATCHUP_PER_EVENT: Duration = Duration::from_micros(2);
    /// Restarts a session may consume before it is quarantined for
    /// good (checkpoint restores are not budgeted).
    pub const RESTART_BUDGET: u32 = 3;
}

/// One crash-and-recovery episode of a session's fault domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverIncident {
    /// The session lost to the crash.
    pub session: u32,
    /// When its shard's worker crashed.
    pub crashed_at: illixr_core::Time,
    /// When the session rejoined the live run (`None`: never — policy
    /// disabled, restart budget exhausted, or the run ended first).
    pub recovered_at: Option<illixr_core::Time>,
    /// How it recovered: `"catchup"`, `"restart"`,
    /// `"restart_fallback"` (corrupt/missing checkpoint) or `"none"`.
    pub mode: &'static str,
    /// Display opportunities (vsyncs) that elapsed while quarantined.
    pub lost_frames: u64,
}

/// Trace-driven load: every session replays the same recorded session,
/// each through its own deterministic [`fan_out_transform`] (phase
/// jitter + time dilation), so one recording fans out into N distinct
/// but reproducible synthetic clients.
#[derive(Debug, Clone)]
pub struct ReplayLoad {
    /// The recording to replay.
    pub trace: Arc<Trace>,
    /// Stream prefix of the recorded session inside the trace (`"s0/"`
    /// for a trace recorded by a one-session server run).
    pub prefix: String,
    /// Per-session phase offset is uniform in `[0, max_jitter)`.
    pub max_jitter: Duration,
    /// Per-session time dilation is uniform in
    /// `[1 − spread, 1 + spread)`, clamped to `[0, 0.5]`.
    pub dilation_spread: f64,
    /// Seed of the fan-out transform family.
    pub seed: u64,
    /// Also replay the shared link's recorded transfer delays. True for
    /// identity replay; false for load generation, where the link must
    /// run live so N sessions actually contend.
    pub replay_link: bool,
}

impl ReplayLoad {
    /// Identity replay: one session, no transform, link replayed — the
    /// configuration whose report is bit-identical to the recording's.
    pub fn identity(trace: Arc<Trace>) -> Self {
        Self {
            trace,
            prefix: "s0/".to_owned(),
            max_jitter: Duration::ZERO,
            dilation_spread: 0.0,
            seed: 0,
            replay_link: true,
        }
    }

    /// Load generation: fan the recording out across live-link sessions
    /// with per-session phase jitter and time dilation. Works from a
    /// one-session server recording (streams under `s0/`) or a
    /// single-client integrated-run recording (unprefixed streams) —
    /// the prefix is detected from the trace.
    pub fn fan_out(trace: Arc<Trace>, seed: u64, max_jitter: Duration, spread: f64) -> Self {
        let prefix =
            if trace.stream("s0/camera").is_some() { "s0/".to_owned() } else { String::new() };
        Self { trace, prefix, max_jitter, dilation_spread: spread, seed, replay_link: false }
    }

    /// The boundary source for synthetic session `index`: independent
    /// cursors over the shared trace, the session's own transform.
    pub(crate) fn session_source(&self, index: usize) -> TraceSource {
        TraceSource::with_transform(
            self.trace.clone(),
            fan_out_transform(
                self.seed,
                index,
                self.max_jitter.as_nanos() as u64,
                self.dilation_spread,
            ),
        )
        .scoped(&self.prefix)
    }
}

impl ServerConfig {
    /// Cloud render cost per requested frame.
    pub(crate) const RENDER_COST: Duration = Duration::from_millis(5);
    /// Client-side warp cost per displayed frame.
    pub(crate) const WARP_COST: Duration = Duration::from_millis(1);
    /// Uplink payload per VIO job: a QVGA stereo frame pair plus the
    /// IMU window, ≈ 150 kB.
    pub(crate) const JOB_BYTES: u64 = 150_000;
    /// Downlink payload per pose estimate.
    pub(crate) const POSE_BYTES: u64 = 64;
    /// Uplink payload per render request.
    pub(crate) const REQUEST_BYTES: u64 = 64;
    /// Downlink payload per rendered frame token: a compressed
    /// eye-buffer pair, ≈ 50 kB.
    pub(crate) const TOKEN_BYTES: u64 = 50_000;
    /// True when failover is fully default (no policy, no checkpoints —
    /// the pre-failover code path).
    pub(crate) fn failover_is_default(&self) -> bool {
        self.failover == FailoverConfig::default()
    }

    /// FNV-1a hash of the recording-relevant configuration, stamped
    /// into trace headers for provenance. Engine knobs (shards,
    /// workers) are deliberately excluded: results are
    /// invariant to them, so they must not fork trace identities.
    pub(crate) fn config_hash(&self) -> u64 {
        let mut repr = format!(
            "{}|{}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{}|{}",
            self.sessions.len(),
            self.duration.as_nanos(),
            self.link,
            self.scheduler,
            self.admission,
            Self::JOB_BYTES,
            Self::POSE_BYTES,
            Self::REQUEST_BYTES,
            Self::TOKEN_BYTES,
            self.real_vio,
            self.fault_plan.is_quiet(),
        );
        // Folded in only when non-default, so default runs keep their
        // pre-failover trace identities.
        if !self.failover_is_default() {
            let f = &self.failover;
            repr.push_str(&format!(
                "|failover={},{:?},{},{},{},{}",
                f.policy.label(),
                f.checkpoint_every.map(|d| d.as_nanos()),
                FailoverConfig::RESTART_DELAY.as_nanos(),
                FailoverConfig::RESTORE_COST.as_nanos(),
                FailoverConfig::CATCHUP_PER_EVENT.as_nanos(),
                FailoverConfig::RESTART_BUDGET,
            ));
        }
        TraceHeader::hash_config(&repr)
    }
}

/// Builder for a [`Server`]: the only way to construct a run.
///
/// Defaults model `n` sessions with distinct seeds on a Wi-Fi-class
/// link, paper Table III/IV constants elsewhere. At
/// `ServerConfig::JOB_BYTES` a job and `ServerConfig::TOKEN_BYTES`
/// a token, one session takes ~12% of the downlink and ~8% of the VIO
/// pool — the server saturates around ten clients, which is where
/// admission control starts degrading and rejecting.
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    config: ServerConfig,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerBuilder {
    /// A builder with zero sessions and a ten-second horizon.
    pub fn new() -> Self {
        Self {
            config: ServerConfig {
                sessions: Vec::new(),
                link: LinkConfig::from_profile(illixr_core::link::LinkProfile::wifi(), 0),
                scheduler: SchedulerConfig::default(),
                admission: AdmissionConfig::default(),
                duration: Duration::from_secs(10),
                server_tick: Duration::from_millis(4),
                real_vio: false,
                trace: false,
                fault_plan: Arc::new(illixr_core::fault::FaultPlan::quiet()),
                record_boundary: false,
                replay: None,
                shards: 8,
                workers: 0,
                failover: FailoverConfig::default(),
            },
        }
    }

    /// `n` sessions with the standard distinct seeds (`11 + 2i`).
    /// Replaces any previously configured session list.
    pub fn sessions(mut self, n: usize) -> Self {
        self.config.sessions = (0..n).map(|i| SessionConfig::new(11 + 2 * i as u64)).collect();
        self
    }

    /// Edits one session's config in place (seed, connect/disconnect
    /// times, rates). Call after [`ServerBuilder::sessions`].
    pub fn configure_session(mut self, index: usize, f: impl FnOnce(&mut SessionConfig)) -> Self {
        f(&mut self.config.sessions[index]);
        self
    }

    /// Simulated run length.
    pub fn duration(mut self, duration: Duration) -> Self {
        self.config.duration = duration;
        self
    }

    /// Enables span/flow tracing and histogram metrics for this run.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.config.trace = enabled;
        self
    }

    /// Injects faults according to `plan` (shared link and all
    /// sessions).
    pub fn fault_plan(mut self, plan: illixr_core::fault::FaultPlan) -> Self {
        self.config.fault_plan = Arc::new(plan);
        self
    }

    /// Records the determinism boundary into
    /// [`ServerReport::boundary_trace`].
    pub fn record_boundary(mut self, enabled: bool) -> Self {
        self.config.record_boundary = enabled;
        self
    }

    /// Drives the run from `load` instead of live sensor generators.
    pub fn replay(mut self, load: ReplayLoad) -> Self {
        self.config.replay = Some(load);
        self
    }

    /// Session-state shard count (results are invariant to it).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Engine worker threads (`0` = auto; results are invariant).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Runs the real per-session MSCKF server-side.
    pub fn real_vio(mut self, enabled: bool) -> Self {
        self.config.real_vio = enabled;
        self
    }

    /// Shared-link parameters.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.config.link = link;
        self
    }

    /// Sets the full failover configuration (see [`FailoverConfig`]).
    pub fn failover(mut self, failover: FailoverConfig) -> Self {
        self.config.failover = failover;
        self
    }

    /// VIO worker-pool parameters.
    pub fn scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.config.scheduler = scheduler;
        self
    }

    /// Admission thresholds.
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.config.admission = admission;
        self
    }

    /// Escape hatch for everything else: direct access to the full
    /// [`ServerConfig`] (tick period, admission thresholds, the session
    /// list…).
    pub fn tune(mut self, f: impl FnOnce(&mut ServerConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> Server {
        Server { config: self.config }
    }
}

/// A configured server run. Consume with [`Server::run`].
pub struct Server {
    config: ServerConfig,
}

impl Server {
    /// Runs the simulation to completion and reports.
    pub fn run(self) -> ServerReport {
        Engine::new(self.config).run()
    }
}

/// Per-session results.
#[derive(Debug, Clone)]
pub(crate) struct SessionReport {
    /// Session id.
    pub id: u32,
    /// Final lifecycle state.
    pub state: SessionState,
    /// Run counters.
    pub telemetry: SessionTelemetry,
    /// Fast-pose error against ground truth at end of run, meters.
    pub pose_error: Option<f64>,
    /// The session's switchboard counters.
    pub stream_stats: Vec<TopicStats>,
}

/// Per-session motion-to-photon digest, read through
/// [`SessionHandle::mtp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtpStats {
    /// Mean MTP across the session's displayed frames.
    pub mean: Duration,
    /// Nearest-rank 99th-percentile MTP.
    pub p99: Duration,
    /// Frames displayed.
    pub displayed: u64,
    /// Vsyncs with nothing new to show.
    pub dropped: u64,
}

/// A typed view over one session's results — the read side of the
/// builder API. Obtained from [`ServerReport::session`] or
/// [`ServerReport::sessions`].
#[derive(Debug, Clone, Copy)]
pub struct SessionHandle<'a> {
    report: &'a SessionReport,
}

impl<'a> SessionHandle<'a> {
    /// Session id.
    pub fn id(&self) -> u32 {
        self.report.id
    }

    /// Final lifecycle state.
    pub fn state(&self) -> SessionState {
        self.report.state
    }

    /// Run counters.
    pub fn telemetry(&self) -> &'a SessionTelemetry {
        &self.report.telemetry
    }

    /// Fast-pose error against ground truth at end of run, meters.
    pub fn pose_error(&self) -> Option<f64> {
        self.report.pose_error
    }

    /// The session's switchboard counters.
    pub fn stream_stats(&self) -> &'a [TopicStats] {
        &self.report.stream_stats
    }

    /// The session's motion-to-photon digest.
    pub fn mtp(&self) -> MtpStats {
        MtpStats {
            mean: self.report.telemetry.mean_mtp(),
            p99: self.report.telemetry.p99_mtp(),
            displayed: self.report.telemetry.frames_displayed,
            dropped: self.report.telemetry.frames_dropped,
        }
    }
}

/// Aggregate results for one server run.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Per-session results, by id. Read through [`ServerReport::sessions`].
    pub(crate) session_reports: Vec<SessionReport>,
    /// Every admission decision.
    pub admission: Vec<AdmissionRecord>,
    /// Shared-link uplink counters.
    pub uplink: DirectionStats,
    /// Shared-link downlink counters.
    pub downlink: DirectionStats,
    /// VIO pool counters.
    pub scheduler: SchedulerStats,
    /// VIO pool utilization over the run.
    pub pool_utilization: f64,
    /// Simulated run length.
    pub duration: Duration,
    /// Span/flow recorder (disabled unless tracing was enabled).
    /// Per-session tracks are scoped `s{id}/…`; server-side tracks are
    /// `vio_pool/w{i}`, `render/s{id}` and the `link` counters.
    pub tracer: illixr_core::obs::Tracer,
    /// Histogram/gauge registry (disabled unless tracing was enabled):
    /// `mtp.*` per-stage decompositions, `vio_pool.*` batch latencies
    /// and per-topic switchboard gauges.
    pub metrics: illixr_core::obs::Metrics,
    /// Determinism-boundary recording (present when boundary recording
    /// was enabled).
    pub boundary_trace: Option<Trace>,
    /// Every fault-domain crash and its recovery outcome, in crash
    /// order. Empty unless worker-crash faults fired.
    pub failover_incidents: Vec<FailoverIncident>,
    /// The first replayed boundary record the run could not use: the
    /// sessions' in id order, then the link's. `None` on a valid trace.
    /// Its tag is in the reporting session's timeline; in a fan-out,
    /// session 0 replays the recording's own.
    pub replay_error: Option<ReplayError>,
}

impl ServerReport {
    /// Typed per-session views, in id order.
    pub fn sessions(&self) -> impl Iterator<Item = SessionHandle<'_>> {
        self.session_reports.iter().map(|report| SessionHandle { report })
    }

    /// The view for one session id.
    pub fn session(&self, id: u32) -> Option<SessionHandle<'_>> {
        self.session_reports.get(id as usize).map(|report| SessionHandle { report })
    }

    /// Number of sessions in the run (admitted or not).
    pub fn session_count(&self) -> usize {
        self.session_reports.len()
    }

    /// Sessions that ended in a given state.
    pub fn count(&self, state: SessionState) -> usize {
        self.session_reports.iter().filter(|s| s.state == state).count()
    }

    /// Sessions admission accepted or degraded (i.e. that actually ran).
    pub fn admitted(&self) -> usize {
        self.session_reports.len() - self.count(SessionState::Rejected)
    }

    /// Sessions admitted at degraded rates. Counted from the admission
    /// log — final lifecycle states all collapse to `Disconnected` at
    /// the end of the run.
    pub fn degraded(&self) -> usize {
        self.admission
            .iter()
            .filter(|a| a.decision == crate::admission::AdmissionDecision::Degrade)
            .count()
    }

    /// Mean MTP across every displayed frame of every session.
    pub fn mean_mtp(&self) -> Duration {
        let (sum, n) = self.session_reports.iter().fold((0u64, 0u64), |(s, n), r| {
            (s + r.telemetry.mtp_ns.iter().sum::<u64>(), n + r.telemetry.mtp_ns.len() as u64)
        });
        Duration::from_nanos(sum.checked_div(n).unwrap_or(0))
    }

    /// 99th-percentile MTP across all sessions (nearest-rank).
    pub fn p99_mtp(&self) -> Duration {
        let mut all: Vec<u64> =
            self.session_reports.iter().flat_map(|r| r.telemetry.mtp_ns.iter().copied()).collect();
        if all.is_empty() {
            return Duration::ZERO;
        }
        all.sort_unstable();
        let rank = ((all.len() as f64 * 0.99).ceil() as usize).clamp(1, all.len());
        Duration::from_nanos(all[rank - 1])
    }

    /// Dropped fraction of vsyncs across all admitted sessions.
    pub fn drop_rate(&self) -> f64 {
        let (dropped, total) = self.session_reports.iter().fold((0u64, 0u64), |(d, t), r| {
            (
                d + r.telemetry.frames_dropped,
                t + r.telemetry.frames_dropped + r.telemetry.frames_displayed,
            )
        });
        if total == 0 {
            0.0
        } else {
            dropped as f64 / total as f64
        }
    }

    /// Aggregate delivered throughput: displayed frames across all
    /// sessions per simulated second — the scaling sweep's headline
    /// alongside per-session p99 MTP.
    pub fn aggregate_fps(&self) -> f64 {
        let displayed: u64 =
            self.session_reports.iter().map(|s| s.telemetry.frames_displayed).sum();
        displayed as f64 / self.duration.as_secs_f64()
    }

    /// Deterministic text rendering: identical runs produce identical
    /// strings, which is what the scaling benchmark's bit-identity
    /// check compares.
    pub fn summary_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sessions={} admitted={} degraded={} rejected={}\n",
            self.session_reports.len(),
            self.admitted(),
            self.degraded(),
            self.count(SessionState::Rejected),
        ));
        out.push_str(&format!(
            "mtp_mean_ms={:.3} mtp_p99_ms={:.3} drop_rate={:.4}\n",
            self.mean_mtp().as_secs_f64() * 1e3,
            self.p99_mtp().as_secs_f64() * 1e3,
            self.drop_rate(),
        ));
        out.push_str(&format!(
            "uplink: transfers={} bytes={} mean_queue_ms={:.3} max_queue_ms={:.3}\n",
            self.uplink.transfers,
            self.uplink.bytes,
            self.uplink.mean_queue_delay().as_secs_f64() * 1e3,
            self.uplink.max_queue_delay_ns as f64 / 1e6,
        ));
        out.push_str(&format!(
            "downlink: transfers={} bytes={} mean_queue_ms={:.3} max_queue_ms={:.3}\n",
            self.downlink.transfers,
            self.downlink.bytes,
            self.downlink.mean_queue_delay().as_secs_f64() * 1e3,
            self.downlink.max_queue_delay_ns as f64 / 1e6,
        ));
        out.push_str(&format!(
            "vio_pool: batches={} jobs={} mean_batch={:.2} max_batch={} utilization={:.4} shed={}\n",
            self.scheduler.batches,
            self.scheduler.jobs,
            self.scheduler.mean_batch(),
            self.scheduler.max_batch,
            self.pool_utilization,
            self.scheduler.shed_jobs,
        ));
        // Failover lines appear only when a fault domain actually
        // crashed, so every pre-failover golden summary stays
        // byte-identical.
        if !self.failover_incidents.is_empty() {
            let recovered =
                self.failover_incidents.iter().filter(|i| i.recovered_at.is_some()).count();
            let lost: u64 = self.failover_incidents.iter().map(|i| i.lost_frames).sum();
            out.push_str(&format!(
                "failover: incidents={} recovered={} lost_frames={}\n",
                self.failover_incidents.len(),
                recovered,
                lost,
            ));
            for i in &self.failover_incidents {
                match i.recovered_at {
                    Some(r) => out.push_str(&format!(
                        "failover session={} crashed_t={:.3}s recovered_t={:.3}s mode={} \
                         lost_frames={}\n",
                        i.session,
                        i.crashed_at.as_secs_f64(),
                        r.as_secs_f64(),
                        i.mode,
                        i.lost_frames,
                    )),
                    None => out.push_str(&format!(
                        "failover session={} crashed_t={:.3}s recovered_t=never mode={} \
                         lost_frames={}\n",
                        i.session,
                        i.crashed_at.as_secs_f64(),
                        i.mode,
                        i.lost_frames,
                    )),
                }
            }
        }
        for a in &self.admission {
            out.push_str(&format!(
                "admission t={:.3}s session={} load={:.3} offered={:.3} -> {}\n",
                a.time.as_secs_f64(),
                a.session,
                a.load_before,
                a.offered,
                a.decision.label(),
            ));
        }
        for s in &self.session_reports {
            out.push_str(&format!(
                "session {} [{}]: mtp_mean_ms={:.3} mtp_p99_ms={:.3} displayed={} dropped={} \
                 jobs={} poses={} tokens={}\n",
                s.id,
                s.state.label(),
                s.telemetry.mean_mtp().as_secs_f64() * 1e3,
                s.telemetry.p99_mtp().as_secs_f64() * 1e3,
                s.telemetry.frames_displayed,
                s.telemetry.frames_dropped,
                s.telemetry.vio_jobs,
                s.telemetry.poses_received,
                s.telemetry.tokens_received,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerStats;
    use illixr_core::Time;

    fn quick(n: usize) -> ServerBuilder {
        ServerBuilder::new().sessions(n).duration(Duration::from_secs(2))
    }

    #[test]
    fn zero_sessions_is_an_empty_run() {
        let report = quick(0).build().run();
        assert_eq!(report.session_count(), 0);
        assert!(report.sessions().next().is_none());
        assert!(report.admission.is_empty());
        assert_eq!(report.mean_mtp(), Duration::ZERO);
        assert_eq!(report.drop_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "server_tick must be positive")]
    fn zero_server_tick_is_rejected() {
        quick(1).tune(|c| c.server_tick = Duration::ZERO).build().run();
    }

    #[test]
    fn single_session_runs_the_full_pipeline() {
        let report = quick(1).build().run();
        assert_eq!(report.admitted(), 1);
        let s = report.session(0).expect("session 0 exists");
        assert_eq!(s.state(), SessionState::Disconnected);
        // 2 s at 15 Hz minus the first period: ~29 jobs.
        assert!(s.telemetry().vio_jobs >= 25, "jobs {}", s.telemetry().vio_jobs);
        assert!(s.telemetry().poses_received >= 20, "poses {}", s.telemetry().poses_received);
        let mtp = s.mtp();
        assert!(mtp.displayed >= 100, "displayed {}", mtp.displayed);
        assert!(mtp.mean > Duration::ZERO);
        // Ideal VIO + prompt anchoring: the fast pose stays accurate.
        assert!(s.pose_error().unwrap() < 0.5, "pose error {:?}", s.pose_error());
        // Stream stats cover the client pipeline.
        assert!(s.stream_stats().iter().any(|t| t.name == "imu" && t.seq > 900));
    }

    #[test]
    fn rejection_at_saturation() {
        let report = quick(4)
            .tune(|c| {
                // Thresholds so tight only the first session fits.
                c.admission = AdmissionConfig { degrade_threshold: 0.1, reject_threshold: 0.1 };
                c.scheduler.workers = 1;
                c.scheduler.per_job = Duration::from_millis(7); // 15 Hz × 7 ms ≈ 0.105 load
            })
            .build()
            .run();
        assert_eq!(report.count(SessionState::Rejected), 3);
        assert_eq!(report.admitted(), 1);
        // Rejected sessions produced no traffic.
        for s in report.sessions().skip(1) {
            assert_eq!(s.telemetry().vio_jobs, 0);
            let mtp = s.mtp();
            assert_eq!(mtp.displayed + mtp.dropped, 0);
        }
    }

    #[test]
    fn degraded_sessions_run_at_half_rate() {
        let report = quick(2)
            .tune(|c| {
                // First session accepted, second lands in the degrade band.
                c.admission = AdmissionConfig { degrade_threshold: 0.13, reject_threshold: 0.5 };
                c.scheduler.workers = 1;
                c.scheduler.per_job = Duration::from_millis(7);
            })
            .build()
            .run();
        assert_eq!(report.session(0).unwrap().state(), SessionState::Disconnected);
        assert_eq!(report.count(SessionState::Rejected), 0);
        let full = report.session(0).unwrap().telemetry().vio_jobs;
        let half = report.session(1).unwrap().telemetry().vio_jobs;
        assert!(
            half * 2 <= full + 2 && half * 2 + 4 >= full,
            "degraded session should send about half the jobs: {half} vs {full}"
        );
        assert_eq!(report.admission[1].decision, crate::admission::AdmissionDecision::Degrade);
    }

    #[test]
    fn load_weight_feeds_admission_control() {
        // Two identical sessions fit; doubling the second session's
        // feature load weight pushes its projected load past the reject
        // threshold.
        let base = || {
            quick(2).tune(|c| {
                c.admission = AdmissionConfig { degrade_threshold: 0.25, reject_threshold: 0.2 };
                c.scheduler.workers = 1;
                c.scheduler.per_job = Duration::from_millis(7); // ≈ 0.105 load each
            })
        };
        let plain = base().build().run();
        assert_eq!(plain.count(SessionState::Rejected), 0);
        let weighted = base().configure_session(1, |s| s.load_weight = 2.0).build().run();
        assert_eq!(weighted.count(SessionState::Rejected), 1);
        assert_eq!(weighted.session(0).unwrap().state(), SessionState::Disconnected);
        // The weight changes admission inputs only — the accepted
        // session's traffic is untouched.
        assert_eq!(
            plain.session(0).unwrap().telemetry().vio_jobs,
            weighted.session(0).unwrap().telemetry().vio_jobs
        );
    }

    #[test]
    fn displayed_frames_log_matches_mtp_samples() {
        let report = quick(1).build().run();
        let t = report.session(0).unwrap().telemetry();
        assert_eq!(t.displayed_frames.len(), t.mtp_ns.len());
        assert!(!t.displayed_frames.is_empty());
        // Display times are strictly increasing vsyncs with finite poses.
        for pair in t.displayed_frames.windows(2) {
            assert!(pair[1].time > pair[0].time);
        }
        assert!(t.displayed_frames.iter().all(|f| f.pose.is_finite()));
    }

    #[test]
    fn mid_run_disconnect_stops_traffic() {
        let report = quick(1)
            .configure_session(0, |s| s.disconnect_at = Some(Time::from_millis(500)))
            .build()
            .run();
        let s = report.session(0).unwrap();
        assert_eq!(s.state(), SessionState::Disconnected);
        // Only the first half-second of vsyncs happened: ≤ 60 of 240.
        let mtp = s.mtp();
        let vsyncs = mtp.displayed + mtp.dropped;
        assert!(vsyncs <= 61, "vsyncs after disconnect: {vsyncs}");
        assert!(s.telemetry().vio_jobs <= 8);
    }

    #[test]
    fn staggered_connect_joins_late() {
        let report =
            quick(2).configure_session(1, |s| s.connect_at = Time::from_millis(1000)).build().run();
        let early = report.session(0).unwrap().telemetry().vio_jobs;
        let late = report.session(1).unwrap().telemetry().vio_jobs;
        assert!(late < early, "late joiner sends fewer jobs: {late} vs {early}");
        assert!(late >= 10, "late joiner still runs its second half: {late}");
        assert_eq!(report.admission[1].time, Time::from_millis(1000));
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let a = quick(3).build().run().summary_text();
        let b = quick(3).build().run().summary_text();
        assert_eq!(a, b);
    }

    #[test]
    fn reports_are_invariant_to_shard_count() {
        // The FNV shard map only places state; it must never leak into
        // results. One shard serializes everything; seven is coprime
        // with every stride the batch loop sees.
        let run = |shards| quick(6).shards(shards).build().run().summary_text();
        let one = run(1);
        assert_eq!(one, run(4));
        assert_eq!(one, run(7));
    }

    #[test]
    fn recorded_server_run_replays_bit_identically() {
        let recorded = quick(1).record_boundary(true).build().run();
        let trace = recorded.boundary_trace.clone().expect("recording enabled");
        assert!(trace.record_count() > 0, "boundary saw traffic");

        let replayed = quick(1)
            .record_boundary(true)
            .replay(ReplayLoad::identity(Arc::new(trace.clone())))
            // Different session seed: replay must not depend on it.
            .configure_session(0, |s| s.seed ^= 0xABCD)
            .build()
            .run();

        assert_eq!(
            recorded.summary_text(),
            replayed.summary_text(),
            "replayed report diverged from the recording"
        );
        assert_eq!(replayed.replay_error, None);
        let rerec = replayed.boundary_trace.expect("re-recording enabled");
        assert_eq!(rerec.encode(), trace.encode(), "re-recorded trace not byte-identical");
    }

    #[test]
    fn missing_link_record_replays_to_a_typed_error() {
        use illixr_core::boundary::ReplayCause;

        let recorded = quick(1).record_boundary(true).build().run();
        let mut trace = recorded.boundary_trace.expect("recording enabled");
        let (_, uplink) =
            trace.streams.iter_mut().find(|(name, _)| name == "link/uplink").expect("recorded");
        let last = uplink.pop().expect("the session sent on the uplink");
        // The transfer without a record is generated live; the run
        // completes and names it.
        let replayed = quick(1).replay(ReplayLoad::identity(Arc::new(trace))).build().run();
        let missing = ReplayError {
            stream: "link/uplink".into(),
            tag_ns: last.tag_ns,
            cause: ReplayCause::Missing,
        };
        assert_eq!(replayed.replay_error, Some(missing));
    }

    #[test]
    fn fan_out_replay_is_deterministic_and_phase_shifted() {
        let recorded = quick(1).record_boundary(true).build().run();
        let trace = Arc::new(recorded.boundary_trace.expect("recording enabled"));

        let load = ReplayLoad::fan_out(trace, 42, Duration::from_millis(40), 0.05);
        let run = || {
            quick(4)
                .tune(|c| {
                    c.admission.degrade_threshold = 10.0; // admit everyone
                    c.admission.reject_threshold = 10.0;
                })
                .replay(load.clone())
                .build()
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.summary_text(), b.summary_text(), "fan-out reruns diverged");
        // Every synthetic session actually produced traffic.
        for s in a.sessions() {
            assert!(
                s.telemetry().vio_jobs > 10,
                "session {} jobs {}",
                s.id(),
                s.telemetry().vio_jobs
            );
            assert!(s.mtp().displayed > 0, "session {} displayed 0", s.id());
        }
        // Session 0 replays at identity; the jittered sessions lag it.
        let j0 = a.session(0).unwrap().telemetry().vio_jobs;
        let m0 = a.session(0).unwrap().mtp().mean;
        assert!(
            a.sessions().skip(1).any(|s| s.telemetry().vio_jobs != j0)
                || a.sessions().skip(1).any(|s| s.mtp().mean != m0),
            "transforms should differentiate the sessions"
        );
    }

    #[test]
    fn deadline_aware_placement_sheds_under_pool_overload() {
        // A single slow worker vs eight sessions: the earliest-free
        // pool queues unboundedly, so batch completion latency keeps
        // growing; the deadline-aware pool sheds jobs and keeps every
        // placed batch inside the budget.
        let slow_pool = |placement| crate::scheduler::SchedulerConfig {
            workers: 1,
            batch_setup: Duration::from_millis(2),
            per_job: Duration::from_millis(11),
            placement,
        };
        let base = |placement| {
            quick(8).tune(move |c| {
                c.admission.degrade_threshold = 10.0; // isolate the pool
                c.admission.reject_threshold = 10.0;
                c.scheduler = slow_pool(placement);
            })
        };
        let free = base(crate::scheduler::PlacementPolicy::EarliestFree).build().run();
        let capped = base(crate::scheduler::PlacementPolicy::DeadlineAware {
            deadline: Duration::from_millis(60),
        })
        .build()
        .run();
        assert_eq!(free.scheduler.shed_jobs, 0);
        assert!(capped.scheduler.shed_jobs > 0, "overloaded pool must shed");
        // The point of shedding: batch pickup delay stays bounded by
        // the deadline instead of growing with the backlog.
        let mean_wait = |s: &SchedulerStats| s.wait_ns as f64 / s.batches.max(1) as f64;
        let free_wait = mean_wait(&free.scheduler);
        let capped_wait = mean_wait(&capped.scheduler);
        assert!(
            free_wait > Duration::from_millis(100).as_nanos() as f64,
            "earliest-free backlog should dominate: {free_wait} ns"
        );
        assert!(
            capped_wait < Duration::from_millis(60).as_nanos() as f64,
            "deadline-aware pickup delay must stay inside the budget: {capped_wait} ns"
        );
    }

    #[test]
    fn contention_grows_mtp_with_session_count() {
        let narrow = |n: usize| {
            quick(n).tune(|c| {
                c.link.downlink_bps = 60e6; // tight enough that 6 sessions queue
            })
        };
        let one = narrow(1).build().run();
        let many = narrow(6)
            .tune(|c| {
                c.admission.degrade_threshold = 10.0; // no degradation: isolate queueing
                c.admission.reject_threshold = 10.0;
            })
            .build()
            .run();
        assert!(
            many.mean_mtp() > one.mean_mtp(),
            "contention must raise MTP: {:?} vs {:?}",
            many.mean_mtp(),
            one.mean_mtp()
        );
        assert!(many.downlink.mean_queue_delay() > one.downlink.mean_queue_delay());
    }
}
