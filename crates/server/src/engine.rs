//! The event-driven session engine: the discrete-event core behind
//! [`Server`](crate::server::Server).
//!
//! The engine owns everything a run touches: the *schedule* (the event
//! heap, each lane's agenda, the shared link, the batch scheduler,
//! admission) and the sessions themselves.
//!
//! * Every session is a [`Lane`] owned by exactly one shard (FNV-1a of
//!   the session id, [`ShardMap`]); the engine holds the shards as
//!   plain vectors of lanes.
//! * The coordinator pops all events sharing one timestamp into a
//!   batch and sorts its per-session items into a [`BatchPlan`] by
//!   shard. The shards run their items inline — or, for a wide batch,
//!   as one scoped fork-join: the ready shards' lanes are dealt into
//!   `workers` groups, `workers − 1` scoped threads run one group each
//!   and the coordinator runs the last, every group returns its
//!   `(batch index, Emission)` pairs, and joining the scope is the
//!   barrier.
//! * The *apply* phase then walks the batch's events in original pop
//!   order, performing every link transfer, heap push and job-pool insert
//!   sequentially — so shared-resource state evolves exactly as in one
//!   sequential loop. A vsync's request goes straight to its render: the
//!   apply pushes its `TokenRendered` one `RENDER_COST` after the
//!   request's uplink arrival. A camera tick's job joins the pending-job
//!   pool by arrival, then session id, then push order.
//!
//! Determinism is preserved by construction, not by luck:
//!
//! * **Batching is same-time only.** Events generated by a batch carry
//!   strictly later times whenever the link has nonzero base latency or
//!   finite bandwidth (every shipped profile), so draining one
//!   timestamp at a time can never reorder the heap's key order
//!   `(time, kind, session, seq)`.
//! * **Lane-local work is settled, not dispatched.** An IMU tick, a pose
//!   delivery and a token delivery touch only their own lane, so none
//!   enters the heap: a lane keeps them on its [`Agenda`] (its next IMU
//!   step as [`ImuSteps`], its deliveries in arrival order) and, before
//!   anything observes it at key `(t, priority)`, runs every entry below
//!   that key in key order, each at its own clock time. The observers
//!   are: any item the lane or its shadow processes (camera, vsync,
//!   disconnect, VIO job); a checkpoint at a `ServerBatch` barrier; a
//!   crash at `t` (the crashed shard's lanes run entries before `t` for
//!   the snapshot, and their entries in the crashed batch count toward
//!   the catch-up cost and run on the shadows); a recovery (the shadow
//!   settles first, so same-instant deliveries are journaled before
//!   catch-up replay, and the restored lane settles after replay and
//!   takes the agenda over); and the horizon. Every entry therefore runs
//!   where the heap's key order would have put it, and the heap keeps
//!   only events whose order is shared between sessions.
//! * **A crash fires at its shard's first work.** A `WorkerCrash` window
//!   fires in the first batch from its start in which its shard has
//!   items or agenda entries in the batch's key range; the main loop
//!   starts a batch at such an entry when it comes before the heap's head.
//! * **Barrier events** — `Connect`, `ServerBatch`, `VioComplete`,
//!   `Recover` — read or write cross-session state (admission load, the
//!   pending-job pool, the quarantine table), so they dispatch alone on
//!   the coordinator, never inside a batch. A `ServerBatch` takes the
//!   jobs that have arrived by its instant, those arriving on it
//!   included. `VioComplete` still runs its per-session MSCKF updates on
//!   the shards; only the downlink transfers serialize. Every other heap
//!   event's apply touches shared state: `CameraTick`, `Vsync` and
//!   `TokenRendered` start link transfers, and `Disconnect` writes the
//!   schedule's session states.
//! * **Per-lane clocks, tracers and recorders.** A lane's clock is
//!   advanced to each tick's and item's timestamp before its handlers
//!   run, so every observable timestamp matches one global clock.
//!   Tracers and boundary recorders are lane-local and merged in
//!   session-id order after the run, so trace bytes never depend on
//!   thread interleaving or on when a lane settles.
//! * **Worker/shard counts are not part of the result.** A forked
//!   group touches only its own shards' lanes (the borrow checker sees
//!   the disjoint `&mut`s), and emissions land by batch index, not by
//!   arrival; the shard-invariance and worker-invariance golden tests
//!   pin this.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use illixr_core::boundary::{Boundary, Checkpoint, Trace, TraceRecorder, TraceSource};
use illixr_core::{SimClock, Time};
use illixr_sched::shard::ShardMap;
use illixr_sensors::camera::PinholeCamera;
use illixr_sensors::trajectory::Trajectory;
use illixr_sensors::types::PoseEstimate;
use illixr_vio::integrator::ImuState;
use illixr_vio::msckf::{Msckf, VioConfig};

use crate::admission::AdmissionController;
use crate::link::{Direction, SharedLink};
use crate::scheduler::BatchScheduler;
use crate::server::{
    FailoverConfig, FailoverIncident, FailoverPolicy, ServerConfig, ServerReport, SessionReport,
};
use crate::session::{
    ClientSession, RenderRequest, RenderToken, SessionConfig, SessionState, SessionTelemetry,
    VioJob,
};
use crate::snapshot::SessionSnapshot;

/// Below this many shard items a batch runs inline on the coordinator,
/// whatever `workers` says. A scoped fork-join with one spawned thread
/// costs ≈ 16 µs on a 2-core box (≈ 53 µs with three), and splitting
/// `n` items of ≈ 2 µs over two workers saves ≈ `n` µs: two workers
/// break even near 16 items, four near 35. The cheapest items are a
/// vsync and a camera tick without a job; each also settles its lane's
/// agenda, the IMU ticks it owes (≈ 2 µs apiece, four per 120 Hz vsync)
/// and the deliveries since, so 16 stays on the safe side. The waves
/// worth a thread are many sessions' vsyncs, camera ticks or VIO jobs
/// landing at one instant.
const PARALLEL_THRESHOLD: usize = 16;

/// What happens at an event's fire time. Payload-carrying variants
/// compare by event key only.
enum EventKind {
    Connect,
    CameraTick {
        step: u64,
    },
    ServerBatch,
    VioComplete(Vec<VioJob>),
    TokenRendered(RenderRequest),
    Vsync {
        index: u64,
    },
    Disconnect,
    /// A quarantined session's scheduled recovery lands: restore the
    /// checkpoint (or restart) and rejoin the live run.
    Recover,
}

impl EventKind {
    /// Tie-break order at equal times. Gaps 1, 6 and 9 are the agenda's
    /// entries ([`TICK`], [`POSE`], [`TOKEN`]); 3 and 7 are free. A lane's
    /// IMU tick runs before its camera tick, so frames stay covered by
    /// inertial data; deliveries before vsync let a frame arriving exactly
    /// on the deadline be shown. `Recover` sorts last so every
    /// same-instant delivery is journaled before catch-up replay consumes
    /// the journal.
    fn priority(&self) -> u8 {
        match self {
            Self::Connect => 0,
            Self::CameraTick { .. } => 2,
            Self::ServerBatch => 4,
            Self::VioComplete(_) => 5,
            Self::TokenRendered(_) => 8,
            Self::Vsync { .. } => 10,
            Self::Disconnect => 11,
            Self::Recover => 12,
        }
    }

    /// Barrier events touch cross-session state (admission load, the
    /// pending-job pool, the quarantine table) and must dispatch alone
    /// on the coordinator.
    fn is_barrier(&self) -> bool {
        matches!(self, Self::Connect | Self::ServerBatch | Self::VioComplete(_) | Self::Recover)
    }
}

struct Event {
    time: Time,
    session: u32,
    /// Insertion counter: the final, total tie-break.
    seq: u64,
    kind: EventKind,
}

impl Event {
    fn key(&self) -> (Time, u8, u32, u64) {
        (self.time, self.kind.priority(), self.session, self.seq)
    }

    /// Where the event falls among one instant's work.
    fn at(&self) -> Key {
        (self.time, self.kind.priority())
    }
}

/// A place in the heap's order without its per-session tie-breaks:
/// `(time, priority)`. Agenda entries and their observers compare by it.
type Key = (Time, u8);

/// Agenda entries' priorities, in the gaps of [`EventKind::priority`].
const TICK: u8 = 1;
const POSE: u8 = 6;
const TOKEN: u8 = 9;

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    /// Reversed so the `BinaryHeap` pops the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// One session's worth of shard-owned state: the client pipeline, the
/// server-side VIO filter, and the lane-local observability sinks that
/// make parallel execution trace-deterministic.
struct Lane {
    session: ClientSession,
    /// Server-side per-session filter (`None` in ground-truth mode).
    filter: Option<Msckf>,
    /// Lane-local clock, advanced to each tick's and item's timestamp
    /// before its handlers run — observable times match one global clock.
    clock: Arc<SimClock>,
    /// Lane-local tracer root (the session records through a scoped
    /// view of it); absorbed into the coordinator's tracer in
    /// session-id order after the run.
    tracer: illixr_core::obs::Tracer,
    /// Lane-local boundary recorder root; its streams are concatenated
    /// into the final trace in session-id order.
    recorder: Option<TraceRecorder>,
    agenda: Agenda,
}

/// A lane's own future work, and its journal. It moves as one unit to
/// wherever the session's state machine runs: a crash hands it to the
/// shadow, a recovery to the restored lane, and a quarantined session
/// that leaves takes it back to its lane.
#[derive(Default)]
struct Agenda {
    imu: ImuSteps,
    /// Pose and token deliveries by arrival key and push counter, in
    /// that order: jitter and outages are per transfer, so arrival order
    /// on one lane is not push order.
    deliveries: VecDeque<(Key, u64, Op)>,
    /// Items and deliveries the session ran since its last checkpoint
    /// (`None` unless checkpointing is on). Catch-up replay re-runs them
    /// on a lane restored from the checkpoint, in original order, and
    /// that lane settles the IMU ticks between them as the live one did
    /// and journals them again; the handlers are deterministic functions
    /// of (session state, clock, input), so the replayed session ends
    /// bit-identical to one that never crashed.
    journal: Option<Vec<(Key, Op)>>,
}

impl Agenda {
    fn push(&mut self, at: Key, seq: u64, op: Op) {
        let i = self.deliveries.partition_point(|&(key, s, _)| (key, s) < (at, seq));
        self.deliveries.insert(i, (at, seq, op));
    }

    /// The earliest entry at or after `from`.
    fn first_from(&self, config: &SessionConfig, from: Time) -> Option<Key> {
        let tick = self.imu.last.and_then(|last| {
            let at =
                if self.imu.at >= from { self.imu.at } else { imu_step_at_or_after(config, from) };
            (at <= last).then_some((at, TICK))
        });
        let delivery = self.deliveries.iter().map(|d| d.0).find(|&(time, _)| time >= from);
        tick.into_iter().chain(delivery).min()
    }
}

/// A session's IMU ticks as schedule state: step `step` falls at `at`,
/// and no step after `last` runs. Set at connect.
#[derive(Clone, Copy, Default)]
struct ImuSteps {
    step: u64,
    at: Time,
    /// `None` while the lane has no ticks to run: before its connect, or
    /// while its shadow runs them.
    last: Option<Time>,
}

impl ImuSteps {
    fn new(config: &SessionConfig, step: u64, last: Time) -> Self {
        Self { step, at: imu_step_time(config, step), last: Some(last) }
    }

    /// Moves past the next step.
    fn advance(&mut self, config: &SessionConfig) {
        self.step += 1;
        self.at = imu_step_time(config, self.step);
    }
}

impl Lane {
    /// A lane off to the side of the shards: the session state machine
    /// restored from `snap` on a private clock, observability off, with
    /// `agenda` still to run. A quarantined session's shadow and catch-up
    /// replay both step one through [`process_item`].
    fn restored(
        id: u32,
        config: SessionConfig,
        snap: &SessionSnapshot,
        fault_plan: Arc<illixr_core::fault::FaultPlan>,
        agenda: Agenda,
    ) -> Self {
        let (session, clock) = ClientSession::restore(id, config, snap, fault_plan);
        Self {
            session,
            filter: None,
            clock: Arc::new(clock),
            tracer: illixr_core::obs::Tracer::disabled(),
            recorder: None,
            agenda,
        }
    }

    /// Runs the agenda's entries below `key`, in key order, each at its
    /// own clock time.
    fn settle(&mut self, key: Key) {
        while let Some((time, priority)) =
            self.agenda.first_from(&self.session.config, Time::ZERO).filter(|&next| next < key)
        {
            if priority == TICK {
                self.clock.advance_to(time);
                self.session.on_imu_due();
                self.agenda.imu.advance(&self.session.config);
            } else {
                let (at, _, op) = self.agenda.deliveries.pop_front().expect("a delivery is next");
                self.run(at, &op);
            }
        }
    }

    /// Runs one item or delivery at key `at`, everything before it having
    /// run, and journals it if the session is attached.
    fn run(&mut self, at: Key, op: &Op) -> Emission {
        self.clock.advance_to(at.0);
        let attached = lane_attached(self);
        if let Some(journal) = self.agenda.journal.as_mut() {
            if attached && matches!(op, Op::Camera | Op::Pose(_) | Op::Token(_) | Op::Vsync) {
                journal.push((at, op.clone()));
            }
        }
        // A detached session ignores deliveries and disconnects.
        match op {
            Op::Camera => {
                let job = self.session.on_camera_due();
                return Emission::Camera { job, stride: self.session.camera_steps() };
            }
            Op::Vsync => {
                return Emission::Request(self.session.on_vsync(at.0, ServerConfig::WARP_COST))
            }
            Op::Vio(job) => return Emission::Pose(run_vio(self, job)),
            Op::Pose(pose) if attached => self.session.on_pose_delivered(*pose),
            Op::Token(token) if attached => self.session.on_token_delivered(*token),
            Op::Disconnect if attached => self.session.disconnect(),
            Op::Pose(_) | Op::Token(_) | Op::Disconnect => {}
        }
        Emission::Done
    }
}

/// The work a lane performs for one batch item or agenda delivery.
#[derive(Clone)]
enum Op {
    Camera,
    Pose(PoseEstimate),
    Token(RenderToken),
    Vsync,
    Disconnect,
    Vio(VioJob),
}

/// One shard-executed unit: which lane, at what key, doing what.
/// `index` is the item's position in the batch — emissions are
/// reordered by it, so lane interleaving never affects results.
struct WorkItem {
    index: usize,
    lane: usize,
    at: Key,
    op: Op,
}

/// A batch fanned out to the shards: `shards[s]` lists shard `s`'s
/// items in original pop order (same-lane items therefore execute in
/// event order).
///
/// One plan serves the whole run ([`Engine::plan`]): a batch fills it,
/// runs, and clears it again keeping the buffers. Almost every batch is
/// a single item, and allocating a plan costs more than running one.
struct BatchPlan {
    shards: Vec<Vec<WorkItem>>,
    /// The shards with items, ascending.
    ready: Vec<usize>,
    /// Fault-domain kill switches: a flagged shard panics at batch start
    /// (before touching any item) instead of processing — the
    /// deterministic realization of a `WorkerCrash` window.
    crash: Vec<bool>,
}

impl BatchPlan {
    fn empty(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| Vec::new()).collect(),
            ready: Vec::new(),
            crash: vec![false; shards],
        }
    }

    fn push(&mut self, shard: usize, item: WorkItem) {
        if self.shards[shard].is_empty() {
            let at = self.ready.partition_point(|&s| s < shard);
            self.ready.insert(at, shard);
        }
        self.shards[shard].push(item);
    }

    /// Empties the plan. Called as a batch ends, not as the next begins:
    /// the items hold jobs' frames and IMU windows, which a job's last
    /// clone frees.
    fn clear(&mut self) {
        for shard in self.ready.drain(..) {
            self.shards[shard].clear();
            self.crash[shard] = false;
        }
    }
}

/// What a shard hands back for one item, stored at the item's batch
/// index.
enum Emission {
    /// No output: a disconnect, a delivery, or an event with no item (a
    /// finished render).
    Done,
    /// Camera tick: the offload job (if a frame was published) plus the
    /// session's current camera stride (degraded sessions stride ×2).
    Camera { job: Option<VioJob>, stride: u64 },
    /// Vsync: the render request, if this display period issued one.
    Request(Option<RenderRequest>),
    /// Server-side VIO result for one job.
    Pose(PoseEstimate),
    /// The item's shard crashed before processing it. The coordinator
    /// quarantines the shard's sessions and substitutes their shadow
    /// lanes' emissions before apply.
    Crashed,
}

/// The coordinator's per-batch buffers, emptied by each batch and kept
/// between them for their capacity.
#[derive(Default)]
struct Batch {
    /// The same-time events popped for this batch, in pop order.
    /// [`Engine::run_batch`] reads them to plan the shard items, and
    /// [`Engine::apply`] drains them.
    events: Vec<Event>,
    /// One per event, filled by [`Engine::execute`].
    emissions: Vec<Emission>,
}

/// How a scheduled recovery restores its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecoveryMode {
    Restart,
    /// A restart taken because the checkpoint was missing or corrupt.
    RestartFallback,
    Catchup,
}

impl RecoveryMode {
    /// The public [`FailoverIncident::mode`] label (`"none"`: the
    /// session never recovered).
    fn label(mode: Option<Self>) -> &'static str {
        match mode {
            None => "none",
            Some(Self::Restart) => "restart",
            Some(Self::RestartFallback) => "restart_fallback",
            Some(Self::Catchup) => "catchup",
        }
    }
}

/// Per-session failover bookkeeping.
#[derive(Default)]
struct FailoverState {
    /// Last `ILXC`-encoded checkpoint, with the lane's IMU steps as it
    /// was taken.
    checkpoint: Option<(ImuSteps, Vec<u8>)>,
    /// Present while the session is quarantined: the session state
    /// machine restored from its pre-crash snapshot (private clock,
    /// observability off), stepped in the dead lane's place so its jobs
    /// and requests keep loading the link, the VIO pool and the renderer
    /// exactly as the live session would have. What it displays is
    /// lost; recovery discards it.
    shadow: Option<Lane>,
    /// The scheduled recovery: when it lands and how it restores.
    recovery: Option<(Time, RecoveryMode)>,
    restarts_used: u32,
    /// Vsyncs elapsed since the current crash.
    lost_frames: u64,
    crashed_at: Time,
    /// Open incident index into `FailoverRuntime::incidents`.
    incident: Option<usize>,
}

impl FailoverState {
    /// A restart in `mode` one restart delay from `now`, charged to the
    /// session's restart budget; `None` once the budget is spent.
    fn budgeted_restart(&mut self, now: Time, mode: RecoveryMode) -> Option<(Time, RecoveryMode)> {
        (self.restarts_used < FailoverConfig::RESTART_BUDGET).then(|| {
            self.restarts_used += 1;
            (now + FailoverConfig::RESTART_DELAY, mode)
        })
    }
}

/// Coordinator-side failover machinery, armed only when the fault plan
/// contains `WorkerCrash` windows or failover was configured — default
/// runs never touch it, keeping their output bit-identical to the
/// pre-failover engine.
struct FailoverRuntime {
    cfg: FailoverConfig,
    /// Stamped into checkpoint headers.
    config_hash: u64,
    sessions: Vec<FailoverState>,
    /// Each shard's fault-plan target name, `shard/<index>`.
    shard_targets: Vec<String>,
    /// `WorkerCrash` windows already consumed, per shard.
    crashes_fired: Vec<u32>,
    last_checkpoint: Time,
    incidents: Vec<FailoverIncident>,
}

impl FailoverRuntime {
    /// Runs one item of a quarantined session on its shadow lane — the
    /// same handlers, clock discipline and emission a live lane gives.
    /// Every vsync a dark session steps through is a lost display
    /// opportunity. Detached sessions that merely share a crashed shard
    /// have no shadow and nothing to emit.
    fn step_shadow(&mut self, id: u32, at: Key, op: &Op) -> Emission {
        let fs = &mut self.sessions[id as usize];
        let Some(shadow) = fs.shadow.as_mut() else { return Emission::Done };
        if matches!(op, Op::Vsync) {
            fs.lost_frames += 1;
        }
        process_item(shadow, at, op)
    }
}

/// The assembled engine: build with [`Engine::new`], run once. The
/// thread that calls [`Engine::run`] is the coordinator.
pub(crate) struct Engine {
    cfg: ServerConfig,
    /// Threads a wide batch is forked across (the coordinator included).
    workers: usize,
    end: Time,
    clock: SimClock,
    heap: BinaryHeap<Event>,
    next_seq: u64,
    /// Offloaded jobs by uplink arrival, then session id, then push
    /// order (the heap's tie order). A `ServerBatch` takes the jobs that
    /// have arrived by its instant.
    pending_jobs: Vec<(Time, VioJob)>,
    link: SharedLink,
    scheduler: BatchScheduler,
    admission: AdmissionController,
    /// Each session's lifecycle as the schedule sees it, updated at
    /// admission decisions, quarantines, recoveries and disconnect
    /// applies. Not a copy of `lane.session.state`: a session that
    /// disconnects while quarantined is `Disconnected` here and stays
    /// `Quarantined` on its lane, and the admission load, `VioComplete`
    /// filtering and journaling all need the former.
    states: Vec<SessionState>,
    /// `shards[s]` holds shard `s`'s lanes.
    shards: Vec<Vec<Lane>>,
    /// `session id → (shard, position within the shard)`.
    lane_of: Vec<(usize, usize)>,
    /// The batch being built or executed, refilled by every batch.
    plan: BatchPlan,
    tracer: illixr_core::obs::Tracer,
    metrics: illixr_core::obs::Metrics,
    /// Shared-link boundary recorder (link transfers are
    /// coordinator-sequential, so this one is not lane-local).
    link_recorder: Option<TraceRecorder>,
    /// `(seed, config_hash)` of the boundary recording, if enabled.
    header: Option<(u64, u64)>,
    /// Failover machinery: `None` unless worker-crash faults or an
    /// explicit failover config armed it (zero cost on default runs).
    failover: Option<FailoverRuntime>,
}

/// Time of IMU step `k` for a session — the exact expression the IMU
/// model uses, so event times and sample timestamps agree bit-for-bit.
fn imu_step_time(config: &SessionConfig, step: u64) -> Time {
    Time::from_secs_f64(step as f64 / config.imu_hz)
}

/// The first IMU step time at or after `t`.
fn imu_step_at_or_after(config: &SessionConfig, t: Time) -> Time {
    let mut step = (t.as_secs_f64() * config.imu_hz) as u64;
    while imu_step_time(config, step) < t {
        step += 1;
    }
    imu_step_time(config, step)
}

/// Server-side VIO starts from ground truth at the connect time, the
/// standard benchmark initialization.
fn filter_at_connect(session: &ClientSession, first_step: u64, now: Time) -> Msckf {
    let trajectory = session.trajectory();
    let initial = ImuState::from_pose(
        imu_step_time(&session.config, first_step),
        trajectory.pose(now),
        trajectory.velocity(now),
    );
    Msckf::new(VioConfig::fast(PinholeCamera::qvga()), initial)
}

fn vsync_time(config: &SessionConfig, index: u64) -> Time {
    let period = Duration::from_secs_f64(1.0 / config.display_hz).as_nanos() as u64;
    Time::from_nanos(index * period)
}

fn lane_attached(lane: &Lane) -> bool {
    matches!(lane.session.state, SessionState::Running | SessionState::Degraded)
}

/// Executes one batch item on its lane, after the agenda entries before
/// it. Runs on the coordinator or on a forked thread of a wide batch — it
/// must only touch lane-local state.
fn process_item(lane: &mut Lane, at: Key, op: &Op) -> Emission {
    lane.settle(at);
    lane.run(at, op)
}

/// Processes one offloaded VIO job on its session's lane, returning the
/// pose estimate to ship back.
fn run_vio(lane: &mut Lane, job: &VioJob) -> PoseEstimate {
    match lane.filter.as_mut() {
        Some(filter) => {
            for sample in job.imu.iter() {
                filter.process_imu(*sample);
            }
            let out = filter.process_frame(&job.frame.stereo(), None);
            PoseEstimate {
                timestamp: job.frame.timestamp,
                pose: out.state.pose,
                velocity: out.state.velocity,
            }
        }
        None => {
            // Ideal-VIO mode: ground truth at the frame time.
            let trajectory = lane.session.trajectory();
            PoseEstimate {
                timestamp: job.frame.timestamp,
                pose: trajectory.pose(job.frame.timestamp),
                velocity: trajectory.velocity(job.frame.timestamp),
            }
        }
    }
}

/// Runs one shard's items for a batch in plan order, handing each
/// emission to `sink` with the item's batch index.
///
/// The shard is a fault domain: the batch runs under `catch_unwind`; a
/// `WorkerCrash` fault (`crash`) raises a panic at batch start (before
/// any item), the unwind is caught, and every planned item reports
/// [`Emission::Crashed`] so the coordinator still gets exactly one
/// emission per item. The lanes underneath are untouched: the panic
/// fires before any mutation.
fn run_shard(
    lanes: &mut [Lane],
    items: &[WorkItem],
    crash: bool,
    mut sink: impl FnMut(usize, Emission),
) {
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        if crash {
            // resume_unwind skips the panic hook: the injected
            // crash is silent and deterministic.
            resume_unwind(Box::new("injected worker crash"));
        }
        for item in items {
            sink(item.index, process_item(&mut lanes[item.lane], item.at, &item.op));
        }
    }))
    .is_err();
    if crashed {
        for item in items {
            sink(item.index, Emission::Crashed);
        }
    }
}

/// Runs one fork-join group — `(shard, its lanes)` pairs — shard after
/// shard, returning every item's emission with its batch index.
fn run_group(group: Vec<(usize, &mut Vec<Lane>)>, plan: &BatchPlan) -> Vec<(usize, Emission)> {
    let mut out = Vec::new();
    for (shard, lanes) in group {
        run_shard(lanes, &plan.shards[shard], plan.crash[shard], |index, emission| {
            out.push((index, emission))
        });
    }
    out
}

impl Engine {
    /// Builds the engine and its client sessions from a finished
    /// configuration (see `ServerBuilder`).
    pub(crate) fn new(cfg: ServerConfig) -> Self {
        assert!(!cfg.server_tick.is_zero(), "server_tick must be positive");
        let map = ShardMap::new(cfg.shards);
        // Never more workers than shards: `execute` deals a wide batch's
        // ready shards into at most this many groups.
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            cfg.workers
        }
        .clamp(1, map.shards());
        let clock = SimClock::new();
        let (tracer, metrics) = if cfg.trace {
            (
                illixr_core::obs::tracer_for(Arc::new(clock.clone())),
                illixr_core::obs::Metrics::new(),
            )
        } else {
            (illixr_core::obs::Tracer::disabled(), illixr_core::obs::Metrics::disabled())
        };
        // The re-record of a replay inherits the replayed trace's
        // header, so the identity check can compare whole encodings.
        let header = cfg.record_boundary.then(|| match &cfg.replay {
            Some(r) => (r.trace.header.seed, r.trace.header.config_hash),
            None => (cfg.sessions.first().map(|s| s.seed).unwrap_or(0), cfg.config_hash()),
        });
        let link_recorder = header.map(|(seed, hash)| TraceRecorder::new(seed, hash));
        let link_boundary = match &cfg.replay {
            Some(r) if r.replay_link => {
                Boundary::replaying(TraceSource::new(r.trace.clone()), link_recorder.clone())
            }
            _ => match &link_recorder {
                Some(rec) => Boundary::recording(rec.clone()),
                None => Boundary::off(),
            },
        };

        let failover_active = !cfg.failover_is_default() || cfg.fault_plan.has_worker_crashes();
        let journaling = failover_active && cfg.failover.checkpoint_every.is_some();
        let mut shards: Vec<Vec<Lane>> = (0..map.shards()).map(|_| Vec::new()).collect();
        let mut lane_of = Vec::with_capacity(cfg.sessions.len());
        for (i, c) in cfg.sessions.iter().enumerate() {
            let lane_clock = Arc::new(SimClock::new());
            let lane_tracer = if cfg.trace {
                illixr_core::obs::tracer_for(lane_clock.clone())
            } else {
                illixr_core::obs::Tracer::disabled()
            };
            let lane_recorder = header.map(|(seed, hash)| TraceRecorder::new(seed, hash));
            let scoped_rec = lane_recorder.as_ref().map(|rec| rec.scoped(&format!("s{i}/")));
            let boundary = match (&cfg.replay, scoped_rec) {
                (Some(r), rec) => Boundary::replaying(r.session_source(i), rec),
                (None, Some(rec)) => Boundary::recording(rec),
                (None, None) => Boundary::off(),
            };
            let session = ClientSession::with_obs(
                i as u32,
                *c,
                lane_clock.clone(),
                lane_tracer.scoped(&format!("s{i}/")),
                metrics.clone(),
            )
            .with_fault_plan(cfg.fault_plan.clone())
            .with_boundary(boundary);
            let shard = map.shard_of(i as u32);
            lane_of.push((shard, shards[shard].len()));
            shards[shard].push(Lane {
                session,
                filter: None,
                clock: lane_clock,
                tracer: lane_tracer,
                recorder: lane_recorder,
                agenda: Agenda { journal: journaling.then(Vec::new), ..Agenda::default() },
            });
        }

        let states = vec![SessionState::Pending; cfg.sessions.len()];
        let end = Time::ZERO + cfg.duration;
        let link = SharedLink::new(cfg.link)
            .with_fault_plan(cfg.fault_plan.clone())
            .with_boundary(link_boundary);
        let scheduler = BatchScheduler::new(cfg.scheduler);
        let admission = AdmissionController::new(cfg.admission);
        if failover_active {
            // Failover assumes the ideal-VIO, live-generator engine: a
            // shadow lane has no filter and no boundary.
            assert!(!cfg.real_vio, "failover is incompatible with real_vio");
            assert!(!cfg.record_boundary, "failover is incompatible with record_boundary");
            assert!(cfg.replay.is_none(), "failover is incompatible with replay");
        }
        let failover = failover_active.then(|| FailoverRuntime {
            cfg: cfg.failover,
            config_hash: cfg.config_hash(),
            sessions: (0..cfg.sessions.len()).map(|_| FailoverState::default()).collect(),
            shard_targets: (0..map.shards()).map(|shard| format!("shard/{shard}")).collect(),
            crashes_fired: vec![0; map.shards()],
            last_checkpoint: Time::ZERO,
            incidents: Vec::new(),
        });
        Self {
            workers,
            end,
            clock,
            heap: BinaryHeap::new(),
            next_seq: 0,
            pending_jobs: Vec::new(),
            link,
            scheduler,
            admission,
            states,
            shards,
            lane_of,
            plan: BatchPlan::empty(map.shards()),
            tracer,
            metrics,
            link_recorder,
            header,
            failover,
            cfg,
        }
    }

    /// Runs the simulation to completion and reports.
    pub(crate) fn run(mut self) -> ServerReport {
        self.seed_schedule();
        self.run_loop();
        self.finish()
    }

    /// Tears the engine down into a report: flush-disconnects lanes,
    /// merges lane-local observability in session-id order, assembles
    /// the boundary trace (session streams by id, then link streams).
    fn finish(self) -> ServerReport {
        let Engine {
            cfg,
            end,
            link,
            scheduler,
            admission,
            shards,
            tracer,
            metrics,
            link_recorder,
            header,
            failover,
            ..
        } = self;
        // Incidents still open at the horizon stay unrecovered; their
        // lost-frame counts close out here.
        let failover_incidents = match failover {
            Some(mut f) => {
                let open: Vec<(usize, u64)> = f
                    .sessions
                    .iter_mut()
                    .filter_map(|fs| fs.incident.take().map(|i| (i, fs.lost_frames)))
                    .collect();
                for (i, lost) in open {
                    f.incidents[i].lost_frames = lost;
                }
                f.incidents
            }
            None => Vec::new(),
        };
        // Session ids are unique, so an unstable sort gives the one id
        // order and, unlike a stable one, allocates no scratch lanes.
        let mut lanes: Vec<Lane> = shards.into_iter().flatten().collect();
        lanes.sort_unstable_by_key(|lane| lane.session.id);
        assert_eq!(lanes.len(), cfg.sessions.len(), "every session has a lane");
        // The horizon observes every lane: its agenda runs out first,
        // then sessions still attached flush.
        for lane in &mut lanes {
            lane.settle((end, u8::MAX));
            if lane_attached(lane) {
                lane.session.disconnect();
            }
        }
        // Telemetry moves into the report: nothing reads it off the lane
        // afterwards, and the MTP samples are the run's largest vectors.
        let session_reports: Vec<SessionReport> = lanes
            .iter_mut()
            .map(|l| SessionReport {
                id: l.session.id,
                state: l.session.state,
                pose_error: l.session.pose_error(),
                stream_stats: l.session.stream_stats(),
                telemetry: std::mem::take(&mut l.session.telemetry),
            })
            .collect();
        if metrics.is_enabled() {
            for lane in &lanes {
                lane.session.export_topic_gauges();
            }
            let rejected =
                session_reports.iter().filter(|s| s.state == SessionState::Rejected).count() as f64;
            metrics.set_gauge("server.pool_utilization", scheduler.utilization(cfg.duration));
            metrics.set_gauge("server.admitted", session_reports.len() as f64 - rejected);
            metrics.set_gauge("server.shed_jobs", scheduler.stats().shed_jobs as f64);
        }
        // Lane tracers merge in session-id order: the only cross-source
        // sort ties are impossible (tracks are disjoint), so exported
        // traces are independent of thread interleaving.
        for lane in &lanes {
            tracer.absorb(&lane.tracer);
        }
        let boundary_trace = header.map(|(seed, hash)| {
            let mut trace = Trace::new(seed, hash);
            for lane in &lanes {
                if let Some(rec) = &lane.recorder {
                    trace.streams.extend(rec.snapshot().streams);
                }
            }
            if let Some(rec) = &link_recorder {
                trace.streams.extend(rec.snapshot().streams);
            }
            trace
        });
        let mut boundaries = lanes.iter().map(|l| &*l.session.ctx.boundary).chain([&link.boundary]);
        let replay_error = boundaries.find_map(Boundary::replay_error).cloned();
        ServerReport {
            session_reports,
            admission: admission.records().to_vec(),
            uplink: *link.stats(Direction::Uplink),
            downlink: *link.stats(Direction::Downlink),
            scheduler: *scheduler.stats(),
            pool_utilization: scheduler.utilization(cfg.duration),
            duration: cfg.duration,
            tracer,
            metrics,
            boundary_trace,
            failover_incidents,
            replay_error,
        }
    }

    fn push(&mut self, time: Time, session: u32, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, session, seq, kind });
    }

    /// Seeds the schedule: one connect per session, plus the global
    /// batching tick.
    fn seed_schedule(&mut self) {
        let end = self.end;
        for (i, s) in self.cfg.sessions.clone().iter().enumerate() {
            self.push(s.connect_at.min(end), i as u32, EventKind::Connect);
        }
        let tick = self.cfg.server_tick;
        let mut t = Time::ZERO + tick;
        while t <= end {
            self.push(t, u32::MAX, EventKind::ServerBatch);
            t += tick;
        }
    }

    /// Queues a delivery on the agenda of the lane that runs the session:
    /// its shadow while it is quarantined, its own lane otherwise.
    fn deliver(&mut self, at: Key, id: u32, op: Op) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (shard, lane) = self.lane_of[id as usize];
        let shadow = self.failover.as_mut().and_then(|f| f.sessions[id as usize].shadow.as_mut());
        shadow.unwrap_or(&mut self.shards[shard][lane]).agenda.push(at, seq, op);
    }

    /// The earliest agenda entry of `shard`'s lanes at or after the start
    /// of its next `WorkerCrash` window, while one has yet to fire: the
    /// first work of the shard's that no heap event carries.
    fn crash_work(&self, shard: usize) -> Option<Key> {
        let f = self.failover.as_ref()?;
        let target = &f.shard_targets[shard];
        let start = Time::from_nanos(
            self.cfg.fault_plan.next_worker_crash(target, f.crashes_fired[shard])?,
        );
        let lanes = self.shards[shard].iter();
        lanes.filter_map(|lane| lane.agenda.first_from(&lane.session.config, start)).min()
    }

    /// The main loop: barrier events dispatch alone; everything else
    /// sharing one timestamp drains into a batch for the shards. A batch
    /// also starts at a shard's crash work ([`Engine::crash_work`]) that
    /// comes before the heap's head, so the crash fires there.
    fn run_loop(&mut self) {
        let mut batch = Batch::default();
        loop {
            let head = self.heap.peek().map(Event::at);
            let crash = (0..self.shards.len()).filter_map(|shard| self.crash_work(shard)).min();
            let from_heap = head.is_some_and(|head| crash.is_none_or(|crash| head < crash));
            let start = if from_heap { head } else { crash };
            let Some((time, _)) = start.filter(|&(time, _)| time <= self.end) else { break };
            self.clock.advance_to(time);
            if from_heap {
                let event = self.heap.pop().expect("peeked");
                if event.kind.is_barrier() {
                    self.dispatch_barrier(event);
                    continue;
                }
                batch.events.push(event);
            }
            while let Some(next) = self.heap.peek() {
                if next.time == time && !next.kind.is_barrier() {
                    batch.events.push(self.heap.pop().expect("peeked"));
                } else {
                    break;
                }
            }
            let until = match self.heap.peek() {
                Some(next) if next.time == time => next.at(),
                _ => (time, u8::MAX),
            };
            self.run_batch(&mut batch, time, until);
        }
    }

    /// Splits a same-time batch into shard work and apply actions, runs
    /// the shard work (forked or inline), then applies follow-ups in
    /// original pop order — the semantics of one sequential loop. The
    /// batch's key range runs up to `until`: agenda entries in it are the
    /// batch's work too.
    fn run_batch(&mut self, batch: &mut Batch, now: Time, until: Key) {
        let Batch { events, emissions } = batch;
        // Quarantined sessions' items never reach a shard: their shadow
        // lanes run them here, in pop order, and the emissions are
        // substituted after execution.
        let mut shadowed: Vec<(usize, Emission)> = Vec::new();
        for (index, event) in events.iter().enumerate() {
            let (at, id) = (event.at(), event.session);
            let op = match event.kind {
                EventKind::CameraTick { .. } => Op::Camera,
                EventKind::Vsync { .. } => Op::Vsync,
                EventKind::Disconnect => Op::Disconnect,
                // A finished render has no lane work; barriers never batch.
                _ => continue,
            };
            if self.quarantined(id) {
                let f = self.failover.as_mut().expect("quarantine implies failover runtime");
                shadowed.push((index, f.step_shadow(id, at, &op)));
            } else {
                let (shard, lane) = self.lane_of[id as usize];
                self.plan.push(shard, WorkItem { index, lane, at, op });
            }
        }
        // Fire due WorkerCrash windows: a flagged shard panics at batch
        // start. Only shards with work in the batch can crash — items in
        // the plan, or agenda entries in its key range; an idle shard has
        // nothing to lose.
        let mut crashed: Vec<usize> = Vec::new();
        for shard in 0..self.shards.len() {
            let Some(f) = &self.failover else { break };
            let due =
                self.cfg.fault_plan.worker_crashes_due(&f.shard_targets[shard], now.as_nanos());
            let has_items = !self.plan.shards[shard].is_empty();
            if due > f.crashes_fired[shard]
                && (has_items || self.crash_work(shard).is_some_and(|key| key < until))
            {
                self.failover.as_mut().expect("checked above").crashes_fired[shard] = due;
                // Only a shard with items runs, and panics, this batch.
                self.plan.crash[shard] = has_items;
                crashed.push(shard);
            }
        }
        self.execute(events.len(), emissions);
        for shard in crashed {
            self.quarantine_shard(shard, now, until, emissions);
        }
        self.plan.clear();
        for (index, emission) in shadowed {
            emissions[index] = emission;
        }
        self.apply(events, emissions);
    }

    /// Runs the plan's items on the shards and collects their emissions
    /// into `emissions`, indexed by batch position (`len` entries; an
    /// item that ran nowhere reads [`Emission::Done`]).
    ///
    /// Inline unless the batch has at least [`PARALLEL_THRESHOLD`] items
    /// and `workers > 1`. Then it is one scoped fork-join: the ready
    /// shards' lanes are dealt round-robin into at most `workers` groups,
    /// a scoped thread runs each group but the last, which the
    /// coordinator runs itself, and joining the scope is the barrier —
    /// every lane mutation of the batch happens before `execute`
    /// returns. Identical results either way (the worker-invariance
    /// golden tests pin it).
    fn execute(&mut self, len: usize, emissions: &mut Vec<Emission>) {
        emissions.clear();
        emissions.resize_with(len, || Emission::Done);
        let (shards, plan, workers) = (&mut self.shards, &self.plan, self.workers);
        let items: usize = plan.ready.iter().map(|&shard| plan.shards[shard].len()).sum();
        if workers == 1 || items < PARALLEL_THRESHOLD {
            for &shard in &plan.ready {
                run_shard(
                    &mut shards[shard],
                    &plan.shards[shard],
                    plan.crash[shard],
                    |index, emission| emissions[index] = emission,
                );
            }
            return;
        }
        let n = plan.ready.len().min(workers);
        let mut groups: Vec<Vec<(usize, &mut Vec<Lane>)>> = (0..n).map(|_| Vec::new()).collect();
        let ready =
            shards.iter_mut().enumerate().filter(|(shard, _)| !plan.shards[*shard].is_empty());
        for (k, pair) in ready.enumerate() {
            groups[k % n].push(pair);
        }
        let own = groups.pop().expect("a wide batch has a ready shard");
        std::thread::scope(|scope| {
            let forked: Vec<_> = groups
                .into_iter()
                .map(|group| scope.spawn(move || run_group(group, plan)))
                .collect();
            let mut store = |pairs: Vec<(usize, Emission)>| {
                for (index, emission) in pairs {
                    emissions[index] = emission;
                }
            };
            store(run_group(own, plan));
            for handle in forked {
                store(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
            }
        });
    }

    /// The sequential tail of a batch: link transfers, heap pushes and
    /// cross-session bookkeeping, in original pop order.
    fn apply(&mut self, events: &mut Vec<Event>, emissions: &mut Vec<Emission>) {
        for (event, emission) in events.drain(..).zip(emissions.drain(..)) {
            let (now, id) = (event.time, event.session);
            match event.kind {
                EventKind::CameraTick { step } => {
                    let Emission::Camera { job, stride } = emission else {
                        unreachable!("camera items emit Camera")
                    };
                    if let Some(job) = job {
                        let arrive =
                            self.link.transfer(Direction::Uplink, now, ServerConfig::JOB_BYTES);
                        self.record_link_counter(Direction::Uplink, now);
                        let i = self
                            .pending_jobs
                            .partition_point(|(t, j)| (*t, j.session) <= (arrive, id));
                        self.pending_jobs.insert(i, (arrive, job));
                    }
                    let next = imu_step_time(&self.cfg.sessions[id as usize], step + stride);
                    if next <= self.session_end(id) {
                        self.push(next, id, EventKind::CameraTick { step: step + stride });
                    }
                }
                EventKind::TokenRendered(request) => {
                    let token = RenderToken {
                        seq: request.seq,
                        pose_timestamp: request.pose_timestamp,
                        requested_at: request.requested_at,
                    };
                    let arrive =
                        self.link.transfer(Direction::Downlink, now, ServerConfig::TOKEN_BYTES);
                    self.record_link_counter(Direction::Downlink, now);
                    self.deliver((arrive, TOKEN), id, Op::Token(token));
                }
                EventKind::Vsync { index } => {
                    if let Emission::Request(Some(request)) = emission {
                        let arrive =
                            self.link.transfer(Direction::Uplink, now, ServerConfig::REQUEST_BYTES);
                        self.record_link_counter(Direction::Uplink, now);
                        // A request arriving after the horizon never renders.
                        let done = arrive + ServerConfig::RENDER_COST;
                        if self.tracer.is_enabled() && arrive <= self.end {
                            self.tracer.record_span_args(
                                &format!("render/s{id}"),
                                "render",
                                arrive.as_nanos(),
                                done.as_nanos(),
                                &[("seq", format!("{}", request.seq))],
                            );
                        }
                        self.push(done, id, EventKind::TokenRendered(request));
                    }
                    let next = vsync_time(&self.cfg.sessions[id as usize], index + 1);
                    if next <= self.session_end(id) {
                        self.push(next, id, EventKind::Vsync { index: index + 1 });
                    }
                }
                EventKind::Disconnect => {
                    if self.attached(id) {
                        self.states[id as usize] = SessionState::Disconnected;
                    } else if self.quarantined(id) {
                        // A scheduled disconnect lands while the session
                        // is quarantined: it leaves for good — cancel
                        // any pending recovery and close the incident.
                        // What the shadow's agenda still holds (a first
                        // step after the session's own disconnect, a
                        // delivery in flight) falls back to the lane,
                        // like every later item.
                        self.states[id as usize] = SessionState::Disconnected;
                        if let Some(f) = self.failover.as_mut() {
                            let fs = &mut f.sessions[id as usize];
                            if let Some(shadow) = fs.shadow.take() {
                                let (shard, lane) = self.lane_of[id as usize];
                                self.shards[shard][lane].agenda = shadow.agenda;
                            }
                            fs.recovery = None;
                            let lost = fs.lost_frames;
                            if let Some(i) = fs.incident.take() {
                                f.incidents[i].lost_frames = lost;
                            }
                        }
                    }
                }
                _ => unreachable!("barrier events dispatch alone"),
            }
        }
    }

    /// Dispatches one barrier event on the coordinator.
    fn dispatch_barrier(&mut self, event: Event) {
        let (now, at) = (event.time, event.at());
        match event.kind {
            EventKind::Connect => self.on_connect(now, event.session),
            EventKind::ServerBatch => self.on_server_batch(now),
            EventKind::VioComplete(jobs) => self.on_vio_complete(at, jobs),
            EventKind::Recover => self.on_recover(now, event.session),
            _ => unreachable!("not a barrier"),
        }
    }

    fn on_server_batch(&mut self, now: Time) {
        self.maybe_checkpoint(now);
        // A job arriving on this instant joins: arrivals sort before the
        // batch.
        let arrived = self.pending_jobs.partition_point(|(t, _)| *t <= now);
        if arrived == 0 {
            return;
        }
        let mut jobs: Vec<VioJob> = self.pending_jobs.drain(..arrived).map(|(_, j)| j).collect();
        let bounded = self.scheduler.schedule_batch_bounded(now, jobs.len());
        if bounded.shed > 0 {
            // Shed the oldest jobs: their poses are the stalest, and
            // the session falls back to its last delivered pose either
            // way.
            jobs.drain(..bounded.shed);
            if self.tracer.is_enabled() {
                self.tracer.counter(
                    "vio_pool",
                    "vio_pool.shed",
                    now.as_nanos(),
                    self.scheduler.stats().shed_jobs as f64,
                );
            }
        }
        let Some(placed) = bounded.placement else {
            return;
        };
        if self.tracer.is_enabled() {
            self.tracer.record_span_args(
                &format!("vio_pool/w{}", placed.worker),
                "vio_batch",
                placed.start.as_nanos(),
                placed.end.as_nanos(),
                &[("jobs", format!("{}", jobs.len()))],
            );
        }
        if self.metrics.is_enabled() {
            self.metrics.record_ns(
                "vio_pool.batch_latency",
                placed.end.as_nanos().saturating_sub(now.as_nanos()),
            );
            self.metrics.record_ns(
                "vio_pool.batch_wait",
                placed.start.as_nanos().saturating_sub(now.as_nanos()),
            );
        }
        self.push(placed.end, u32::MAX, EventKind::VioComplete(jobs));
    }

    /// A completed VIO batch: per-session filter updates run on the
    /// shards (they only touch lane state); the downlink transfers then
    /// serialize in job order, as they always did.
    fn on_vio_complete(&mut self, at: Key, jobs: Vec<VioJob>) {
        let now = at.0;
        // Quarantined sessions' shadow jobs run the normal (ideal) VIO
        // path on the dead lane: run_vio reads only its trajectory,
        // which is a pure function of the session seed, so the crashed
        // lane state underneath never matters.
        let jobs: Vec<VioJob> =
            jobs.into_iter().filter(|job| self.attached_or_quarantined(job.session)).collect();
        if jobs.is_empty() {
            return;
        }
        for (index, job) in jobs.iter().enumerate() {
            let (shard, lane) = self.lane_of[job.session as usize];
            // Jobs are zero-copy: the clone shares the frame's view and
            // the frozen IMU window.
            self.plan.push(shard, WorkItem { index, lane, at, op: Op::Vio(job.clone()) });
        }
        let mut emissions = Vec::new();
        self.execute(jobs.len(), &mut emissions);
        self.plan.clear();
        for (job, emission) in jobs.iter().zip(emissions) {
            let Emission::Pose(pose) = emission else { unreachable!("vio items emit Pose") };
            let arrive = self.link.transfer(Direction::Downlink, now, ServerConfig::POSE_BYTES);
            self.record_link_counter(Direction::Downlink, now);
            self.deliver((arrive, POSE), job.session, Op::Pose(pose));
        }
    }

    fn on_connect(&mut self, now: Time, id: u32) {
        let offered = self.offered_load(&self.cfg.sessions[id as usize]);
        let load_before = self.current_load();
        let decision = self.admission.admit(now, id, load_before, offered);
        let end = self.session_end(id);
        let (shard, lane_pos) = self.lane_of[id as usize];
        let lane = &mut self.shards[shard][lane_pos];
        let degraded = match decision {
            crate::admission::AdmissionDecision::Accept => false,
            crate::admission::AdmissionDecision::Degrade => true,
            crate::admission::AdmissionDecision::Reject => {
                self.states[id as usize] = SessionState::Rejected;
                lane.session.state = SessionState::Rejected;
                return;
            }
        };
        lane.clock.advance_to(now);
        let first_step = lane.session.connect(now, degraded);
        let config = lane.session.config;
        if self.cfg.real_vio {
            lane.filter = Some(filter_at_connect(&lane.session, first_step, now));
        }
        // The first tick runs even when the session leaves before it (a
        // disconnect scheduled ahead of the connect's step); later ticks
        // stop at the session's end. None runs past the horizon.
        let first_at = imu_step_time(&config, first_step);
        let last = if first_at <= self.end { end.max(first_at) } else { end };
        lane.agenda.imu = ImuSteps::new(&config, first_step, last);
        let stride = lane.session.camera_steps();
        self.states[id as usize] =
            if degraded { SessionState::Degraded } else { SessionState::Running };
        // First camera frame one full period after connect, so its IMU
        // window is populated.
        let cam_step = first_step + stride;
        if imu_step_time(&config, cam_step) <= end {
            self.push(
                imu_step_time(&config, cam_step),
                id,
                EventKind::CameraTick { step: cam_step },
            );
        }
        // First vsync strictly after connect.
        let period = Duration::from_secs_f64(1.0 / config.display_hz).as_nanos() as u64;
        let vsync_index = now.as_nanos() / period + 1;
        if vsync_time(&config, vsync_index) <= end {
            self.push(
                vsync_time(&config, vsync_index),
                id,
                EventKind::Vsync { index: vsync_index },
            );
        }
        if let Some(at) = config.disconnect_at {
            if at <= Time::ZERO + self.cfg.duration {
                self.push(at, id, EventKind::Disconnect);
            }
        }
    }

    /// The load one session adds at full rates: the largest share it
    /// takes of any shared resource — uplink bits, downlink bits, or
    /// VIO pool time per second.
    fn offered_load(&self, config: &SessionConfig) -> f64 {
        let c = &self.cfg;
        let up_bits = (ServerConfig::JOB_BYTES as f64 * config.camera_hz
            + ServerConfig::REQUEST_BYTES as f64 * config.display_hz)
            * 8.0;
        let down_bits = (ServerConfig::POSE_BYTES as f64 * config.camera_hz
            + ServerConfig::TOKEN_BYTES as f64 * config.display_hz)
            * 8.0;
        let up = if c.link.uplink_bps.is_finite() { up_bits / c.link.uplink_bps } else { 0.0 };
        let down =
            if c.link.downlink_bps.is_finite() { down_bits / c.link.downlink_bps } else { 0.0 };
        let pool =
            c.scheduler.per_job.as_secs_f64() * config.camera_hz / c.scheduler.workers as f64;
        // Negotiated session features (hand tracking, hit testing,
        // anchors) scale the estimate: the front-end encodes their
        // per-frame server cost into the session's load weight.
        up.max(down).max(pool) * config.load_weight
    }

    /// Load currently admitted sessions place on the server. Degraded
    /// sessions run camera and render streams at half rate. Reads
    /// [`Engine::states`].
    fn current_load(&self) -> f64 {
        self.states
            .iter()
            .enumerate()
            .zip(&self.cfg.sessions)
            .map(|((id, state), config)| match state {
                SessionState::Running => self.offered_load(config),
                SessionState::Degraded => self.offered_load(config) * 0.5,
                // A shadow keeps producing traffic at the session's
                // admitted rate, so admission keeps charging for it.
                SessionState::Quarantined => {
                    let degraded = self
                        .failover
                        .as_ref()
                        .and_then(|f| f.sessions[id].shadow.as_ref())
                        .is_some_and(|l| l.session.state == SessionState::Degraded);
                    self.offered_load(config) * if degraded { 0.5 } else { 1.0 }
                }
                _ => 0.0,
            })
            .sum()
    }

    /// Last instant the session participates in.
    fn session_end(&self, id: u32) -> Time {
        let end = self.end;
        match self.cfg.sessions[id as usize].disconnect_at {
            Some(t) if t < end => t,
            _ => end,
        }
    }

    fn attached(&self, id: u32) -> bool {
        matches!(self.states[id as usize], SessionState::Running | SessionState::Degraded)
    }

    fn quarantined(&self, id: u32) -> bool {
        self.states[id as usize] == SessionState::Quarantined
    }

    fn attached_or_quarantined(&self, id: u32) -> bool {
        self.attached(id) || self.quarantined(id)
    }

    /// A shard crashed in the batch at `now` whose key range runs up to
    /// `until`: snapshot-and-quarantine every attached session it owned,
    /// open incidents, run the session's work in the batch on its shadow,
    /// and schedule recoveries per the configured policy.
    fn quarantine_shard(
        &mut self,
        shard: usize,
        now: Time,
        until: Key,
        emissions: &mut [Emission],
    ) {
        let mut scheduled: Vec<(u32, Time)> = Vec::new();
        let f = self.failover.as_mut().expect("crash implies failover runtime");
        for (pos, lane) in self.shards[shard].iter_mut().enumerate() {
            // The injected panic fires before any item ran, so once its
            // entries before `now` have run the lane holds exactly its
            // pre-batch state: the snapshot (and the shadow restored from
            // it) is crash-consistent. Its work in the batch belongs to
            // the crashed batch and runs on the shadow, which takes the
            // agenda over — or, on a detached lane, which has no shadow,
            // dies with the batch.
            lane.settle((now, 0));
            if !lane_attached(lane) {
                if lane.agenda.first_from(&lane.session.config, now) == Some((now, TICK)) {
                    lane.agenda.imu.advance(&lane.session.config);
                }
                continue;
            }
            let id = lane.session.id as usize;
            let shadow = Lane::restored(
                id as u32,
                lane.session.config,
                &lane.session.snapshot(),
                self.cfg.fault_plan.clone(),
                std::mem::take(&mut lane.agenda),
            );
            lane.session.quarantine();
            self.states[id] = SessionState::Quarantined;
            let fs = &mut f.sessions[id];
            (fs.shadow, fs.crashed_at, fs.lost_frames) = (Some(shadow), now, 0);
            fs.incident = Some(f.incidents.len());
            f.incidents.push(FailoverIncident {
                session: id as u32,
                crashed_at: now,
                recovered_at: None,
                mode: RecoveryMode::label(None),
                lost_frames: 0,
            });
            // Its items reported `Crashed` (plan order keeps them in event
            // order); the rest of its work in the batch is on the agenda.
            for item in self.plan.shards[shard].iter().filter(|item| item.lane == pos) {
                emissions[item.index] = f.step_shadow(id as u32, item.at, &item.op);
            }
            let cfg = f.cfg;
            let fs = &mut f.sessions[id];
            let shadow = fs.shadow.as_mut().expect("set above");
            shadow.settle(until);
            fs.recovery = match (cfg.policy, &fs.checkpoint) {
                (FailoverPolicy::Disabled, _) => None,
                (FailoverPolicy::RestartOnly, _) => fs.budgeted_restart(now, RecoveryMode::Restart),
                (FailoverPolicy::CheckpointCatchup, Some((from, _))) => {
                    // Catch-up replays the journal and every IMU tick
                    // since the checkpoint, this batch's included.
                    let agenda = &shadow.agenda;
                    let journaled = agenda.journal.as_ref().map_or(0, Vec::len);
                    let events = journaled as u32 + (agenda.imu.step - from.step) as u32;
                    let cost =
                        FailoverConfig::RESTORE_COST + FailoverConfig::CATCHUP_PER_EVENT * events;
                    Some((now + cost, RecoveryMode::Catchup))
                }
                (FailoverPolicy::CheckpointCatchup, None) => {
                    fs.budgeted_restart(now, RecoveryMode::RestartFallback)
                }
            };
            if let Some((at, _)) = fs.recovery {
                scheduled.push((id as u32, at));
            }
        }
        for (id, at) in scheduled {
            self.push(at, id, EventKind::Recover);
        }
    }

    /// At `ServerBatch` boundaries, snapshots every attached session
    /// into a fresh `ILXC` checkpoint once per configured period,
    /// truncating its journal. Each lane first settles its agenda up to
    /// the barrier's key: work sorting before the barrier runs (journaled,
    /// then dropped here), later work journals after — so the journal
    /// restarts exactly at the snapshot boundary.
    fn maybe_checkpoint(&mut self, now: Time) {
        let Some(f) = self.failover.as_ref() else { return };
        let Some(period) = f.cfg.checkpoint_every else { return };
        if now < f.last_checkpoint + period {
            return;
        }
        self.failover.as_mut().expect("checked above").last_checkpoint = now;
        for id in 0..self.cfg.sessions.len() {
            if !self.attached(id as u32) {
                continue;
            }
            let (shard, lane_pos) = self.lane_of[id];
            let lane = &mut self.shards[shard][lane_pos];
            lane.settle((now, EventKind::ServerBatch.priority()));
            let snap = lane.session.snapshot();
            let f = self.failover.as_mut().expect("checked above");
            let mut ck = Checkpoint::new(self.cfg.sessions[id].seed, f.config_hash, now.as_nanos());
            ck.entries.push(("session".to_owned(), snap.encode()));
            f.sessions[id].checkpoint = Some((lane.agenda.imu, ck.encode()));
            lane.agenda.journal.as_mut().expect("checkpointing journals").clear();
        }
    }

    /// A scheduled recovery lands: restore the session — from its last
    /// checkpoint plus catch-up replay of the journaled deliveries, or
    /// from a cold restart resynchronized off the shadow lane — and
    /// swap it onto its lane.
    fn on_recover(&mut self, now: Time, id: u32) {
        let idu = id as usize;
        if !self.quarantined(id) {
            // Disconnected (or already recovered) while the recovery
            // was in flight: nothing to restore.
            return;
        }
        let Some(f) = self.failover.as_mut() else { return };
        let corrupt = f.cfg.corrupt_checkpoints;
        let fs = &mut f.sessions[idu];
        let Some((_, mode)) = fs.recovery.filter(|&(at, _)| at == now) else { return };
        let crashed_at = fs.crashed_at;
        let lost = fs.lost_frames;
        let config = self.cfg.sessions[idu];
        // The shadow runs everything before the recovery, same-instant
        // deliveries included, so they are journaled before catch-up
        // replays the journal.
        let recover = (now, EventKind::Recover.priority());
        let shadow = fs.shadow.as_mut().expect("quarantined session has a shadow");
        shadow.settle(recover);
        let (imu, snap) = if mode == RecoveryMode::Catchup {
            let (imu, mut bytes) =
                fs.checkpoint.clone().expect("catch-up scheduled with a checkpoint");
            if corrupt {
                bytes.pop();
            }
            // Strict decode: corruption is a typed error, never a
            // panic. A bad checkpoint falls back to a budgeted restart.
            let decoded = match Checkpoint::decode(&bytes) {
                Ok(ck) => ck.entry("session").and_then(|b| SessionSnapshot::decode(b).ok()),
                Err(_) => None,
            };
            let Some(snap) = decoded else {
                fs.recovery = fs.budgeted_restart(now, RecoveryMode::RestartFallback);
                if let Some((at, _)) = fs.recovery {
                    self.push(at, id, EventKind::Recover);
                }
                return;
            };
            (imu, snap)
        } else {
            // Cold restart: admission level and plugin counters (IMU
            // iterations, camera/request sequence, vsync index) resume
            // from the shadow, so sensor streams stay sequence-aligned;
            // the integrator re-anchors to ground truth at the recovery
            // instant; windows, history and telemetry are lost.
            let traj = Trajectory::walking(config.seed);
            let snap = SessionSnapshot {
                last_cam: None,
                integrator_state: ImuState::from_pose(now, traj.pose(now), traj.velocity(now)),
                integrator_history: Vec::new(),
                anchor_timestamp: now,
                imu_window: Vec::new(),
                fast_pose: None,
                last_slow_pose: None,
                latest_token: None,
                displayed_seq: None,
                telemetry: SessionTelemetry::default(),
                ..shadow.session.snapshot()
            };
            (shadow.agenda.imu, snap)
        };
        // The restored lane takes the shadow's agenda over, from the
        // checkpoint's IMU step on a catch-up, and journals afresh.
        let mut agenda = fs.shadow.take().expect("quarantined session has a shadow").agenda;
        let journal = agenda.journal.as_mut().map(std::mem::take);
        agenda.imu = imu;
        let mut restored = Lane::restored(id, config, &snap, self.cfg.fault_plan.clone(), agenda);
        if mode == RecoveryMode::Catchup {
            for (at, op) in journal.iter().flatten() {
                process_item(&mut restored, *at, op);
            }
        }
        restored.settle(recover);
        let Lane { mut session, agenda, .. } = restored;
        let degraded = session.state == SessionState::Degraded;
        let (shard, lane_pos) = self.lane_of[idu];
        let lane = &mut self.shards[shard][lane_pos];
        session.adopt_runtime(
            lane.clock.clone(),
            lane.tracer.scoped(&format!("s{id}/")),
            self.metrics.clone(),
        );
        lane.clock.advance_to(now);
        lane.session = session;
        lane.agenda = agenda;
        self.states[idu] = if degraded { SessionState::Degraded } else { SessionState::Running };
        let f = self.failover.as_mut().expect("checked above");
        let fs = &mut f.sessions[idu];
        fs.recovery = None;
        if mode != RecoveryMode::Catchup {
            // A restart abandons the pre-crash lineage: the old
            // checkpoint and journal no longer describe this session.
            fs.checkpoint = None;
        }
        if let Some(i) = fs.incident.take() {
            let inc = &mut f.incidents[i];
            inc.recovered_at = Some(now);
            inc.mode = RecoveryMode::label(Some(mode));
            inc.lost_frames = lost;
        }
        if self.metrics.is_enabled() {
            self.metrics.record_ns(
                "failover.recovery",
                now.as_nanos().saturating_sub(crashed_at.as_nanos()),
            );
            self.metrics.record_ns("failover.lost_frames", lost);
        }
    }

    /// Samples one direction's queue backlog (in milliseconds) onto the
    /// `link` counter track, right after a transfer was enqueued.
    fn record_link_counter(&self, direction: Direction, now: Time) {
        if !self.tracer.is_enabled() {
            return;
        }
        let name = match direction {
            Direction::Uplink => "uplink_queue_ms",
            Direction::Downlink => "downlink_queue_ms",
        };
        let backlog = self.link.queue_delay(direction, now);
        self.tracer.counter("link", name, now.as_nanos(), backlog.as_secs_f64() * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_sensors::types::CameraFrame;

    /// Steps sessions 0..3 through `process_item` — the function every
    /// shard worker runs — for `frames` camera periods, with or without a
    /// server-side filter, and returns each job's frame as the test held
    /// it (cloned before VIO ran) beside the frame VIO was handed.
    fn frames_through_vio(real_vio: bool, frames: u64) -> Vec<(CameraFrame, CameraFrame)> {
        let mut seen = Vec::new();
        for id in 0..3u32 {
            let config = SessionConfig::new(40 + id as u64);
            let clock = Arc::new(SimClock::new());
            let mut lane = Lane {
                session: ClientSession::new(id, config, clock.clone()),
                filter: None,
                clock,
                tracer: illixr_core::obs::Tracer::disabled(),
                recorder: None,
                agenda: Agenda::default(),
            };
            let first_step = lane.session.connect(Time::ZERO, false);
            lane.agenda.imu = ImuSteps::new(&config, first_step, Time::from_millis(60_000));
            if real_vio {
                lane.filter = Some(filter_at_connect(&lane.session, first_step, Time::ZERO));
            }
            let stride = lane.session.camera_steps();
            for frame in 1..=frames {
                // The camera item settles the IMU ticks through the
                // frame time, the one at the frame time included.
                let now = imu_step_time(&config, first_step + frame * stride);
                let Emission::Camera { job: Some(job), .. } =
                    process_item(&mut lane, (now, 2), &Op::Camera)
                else {
                    panic!("a live camera publishes every tick");
                };
                let held = job.frame.clone();
                assert!(!held.is_rendered(), "nothing before VIO reads pixels");
                let Emission::Pose(pose) = process_item(&mut lane, (now, 5), &Op::Vio(job.clone()))
                else {
                    panic!("vio items emit Pose");
                };
                assert_eq!(pose.timestamp, held.timestamp);
                seen.push((held, job.frame));
            }
        }
        seen
    }

    #[test]
    fn ideal_vio_never_renders_a_frame() {
        let seen = frames_through_vio(false, 4);
        assert_eq!(seen.len(), 12);
        assert!(seen.iter().all(|(held, sent)| !held.is_rendered() && !sent.is_rendered()));
    }

    #[test]
    fn real_vio_renders_each_frame_it_consumes_exactly_once() {
        let seen = frames_through_vio(true, 4);
        assert_eq!(seen.len(), 12);
        for (held, sent) in &seen {
            assert!(held.is_rendered() && sent.is_rendered());
            // One pair behind every holder: the filter's render is the
            // one a later reader gets, not a second one.
            assert!(Arc::ptr_eq(&held.stereo().left, &sent.stereo().left));
        }
    }
}
