//! Deterministic discrete-event execution of the integrated system.
//!
//! A live XR run depends on the host machine; the paper had to run ILLIXR
//! on three physical platforms (desktop, Jetson-HP, Jetson-LP) to produce
//! its figures. ILLIXR-rs additionally provides this *simulated mode*: the
//! same plugins execute on a virtual clock, with their per-invocation
//! execution **costs** supplied by a platform timing model instead of the
//! host CPU. Contention is modeled structurally — a fixed number of CPU
//! cores and GPU slots, FIFO dispatch, releases skipped while the previous
//! instance of a component is still running — so deadline misses, frame
//! drops and queueing-induced variability emerge from the schedule exactly
//! as they do on a real constrained platform (paper §IV-A).
//!
//! Components still perform their real computation when dispatched (so
//! VIO really tracks features, reprojection really warps pixels); only
//! *how long that work is charged on the virtual timeline* comes from the
//! model.
//!
//! A task runs one invocation at a time. The invocation in flight is one
//! [`FrameRecord`] whose `end` is its scheduled finish, logged when that
//! finish pops. A preemptive task that finds its resource full starts
//! anyway and pushes every slot holder's `end` out by its cost; the finish
//! event each such delay leaves behind no longer matches `end` and is
//! skipped.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

use crate::clock::{Clock, SimClock};
use crate::obs::{Metrics, Tracer};
use crate::sched::{
    ChainId, ChainOutcome, ChainSpec, ChainTracker, Policy, PolicyKind, PriorityClass, ReadyJob,
};
use crate::telemetry::{export_invocation, FrameRecord, RecordLogger};
use crate::time::Time;

/// The hardware resource a task occupies while executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// A CPU core from the platform's pool.
    Cpu,
    /// A GPU execution slot (compute or graphics).
    Gpu,
    /// An edge-server compute slot behind a link: work placed here
    /// frees the device's CPU/GPU but pays transfer latency inside its
    /// modeled cost (device/edge placement, paper §V-F footnote 2).
    Remote,
}

/// Identifier of a registered task.
pub type TaskId = usize;

/// Context handed to a task's runner at dispatch.
#[derive(Debug, Clone, Copy)]
pub struct Dispatch {
    /// The release (period boundary) this invocation belongs to.
    pub release: Time,
    /// Virtual time at which execution starts.
    pub start: Time,
    /// 0-based invocation counter.
    pub invocation: u64,
}

/// What a task invocation costs and did.
#[derive(Debug, Clone, Copy)]
pub struct ExecOutcome {
    /// Modeled execution cost charged on the virtual timeline.
    pub cost: Duration,
    /// Input-dependent work factor (telemetry only).
    pub work_factor: f64,
    /// False when the task had no input; the invocation is not logged.
    pub did_work: bool,
}

/// A periodic task specification.
pub struct TaskSpec {
    /// Component name used in telemetry.
    pub name: String,
    /// Resource occupied during execution.
    pub resource: Resource,
    /// Release period.
    pub period: Duration,
    /// Offset of the first release from time zero. Reprojection uses this
    /// to run "as late as possible before vsync" (paper §II-B footnote).
    pub offset: Duration,
    /// Relative deadline; an invocation finishing after
    /// `release + deadline` is a deadline miss.
    pub deadline: Duration,
    /// Must be true: a release that arrives while a previous invocation
    /// of the same task is still running or queued is *skipped* (counted
    /// as a drop) — the "forced to skip the next frame" behaviour of
    /// §IV-A1. A task runs one invocation at a time, so
    /// [`SimEngine::add_task`] panics when this is false.
    pub drop_if_busy: bool,
    /// Dispatch priority: among queued tasks waiting for the same
    /// resource, higher priority dispatches first (FIFO within a
    /// priority). XR runtimes run reprojection at high GPU priority so
    /// the compositor is never starved by the application.
    pub priority: u8,
    /// When true and no slot is free at release, the task *preempts*:
    /// it executes immediately and every task currently running on the
    /// resource is delayed by its cost — the high-priority preemptive
    /// GPU context real compositors use for asynchronous timewarp.
    pub preemptive: bool,
    /// Preemption granularity: how long a preemptive release must wait
    /// for the running work to reach a preemption point (a draw-call /
    /// compute-block boundary). Only charged when the resource was
    /// actually busy. Desktops preempt almost instantly; embedded GPUs
    /// are coarser — which is what makes reprojection latency grow with
    /// application complexity on the Jetsons (paper Table IV).
    pub preempt_latency: Duration,
    /// Semantic class consulted by the scheduling policy: EDF ignores
    /// it, the adaptive governor sheds `Perception`/`Visual` rates
    /// first and `Audio`/`BestEffort` jobs last, never `Critical`.
    pub class: PriorityClass,
}

/// The function executed at dispatch: performs the component's real work
/// and returns its modeled cost.
pub(crate) type TaskRunner = Box<dyn FnMut(Dispatch) -> ExecOutcome>;

struct Task {
    spec: TaskSpec,
    runner: TaskRunner,
    invocation: u64,
    /// Release index: counts every period boundary, including releases
    /// that were dropped or shed (it is the job's `seq`).
    release_seq: u64,
    /// A release of this task waits in its pool's queue.
    queued: bool,
    /// The invocation in flight, logged at its finish so that preemption
    /// delays show up in the telemetry; its `end` is the scheduled finish.
    running: Option<FrameRecord>,
}

/// Simultaneous events pop finishes before releases, then by task id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Finish,
    Release,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: Time,
    kind: EventKind,
    task: TaskId,
}

struct Pool {
    capacity: usize,
    /// Released jobs waiting for a slot, in arrival order; the policy
    /// picks which one dispatches next.
    queue: VecDeque<ReadyJob>,
    /// The slot holders: tasks dispatched from `queue` whose invocation
    /// has not finished. A preemptive execution holds no slot.
    running: Vec<TaskId>,
}

impl Pool {
    fn new(capacity: usize) -> Self {
        Self { capacity, queue: VecDeque::new(), running: Vec::new() }
    }

    fn is_full(&self) -> bool {
        self.running.len() >= self.capacity
    }
}

/// The discrete-event engine.
///
/// # Examples
///
/// ```
/// use illixr_core::sim::{ExecOutcome, Resource, SimEngine, TaskSpec};
/// use illixr_core::telemetry::RecordLogger;
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let telemetry = Arc::new(RecordLogger::new());
/// let mut engine = SimEngine::new(4, 1, telemetry.clone());
/// engine.add_task(
///     TaskSpec {
///         name: "tick".into(),
///         resource: Resource::Cpu,
///         period: Duration::from_millis(10),
///         offset: Duration::ZERO,
///         deadline: Duration::from_millis(10),
///         drop_if_busy: true,
///         priority: 0,
///         preemptive: false,
///         preempt_latency: Duration::ZERO,
///         class: illixr_core::sched::PriorityClass::BestEffort,
///     },
///     Box::new(|_d| ExecOutcome { cost: Duration::from_millis(1), work_factor: 1.0, did_work: true }),
/// );
/// engine.run_for(Duration::from_millis(100));
/// assert_eq!(telemetry.stats("tick").unwrap().invocations, 10);
/// ```
pub struct SimEngine {
    clock: SimClock,
    tasks: Vec<Task>,
    /// One pool a [`Resource`], indexed by `resource as usize`.
    pools: [Pool; 3],
    events: BinaryHeap<Reverse<Event>>,
    telemetry: std::sync::Arc<RecordLogger>,
    tracer: Tracer,
    metrics: Metrics,
    /// Dispatch policy; defaults to [`RateMonotonic`][crate::sched::RateMonotonic],
    /// which reproduces the engine's historical static-priority FIFO.
    policy: Box<dyn Policy>,
    chains: ChainTracker,
    chain_outcomes: Vec<ChainOutcome>,
    /// Last degradation level emitted to the counter track.
    last_level: u32,
    /// Jobs shed by the policy's admission control.
    shed: u64,
}

impl SimEngine {
    /// Creates an engine with the given CPU core count and GPU slot count.
    ///
    /// # Panics
    ///
    /// Panics when either capacity is zero.
    pub fn new(
        cpu_cores: usize,
        gpu_slots: usize,
        telemetry: std::sync::Arc<RecordLogger>,
    ) -> Self {
        assert!(cpu_cores > 0 && gpu_slots > 0, "resource capacities must be positive");
        Self {
            clock: SimClock::new(),
            tasks: Vec::new(),
            // Edge compute has one slot, unused unless a task is
            // registered on `Resource::Remote`.
            pools: [Pool::new(cpu_cores), Pool::new(gpu_slots), Pool::new(1)],
            events: BinaryHeap::new(),
            telemetry,
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            policy: PolicyKind::RateMonotonic.build(),
            chains: ChainTracker::new(),
            chain_outcomes: Vec::new(),
            last_level: 0,
            shed: 0,
        }
    }

    /// Installs the dispatch policy. Call before the first `run_for`;
    /// the default is [`PolicyKind::RateMonotonic`].
    pub fn set_policy(&mut self, policy: Box<dyn Policy>) {
        self.policy = policy;
    }

    /// Registers an end-to-end chain (head task first). Each tail
    /// completion emits one [`ChainOutcome`], recorded in
    /// [`chain_outcomes`](Self::chain_outcomes), fed back to the
    /// policy, and exported as a `chain.{name}` latency histogram.
    pub fn add_chain(&mut self, spec: ChainSpec) -> ChainId {
        self.chains.add(spec)
    }

    /// Every chain completion observed so far, in completion order.
    pub fn chain_outcomes(&self) -> &[ChainOutcome] {
        &self.chain_outcomes
    }

    /// The policy's current degradation level (0 for non-adaptive).
    pub fn degradation_level(&self) -> u32 {
        self.policy.level()
    }

    /// Jobs the policy's admission control shed (counted as drops in
    /// telemetry, tracked separately here).
    pub fn shed_jobs(&self) -> u64 {
        self.shed
    }

    /// The engine's virtual clock (share it with components that need to
    /// read "now").
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Installs observability handles: every completed invocation then
    /// records an execution span (plus a `{name}.wait` span when it
    /// queued) and `exec.{name}` / `response.{name}` histograms.
    pub fn set_obs(&mut self, tracer: Tracer, metrics: Metrics) {
        self.tracer = tracer;
        self.metrics = metrics;
    }

    /// Registers a periodic task and schedules its first release; returns
    /// its id. Add every task before the first `run_for`: a task added
    /// later is released at its offset, which may already have passed.
    ///
    /// # Panics
    ///
    /// Panics when `spec.drop_if_busy` is false.
    pub fn add_task(&mut self, spec: TaskSpec, runner: TaskRunner) -> TaskId {
        assert!(
            spec.drop_if_busy,
            "drop_if_busy must be true: a release while the task is busy is dropped"
        );
        let id = self.tasks.len();
        self.push_event(Time::ZERO + spec.offset, id, EventKind::Release);
        self.tasks.push(Task {
            spec,
            runner,
            invocation: 0,
            release_seq: 0,
            queued: false,
            running: None,
        });
        id
    }

    /// Runs the simulation over the half-open window `[0, horizon)` of
    /// virtual time.
    ///
    /// May be called repeatedly to extend a run.
    pub fn run_for(&mut self, horizon: Duration) {
        let end = Time::ZERO + horizon;
        while let Some(&Reverse(ev)) = self.events.peek() {
            if ev.time >= end {
                break;
            }
            self.events.pop();
            self.clock.advance_to(ev.time);
            match ev.kind {
                EventKind::Release => self.on_release(ev.task, ev.time),
                // A finish is current only at the task's scheduled end: a
                // preemption delay leaves the earlier finish behind.
                EventKind::Finish => {
                    if self.tasks[ev.task].running.is_some_and(|r| r.end == ev.time) {
                        self.on_finish(ev.task, ev.time);
                    }
                }
            }
        }
        self.clock.advance_to(end);
    }

    fn push_event(&mut self, time: Time, task: TaskId, kind: EventKind) {
        self.events.push(Reverse(Event { time, kind, task }));
    }

    fn on_release(&mut self, id: TaskId, now: Time) {
        // Schedule the next release first — periods are fixed.
        let next = now + self.tasks[id].spec.period;
        self.push_event(next, id, EventKind::Release);

        let task = &mut self.tasks[id];
        let job = ReadyJob {
            task: id,
            seq: task.release_seq,
            release_ns: now.as_nanos(),
            deadline_ns: now.as_nanos().saturating_add(task.spec.deadline.as_nanos() as u64),
            priority: task.spec.priority as i32,
            class: task.spec.class,
        };
        task.release_seq += 1;
        // Admission control: the adaptive governor sheds here (rate
        // halving, class dropping). A shed release is a drop, not a miss.
        let admitted = self.policy.admit(&job);
        if !admitted {
            self.shed += 1;
        }
        let task = &mut self.tasks[id];
        if !admitted || task.running.is_some() || task.queued {
            self.telemetry.log_drop(&task.spec.name);
            return;
        }
        let resource = task.spec.resource;
        let pool = &mut self.pools[resource as usize];
        // Preemptive tasks never wait: if the resource is saturated they
        // start once the running work reaches a preemption point, and push
        // every slot holder's finish out by their cost.
        if task.spec.preemptive && pool.is_full() {
            let start = now + task.spec.preempt_latency;
            if let Some(cost) = self.start(id, now, start) {
                let Self { pools, tasks, events, .. } = self;
                for &holder in &pools[resource as usize].running {
                    let record = tasks[holder].running.as_mut().expect("a slot holder runs");
                    record.end += cost;
                    events.push(Reverse(Event {
                        time: record.end,
                        kind: EventKind::Finish,
                        task: holder,
                    }));
                }
            }
            return;
        }
        task.queued = true;
        pool.queue.push_back(job);
        self.dispatch(resource, now);
    }

    /// Starts `id`'s invocation for `release` at `start`: runs the
    /// component, sets the task's running record and schedules its finish.
    /// Returns the charged cost, or `None` when the invocation had no
    /// input (it is not logged and occupies nothing).
    fn start(&mut self, id: TaskId, release: Time, start: Time) -> Option<Duration> {
        self.chains.on_start(id, release.as_nanos(), start.as_nanos());
        let task = &mut self.tasks[id];
        let invocation = task.invocation;
        task.invocation += 1;
        let outcome = (task.runner)(Dispatch { release, start, invocation });
        if !outcome.did_work {
            self.chains.on_abort(id);
            return None;
        }
        let cost = scale_cost(outcome.cost, self.policy.cost_scale(task.spec.class));
        let end = start + cost;
        task.running = Some(FrameRecord {
            release,
            start,
            end,
            cpu_time: cost,
            work_factor: outcome.work_factor,
            // Decided at the finish, from the possibly delayed end.
            missed_deadline: false,
        });
        self.push_event(end, id, EventKind::Finish);
        Some(cost)
    }

    fn on_finish(&mut self, id: TaskId, now: Time) {
        let task = &mut self.tasks[id];
        let mut record = task.running.take().expect("run_for checked the finish");
        let spec = &task.spec;
        record.missed_deadline = record.end > record.release + spec.deadline;
        export_invocation(&self.tracer, &self.metrics, &spec.name, &record, spec.deadline);
        self.telemetry.log(&spec.name, record);
        self.note_chain_finish(id, now);
        let resource = self.tasks[id].spec.resource;
        self.pools[resource as usize].running.retain(|&t| t != id);
        self.dispatch(resource, now);
    }

    /// Propagates a completed invocation through the chain tracker,
    /// feeds outcomes back to the policy, and exports chain telemetry.
    fn note_chain_finish(&mut self, id: TaskId, now: Time) {
        let outcomes = self.chains.on_finish(id, now.as_nanos());
        for oc in &outcomes {
            self.policy.on_chain_outcome(oc);
            let chain_name = &self.chains.specs()[oc.chain].name;
            if self.metrics.is_enabled() {
                self.metrics.record_ns(&format!("chain.{chain_name}"), oc.latency_ns);
                if oc.missed {
                    self.metrics.record_ns(&format!("chain.{chain_name}.miss"), oc.latency_ns);
                }
            }
            if self.tracer.is_enabled() {
                self.tracer.record_span_args(
                    &format!("chain.{chain_name}"),
                    chain_name,
                    oc.origin_ns,
                    oc.end_ns,
                    &[("missed", oc.missed.to_string())],
                );
            }
        }
        // Surface governor level changes as a counter track so traces
        // show exactly when the degradation ladder moved.
        let level = self.policy.level();
        if level != self.last_level {
            self.last_level = level;
            if self.tracer.is_enabled() {
                self.tracer.counter("sched", "sched.level", now.as_nanos(), level as f64);
            }
        }
        self.chain_outcomes.extend(outcomes);
    }

    fn dispatch(&mut self, resource: Resource, now: Time) {
        loop {
            // The policy picks which released job dispatches next; the
            // default rate-monotonic policy reproduces the historical
            // rule (highest static priority, FIFO within a priority).
            let pool = &mut self.pools[resource as usize];
            if pool.is_full() || pool.queue.is_empty() {
                return;
            }
            let pos = self.policy.select(pool.queue.make_contiguous());
            let job = pool.queue.remove(pos).expect("policy returned an in-range index");
            self.tasks[job.task].queued = false;
            // The release this invocation serves is the one recorded at
            // enqueue time, so queueing delay counts toward lateness. A
            // no-input invocation holds no slot.
            if self.start(job.task, Time::from_nanos(job.release_ns), now).is_some() {
                self.pools[resource as usize].running.push(job.task);
            }
        }
    }
}

/// Applies a policy cost multiplier (the governor's work-factor
/// shortcut); identity when the scale is exactly 1.0 so nominal runs
/// charge precisely the modeled cost.
fn scale_cost(cost: Duration, scale: f64) -> Duration {
    if scale == 1.0 {
        cost
    } else {
        Duration::from_nanos((cost.as_nanos() as f64 * scale).round() as u64)
    }
}

impl std::fmt::Debug for SimEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimEngine({} tasks, {} cpu cores, {} gpu slots, t={})",
            self.tasks.len(),
            self.pools[Resource::Cpu as usize].capacity,
            self.pools[Resource::Gpu as usize].capacity,
            self.clock.now()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use std::sync::Arc;

    fn fixed_cost(ms: u64) -> TaskRunner {
        Box::new(move |_d| ExecOutcome {
            cost: Duration::from_millis(ms),
            work_factor: 1.0,
            did_work: true,
        })
    }

    fn spec(name: &str, resource: Resource, period_ms: u64, drop_if_busy: bool) -> TaskSpec {
        TaskSpec {
            name: name.into(),
            resource,
            period: Duration::from_millis(period_ms),
            offset: Duration::ZERO,
            deadline: Duration::from_millis(period_ms),
            drop_if_busy,
            priority: 0,
            preemptive: false,
            preempt_latency: Duration::ZERO,
            class: PriorityClass::BestEffort,
        }
    }

    #[test]
    fn single_task_runs_at_its_period() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(2, 1, telemetry.clone());
        engine.add_task(spec("a", Resource::Cpu, 10, true), fixed_cost(2));
        engine.run_for(Duration::from_millis(95));
        let s = telemetry.stats("a").unwrap();
        assert_eq!(s.invocations, 10); // releases at 0,10,…,90
        assert_eq!(s.deadline_misses, 0);
        assert_eq!(s.drops, 0);
    }

    #[test]
    fn overloaded_task_drops_releases() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(1, 1, telemetry.clone());
        // 15 ms of work every 10 ms: every other release must drop.
        engine.add_task(spec("slow", Resource::Cpu, 10, true), fixed_cost(15));
        engine.run_for(Duration::from_millis(200));
        let s = telemetry.stats("slow").unwrap();
        assert!(s.drops >= 5, "expected many drops, got {}", s.drops);
        assert!(s.deadline_misses > 0);
        // Achieved rate is ~1000/20 = 50 Hz… at 15ms cost with drops it's
        // one completion per 20 ms window.
        assert!(s.achieved_hz < 70.0);
    }

    #[test]
    fn cpu_contention_delays_lower_priority_work() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(1, 1, telemetry.clone());
        // Two tasks on one core, each 6 ms every 10 ms: together they
        // need 12 ms per 10 ms — one of them must suffer.
        engine.add_task(spec("x", Resource::Cpu, 10, true), fixed_cost(6));
        engine.add_task(spec("y", Resource::Cpu, 10, true), fixed_cost(6));
        engine.run_for(Duration::from_millis(500));
        let sx = telemetry.stats("x").unwrap();
        let sy = telemetry.stats("y").unwrap();
        let total_drops = sx.drops + sy.drops;
        let total_misses = sx.deadline_misses + sy.deadline_misses;
        assert!(total_drops + total_misses > 10, "contention must cause drops or misses");
    }

    #[test]
    fn two_cores_remove_contention() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(2, 1, telemetry.clone());
        engine.add_task(spec("x", Resource::Cpu, 10, true), fixed_cost(6));
        engine.add_task(spec("y", Resource::Cpu, 10, true), fixed_cost(6));
        engine.run_for(Duration::from_millis(500));
        assert_eq!(telemetry.stats("x").unwrap().deadline_misses, 0);
        assert_eq!(telemetry.stats("y").unwrap().deadline_misses, 0);
    }

    #[test]
    fn remote_pool_does_not_contend_with_the_device() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(1, 1, telemetry.clone());
        // A device-saturating CPU task and an equally heavy edge task:
        // neither may delay the other.
        engine.add_task(spec("cpu", Resource::Cpu, 10, true), fixed_cost(9));
        engine.add_task(spec("edge", Resource::Remote, 10, true), fixed_cost(9));
        engine.run_for(Duration::from_millis(300));
        assert_eq!(telemetry.stats("cpu").unwrap().deadline_misses, 0);
        assert_eq!(telemetry.stats("edge").unwrap().deadline_misses, 0);
    }

    #[test]
    fn gpu_and_cpu_tasks_do_not_contend() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(1, 1, telemetry.clone());
        engine.add_task(spec("cpu", Resource::Cpu, 10, true), fixed_cost(9));
        engine.add_task(spec("gpu", Resource::Gpu, 10, true), fixed_cost(9));
        engine.run_for(Duration::from_millis(300));
        assert_eq!(telemetry.stats("cpu").unwrap().deadline_misses, 0);
        assert_eq!(telemetry.stats("gpu").unwrap().deadline_misses, 0);
    }

    #[test]
    fn offset_shifts_first_release() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(1, 1, telemetry.clone());
        engine.add_task(
            TaskSpec {
                name: "late".into(),
                resource: Resource::Cpu,
                period: Duration::from_millis(10),
                offset: Duration::from_millis(7),
                deadline: Duration::from_millis(10),
                drop_if_busy: true,
                priority: 0,
                preemptive: false,
                preempt_latency: Duration::ZERO,
                class: PriorityClass::BestEffort,
            },
            fixed_cost(1),
        );
        engine.run_for(Duration::from_millis(50));
        let records = telemetry.records("late");
        assert_eq!(records[0].release, Time::from_millis(7));
        assert_eq!(records[1].release, Time::from_millis(17));
    }

    #[test]
    fn no_input_invocations_are_not_logged() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(1, 1, telemetry.clone());
        let mut count = 0;
        engine.add_task(
            spec("sometimes", Resource::Cpu, 10, true),
            Box::new(move |_d| {
                count += 1;
                ExecOutcome {
                    cost: Duration::from_millis(1),
                    work_factor: 1.0,
                    did_work: count % 2 == 0,
                }
            }),
        );
        engine.run_for(Duration::from_millis(100));
        let s = telemetry.stats("sometimes").unwrap();
        assert_eq!(s.invocations, 5);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let telemetry = Arc::new(RecordLogger::new());
            let mut engine = SimEngine::new(2, 1, telemetry.clone());
            engine.add_task(spec("a", Resource::Cpu, 7, true), fixed_cost(3));
            engine.add_task(spec("b", Resource::Cpu, 11, true), fixed_cost(5));
            engine.add_task(spec("c", Resource::Gpu, 13, true), fixed_cost(4));
            engine.run_for(Duration::from_millis(700));
            (telemetry.records("a"), telemetry.records("b"), telemetry.records("c"))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn high_priority_task_jumps_the_queue() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(1, 1, telemetry.clone());
        // A hog that wants 9 of every 10 ms, and a small high-priority
        // task. Without priority the small task often waits behind the
        // hog's queued releases; with priority it dispatches first
        // whenever the core frees up.
        engine.add_task(spec("hog", Resource::Cpu, 10, true), fixed_cost(9));
        engine.add_task(
            TaskSpec {
                name: "urgent".into(),
                resource: Resource::Cpu,
                period: Duration::from_millis(10),
                offset: Duration::from_millis(1),
                deadline: Duration::from_millis(10),
                drop_if_busy: true,
                priority: 10,
                preemptive: false,
                preempt_latency: Duration::ZERO,
                class: PriorityClass::Critical,
            },
            fixed_cost(1),
        );
        engine.run_for(Duration::from_millis(500));
        let urgent = telemetry.stats("urgent").unwrap();
        assert_eq!(urgent.deadline_misses, 0, "urgent task must always make its deadline");
        assert!(urgent.invocations >= 45, "urgent ran only {} times", urgent.invocations);
    }

    #[test]
    fn preemptive_task_executes_immediately_and_delays_victim() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(1, 1, telemetry.clone());
        // A 50 ms hog released at t=0 on a 100 ms period.
        engine.add_task(spec("hog", Resource::Cpu, 100, true), fixed_cost(50));
        // A preemptive 5 ms task released at t=10.
        engine.add_task(
            TaskSpec {
                name: "warp".into(),
                resource: Resource::Cpu,
                period: Duration::from_millis(100),
                offset: Duration::from_millis(10),
                deadline: Duration::from_millis(100),
                drop_if_busy: true,
                priority: 10,
                preemptive: true,
                preempt_latency: Duration::ZERO,
                class: PriorityClass::Critical,
            },
            fixed_cost(5),
        );
        engine.run_for(Duration::from_millis(100));
        let warp = telemetry.records("warp");
        assert_eq!(warp.len(), 1);
        // The warp started at its release (no queueing).
        assert_eq!(warp[0].start, Time::from_millis(10));
        assert_eq!(warp[0].end, Time::from_millis(15));
        // The hog's finish was pushed from 50 to 55 ms.
        let hog = telemetry.records("hog");
        assert_eq!(hog[0].end, Time::from_millis(55));
    }

    /// The warp pushes the hog's finish from 50 to 55 ms; the 50 ms
    /// finish left behind must not free the hog's core, so the task
    /// queued behind it starts at 55 ms.
    #[test]
    fn a_preempted_slot_holder_frees_its_slot_at_the_delayed_finish() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(1, 1, telemetry.clone());
        engine.add_task(spec("hog", Resource::Cpu, 100, true), fixed_cost(50));
        engine.add_task(
            TaskSpec {
                offset: Duration::from_millis(10),
                deadline: Duration::from_millis(100),
                priority: 10,
                preemptive: true,
                class: PriorityClass::Critical,
                ..spec("warp", Resource::Cpu, 100, true)
            },
            fixed_cost(5),
        );
        engine.add_task(
            TaskSpec {
                offset: Duration::from_millis(20),
                ..spec("late", Resource::Cpu, 100, true)
            },
            fixed_cost(1),
        );
        engine.run_for(Duration::from_millis(100));
        assert_eq!(telemetry.records("hog")[0].end, Time::from_millis(55));
        assert_eq!(telemetry.records("late")[0].start, Time::from_millis(55));
    }

    /// A release that finds its task busy is dropped, so a task that
    /// asks to queue behind itself is rejected at registration.
    #[test]
    #[should_panic(expected = "a release while the task is busy is dropped")]
    fn a_task_that_would_queue_behind_itself_is_rejected() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(2, 1, telemetry);
        engine.add_task(spec("queues", Resource::Cpu, 10, false), fixed_cost(15));
    }

    #[test]
    fn overrunning_preemptive_task_still_drops_releases() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(1, 1, telemetry.clone());
        engine.add_task(spec("hog", Resource::Cpu, 10, true), fixed_cost(9));
        // A preemptive task whose cost (15 ms) exceeds its period (10 ms):
        // every other release must drop.
        engine.add_task(
            TaskSpec {
                name: "slowwarp".into(),
                resource: Resource::Cpu,
                period: Duration::from_millis(10),
                offset: Duration::from_millis(1),
                deadline: Duration::from_millis(10),
                drop_if_busy: true,
                priority: 10,
                preemptive: true,
                preempt_latency: Duration::ZERO,
                class: PriorityClass::Critical,
            },
            fixed_cost(15),
        );
        engine.run_for(Duration::from_millis(400));
        let s = telemetry.stats("slowwarp").unwrap();
        assert!(s.drops >= 10, "expected drops, got {}", s.drops);
        assert!(s.achieved_hz < 75.0, "rate {}", s.achieved_hz);
    }

    #[test]
    fn preemption_is_deterministic() {
        let run = || {
            let telemetry = Arc::new(RecordLogger::new());
            let mut engine = SimEngine::new(1, 1, telemetry.clone());
            engine.add_task(spec("a", Resource::Gpu, 13, true), fixed_cost(11));
            engine.add_task(
                TaskSpec {
                    name: "p".into(),
                    resource: Resource::Gpu,
                    period: Duration::from_millis(7),
                    offset: Duration::from_millis(2),
                    deadline: Duration::from_millis(7),
                    drop_if_busy: true,
                    priority: 9,
                    preemptive: true,
                    preempt_latency: Duration::ZERO,
                    class: PriorityClass::Critical,
                },
                fixed_cost(2),
            );
            engine.run_for(Duration::from_millis(600));
            (telemetry.records("a"), telemetry.records("p"))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clock_reaches_horizon() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(1, 1, telemetry);
        let clock = engine.clock();
        engine.run_for(Duration::from_millis(123));
        assert_eq!(clock.now(), Time::from_millis(123));
    }

    /// An overloaded EDF taskset must miss exactly the analytically
    /// predicted jobs. One core, A = (period 10 ms, cost 8 ms) with
    /// drop-if-busy, B = (period 20 ms, cost 8 ms): utilization is
    /// 1.2, and the schedule settles into a 40 ms cycle in which the
    /// A job released at 40k+10 finishes 4 ms late, the A release at
    /// 40k+20 drops (A is still running), and B never misses — the
    /// B and A jobs that end exactly at their deadlines are *hits*,
    /// because a miss is `end > release + deadline`, strictly.
    #[test]
    fn edf_overload_misses_exactly_the_predicted_jobs() {
        let telemetry = Arc::new(RecordLogger::new());
        let mut engine = SimEngine::new(1, 1, telemetry.clone());
        engine.set_policy(PolicyKind::Edf.build());
        engine.add_task(spec("a", Resource::Cpu, 10, true), fixed_cost(8));
        engine.add_task(spec("b", Resource::Cpu, 20, true), fixed_cost(8));
        engine.run_for(Duration::from_millis(200));
        let sa = telemetry.stats("a").unwrap();
        let sb = telemetry.stats("b").unwrap();
        assert_eq!(sa.deadline_misses, 5, "A misses once per 40 ms cycle");
        assert_eq!(sa.drops, 5, "A drops once per 40 ms cycle");
        assert_eq!(sb.deadline_misses, 0, "B always meets its 20 ms deadline");
        assert_eq!(sb.drops, 0);
        // The missing jobs are exactly the releases at 40k+10, each
        // finishing 4 ms past its deadline.
        let late: Vec<(u64, u64)> = telemetry
            .records("a")
            .iter()
            .filter(|r| r.missed_deadline)
            .map(|r| (r.release.as_nanos() / 1_000_000, r.end.as_nanos() / 1_000_000))
            .collect();
        assert_eq!(late, vec![(10, 24), (50, 64), (90, 104), (130, 144), (170, 184)]);
    }

    /// Where rate-monotonic picks the queued job with the highest
    /// static priority, EDF picks the one with the earliest absolute
    /// deadline — observable when both wait behind the same hog.
    #[test]
    fn edf_prefers_earlier_deadline_over_static_priority() {
        let run = |kind: PolicyKind| {
            let telemetry = Arc::new(RecordLogger::new());
            let mut engine = SimEngine::new(1, 1, telemetry.clone());
            engine.set_policy(kind.build());
            // Hog holds the core 0..10 ms.
            engine.add_task(spec("hog", Resource::Cpu, 100, true), fixed_cost(10));
            // "lazy" has high priority but a lax 90 ms deadline.
            engine.add_task(
                TaskSpec {
                    name: "lazy".into(),
                    resource: Resource::Cpu,
                    period: Duration::from_millis(100),
                    offset: Duration::from_millis(1),
                    deadline: Duration::from_millis(90),
                    drop_if_busy: true,
                    priority: 5,
                    preemptive: false,
                    preempt_latency: Duration::ZERO,
                    class: PriorityClass::BestEffort,
                },
                fixed_cost(3),
            );
            // "tight" has low priority but a 13 ms deadline.
            engine.add_task(
                TaskSpec {
                    name: "tight".into(),
                    resource: Resource::Cpu,
                    period: Duration::from_millis(100),
                    offset: Duration::from_millis(2),
                    deadline: Duration::from_millis(13),
                    drop_if_busy: true,
                    priority: 0,
                    preemptive: false,
                    preempt_latency: Duration::ZERO,
                    class: PriorityClass::BestEffort,
                },
                fixed_cost(3),
            );
            engine.run_for(Duration::from_millis(100));
            (
                telemetry.records("lazy")[0].start,
                telemetry.records("tight")[0].start,
                telemetry.stats("tight").unwrap().deadline_misses,
            )
        };
        let (rm_lazy, rm_tight, rm_tight_misses) = run(PolicyKind::RateMonotonic);
        assert_eq!(rm_lazy, Time::from_millis(10), "RM runs the high-priority job first");
        assert_eq!(rm_tight, Time::from_millis(13));
        assert_eq!(
            rm_tight_misses, 1,
            "RM blows tight's deadline: ends at 16 ms, deadline 2+13 = 15 ms"
        );
        let (edf_lazy, edf_tight, edf_tight_misses) = run(PolicyKind::Edf);
        assert_eq!(edf_tight, Time::from_millis(10), "EDF runs the tight-deadline job first");
        assert_eq!(edf_lazy, Time::from_millis(13));
        assert_eq!(edf_tight_misses, 0);
    }

    /// The governor escalates under sustained chain misses, sheds
    /// perception-class releases, and thereby lets the critical tail
    /// meet its deadline again — the graceful-degradation contract.
    #[test]
    fn adaptive_governor_sheds_load_until_the_chain_recovers() {
        let run = |kind: PolicyKind| {
            let telemetry = Arc::new(RecordLogger::new());
            let mut engine = SimEngine::new(1, 1, telemetry.clone());
            engine.set_policy(kind.build());
            // A perception hog that alone nearly saturates the core …
            let hog = engine.add_task(
                TaskSpec {
                    name: "hog".into(),
                    resource: Resource::Cpu,
                    period: Duration::from_millis(10),
                    offset: Duration::ZERO,
                    deadline: Duration::from_millis(10),
                    drop_if_busy: true,
                    priority: 0,
                    preemptive: false,
                    preempt_latency: Duration::ZERO,
                    class: PriorityClass::Perception,
                },
                fixed_cost(9),
            );
            let _ = hog;
            // … plus a critical 5 ms-period task forming a one-stage
            // chain with a tight end-to-end deadline.
            let tail = engine.add_task(
                TaskSpec {
                    name: "tail".into(),
                    resource: Resource::Cpu,
                    period: Duration::from_millis(5),
                    offset: Duration::from_millis(1),
                    deadline: Duration::from_millis(5),
                    drop_if_busy: true,
                    priority: 3,
                    preemptive: false,
                    preempt_latency: Duration::ZERO,
                    class: PriorityClass::Critical,
                },
                fixed_cost(1),
            );
            engine.add_chain(ChainSpec {
                name: "c".into(),
                members: vec![tail],
                deadline_ns: 4_000_000,
            });
            engine.run_for(Duration::from_millis(2_000));
            let missed = engine.chain_outcomes().iter().filter(|o| o.missed).count();
            (missed, engine.chain_outcomes().len(), engine.shed_jobs(), engine.degradation_level())
        };
        let (edf_missed, edf_total, edf_shed, edf_level) = run(PolicyKind::Edf);
        let (gov_missed, gov_total, gov_shed, _gov_level) = run(PolicyKind::Adaptive);
        assert_eq!(edf_shed, 0);
        assert_eq!(edf_level, 0);
        assert!(edf_total > 100 && gov_total > 100, "chain must complete many times");
        assert!(gov_shed > 0, "governor must shed perception releases");
        let edf_rate = edf_missed as f64 / edf_total as f64;
        let gov_rate = gov_missed as f64 / gov_total as f64;
        assert!(
            gov_rate < edf_rate / 2.0,
            "governor must at least halve the chain miss rate (edf {edf_rate:.3}, governor {gov_rate:.3})"
        );
    }

    #[test]
    fn governor_runs_are_deterministic() {
        let run = || {
            let telemetry = Arc::new(RecordLogger::new());
            let mut engine = SimEngine::new(1, 1, telemetry.clone());
            engine.set_policy(PolicyKind::Adaptive.build());
            let a = engine.add_task(spec("a", Resource::Cpu, 7, true), fixed_cost(5));
            let mut b_spec = spec("b", Resource::Cpu, 11, true);
            b_spec.class = PriorityClass::Perception;
            engine.add_task(b_spec, fixed_cost(6));
            engine.add_chain(ChainSpec {
                name: "c".into(),
                members: vec![a],
                deadline_ns: 6_000_000,
            });
            engine.run_for(Duration::from_millis(800));
            (
                telemetry.records("a"),
                telemetry.records("b"),
                engine.chain_outcomes().to_vec(),
                engine.shed_jobs(),
            )
        };
        assert_eq!(run(), run());
    }
}
