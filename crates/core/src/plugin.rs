//! Plugins: the unit of modularity in the ILLIXR runtime.
//!
//! Every pipeline component (camera, VIO, IMU integrator, eye tracking,
//! scene reconstruction, application, reprojection, hologram, audio
//! encoding, audio playback) is a plugin. Plugins interact with the rest
//! of the system *only* through switchboard event streams, which is what
//! makes alternative implementations interchangeable (paper §II-B).
//!
//! The paper distributes plugins as shared objects loaded at run time;
//! Rust has no stable ABI, so ILLIXR-rs replaces dynamic loading with a
//! [`PluginRegistry`] of named constructor functions — the same late
//! binding (select implementations by name in a config) with static
//! safety.

use std::collections::HashMap;
use std::sync::Arc;

use crate::boundary::{Boundary, TraceRecorder, TraceSource};
use crate::clock::Clock;
use crate::fault::FaultPlan;
use crate::obs::{Metrics, Tracer};
use crate::supervisor::Supervisor;
use crate::switchboard::Switchboard;
use crate::telemetry::RecordLogger;

/// Everything a plugin can reach: the switchboard for streams, the
/// runtime clock, the telemetry logger, the observability handles, the
/// fault-injection plan and the supervisor. These typed fields are the
/// service directory. Constructed by [`RuntimeBuilder`].
#[derive(Clone)]
pub struct PluginContext {
    /// Event-stream registry.
    pub switchboard: Switchboard,
    /// The runtime clock (wall or virtual).
    pub clock: Arc<dyn Clock>,
    /// Telemetry sink.
    pub telemetry: Arc<RecordLogger>,
    /// Span/flow tracer (disabled by default; see
    /// [`RuntimeBuilder::with_obs`]).
    pub tracer: Tracer,
    /// Histogram/gauge registry (disabled by default).
    pub metrics: Metrics,
    /// The fault-injection plan ([`FaultPlan::quiet`] by default — a
    /// guaranteed no-op).
    pub fault: Arc<FaultPlan>,
    /// Crash containment (disabled by default: a panic is contained
    /// but nothing restarts; see [`RuntimeBuilder::with_supervision`]).
    pub supervisor: Arc<Supervisor>,
    /// Record/replay determinism boundary ([`Boundary::off`] by
    /// default — a guaranteed no-op).
    pub boundary: Arc<Boundary>,
}

/// Builds a [`PluginContext`] — the single entry point into the
/// runtime. Replaces the old `PluginContext::new`/`with_obs`
/// constructors, which could not grow new facilities (fault plan,
/// supervision) without breaking every caller.
///
/// # Examples
///
/// ```
/// use illixr_core::{RuntimeBuilder, SimClock};
/// use std::sync::Arc;
///
/// let ctx = RuntimeBuilder::new(Arc::new(SimClock::new())).with_supervision().build();
/// assert!(ctx.fault.is_quiet());
/// assert!(ctx.supervisor.is_enabled());
/// ```
pub struct RuntimeBuilder {
    clock: Arc<dyn Clock>,
    tracer: Tracer,
    metrics: Metrics,
    fault: Arc<FaultPlan>,
    supervised: bool,
    telemetry: Option<Arc<RecordLogger>>,
    recorder: Option<TraceRecorder>,
    source: Option<TraceSource>,
}

impl RuntimeBuilder {
    /// Starts a context build around `clock` (wall or virtual). All
    /// other facilities default to off: observability disabled, quiet
    /// fault plan, supervision disabled.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self {
            clock,
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            fault: Arc::new(FaultPlan::quiet()),
            supervised: false,
            telemetry: None,
            recorder: None,
            source: None,
        }
    }

    /// Records switchboard, threadloop and plugin activity through
    /// `tracer`/`metrics` (pass a tracer built from
    /// [`crate::obs::tracer_for`] for deterministic simulated traces).
    pub fn with_obs(mut self, tracer: Tracer, metrics: Metrics) -> Self {
        self.tracer = tracer;
        self.metrics = metrics;
        self
    }

    /// Injects faults according to `plan`. Sensor plugins, offload
    /// bridges, the server link and the supervised threadloops all
    /// consult the context's plan.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = plan;
        self
    }

    /// Enables the supervisor: a panic is answered with a backoff
    /// restart, up to [`MAX_RESTARTS`](crate::supervisor::MAX_RESTARTS)
    /// times per plugin.
    pub fn with_supervision(mut self) -> Self {
        self.supervised = true;
        self
    }

    /// Records every physical input crossing the determinism boundary
    /// (sensor samples, link deliveries, fault outcomes) into
    /// `recorder`; snapshot it after the run for a replayable trace.
    pub fn with_recorder(mut self, recorder: TraceRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Replays boundary inputs from `source` instead of generating
    /// them: sensor plugins, link bridges and crash checks consume the
    /// recorded values, making the run bit-identical to the recording.
    /// Combines with [`RuntimeBuilder::with_recorder`] to re-record the
    /// replay (the golden identity check).
    pub fn with_trace(mut self, source: TraceSource) -> Self {
        self.source = Some(source);
        self
    }

    /// Shares an existing telemetry sink instead of creating a fresh
    /// one — the experiment runner passes the sim engine's logger so
    /// plugin records and scheduler records land in the same place.
    pub fn with_telemetry(mut self, telemetry: Arc<RecordLogger>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Builds the context with a fresh switchboard.
    pub fn build(self) -> PluginContext {
        let boundary = match (self.source, self.recorder) {
            (Some(source), recorder) => Boundary::replaying(source, recorder),
            (None, Some(recorder)) => Boundary::recording(recorder),
            (None, None) => Boundary::off(),
        };
        PluginContext {
            switchboard: Switchboard::with_obs(self.tracer.clone(), self.metrics.clone()),
            clock: self.clock,
            telemetry: self.telemetry.unwrap_or_else(|| Arc::new(RecordLogger::new())),
            tracer: self.tracer,
            metrics: self.metrics,
            fault: self.fault,
            supervisor: Supervisor::new(self.supervised),
            boundary: Arc::new(boundary),
        }
    }
}

impl std::fmt::Debug for PluginContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PluginContext")
            .field("switchboard", &self.switchboard)
            .finish_non_exhaustive()
    }
}

/// The result of one plugin iteration, consumed by the scheduler and the
/// platform timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationReport {
    /// Input-dependent relative work performed this iteration
    /// (1.0 = nominal). The simulated timing model multiplies the
    /// component's base cost by this factor, reproducing the per-frame
    /// execution-time variability of Fig 4.
    pub work_factor: f64,
    /// False when the plugin had no input and skipped this iteration.
    pub did_work: bool,
}

impl IterationReport {
    /// A nominal unit of work.
    pub fn nominal() -> Self {
        Self { work_factor: 1.0, did_work: true }
    }

    /// A skipped iteration (no input available).
    pub fn skipped() -> Self {
        Self { work_factor: 0.0, did_work: false }
    }

    /// Work with the given input-dependent factor.
    pub fn with_work(work_factor: f64) -> Self {
        Self { work_factor, did_work: true }
    }
}

impl Default for IterationReport {
    fn default() -> Self {
        Self::nominal()
    }
}

/// A pipeline component.
///
/// Implementations should be cheap to construct; expensive setup belongs
/// in [`Plugin::start`].
pub trait Plugin: Send {
    /// Stable component name used in telemetry and configuration
    /// (e.g. `"vio"`, `"timewarp"`).
    fn name(&self) -> &str;

    /// Called once before the first iteration. Plugins create their
    /// writers/readers here.
    fn start(&mut self, ctx: &PluginContext) {
        let _ = ctx;
    }

    /// Performs one unit of work (process one camera frame, reproject one
    /// frame, encode one audio block, …).
    fn iterate(&mut self, ctx: &PluginContext) -> IterationReport;

    /// Called once after the last iteration.
    fn stop(&mut self) {}
}

type PluginFactory = Box<dyn Fn(&PluginContext) -> Box<dyn Plugin> + Send + Sync>;

/// A registry of named plugin constructors — the ILLIXR-rs analogue of
/// the paper's plugin loader.
///
/// # Examples
///
/// ```
/// use illixr_core::plugin::{IterationReport, Plugin, PluginContext, PluginRegistry};
/// use illixr_core::{RuntimeBuilder, WallClock};
/// use std::sync::Arc;
///
/// struct Null;
/// impl Plugin for Null {
///     fn name(&self) -> &str { "null" }
///     fn iterate(&mut self, _: &PluginContext) -> IterationReport { IterationReport::nominal() }
/// }
///
/// let mut reg = PluginRegistry::new();
/// reg.register("null", |_| Box::new(Null));
/// let ctx = RuntimeBuilder::new(Arc::new(WallClock::new())).build();
/// let plugin = reg.build("null", &ctx).unwrap();
/// assert_eq!(plugin.name(), "null");
/// ```
#[derive(Default)]
pub struct PluginRegistry {
    factories: HashMap<String, PluginFactory>,
}

impl PluginRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a constructor under `name`, replacing any previous one.
    pub fn register(
        &mut self,
        name: &str,
        factory: impl Fn(&PluginContext) -> Box<dyn Plugin> + Send + Sync + 'static,
    ) {
        self.factories.insert(name.to_owned(), Box::new(factory));
    }

    /// Builds the plugin registered under `name`, or `None` when unknown.
    pub fn build(&self, name: &str, ctx: &PluginContext) -> Option<Box<dyn Plugin>> {
        self.factories.get(name).map(|f| f(ctx))
    }

    /// Names of all registered plugins (sorted).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.factories.keys().cloned().collect();
        names.sort();
        names
    }
}

impl std::fmt::Debug for PluginRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PluginRegistry({:?})", self.names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WallClock;

    struct Counter {
        count: u32,
    }

    impl Plugin for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
            self.count += 1;
            IterationReport::with_work(self.count as f64)
        }
    }

    fn ctx() -> PluginContext {
        RuntimeBuilder::new(Arc::new(WallClock::new())).build()
    }

    #[test]
    fn registry_builds_by_name() {
        let mut reg = PluginRegistry::new();
        reg.register("counter", |_| Box::new(Counter { count: 0 }));
        let ctx = ctx();
        let mut p = reg.build("counter", &ctx).unwrap();
        assert_eq!(p.iterate(&ctx).work_factor, 1.0);
        assert_eq!(p.iterate(&ctx).work_factor, 2.0);
        assert!(reg.build("unknown", &ctx).is_none());
    }

    #[test]
    fn interchangeable_implementations_share_a_name_slot() {
        let mut reg = PluginRegistry::new();
        reg.register("cam", |_| Box::new(Counter { count: 0 }));
        reg.register("cam", |_| Box::new(Counter { count: 100 }));
        let ctx = ctx();
        let mut p = reg.build("cam", &ctx).unwrap();
        assert_eq!(p.iterate(&ctx).work_factor, 101.0);
    }

    #[test]
    fn builder_defaults_are_quiet_and_unsupervised() {
        let ctx = ctx();
        assert!(ctx.fault.is_quiet());
        assert!(!ctx.supervisor.is_enabled());
        assert!(!ctx.tracer.is_enabled());
        assert!(!ctx.metrics.is_enabled());
    }

    #[test]
    fn builder_wires_fault_plan_and_supervision() {
        use crate::fault::FaultPlan;
        let plan = Arc::new(FaultPlan::scheduled(7, 1.0, 1_000_000_000));
        let ctx = RuntimeBuilder::new(Arc::new(WallClock::new()))
            .with_fault_plan(plan.clone())
            .with_supervision()
            .build();
        assert!(!ctx.fault.is_quiet());
        assert_eq!(ctx.fault.seed(), 7);
        assert!(ctx.supervisor.is_enabled());
    }

    #[test]
    fn builder_defaults_to_an_off_boundary_and_wires_record_replay() {
        use crate::boundary::tests::Unrecorded;
        use crate::boundary::{TraceRecorder, TraceSource};

        let off = ctx().boundary;
        assert!(off.source().is_none());
        assert_eq!(off.cross("crash/imu", 7, || Some((7, Unrecorded(1)))).count(), 1);
        let recorder = TraceRecorder::new(1, 2);
        let recording =
            RuntimeBuilder::new(Arc::new(WallClock::new())).with_recorder(recorder.clone()).build();
        assert_eq!(recording.boundary.cross("crash/imu", 7, || Some((7, ()))).count(), 1);
        let trace = Arc::new(recorder.snapshot());
        assert_eq!(trace.stream("crash/imu").unwrap().len(), 1);
        let replaying = RuntimeBuilder::new(Arc::new(WallClock::new()))
            .with_trace(TraceSource::new(trace))
            .build();
        let due: Vec<_> = replaying.boundary.cross("crash/imu", 10, || None::<(u64, ())>).collect();
        assert_eq!(due, [(7, ())]);
        // Replay-only: a stream the trace lacks is generated, not encoded.
        let live = replaying.boundary.cross("camera", 10, || Some((10, Unrecorded(2)))).count();
        assert_eq!(live, 1);
    }

    #[test]
    fn iteration_report_constructors() {
        assert!(IterationReport::nominal().did_work);
        assert!(!IterationReport::skipped().did_work);
        assert_eq!(IterationReport::with_work(2.5).work_factor, 2.5);
    }
}
