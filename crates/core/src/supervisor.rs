//! The supervisor: crash containment for every executor.
//!
//! The paper's runtime (like most research prototypes) assumes plugins
//! never fail; one panicking component kills its thread silently and
//! the rest of the pipeline starves. The supervisor closes that gap
//! with a small state machine per plugin:
//!
//! ```text
//!            panic                 panic (budget left)
//! Running ───────────▶ Restarting ───────────▶ Restarting (backoff × 2)
//!    ▲                     │                          │ budget exhausted
//!    │  first productive   │                          ▼
//!    └─────────────────────┘ iteration              Failed
//! ```
//!
//! * **Panic containment** — both executors (the threadloop and the
//!   simulated task runner) run their plugins through
//!   [`Supervised::invoke`], the one supervised invocation: `iterate`
//!   and the restart `start` run under `catch_unwind`; a panic is
//!   reported here and answered with either a restart delay
//!   (10 ms × 2^(attempt−1), at most [`MAX_RESTARTS`] restarts) or
//!   "give up" ([`PluginHealth::Failed`]). Scheduled crashes from the
//!   fault plan are injected there too, through the determinism
//!   boundary.
//! * **Recovery accounting** — the invocation holds the open incident:
//!   its first productive iteration after a restart closes it, and the
//!   panic→recovery latency is reported here and recorded in the
//!   `supervisor.recovery` histogram. Nothing else reaches the
//!   supervisor, so an iteration with no incident open takes no lock.
//!
//! All timestamps are runtime-clock nanoseconds, so the same machinery
//! works under the wall clock (live threadloops) and the simulated
//! clock (the experiment runner).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::plugin::{IterationReport, Plugin, PluginContext};

/// Restarts allowed per plugin before it is declared failed.
pub const MAX_RESTARTS: u32 = 3;

/// The restart delay before attempt `attempt` (1-based, at most
/// [`MAX_RESTARTS`]): 10 ms × 2^(attempt−1).
fn backoff(attempt: u32) -> Duration {
    Duration::from_millis(10 << (attempt - 1))
}

/// Total restart delay across the whole budget (10 + 20 + 40 ms) —
/// what "restarted within the backoff budget" means in tests.
pub fn backoff_budget() -> Duration {
    (1..=MAX_RESTARTS).map(backoff).sum()
}

/// A supervised plugin's lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PluginHealth {
    /// Iterating normally.
    Running,
    /// Panicked; restarting, or restarted without a productive
    /// iteration yet.
    Restarting,
    /// Restart budget exhausted; the plugin will not run again.
    Failed,
}

#[derive(Clone, Debug, Default)]
struct PluginRecord {
    health: Option<PluginHealth>,
    panics: u32,
    restarts: u32,
    recovery_ns: Vec<u64>,
}

/// Aggregate supervision outcome for one plugin.
#[derive(Clone, Debug, PartialEq)]
pub struct PluginReport {
    /// Plugin name.
    pub name: String,
    /// Final lifecycle state.
    pub health: PluginHealth,
    /// Panics contained.
    pub panics: u32,
    /// Restarts performed.
    pub restarts: u32,
    /// Panic→first-productive-iteration latencies, nanoseconds.
    pub recovery_ns: Vec<u64>,
}

/// Shared crash-containment tracker. One per runtime context; every
/// [`Supervised`] invocation reports its panics and recoveries here.
pub struct Supervisor {
    enabled: bool,
    plugins: Mutex<HashMap<String, PluginRecord>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Supervisor(enabled={}, {} plugins)",
            self.enabled,
            self.plugins.lock().unwrap().len()
        )
    }
}

impl Supervisor {
    /// A supervisor that answers a panic with a backoff restart, up to
    /// [`MAX_RESTARTS`] times, when `enabled`. When not — the
    /// historical behaviour — panics are still contained (the thread
    /// must not die holding runtime state) but nothing restarts.
    pub(crate) fn new(enabled: bool) -> Arc<Self> {
        Arc::new(Self { enabled, plugins: Mutex::default() })
    }

    /// False for a supervisor built without supervision.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers `plugin` as running. Idempotent.
    pub(crate) fn register(&self, plugin: &str) {
        let mut plugins = self.plugins.lock().unwrap();
        let rec = plugins.entry(plugin.to_owned()).or_default();
        rec.health.get_or_insert(PluginHealth::Running);
    }

    /// Reports a contained panic. Returns the backoff to wait before
    /// restarting, or `None` when the restart budget is exhausted (the
    /// plugin transitions to [`PluginHealth::Failed`]).
    pub(crate) fn on_panic(&self, plugin: &str) -> Option<Duration> {
        let mut plugins = self.plugins.lock().unwrap();
        let rec = plugins.entry(plugin.to_owned()).or_default();
        rec.panics += 1;
        if !self.enabled || rec.restarts >= MAX_RESTARTS {
            rec.health = Some(PluginHealth::Failed);
            return None;
        }
        rec.restarts += 1;
        rec.health = Some(PluginHealth::Restarting);
        Some(backoff(rec.restarts))
    }

    /// Reports that a restarted `plugin` iterated productively
    /// `recovery_ns` after the panic that opened its incident: records
    /// the latency and sets the plugin back to
    /// [`PluginHealth::Running`].
    pub(crate) fn on_recovery(&self, plugin: &str, recovery_ns: u64) {
        let mut plugins = self.plugins.lock().unwrap();
        let rec = plugins.entry(plugin.to_owned()).or_default();
        rec.health = Some(PluginHealth::Running);
        rec.recovery_ns.push(recovery_ns);
    }

    /// Current health of `plugin` (None when never registered).
    pub fn health(&self, plugin: &str) -> Option<PluginHealth> {
        self.plugins.lock().unwrap().get(plugin).and_then(|r| r.health)
    }

    /// Per-plugin supervision outcomes, sorted by name for
    /// deterministic artifacts.
    pub fn report(&self) -> Vec<PluginReport> {
        let mut out: Vec<PluginReport> = self
            .plugins
            .lock()
            .unwrap()
            .iter()
            .map(|(name, r)| PluginReport {
                name: name.clone(),
                health: r.health.unwrap_or(PluginHealth::Running),
                panics: r.panics,
                restarts: r.restarts,
                recovery_ns: r.recovery_ns.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Total panics contained across all plugins.
    pub fn total_panics(&self) -> u32 {
        self.plugins.lock().unwrap().values().map(|r| r.panics).sum()
    }

    /// All recorded panic→recovery latencies, in occurrence order per
    /// plugin (plugins sorted by name).
    pub fn recovery_times_ns(&self) -> Vec<u64> {
        self.report().into_iter().flat_map(|r| r.recovery_ns).collect()
    }
}

/// Where a [`Supervised`] plugin is in its crash/restart cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RunState {
    Running,
    /// Panicked; `Plugin::start` re-runs on the first invocation at or
    /// after `until_ns`.
    Backoff {
        until_ns: u64,
    },
    /// Restart budget exhausted (or supervision disabled).
    Dead,
}

/// A plugin together with its crash-containment state: the one
/// supervised invocation every executor dispatches through.
pub struct Supervised {
    plugin: Box<dyn Plugin>,
    name: String,
    /// Scheduled `PluginCrash` windows already delivered.
    crashes_fired: u32,
    state: RunState,
    /// When the panic that opened the current incident fired; taken by
    /// the first productive iteration after the restart. An open
    /// incident is exactly the supervisor's
    /// [`PluginHealth::Restarting`].
    incident_since_ns: Option<u64>,
}

impl Supervised {
    /// Starts `plugin` and registers it with the context's supervisor.
    pub fn start(mut plugin: Box<dyn Plugin>, ctx: &PluginContext) -> Self {
        plugin.start(ctx);
        let name = plugin.name().to_owned();
        ctx.supervisor.register(&name);
        Self { plugin, name, crashes_fired: 0, state: RunState::Running, incident_since_ns: None }
    }

    /// The plugin's telemetry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True once the restart budget is exhausted: every further
    /// [`invoke`](Self::invoke) returns `None` without running anything.
    pub(crate) fn is_dead(&self) -> bool {
        self.state == RunState::Dead
    }

    /// Runs one release of the plugin at runtime-clock time `now_ns`.
    /// Returns the iteration's report, or `None` when nothing completed:
    /// the plugin is dead, is waiting out a restart backoff, or panicked
    /// in this invocation (a scheduled crash from the fault plan, a real
    /// panic in `iterate`, or one in the restart's `start` — each is
    /// contained and charged a restart slot).
    ///
    /// A backoff that has elapsed restarts the plugin and iterates it in
    /// the same invocation.
    pub fn invoke(
        &mut self,
        ctx: &PluginContext,
        release_ns: u64,
        now_ns: u64,
    ) -> Option<IterationReport> {
        match self.state {
            RunState::Dead => return None,
            RunState::Backoff { until_ns } if now_ns < until_ns => return None,
            RunState::Backoff { .. } => {
                if catch_unwind(AssertUnwindSafe(|| self.plugin.start(ctx))).is_err() {
                    self.on_panic(ctx, now_ns);
                    return None;
                }
                self.state = RunState::Running;
            }
            RunState::Running => {}
        }
        let outcome =
            if ctx.boundary.crash_due(&ctx.fault, &self.name, release_ns, self.crashes_fired) {
                self.crashes_fired += 1;
                None
            } else {
                catch_unwind(AssertUnwindSafe(|| self.plugin.iterate(ctx))).ok()
            };
        let Some(report) = outcome else {
            self.on_panic(ctx, now_ns);
            return None;
        };
        if report.did_work {
            if let Some(since_ns) = self.incident_since_ns.take() {
                let recovery_ns = now_ns.saturating_sub(since_ns);
                ctx.supervisor.on_recovery(&self.name, recovery_ns);
                ctx.metrics.record_ns("supervisor.recovery", recovery_ns);
            }
        }
        Some(report)
    }

    fn on_panic(&mut self, ctx: &PluginContext, now_ns: u64) {
        self.incident_since_ns.get_or_insert(now_ns);
        self.state = match ctx.supervisor.on_panic(&self.name) {
            Some(backoff) => RunState::Backoff { until_ns: now_ns + backoff.as_nanos() as u64 },
            None => RunState::Dead,
        };
    }

    /// Calls the plugin's `stop`.
    pub(crate) fn stop(&mut self) {
        self.plugin.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_ten_ms() {
        let delays: Vec<Duration> = (1..=MAX_RESTARTS).map(backoff).collect();
        assert_eq!(delays, [10, 20, 40].map(Duration::from_millis));
        assert_eq!(backoff_budget(), Duration::from_millis(10 + 20 + 40));
    }

    #[test]
    fn panic_restart_recovery_cycle() {
        let sup = Supervisor::new(true);
        sup.register("vio");
        assert_eq!(sup.health("vio"), Some(PluginHealth::Running));
        let backoff = sup.on_panic("vio").expect("first restart granted");
        assert_eq!(backoff, Duration::from_millis(10));
        assert_eq!(sup.health("vio"), Some(PluginHealth::Restarting));
        sup.on_recovery("vio", 11_999_000);
        assert_eq!(sup.health("vio"), Some(PluginHealth::Running));
        assert_eq!(sup.recovery_times_ns(), vec![11_999_000]);
    }

    #[test]
    fn restart_budget_exhausts_to_failed() {
        let sup = Supervisor::new(true);
        sup.register("app");
        for _ in 0..MAX_RESTARTS {
            assert!(sup.on_panic("app").is_some());
        }
        assert!(sup.on_panic("app").is_none(), "budget exhausted");
        assert_eq!(sup.health("app"), Some(PluginHealth::Failed));
        assert_eq!(sup.report()[0].panics, MAX_RESTARTS + 1);
        assert_eq!(sup.report()[0].restarts, MAX_RESTARTS);
    }

    #[test]
    fn disabled_supervisor_contains_but_never_restarts() {
        let sup = Supervisor::new(false);
        sup.register("imu");
        assert!(sup.on_panic("imu").is_none());
        assert_eq!(sup.health("imu"), Some(PluginHealth::Failed));
        assert_eq!(sup.total_panics(), 1);
    }

    /// Panics in its first `iterate`, then in the first `bad_restarts`
    /// restarts. `resume_unwind` keeps the panic hook quiet.
    struct Fragile {
        starts: u32,
        bad_restarts: u32,
        crashed: bool,
    }

    impl Plugin for Fragile {
        fn name(&self) -> &str {
            "fragile"
        }
        fn start(&mut self, _ctx: &PluginContext) {
            self.starts += 1;
            if self.starts > 1 && self.starts - 1 <= self.bad_restarts {
                std::panic::resume_unwind(Box::new("restart failed"));
            }
        }
        fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
            if !std::mem::replace(&mut self.crashed, true) {
                std::panic::resume_unwind(Box::new("boom"));
            }
            IterationReport::nominal()
        }
    }

    fn supervised_ctx(clock: crate::SimClock) -> PluginContext {
        crate::RuntimeBuilder::new(Arc::new(clock)).with_supervision().build()
    }

    #[test]
    fn panicking_restart_is_contained_and_charged_another_slot() {
        const MS: u64 = 1_000_000;
        let ctx = supervised_ctx(crate::SimClock::new());
        let fragile = Fragile { starts: 0, bad_restarts: 1, crashed: false };
        let mut task = Supervised::start(Box::new(fragile), &ctx);
        assert!(task.invoke(&ctx, 0, 0).is_none(), "iterate panicked");
        assert!(task.invoke(&ctx, 5 * MS, 5 * MS).is_none(), "inside the 10 ms backoff");
        assert_eq!(ctx.supervisor.report()[0].restarts, 1, "waiting costs nothing");
        // Backoff over: the restart's `start` panics — slot two, 20 ms.
        assert!(task.invoke(&ctx, 10 * MS, 10 * MS).is_none());
        let report = &ctx.supervisor.report()[0];
        assert_eq!((report.panics, report.restarts), (2, 2));
        assert!(task.invoke(&ctx, 29 * MS, 29 * MS).is_none(), "inside the 20 ms backoff");
        // Second restart succeeds and iterates in the same invocation.
        assert!(task.invoke(&ctx, 30 * MS, 30 * MS).is_some());
        assert_eq!(ctx.supervisor.health("fragile"), Some(PluginHealth::Running));
        assert_eq!(ctx.supervisor.recovery_times_ns(), vec![30 * MS]);
        assert!(!task.is_dead());
    }

    /// Panics in its first `iterate`, skips the next `skips`, then
    /// produces. `resume_unwind` keeps the panic hook quiet.
    struct SlowStarter {
        calls: u32,
        skips: u32,
    }

    impl Plugin for SlowStarter {
        fn name(&self) -> &str {
            "slow_starter"
        }
        fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
            self.calls += 1;
            match self.calls {
                1 => std::panic::resume_unwind(Box::new("boom")),
                calls if calls <= 1 + self.skips => IterationReport::skipped(),
                _ => IterationReport::nominal(),
            }
        }
    }

    #[test]
    fn a_restart_recovers_at_its_first_productive_iteration() {
        const MS: u64 = 1_000_000;
        let ctx = supervised_ctx(crate::SimClock::new());
        let mut task = Supervised::start(Box::new(SlowStarter { calls: 0, skips: 2 }), &ctx);
        assert!(task.invoke(&ctx, 0, 0).is_none(), "iterate panicked");
        // The 10 ms invocation restarts the plugin, which then skips
        // twice: the incident stays open through both.
        for at in [10 * MS, 15 * MS] {
            let report = task.invoke(&ctx, at, at).expect("restarted");
            assert!(!report.did_work);
            assert_eq!(ctx.supervisor.health("slow_starter"), Some(PluginHealth::Restarting));
            assert!(ctx.supervisor.recovery_times_ns().is_empty(), "a skip recovers nothing");
        }
        assert!(task.invoke(&ctx, 20 * MS, 20 * MS).expect("produced").did_work);
        assert_eq!(ctx.supervisor.health("slow_starter"), Some(PluginHealth::Running));
        assert_eq!(ctx.supervisor.recovery_times_ns(), vec![20 * MS]);
    }

    #[test]
    fn simulated_run_survives_a_plugin_that_never_restarts() {
        use crate::sim::{ExecOutcome, Resource, SimEngine, TaskSpec};

        let mut engine = SimEngine::new(1, 1, Arc::new(crate::telemetry::RecordLogger::new()));
        let ctx = supervised_ctx(engine.clock());
        let fragile = Fragile { starts: 0, bad_restarts: u32::MAX, crashed: false };
        let mut task = Supervised::start(Box::new(fragile), &ctx);
        let runner_ctx = ctx.clone();
        engine.add_task(
            TaskSpec {
                name: "fragile".into(),
                resource: Resource::Cpu,
                period: Duration::from_millis(5),
                offset: Duration::ZERO,
                deadline: Duration::from_millis(5),
                drop_if_busy: true,
                priority: 0,
                preemptive: false,
                preempt_latency: Duration::ZERO,
                class: crate::sched::PriorityClass::BestEffort,
            },
            Box::new(move |d| {
                let ran = task.invoke(&runner_ctx, d.release.as_nanos(), d.start.as_nanos());
                ExecOutcome {
                    cost: Duration::from_millis(1),
                    work_factor: 1.0,
                    did_work: ran.is_some(),
                }
            }),
        );
        // The run finishes; the plugin burned its whole budget on
        // restarts that panicked.
        engine.run_for(Duration::from_secs(1));
        assert_eq!(ctx.supervisor.health("fragile"), Some(PluginHealth::Failed));
        let report = &ctx.supervisor.report()[0];
        assert_eq!((report.panics, report.restarts), (4, 3));
    }
}
