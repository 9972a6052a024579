//! The supervisor: crash containment and liveness for every executor.
//!
//! The paper's runtime (like most research prototypes) assumes plugins
//! never fail; one panicking component kills its thread silently and
//! the rest of the pipeline starves. The supervisor closes that gap
//! with a small state machine per plugin:
//!
//! ```text
//!            panic                 panic (budget left)
//! Running ───────────▶ Restarting ───────────▶ Restarting (backoff × factor)
//!    ▲                     │  successful iterate      │ budget exhausted
//!    │ watchdog deadline   ▼                          ▼
//! Degraded ◀─────────── Running                     Failed
//! ```
//!
//! * **Panic containment** — both executors (the threadloop and the
//!   simulated task runner) run their plugins through
//!   [`Supervised::invoke`], the one supervised invocation: `iterate`
//!   and the restart `start` run under `catch_unwind`; a panic is
//!   reported here and answered with either a restart delay
//!   (exponential backoff, bounded retries) or "give up"
//!   ([`PluginHealth::Failed`]). Scheduled crashes from the fault plan
//!   are injected there too, through the determinism boundary.
//! * **Recovery accounting** — the first successful iteration after a
//!   restart closes the incident; the panic→recovery latency is
//!   recorded and exposed for the `supervisor.recovery` histogram.
//! * **Stale-stream watchdog** — plugins report progress on every
//!   productive iteration; a watchdog sweep marks any plugin
//!   silent past the deadline [`PluginHealth::Degraded`], exactly once
//!   per incident.
//!
//! All timestamps are runtime-clock nanoseconds, so the same machinery
//! works under the wall clock (live threadloops) and the simulated
//! clock (the experiment runner).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::plugin::{IterationReport, Plugin, PluginContext};

/// Restart/watchdog tuning for supervised plugins.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SupervisionPolicy {
    /// Restarts allowed per plugin before it is declared failed.
    pub max_restarts: u32,
    /// Delay before the first restart.
    pub backoff_initial: Duration,
    /// Multiplier applied to the delay after each successive panic.
    pub backoff_factor: f64,
    /// Ceiling on the restart delay.
    pub backoff_max: Duration,
    /// Stale-stream deadline: a plugin with no productive iteration for
    /// this long is marked degraded (None disables the watchdog).
    pub watchdog_deadline: Option<Duration>,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            backoff_initial: Duration::from_millis(10),
            backoff_factor: 2.0,
            backoff_max: Duration::from_secs(1),
            watchdog_deadline: None,
        }
    }
}

impl SupervisionPolicy {
    /// No restarts, no watchdog: a panic kills the plugin (but is still
    /// contained and counted instead of silently unwinding the thread).
    pub(crate) fn disabled() -> Self {
        Self { max_restarts: 0, watchdog_deadline: None, ..Self::default() }
    }

    /// The restart delay before attempt `attempt` (1-based). Saturates
    /// at [`SupervisionPolicy::backoff_max`] for any attempt number —
    /// the exponential is clamped before constructing a `Duration`, so
    /// arbitrarily late attempts cannot overflow.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(i32::MAX as u32) as i32;
        let secs = self.backoff_initial.as_secs_f64() * self.backoff_factor.powi(exp);
        if !secs.is_finite() || secs >= self.backoff_max.as_secs_f64() {
            return self.backoff_max;
        }
        Duration::from_secs_f64(secs).min(self.backoff_max)
    }

    /// Upper bound on total restart delay across the whole budget —
    /// what "restarted within the backoff budget" means in tests.
    pub fn backoff_budget(&self) -> Duration {
        (1..=self.max_restarts.max(1)).map(|a| self.backoff(a)).sum()
    }
}

/// A supervised plugin's lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PluginHealth {
    /// Iterating normally.
    Running,
    /// Panicked; waiting out the backoff before the next restart.
    Restarting,
    /// The watchdog declared it stale (no productive iteration within
    /// the deadline). Cleared by the next productive iteration.
    Degraded,
    /// Restart budget exhausted; the plugin will not run again.
    Failed,
}

#[derive(Clone, Debug, Default)]
struct PluginRecord {
    health: Option<PluginHealth>,
    panics: u32,
    restarts: u32,
    degraded_incidents: u32,
    last_progress_ns: u64,
    /// Set while an incident is open: when the triggering panic fired.
    incident_open_ns: Option<u64>,
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
    /// Times the watchdog declared the plugin stale.
    pub degraded_incidents: u32,
    /// Panic→first-successful-iteration latencies, nanoseconds.
    pub recovery_ns: Vec<u64>,
}

/// Shared crash-containment and liveness tracker. One per runtime
/// context; threadloops consult it around every iteration.
pub struct Supervisor {
    enabled: bool,
    policy: SupervisionPolicy,
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
    /// A supervisor enforcing `policy`.
    pub(crate) fn new(policy: SupervisionPolicy) -> Arc<Self> {
        Arc::new(Self { enabled: true, policy, plugins: Mutex::default() })
    }

    /// The historical behaviour: panics are still contained (the thread
    /// must not die holding runtime state) but nothing restarts and the
    /// watchdog never fires.
    pub(crate) fn disabled() -> Arc<Self> {
        Arc::new(Self {
            enabled: false,
            policy: SupervisionPolicy::disabled(),
            plugins: Mutex::default(),
        })
    }

    /// False for `Supervisor::disabled`.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The active policy.
    pub(crate) fn policy(&self) -> SupervisionPolicy {
        self.policy
    }

    /// Registers `plugin` as running as of `now_ns`. Idempotent.
    pub(crate) fn register(&self, plugin: &str, now_ns: u64) {
        let mut plugins = self.plugins.lock().unwrap();
        let rec = plugins.entry(plugin.to_owned()).or_default();
        if rec.health.is_none() {
            rec.health = Some(PluginHealth::Running);
            rec.last_progress_ns = now_ns;
        }
    }

    /// Reports a contained panic at `now_ns`. Returns the backoff to
    /// wait before restarting, or `None` when the restart budget is
    /// exhausted (the plugin transitions to [`PluginHealth::Failed`]).
    pub(crate) fn on_panic(&self, plugin: &str, now_ns: u64) -> Option<Duration> {
        let mut plugins = self.plugins.lock().unwrap();
        let rec = plugins.entry(plugin.to_owned()).or_default();
        rec.panics += 1;
        rec.incident_open_ns.get_or_insert(now_ns);
        if !self.enabled || rec.restarts >= self.policy.max_restarts {
            rec.health = Some(PluginHealth::Failed);
            return None;
        }
        rec.restarts += 1;
        rec.health = Some(PluginHealth::Restarting);
        Some(self.policy.backoff(rec.restarts))
    }

    /// Reports a productive iteration at `now_ns`: clears any open
    /// incident (returning its panic→recovery latency) and feeds the
    /// stale-stream watchdog.
    pub(crate) fn note_progress(&self, plugin: &str, now_ns: u64) -> Option<u64> {
        let mut plugins = self.plugins.lock().unwrap();
        let rec = plugins.entry(plugin.to_owned()).or_default();
        rec.last_progress_ns = now_ns;
        if rec.health != Some(PluginHealth::Failed) {
            rec.health = Some(PluginHealth::Running);
        }
        rec.incident_open_ns.take().map(|opened| {
            let recovery = now_ns.saturating_sub(opened);
            rec.recovery_ns.push(recovery);
            recovery
        })
    }

    /// Watchdog sweep at `now_ns`: every registered, running plugin
    /// with no productive iteration for longer than the watchdog
    /// deadline is marked [`PluginHealth::Degraded`], once per incident.
    /// Returns the names degraded by *this* sweep.
    pub(crate) fn scan_stale(&self, now_ns: u64) -> Vec<String> {
        let Some(deadline) = self.policy.watchdog_deadline else {
            return Vec::new();
        };
        if !self.enabled {
            return Vec::new();
        }
        let deadline_ns = deadline.as_nanos() as u64;
        let mut newly_degraded = Vec::new();
        for (name, rec) in self.plugins.lock().unwrap().iter_mut() {
            if rec.health == Some(PluginHealth::Running)
                && now_ns.saturating_sub(rec.last_progress_ns) > deadline_ns
            {
                rec.health = Some(PluginHealth::Degraded);
                rec.degraded_incidents += 1;
                newly_degraded.push(name.clone());
            }
        }
        newly_degraded
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
                degraded_incidents: r.degraded_incidents,
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
}

impl Supervised {
    /// Starts `plugin` and registers it with the context's supervisor.
    pub fn start(mut plugin: Box<dyn Plugin>, ctx: &PluginContext) -> Self {
        plugin.start(ctx);
        let name = plugin.name().to_owned();
        ctx.supervisor.register(&name, ctx.clock.now().as_nanos());
        Self { plugin, name, crashes_fired: 0, state: RunState::Running }
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
            if let Some(recovery_ns) = ctx.supervisor.note_progress(&self.name, now_ns) {
                ctx.metrics.record_ns("supervisor.recovery", recovery_ns);
            }
        }
        Some(report)
    }

    fn on_panic(&mut self, ctx: &PluginContext, now_ns: u64) {
        self.state = match ctx.supervisor.on_panic(&self.name, now_ns) {
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
    fn backoff_is_exponential_and_capped() {
        let p = SupervisionPolicy {
            backoff_initial: Duration::from_millis(10),
            backoff_factor: 2.0,
            backoff_max: Duration::from_millis(35),
            ..SupervisionPolicy::default()
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(35), "capped");
        assert_eq!(
            SupervisionPolicy::default().backoff_budget(),
            Duration::from_millis(10 + 20 + 40)
        );
    }

    #[test]
    fn panic_restart_recovery_cycle() {
        let sup = Supervisor::new(SupervisionPolicy::default());
        sup.register("vio", 0);
        assert_eq!(sup.health("vio"), Some(PluginHealth::Running));
        let backoff = sup.on_panic("vio", 1_000).expect("first restart granted");
        assert_eq!(backoff, Duration::from_millis(10));
        assert_eq!(sup.health("vio"), Some(PluginHealth::Restarting));
        let recovery = sup.note_progress("vio", 12_000_000).expect("incident closes");
        assert_eq!(recovery, 12_000_000 - 1_000);
        assert_eq!(sup.health("vio"), Some(PluginHealth::Running));
        assert_eq!(sup.recovery_times_ns(), vec![11_999_000]);
    }

    #[test]
    fn restart_budget_exhausts_to_failed() {
        let sup = Supervisor::new(SupervisionPolicy { max_restarts: 2, ..Default::default() });
        sup.register("app", 0);
        assert!(sup.on_panic("app", 10).is_some());
        assert!(sup.on_panic("app", 20).is_some());
        assert!(sup.on_panic("app", 30).is_none(), "budget exhausted");
        assert_eq!(sup.health("app"), Some(PluginHealth::Failed));
        assert_eq!(sup.report()[0].panics, 3);
        assert_eq!(sup.report()[0].restarts, 2);
        // A failed plugin stays failed even if something reports progress.
        sup.note_progress("app", 40);
        assert_eq!(sup.health("app"), Some(PluginHealth::Failed));
    }

    #[test]
    fn disabled_supervisor_contains_but_never_restarts() {
        let sup = Supervisor::disabled();
        sup.register("imu", 0);
        assert!(sup.on_panic("imu", 5).is_none());
        assert_eq!(sup.health("imu"), Some(PluginHealth::Failed));
        assert_eq!(sup.total_panics(), 1);
        assert!(sup.scan_stale(u64::MAX).is_empty());
    }

    #[test]
    fn degraded_plugin_fails_when_budget_is_already_exhausted() {
        // Edge transition: a plugin the watchdog marked Degraded must
        // still land in Failed on its next panic once the restart
        // budget is gone — degradation must not reset or bypass the
        // budget accounting.
        let sup = Supervisor::new(SupervisionPolicy {
            max_restarts: 1,
            watchdog_deadline: Some(Duration::from_millis(1)),
            ..Default::default()
        });
        sup.register("render", 0);
        assert!(sup.on_panic("render", 10).is_some(), "budget of one restart");
        sup.note_progress("render", 20);
        // Silence past the deadline: Running -> Degraded.
        assert_eq!(sup.scan_stale(10_000_000), vec!["render".to_owned()]);
        assert_eq!(sup.health("render"), Some(PluginHealth::Degraded));
        // Budget exhausted: the panic out of Degraded is terminal.
        assert!(sup.on_panic("render", 10_000_100).is_none());
        assert_eq!(sup.health("render"), Some(PluginHealth::Failed));
        // Failed is absorbing: neither progress nor the watchdog moves it.
        sup.note_progress("render", 10_000_200);
        assert_eq!(sup.health("render"), Some(PluginHealth::Failed));
        assert!(sup.scan_stale(u64::MAX).is_empty(), "failed plugins are not watchdog targets");
        let report = sup.report();
        assert_eq!(report[0].restarts, 1);
        assert_eq!(report[0].panics, 2);
        assert_eq!(report[0].degraded_incidents, 1);
    }

    #[test]
    fn backoff_saturates_at_cap_for_every_attempt_past_it() {
        // Edge: once the exponential schedule crosses backoff_max,
        // every later attempt returns exactly the cap — no overflow,
        // no drift, including attempt numbers far past the budget.
        let p = SupervisionPolicy {
            backoff_initial: Duration::from_millis(10),
            backoff_factor: 2.0,
            backoff_max: Duration::from_millis(100),
            max_restarts: u32::MAX,
            ..SupervisionPolicy::default()
        };
        // 10, 20, 40, 80 then capped forever.
        assert_eq!(p.backoff(4), Duration::from_millis(80));
        for attempt in [5, 6, 10, 31, 1_000, u32::MAX] {
            assert_eq!(p.backoff(attempt), p.backoff_max, "attempt {attempt} must saturate");
        }
        // Attempt 0 is treated like attempt 1 (saturating_sub), not a
        // zero-duration or panicking edge.
        assert_eq!(p.backoff(0), Duration::from_millis(10));

        // The live path agrees with the schedule at saturation.
        let sup = Supervisor::new(p);
        sup.register("vio", 0);
        for i in 0..8 {
            let delay = sup.on_panic("vio", i).expect("unbounded budget");
            assert!(delay <= p.backoff_max);
        }
        assert_eq!(sup.on_panic("vio", 99).unwrap(), p.backoff_max, "saturated backoff");
    }

    #[test]
    fn watchdog_degrades_exactly_once_per_stale_window() {
        // Edge: repeated sweeps inside one stale window report the
        // plugin once; each progress-then-silence cycle opens a fresh
        // window that reports exactly once more.
        let sup = Supervisor::new(SupervisionPolicy {
            watchdog_deadline: Some(Duration::from_millis(5)),
            ..SupervisionPolicy::default()
        });
        sup.register("camera", 0);
        for window in 1..=3u64 {
            let base = window * 20_000_000;
            // Many sweeps within the same window: one report total.
            assert_eq!(sup.scan_stale(base).len(), 1, "window {window} opens");
            for extra in 1..=4 {
                assert!(sup.scan_stale(base + extra).is_empty(), "no re-fire within a window");
            }
            assert_eq!(
                sup.report()[0].degraded_incidents,
                window as u32,
                "incident count tracks windows, not sweeps"
            );
            // Progress closes the window; the next silence is a new one.
            sup.note_progress("camera", base + 10);
            assert_eq!(sup.health("camera"), Some(PluginHealth::Running));
        }
    }

    #[test]
    fn watchdog_degrades_stale_plugins_once_per_incident() {
        let sup = Supervisor::new(SupervisionPolicy {
            watchdog_deadline: Some(Duration::from_millis(5)),
            ..SupervisionPolicy::default()
        });
        sup.register("camera", 0);
        sup.register("imu", 0);
        sup.note_progress("imu", 9_000_000);
        // camera silent for 10 ms > 5 ms deadline; imu progressed 1 ms ago.
        let stale = sup.scan_stale(10_000_000);
        assert_eq!(stale, vec!["camera".to_owned()]);
        assert_eq!(sup.health("camera"), Some(PluginHealth::Degraded));
        assert_eq!(sup.health("imu"), Some(PluginHealth::Running));
        // Second sweep: same incident, not reported again.
        assert!(sup.scan_stale(11_000_000).is_empty());
        assert_eq!(sup.report().iter().find(|r| r.name == "camera").unwrap().degraded_incidents, 1);
        // Progress clears the degradation; a new silence is a new incident.
        sup.note_progress("camera", 12_000_000);
        sup.note_progress("imu", 19_000_000);
        assert_eq!(sup.health("camera"), Some(PluginHealth::Running));
        assert_eq!(sup.scan_stale(20_000_000), vec!["camera".to_owned()]);
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
        crate::RuntimeBuilder::new(Arc::new(clock))
            .with_supervision(SupervisionPolicy::default())
            .build()
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
