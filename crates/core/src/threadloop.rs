//! Live-mode execution: the paper's threadloop, supervised.
//!
//! [`ThreadloopBuilder`] is the one way to run plugins on OS threads:
//! one dedicated thread per plugin, invoked at a fixed period (§II-B of
//! the paper). Simple and isolating; the OS scheduler decides who runs.
//!
//! Releases are computed with 64/128-bit nanosecond arithmetic
//! (release *k* = `origin + period·k`, drift-free and without the
//! wrap-around a `period * k as u32` has after ~2³² iterations) and a
//! deadline miss is *lateness* (`end > release + deadline`), never
//! CPU time: an iteration that slept past its deadline missed it, and
//! one that burned a full period of CPU but finished on time did not.
//!
//! Every release runs the plugin through [`Supervised::invoke`] — the
//! same supervised invocation the simulated task runner uses — so a
//! panicking plugin is contained instead of silently killing its
//! thread, scheduled crashes from the context's
//! [`FaultPlan`](crate::fault::FaultPlan) are injected, and an enabled
//! [`Supervisor`](crate::supervisor::Supervisor) answers a panic with a
//! bounded exponential-backoff restart. A release that completes
//! nothing (the plugin crashed, or is waiting out its backoff) is
//! logged as a drop.
//!
//! Use [`crate::sim`] instead for deterministic simulated runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::plugin::{Plugin, PluginContext};
use crate::sched::release_ns;
use crate::supervisor::Supervised;
use crate::telemetry::{export_invocation, FrameRecord};
use crate::time::Time;

/// One plugin's schedule inside a [`ThreadloopBuilder`].
struct TaskSpec {
    plugin: Box<dyn Plugin>,
    period: Duration,
    deadline: Duration,
}

/// Builds and spawns the live runtime's threads — the single way to
/// run plugins on OS threads.
///
/// Each [`task`](ThreadloopBuilder::task) gets a period and its own
/// thread; a chained [`deadline`](ThreadloopBuilder::deadline) refines
/// the most recently added task. Supervision and fault injection come
/// from the [`PluginContext`] passed to
/// [`spawn`](ThreadloopBuilder::spawn).
///
/// # Examples
///
/// ```no_run
/// use illixr_core::threadloop::ThreadloopBuilder;
/// use illixr_core::{RuntimeBuilder, WallClock};
/// use std::sync::Arc;
/// use std::time::Duration;
/// # use illixr_core::plugin::{IterationReport, Plugin, PluginContext};
/// # struct Cam; impl Plugin for Cam {
/// #   fn name(&self) -> &str { "camera" }
/// #   fn iterate(&mut self, _: &PluginContext) -> IterationReport { IterationReport::nominal() }
/// # }
///
/// let ctx = RuntimeBuilder::new(Arc::new(WallClock::new())).build();
/// let handles = ThreadloopBuilder::new()
///     .task(Box::new(Cam), Duration::from_millis(33))
///     .deadline(Duration::from_millis(20))
///     .spawn(&ctx);
/// handles.stop();
/// ```
#[must_use = "call .spawn(ctx) to start the threads"]
#[derive(Default)]
pub struct ThreadloopBuilder {
    tasks: Vec<TaskSpec>,
}

impl ThreadloopBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a plugin iterated every `period` on its own thread, with a
    /// relative deadline equal to the period.
    pub fn task(mut self, plugin: Box<dyn Plugin>, period: Duration) -> Self {
        self.tasks.push(TaskSpec { plugin, period, deadline: period });
        self
    }

    /// Sets the last-added task's relative deadline — shorter than the
    /// period for a compositor that must finish well before vsync,
    /// longer for a logger that tolerates slack.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.tasks
            .last_mut()
            .expect("configure a task with .task(...) before refining it")
            .deadline = deadline;
        self
    }

    /// Spawns one thread per task and returns the handles. Stopping
    /// the handles stops everything.
    pub fn spawn(self, ctx: &PluginContext) -> RuntimeHandles {
        RuntimeHandles {
            plugins: self.tasks.into_iter().map(|t| spawn_dedicated(t, ctx.clone())).collect(),
        }
    }
}

/// Handles to everything [`ThreadloopBuilder::spawn`] started.
/// Dropping (or [`stop`](RuntimeHandles::stop)ping) them stops the
/// plugin threads in the order they were added.
#[derive(Debug)]
pub struct RuntimeHandles {
    plugins: Vec<ThreadLoopHandle>,
}

impl RuntimeHandles {
    /// Stops all threads and calls each plugin's `stop`.
    pub fn stop(self) {
        drop(self.plugins);
    }
}

/// Handle to one dedicated plugin thread; dropping it stops and joins
/// the thread.
#[derive(Debug)]
struct ThreadLoopHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl Drop for ThreadLoopHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// One timed release of a supervised plugin: a productive iteration
/// becomes a [`FrameRecord`] (and, through [`export_invocation`], its
/// obs data); a release that completed nothing is a drop.
fn run_release(task: &mut Supervised, ctx: &PluginContext, release_ns: u64, deadline_ns: u64) {
    let start = ctx.clock.now();
    let cpu_start = Instant::now();
    let outcome = task.invoke(ctx, release_ns, start.as_nanos());
    let cpu_time = cpu_start.elapsed();
    let end = ctx.clock.now();
    let name = task.name();
    match outcome {
        Some(report) if report.did_work => {
            let record = FrameRecord {
                release: Time::from_nanos(release_ns),
                start,
                end,
                cpu_time,
                work_factor: report.work_factor,
                missed_deadline: crate::sched::is_miss(end.as_nanos(), release_ns, deadline_ns),
            };
            let deadline = Duration::from_nanos(deadline_ns);
            export_invocation(&ctx.tracer, &ctx.metrics, name, &record, deadline);
            ctx.telemetry.log(name, record);
        }
        Some(_) => {}
        None => ctx.telemetry.log_drop(name),
    }
}

/// Spawns one dedicated thread calling `iterate` every period until
/// stopped, logging one [`FrameRecord`] per productive iteration.
///
/// The loop is drift-free: iteration *k* is released at `start + k·period`
/// regardless of how long previous iterations took. If an iteration
/// overruns its period the next release fires immediately (no catch-up
/// burst: intermediate releases are counted as drops).
fn spawn_dedicated(task: TaskSpec, ctx: PluginContext) -> ThreadLoopHandle {
    let TaskSpec { plugin, period, deadline } = task;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_clone = stop.clone();
    let thread_name = plugin.name().to_owned();
    let period_ns = period.as_nanos().max(1) as u64;
    let deadline_ns = deadline.as_nanos() as u64;
    let join = std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || {
            let mut task = Supervised::start(plugin, &ctx);
            let origin = Instant::now();
            // Release timestamps are reported in the runtime clock's
            // basis; capture its origin alongside the Instant one.
            let origin_t = ctx.clock.now().as_nanos();
            let mut k: u64 = 0;
            // A plugin out of restart budget must not run again.
            while !stop_clone.load(Ordering::SeqCst) && !task.is_dead() {
                let offset_ns = release_ns(0, period_ns, k);
                let release = origin + Duration::from_nanos(offset_ns);
                let now = Instant::now();
                if release > now {
                    std::thread::sleep(release - now);
                }
                if stop_clone.load(Ordering::SeqCst) {
                    break;
                }
                run_release(&mut task, &ctx, release_ns(origin_t, period_ns, k), deadline_ns);
                // Skip any releases that elapsed while we were running.
                let elapsed = origin.elapsed();
                let next_k = (elapsed.as_nanos() / period_ns as u128) as u64 + 1;
                if next_k > k + 1 {
                    for _ in (k + 1)..next_k {
                        ctx.telemetry.log_drop(task.name());
                    }
                }
                k = next_k.max(k + 1);
            }
            task.stop();
        })
        .expect("failed to spawn plugin thread");
    ThreadLoopHandle { stop, join: Some(join) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WallClock;
    use crate::plugin::{IterationReport, RuntimeBuilder};
    use crate::supervisor::PluginHealth;

    fn ctx() -> PluginContext {
        RuntimeBuilder::new(Arc::new(WallClock::new())).build()
    }

    struct Ticker;

    impl Plugin for Ticker {
        fn name(&self) -> &str {
            "ticker"
        }
        fn start(&mut self, ctx: &PluginContext) {
            let _ = ctx.switchboard.topic::<u64>("ticks").unwrap();
        }
        fn iterate(&mut self, ctx: &PluginContext) -> IterationReport {
            ctx.switchboard.topic::<u64>("ticks").unwrap().writer().put(1);
            IterationReport::nominal()
        }
    }

    #[test]
    fn threadloop_runs_at_period_and_stops() {
        let ctx = ctx();
        let reader = ctx.switchboard.topic::<u64>("ticks").unwrap().sync_reader(1024);
        let handles =
            ThreadloopBuilder::new().task(Box::new(Ticker), Duration::from_millis(5)).spawn(&ctx);
        std::thread::sleep(Duration::from_millis(120));
        handles.stop();
        let n = reader.drain().len();
        // ~24 expected; allow generous scheduling slack.
        assert!(n >= 5, "expected at least 5 ticks, got {n}");
        let stats = ctx.telemetry.stats("ticker").unwrap();
        assert!(stats.invocations >= 5);
    }

    struct Slow;

    impl Plugin for Slow {
        fn name(&self) -> &str {
            "slow"
        }
        fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
            std::thread::sleep(Duration::from_millis(12));
            IterationReport::nominal()
        }
    }

    #[test]
    fn overrunning_plugin_records_drops() {
        let ctx = ctx();
        let handles =
            ThreadloopBuilder::new().task(Box::new(Slow), Duration::from_millis(4)).spawn(&ctx);
        std::thread::sleep(Duration::from_millis(100));
        handles.stop();
        let stats = ctx.telemetry.stats("slow").unwrap();
        assert!(stats.drops > 0, "a 12ms task at a 4ms period must drop releases");
        // 12 ms iterations against a 4 ms deadline: every logged
        // iteration finishes past release + deadline.
        assert!(stats.deadline_misses > 0);
    }

    /// A plugin that sleeps through its deadline without burning CPU
    /// used to be reported as on-time (`cpu > period` was the miss
    /// predicate); lateness accounting must count it.
    struct Sleepy;

    impl Plugin for Sleepy {
        fn name(&self) -> &str {
            "sleepy"
        }
        fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
            std::thread::sleep(Duration::from_millis(8));
            IterationReport::nominal()
        }
    }

    #[test]
    fn sleepy_but_late_iterations_are_misses() {
        let ctx = ctx();
        // Period 20 ms (so cpu < period always) but deadline 2 ms.
        let handles = ThreadloopBuilder::new()
            .task(Box::new(Sleepy), Duration::from_millis(20))
            .deadline(Duration::from_millis(2))
            .spawn(&ctx);
        std::thread::sleep(Duration::from_millis(100));
        handles.stop();
        let stats = ctx.telemetry.stats("sleepy").unwrap();
        assert!(stats.invocations >= 2);
        assert_eq!(
            stats.deadline_misses, stats.invocations,
            "every 8 ms sleep blows the 2 ms deadline even though cpu ≪ period"
        );
    }

    /// A plugin that panics on its `n`th iteration, then behaves.
    struct Crashy {
        calls: u32,
        crash_on: u32,
    }

    impl Plugin for Crashy {
        fn name(&self) -> &str {
            "crashy"
        }
        fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
            self.calls += 1;
            if self.calls == self.crash_on {
                panic!("boom");
            }
            IterationReport::nominal()
        }
    }

    static PANIC_HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        // Keep expected panics out of the test output; serialize so
        // concurrent tests don't race on the process-global hook.
        let _guard = PANIC_HOOK_LOCK.lock().unwrap();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn supervised_threadloop_restarts_a_panicking_plugin() {
        quiet_panics(|| {
            let ctx = RuntimeBuilder::new(Arc::new(WallClock::new())).with_supervision().build();
            let handles = ThreadloopBuilder::new()
                .task(Box::new(Crashy { calls: 0, crash_on: 3 }), Duration::from_millis(4))
                .spawn(&ctx);
            std::thread::sleep(Duration::from_millis(120));
            handles.stop();
            assert_eq!(ctx.supervisor.health("crashy"), Some(PluginHealth::Running));
            let report = &ctx.supervisor.report()[0];
            assert_eq!(report.panics, 1);
            assert_eq!(report.restarts, 1);
            assert_eq!(report.recovery_ns.len(), 1, "recovery recorded");
            // The plugin kept iterating after the restart.
            assert!(ctx.telemetry.stats("crashy").unwrap().invocations > 3);
        });
    }

    #[test]
    fn unsupervised_panic_is_contained_but_fatal_to_the_plugin() {
        quiet_panics(|| {
            let ctx = ctx();
            let handles = ThreadloopBuilder::new()
                .task(Box::new(Crashy { calls: 0, crash_on: 2 }), Duration::from_millis(4))
                .task(Box::new(Ticker), Duration::from_millis(4))
                .spawn(&ctx);
            std::thread::sleep(Duration::from_millis(60));
            handles.stop();
            assert_eq!(ctx.supervisor.health("crashy"), Some(PluginHealth::Failed));
            let crashy = ctx.telemetry.stats("crashy").unwrap();
            assert_eq!(crashy.invocations, 1, "stopped at the panic");
            // The other plugin was unaffected.
            assert!(ctx.telemetry.stats("ticker").unwrap().invocations >= 5);
        });
    }

    #[test]
    fn scheduled_crash_fault_is_injected_and_recovered() {
        quiet_panics(|| {
            use crate::fault::{FaultKind, FaultPlan, FaultWindow};
            let plan = FaultPlan::new(42).with_window(FaultWindow::new(
                FaultKind::PluginCrash,
                "ticker",
                20_000_000, // 20 ms into the run
                20_000_001,
                1.0,
            ));
            let ctx = RuntimeBuilder::new(Arc::new(WallClock::new()))
                .with_fault_plan(Arc::new(plan))
                .with_supervision()
                .build();
            let handles = ThreadloopBuilder::new()
                .task(Box::new(Ticker), Duration::from_millis(5))
                .spawn(&ctx);
            std::thread::sleep(Duration::from_millis(120));
            handles.stop();
            let report = &ctx.supervisor.report()[0];
            assert_eq!(report.panics, 1, "exactly one scheduled crash fires");
            assert_eq!(report.restarts, 1);
            assert_eq!(ctx.supervisor.health("ticker"), Some(PluginHealth::Running));
        });
    }
}
