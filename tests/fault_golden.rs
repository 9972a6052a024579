//! Golden tests for the fault-injection subsystem: same-seed faulted
//! runs must be bit-identical (the fault trials are stateless hashes of
//! seed × kind × target × sequence, so injection adds no new
//! nondeterminism), a plugin crash mid-run must be restarted by the
//! supervisor within its backoff budget with a bounded motion-to-photon
//! spike, the supervised adaptive runtime must strictly beat the
//! unsupervised baseline on chain-deadline misses at the same fault
//! intensity, and a zero-intensity plan must be a perfect no-op.

use std::time::Duration;

use illixr_core::boundary::Xoshiro256pp;
use illixr_core::fault::{FaultPlan, NS_PER_SEC};
use illixr_core::obs::{chrome_trace_json, metrics_csv};
use illixr_core::sched::PolicyKind;
use illixr_core::supervisor::{backoff_budget, PluginHealth, MAX_RESTARTS};
use illixr_platform::spec::Platform;
use illixr_render::apps::Application;
use illixr_system::experiment::{ExperimentConfig, ExperimentResult, IntegratedExperiment};

const SEED: u64 = 42;

/// The same contended single-core configuration as `sched_golden`, with
/// the canonical scheduled fault plan layered on top: sensor dropouts,
/// a mid-run link outage, and plugin crashes for `vio` and
/// `imu_integrator`.
fn faulted(policy: PolicyKind, supervised: bool, intensity: f64) -> ExperimentResult {
    let mut cfg = ExperimentConfig::quick(Application::Platformer, Platform::Desktop)
        .with_trace()
        .with_policy(policy)
        .with_load_factor(2.0)
        .with_cpu_cores(1);
    cfg.chain_deadline = Duration::from_millis(15);
    let plan = FaultPlan::scheduled(SEED, intensity, cfg.duration.as_nanos() as u64);
    cfg = cfg.with_fault_plan(plan);
    if supervised {
        cfg = cfg.with_supervision();
    }
    IntegratedExperiment::run(&cfg)
}

fn miss_rate(result: &ExperimentResult) -> f64 {
    let total = result.chain_outcomes.len().max(1);
    result.chain_outcomes.iter().filter(|o| o.missed).count() as f64 / total as f64
}

#[test]
fn faulted_runs_are_bit_identical_across_same_seed_runs() {
    let a = faulted(PolicyKind::Adaptive, true, 1.0);
    let b = faulted(PolicyKind::Adaptive, true, 1.0);
    assert_eq!(
        chrome_trace_json(&a.tracer),
        chrome_trace_json(&b.tracer),
        "faulted trace.json must be bit-identical for the same seed"
    );
    assert_eq!(
        metrics_csv(&a.metrics),
        metrics_csv(&b.metrics),
        "faulted metrics.csv must be bit-identical for the same seed"
    );
    assert_eq!(a.chain_outcomes, b.chain_outcomes);
    assert_eq!(a.supervisor.total_panics(), b.supervisor.total_panics());
    assert_eq!(a.supervisor.recovery_times_ns(), b.supervisor.recovery_times_ns());
    assert_eq!(a.shed_jobs, b.shed_jobs);
    assert_eq!(a.degradation_level, b.degradation_level);
}

#[test]
fn supervised_run_restarts_crashed_plugins_within_the_backoff_budget() {
    let result = faulted(PolicyKind::Adaptive, true, 1.0);
    // The scheduled plan crashes both vio (35% of the run) and
    // imu_integrator (45%); each panic must be contained, counted, and
    // answered with a restart.
    assert!(
        result.supervisor.total_panics() >= 2,
        "expected both scheduled crashes to fire, saw {} panics",
        result.supervisor.total_panics()
    );
    let recoveries = result.supervisor.recovery_times_ns();
    assert!(!recoveries.is_empty(), "supervised run must record panic→recovery latencies");
    // Recovery latency spans panic → next *productive* iteration, so it
    // includes the backoff plus at most a few scheduling periods of the
    // restarted plugin — bounded well under a second of simulated time.
    let bound = backoff_budget() + Duration::from_millis(500);
    for &ns in &recoveries {
        assert!(
            Duration::from_nanos(ns) < bound,
            "recovery took {:.1} ms, budget-derived bound is {:.1} ms",
            ns as f64 / 1e6,
            bound.as_secs_f64() * 1e3
        );
    }
    // Each crashed plugin stayed within its restart budget and came
    // back healthy.
    for report in result.supervisor.report() {
        if report.panics > 0 {
            assert!(report.restarts >= 1, "{} crashed but was never restarted", report.name);
            assert!(report.restarts <= MAX_RESTARTS);
            assert_eq!(
                report.health,
                PluginHealth::Running,
                "{} should be running again after its restart",
                report.name
            );
        }
    }
    // The recovery histogram is exported alongside the rest of the
    // observability artifacts.
    assert!(
        metrics_csv(&result.metrics).contains("supervisor.recovery"),
        "metrics.csv missing the supervisor.recovery histogram"
    );
    // Crashing and restarting plugins must not wreck the display path:
    // MTP stays within a small factor of the fault-free run.
    let quiet = faulted(PolicyKind::Adaptive, true, 0.0);
    let mtp = |r: &ExperimentResult| r.mtp_ms().map(|m| m.mean).unwrap_or(0.0);
    assert!(
        mtp(&result) < 3.0 * mtp(&quiet).max(1.0),
        "faulted MTP {:.1} ms must stay bounded vs fault-free {:.1} ms",
        mtp(&result),
        mtp(&quiet)
    );
}

#[test]
fn supervision_strictly_beats_the_unsupervised_baseline_under_faults() {
    let base = faulted(PolicyKind::RateMonotonic, false, 1.0);
    let sup = faulted(PolicyKind::Adaptive, true, 1.0);
    // Without supervision the crashes still fire and are contained, but
    // nothing restarts: imu_integrator stays dead, freezing the chain's
    // published origin, so chain latency grows without bound.
    assert!(base.supervisor.total_panics() >= 1);
    assert!(base.supervisor.recovery_times_ns().is_empty());
    assert_eq!(base.supervisor.health("imu_integrator"), Some(PluginHealth::Failed));
    let (base_rate, sup_rate) = (miss_rate(&base), miss_rate(&sup));
    assert!(
        sup_rate < base_rate,
        "supervised chain miss rate {sup_rate:.4} must beat unsupervised {base_rate:.4}"
    );
}

#[test]
fn explicit_quiet_plan_matches_the_default_run_bit_for_bit() {
    // Threading a zero-intensity plan (and an idle supervisor) through
    // the whole stack must not perturb a single trace event: the fault
    // checks and catch_unwind containment are behaviourally invisible
    // when nothing fires.
    let default_cfg =
        ExperimentConfig::quick(Application::Platformer, Platform::Desktop).with_trace();
    let default_run = IntegratedExperiment::run(&default_cfg);
    let quiet_cfg = ExperimentConfig::quick(Application::Platformer, Platform::Desktop)
        .with_trace()
        .with_fault_plan(FaultPlan::scheduled(SEED, 0.0, 2 * NS_PER_SEC))
        .with_supervision();
    let quiet_run = IntegratedExperiment::run(&quiet_cfg);
    assert_eq!(chrome_trace_json(&default_run.tracer), chrome_trace_json(&quiet_run.tracer));
    assert_eq!(metrics_csv(&default_run.metrics), metrics_csv(&quiet_run.metrics));
    assert_eq!(default_run.chain_outcomes, quiet_run.chain_outcomes);
    assert_eq!(quiet_run.supervisor.total_panics(), 0);
    assert!(quiet_run.supervisor.recovery_times_ns().is_empty());
}

/// Every consumer surface of `plan` must report "no fault" at the
/// given query point.
fn assert_plan_is_quiet(plan: &FaultPlan, now: u64, seq: u64, case: usize) {
    assert!(plan.is_quiet(), "case {case}");
    let camera = plan.sensor("camera");
    assert!(!camera.drop_frame(now, seq), "case {case}");
    assert!(!camera.frozen(now), "case {case}");
    let imu = plan.sensor("imu");
    assert!(!imu.imu_gap(now, seq), "case {case}");
    assert_eq!(imu.bias(now), 0.0, "case {case}");
    assert_eq!(imu.noise(now, seq), 0.0, "case {case}");
    for target in ["uplink", "downlink", ""] {
        let link = plan.link(target);
        assert!(link.outage_until(now).is_none(), "case {case}: {target}");
        assert_eq!(link.jitter_scale(now), 1.0, "case {case}: {target}");
        assert!(!link.duplicate(seq), "case {case}: {target}");
        assert!(!link.reorder(seq), "case {case}: {target}");
    }
    assert_eq!(plan.crash_count_through("vio", now), 0, "case {case}");
    assert_eq!(plan.crash_count_through("imu_integrator", now), 0, "case {case}");
    assert_eq!(plan.worker_crashes_due("shard/0", now), 0, "case {case}");
}

// A zero-or-negative-intensity plan is a no-op for every consumer
// surface, whatever the seed, duration, or query point.
#[test]
fn zero_intensity_plan_is_a_noop() {
    let mut rng = Xoshiro256pp::new(4);
    for case in 0..64 {
        let seed = rng.next_u64();
        // Half the draws land on exactly 0.0, half strictly negative.
        let intensity = (rng.uniform(-2.0..0.0) + 1.0).min(0.0);
        let duration_ns = 1 + rng.below(300 * NS_PER_SEC - 1);
        let plan = FaultPlan::scheduled(seed, intensity, duration_ns);
        assert_plan_is_quiet(&plan, rng.next_u64(), rng.next_u64(), case);
    }
}
