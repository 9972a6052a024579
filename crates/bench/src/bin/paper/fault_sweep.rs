//! Fault-intensity sweep: runs the integrated experiment under the
//! canonical [`FaultPlan::scheduled`] stress plan (sensor faults, a
//! mid-run link outage, a `vio` crash) at increasing intensity, in two
//! runtime modes:
//!
//! * **supervised** — adaptive governor + crash supervision: the `vio`
//!   crash is answered with a backoff restart and the panic→recovery
//!   latency lands in the `supervisor.recovery` accounting;
//! * **baseline** — rate-monotonic, supervision off: the crash is
//!   contained but `vio` stays dead for the rest of the run.
//!
//! Usage: `cargo run --release -p illixr-bench --bin paper -- --only
//! fault_sweep` (`--quick` caps each cell at 3 simulated seconds for
//! CI; honours `ILLIXR_SECONDS` otherwise; writes
//! `results/fault_sweep.txt` embedding the exact fault schedule).
//!
//! Every run is fully deterministic — simulated clock, seeded sensors,
//! hash-based fault trials — so two invocations produce bit-identical
//! artifacts; the harness reruns the top supervised cell and checks.

use std::io;
use std::time::Duration;

use illixr_bench::{
    contended_config, rule, sweep_duration, Report, RunSummary, Samples, CONTENDED_CHAIN_DEADLINE,
};
use illixr_core::fault::FaultPlan;
use illixr_core::sched::PolicyKind;
use illixr_system::experiment::{ExperimentResult, IntegratedExperiment};

use crate::Context;

const SEED: u64 = 42;
const INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];
/// Same contended régime as `sched_compare`: one core at 2× load is
/// where the governor's shedding matters, so the supervised mode's
/// advantage under faults is visible in the chain-miss column.
const LOAD: f64 = 2.0;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Supervised,
    Baseline,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Supervised => "supervised",
            Mode::Baseline => "baseline",
        }
    }
}

/// One (intensity, mode) cell of the sweep.
struct Cell {
    intensity: f64,
    mode: Mode,
    /// MTP / chain samples and the chain miss rate.
    run: RunSummary,
    pose_judder: f64,
    panics: u32,
    /// Panic→recovery latencies, ns.
    recovery_ns: Samples,
    restarts: u32,
    failed: usize,
    level: u32,
    shed: u64,
}

fn run_once(intensity: f64, mode: Mode, duration: Duration) -> ExperimentResult {
    let plan = FaultPlan::scheduled(SEED, intensity, duration.as_nanos() as u64);
    let config = contended_config(LOAD, duration).with_fault_plan(plan);
    let config = match mode {
        Mode::Supervised => config.with_policy(PolicyKind::Adaptive).with_supervision(),
        Mode::Baseline => config.with_policy(PolicyKind::RateMonotonic),
    };
    IntegratedExperiment::run(&config)
}

fn summarize(intensity: f64, mode: Mode, result: &ExperimentResult) -> Cell {
    let sup_report = result.supervisor.report();
    Cell {
        intensity,
        mode,
        run: RunSummary::of(result),
        pose_judder: result.pose_judder().unwrap_or(0.0),
        panics: result.supervisor.total_panics(),
        recovery_ns: Samples::new(
            result.supervisor.recovery_times_ns().into_iter().map(|n| n as f64),
        ),
        restarts: sup_report.iter().map(|r| r.restarts).sum(),
        failed: sup_report
            .iter()
            .filter(|r| r.health == illixr_core::supervisor::PluginHealth::Failed)
            .count(),
        level: result.degradation_level,
        shed: result.shed_jobs,
    }
}

pub fn row(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    let duration = sweep_duration(cx.quick);
    let top = *INTENSITIES.last().expect("intensities non-empty");

    out.note(format_args!(
        "# Fault-intensity sweep, Platformer on Desktop pinned to 1 CPU core at {LOAD}x load \
         ({}s simulated per cell, seed {SEED})",
        duration.as_secs()
    ));
    out.note(format_args!(
        "# chain deadline {} ms; schedule at intensity {top}:",
        CONTENDED_CHAIN_DEADLINE.as_millis()
    ));
    for line in FaultPlan::scheduled(SEED, top, duration.as_nanos() as u64).summary().lines() {
        out.note(format_args!("#   {line}"));
    }
    println!("Fault-intensity sweep ({duration:?} simulated per cell)");
    rule(112);
    out.line(format_args!(
        "{:>9} {:>11} {:>7} {:>10} {:>8} {:>8} {:>9} {:>7} {:>10} {:>9} {:>6} {:>6}",
        "intensity",
        "mode",
        "chains",
        "miss_rate",
        "mtp_ms",
        "mtp_p99",
        "judder_m",
        "panics",
        "recoveries",
        "recov_ms",
        "level",
        "shed",
    ));

    let mut cells: Vec<Cell> = Vec::new();
    for &intensity in &INTENSITIES {
        for mode in [Mode::Baseline, Mode::Supervised] {
            let cell = summarize(intensity, mode, &run_once(intensity, mode, duration));
            out.line(format_args!(
                "{:>9.2} {:>11} {:>7} {:>10.4} {:>8.3} {:>8.3} {:>9.5} {:>7} {:>10} {:>9.3} \
                 {:>6} {:>6}",
                cell.intensity,
                cell.mode.label(),
                cell.run.chain_ms.len(),
                cell.run.chain_miss_rate,
                cell.run.mtp_ms.mean(),
                cell.run.mtp_ms.percentile(0.99),
                cell.pose_judder,
                cell.panics,
                cell.recovery_ns.len(),
                cell.recovery_ns.mean() / 1e6,
                cell.level,
                cell.shed,
            ));
            cells.push(cell);
        }
    }

    // Supervisor outcome rows: the same restart/failed gauges
    // that `metrics.csv` carries, plus the `supervisor.recovery`
    // distribution, one row per cell so regressions in crash handling
    // are greppable from the artifact alone.
    out.note("\n# supervisor outcomes (matches supervisor.* gauges in metrics.csv)");
    for cell in &cells {
        out.line(format_args!(
            "supervisor.recovery intensity={:.2} mode={} p50_ms={:.3} p99_ms={:.3} \
             restarts={} failed={}",
            cell.intensity,
            cell.mode.label(),
            cell.recovery_ns.percentile(0.50) / 1e6,
            cell.recovery_ns.percentile(0.99) / 1e6,
            cell.restarts,
            cell.failed,
        ));
    }

    // The claims the subsystem exists to support, checked at the top
    // intensity.
    let find = |intensity: f64, mode: Mode| {
        cells.iter().find(|c| c.intensity == intensity && c.mode == mode).expect("cell present")
    };
    let sup = find(top, Mode::Supervised);
    let base = find(top, Mode::Baseline);
    // The scheduled vio crash fired in both modes; only the supervised
    // run restarted the plugin and recorded a recovery latency.
    let recovery_recorded = sup.panics >= 1 && !sup.recovery_ns.is_empty();
    let baseline_stays_dead = base.panics >= 1 && base.recovery_ns.is_empty();
    let governor_lower_miss = sup.run.chain_miss_rate < base.run.chain_miss_rate;
    out.note("");
    out.claim(&[
        ("recovery_recorded", recovery_recorded),
        ("baseline_stays_dead", baseline_stays_dead),
        ("governor_lower_miss_rate", governor_lower_miss),
    ]);
    rule(112);

    // Determinism: the top supervised cell rerun must match bit for bit.
    let rerun = summarize(top, Mode::Supervised, &run_once(top, Mode::Supervised, duration));
    let deterministic = rerun.run == sup.run
        && rerun.recovery_ns == sup.recovery_ns
        && rerun.panics == sup.panics
        && rerun.level == sup.level
        && rerun.shed == sup.shed;
    out.claim(&[("deterministic_rerun_identical", deterministic)]);
    Ok(())
}
