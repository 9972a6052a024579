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
//! Usage: `cargo run --release -p illixr-bench --bin fault_sweep`
//! (`--quick` caps each cell at 3 simulated seconds for CI; honours
//! `ILLIXR_SECONDS` otherwise; writes `results/fault_sweep.txt`
//! embedding the exact fault schedule).
//!
//! Every run is fully deterministic — simulated clock, seeded sensors,
//! hash-based fault trials — so two invocations produce bit-identical
//! artifacts; the harness reruns the top supervised cell and checks.

use std::fmt::Write as _;
use std::time::Duration;

use illixr_bench::cli::BenchArgs;
use illixr_bench::{experiment_config, rule};
use illixr_core::fault::FaultPlan;
use illixr_core::sched::PolicyKind;
use illixr_core::supervisor::SupervisionPolicy;
use illixr_platform::spec::Platform;
use illixr_render::apps::Application;
use illixr_system::experiment::{ExperimentResult, IntegratedExperiment};

const SEED: u64 = 42;
const INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];
/// Same contended régime as `sched_compare`: one core at 2× load is
/// where the governor's shedding matters, so the supervised mode's
/// advantage under faults is visible in the chain-miss column.
const LOAD: f64 = 2.0;
const CHAIN_DEADLINE: Duration = Duration::from_millis(15);

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
    chain_total: usize,
    chain_miss_rate: f64,
    mtp_mean_ms: f64,
    mtp_p99_ms: f64,
    pose_judder: f64,
    panics: u32,
    recoveries: usize,
    recovery_mean_ms: f64,
    recovery_p50_ms: f64,
    recovery_p99_ms: f64,
    restarts: u32,
    degraded: u32,
    failed: usize,
    level: u32,
    shed: u64,
    /// Raw sorted samples kept for the determinism check.
    mtp_ms: Vec<f64>,
    chain_ms: Vec<f64>,
    recovery_ns: Vec<u64>,
}

fn bench_duration(quick: bool) -> Duration {
    if quick {
        Duration::from_secs(3)
    } else {
        illixr_bench::sim_duration().min(Duration::from_secs(12))
    }
}

fn run_once(intensity: f64, mode: Mode, duration: Duration) -> ExperimentResult {
    let plan = FaultPlan::scheduled(SEED, intensity, duration.as_nanos() as u64);
    let mut config = experiment_config(Application::Platformer, Platform::Desktop)
        .with_load_factor(LOAD)
        .with_cpu_cores(1)
        .with_fault_plan(plan);
    config.duration = duration;
    config.chain_deadline = CHAIN_DEADLINE;
    config = match mode {
        Mode::Supervised => {
            config.with_policy(PolicyKind::Adaptive).with_supervision(SupervisionPolicy::default())
        }
        Mode::Baseline => config.with_policy(PolicyKind::RateMonotonic),
    };
    IntegratedExperiment::run(&config)
}

fn summarize(intensity: f64, mode: Mode, result: &ExperimentResult) -> Cell {
    let mut mtp_ms: Vec<f64> = result.mtp.iter().map(|s| s.total().as_secs_f64() * 1e3).collect();
    mtp_ms.sort_by(|a, b| a.total_cmp(b));
    let mut chain_ms: Vec<f64> =
        result.chain_outcomes.iter().map(|o| o.latency_ns as f64 / 1e6).collect();
    chain_ms.sort_by(|a, b| a.total_cmp(b));
    let misses = result.chain_outcomes.iter().filter(|o| o.missed).count();
    let total = result.chain_outcomes.len();
    let recovery_ns = result.supervisor.recovery_times_ns();
    let recovery_mean_ms = if recovery_ns.is_empty() {
        0.0
    } else {
        recovery_ns.iter().sum::<u64>() as f64 / recovery_ns.len() as f64 / 1e6
    };
    let mut recovery_ms: Vec<f64> = recovery_ns.iter().map(|&n| n as f64 / 1e6).collect();
    recovery_ms.sort_by(|a, b| a.total_cmp(b));
    let sup_report = result.supervisor.report();
    Cell {
        intensity,
        mode,
        chain_total: total,
        chain_miss_rate: if total == 0 { 0.0 } else { misses as f64 / total as f64 },
        mtp_mean_ms: if mtp_ms.is_empty() {
            0.0
        } else {
            mtp_ms.iter().sum::<f64>() / mtp_ms.len() as f64
        },
        mtp_p99_ms: illixr_bench::percentile(&mtp_ms, 0.99),
        pose_judder: result.pose_judder().unwrap_or(0.0),
        panics: result.supervisor.total_panics(),
        recoveries: recovery_ns.len(),
        recovery_mean_ms,
        recovery_p50_ms: illixr_bench::percentile(&recovery_ms, 0.50),
        recovery_p99_ms: illixr_bench::percentile(&recovery_ms, 0.99),
        restarts: sup_report.iter().map(|r| r.restarts).sum(),
        degraded: sup_report.iter().map(|r| r.degraded_incidents).sum(),
        failed: sup_report
            .iter()
            .filter(|r| r.health == illixr_core::supervisor::PluginHealth::Failed)
            .count(),
        level: result.degradation_level,
        shed: result.shed_jobs,
        mtp_ms,
        chain_ms,
        recovery_ns,
    }
}

fn main() -> std::io::Result<()> {
    let quick = BenchArgs::parse().quick();
    let duration = bench_duration(quick);
    let top = *INTENSITIES.last().expect("intensities non-empty");

    let mut out = String::new();
    writeln!(
        out,
        "# Fault-intensity sweep, Platformer on Desktop pinned to 1 CPU core at {LOAD}x load \
         ({}s simulated per cell, seed {SEED})",
        duration.as_secs()
    )
    .unwrap();
    writeln!(
        out,
        "# chain deadline {} ms; schedule at intensity {top}:",
        CHAIN_DEADLINE.as_millis()
    )
    .unwrap();
    for line in FaultPlan::scheduled(SEED, top, duration.as_nanos() as u64).summary().lines() {
        writeln!(out, "#   {line}").unwrap();
    }
    let header = format!(
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
    );
    writeln!(out, "{header}").unwrap();

    println!("Fault-intensity sweep ({duration:?} simulated per cell)");
    rule(112);
    println!("{header}");

    let mut cells: Vec<Cell> = Vec::new();
    for &intensity in &INTENSITIES {
        for mode in [Mode::Baseline, Mode::Supervised] {
            let cell = summarize(intensity, mode, &run_once(intensity, mode, duration));
            let row = format!(
                "{:>9.2} {:>11} {:>7} {:>10.4} {:>8.3} {:>8.3} {:>9.5} {:>7} {:>10} {:>9.3} \
                 {:>6} {:>6}",
                cell.intensity,
                cell.mode.label(),
                cell.chain_total,
                cell.chain_miss_rate,
                cell.mtp_mean_ms,
                cell.mtp_p99_ms,
                cell.pose_judder,
                cell.panics,
                cell.recoveries,
                cell.recovery_mean_ms,
                cell.level,
                cell.shed,
            );
            println!("{row}");
            writeln!(out, "{row}").unwrap();
            cells.push(cell);
        }
    }

    // Supervisor outcome rows: the same restart/degraded/failed gauges
    // that `metrics.csv` carries, plus the `supervisor.recovery`
    // distribution, one row per cell so regressions in crash handling
    // are greppable from the artifact alone.
    writeln!(out, "\n# supervisor outcomes (matches supervisor.* gauges in metrics.csv)").unwrap();
    for cell in &cells {
        let row = format!(
            "supervisor.recovery intensity={:.2} mode={} p50_ms={:.3} p99_ms={:.3} \
             restarts={} degraded={} failed={}",
            cell.intensity,
            cell.mode.label(),
            cell.recovery_p50_ms,
            cell.recovery_p99_ms,
            cell.restarts,
            cell.degraded,
            cell.failed,
        );
        println!("{row}");
        writeln!(out, "{row}").unwrap();
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
    let recovery_recorded = sup.panics >= 1 && sup.recoveries >= 1;
    let baseline_stays_dead = base.panics >= 1 && base.recoveries == 0;
    let governor_lower_miss = sup.chain_miss_rate < base.chain_miss_rate;
    writeln!(
        out,
        "\nrecovery_recorded={recovery_recorded} baseline_stays_dead={baseline_stays_dead} \
         governor_lower_miss_rate={governor_lower_miss}"
    )
    .unwrap();
    rule(112);
    println!("supervised run recovered from the vio crash: {recovery_recorded}");
    println!("baseline run left vio dead after the crash: {baseline_stays_dead}");
    println!(
        "supervised+governor beats baseline miss rate at intensity {top}: {governor_lower_miss}"
    );
    if !(recovery_recorded && governor_lower_miss) {
        eprintln!("WARNING: fault-tolerance claims did not hold on this run");
    }

    // Determinism: the top supervised cell rerun must match bit for bit.
    let rerun = summarize(top, Mode::Supervised, &run_once(top, Mode::Supervised, duration));
    let deterministic = rerun.mtp_ms == sup.mtp_ms
        && rerun.chain_ms == sup.chain_ms
        && rerun.recovery_ns == sup.recovery_ns
        && rerun.panics == sup.panics
        && rerun.level == sup.level
        && rerun.shed == sup.shed;
    writeln!(out, "deterministic_rerun_identical={deterministic}").unwrap();
    println!("deterministic rerun identical: {deterministic}");

    std::fs::create_dir_all("results")?;
    std::fs::write("results/fault_sweep.txt", &out)?;
    println!("wrote results/fault_sweep.txt");
    Ok(())
}
