//! Scheduling-policy comparison: sweeps offered load across the three
//! `illixr-sched` policies (rate-monotonic, EDF, adaptive governor) on
//! a deliberately constrained single-core platform and reports the
//! motion-to-photon chain (imu → integrator → timewarp) deadline
//! behaviour of each.
//!
//! Usage: `cargo run --release -p illixr-bench --bin paper -- --only
//! sched_compare` (`--quick` caps each cell at 3 simulated seconds for
//! CI; honours `ILLIXR_SECONDS` otherwise; writes
//! `results/sched_compare.txt` plus one chain-latency/MTP CDF CSV per
//! policy).
//!
//! Every run is fully deterministic — simulated clock, seeded sensors —
//! so two invocations produce bit-identical output files.

use std::fmt::Write as _;
use std::io;
use std::time::Duration;

use illixr_bench::{contended_config, rule, Report, RunSummary, CONTENDED_CHAIN_DEADLINE};
use illixr_core::sched::PolicyKind;
use illixr_system::experiment::{ExperimentResult, IntegratedExperiment};

use crate::Context;

const LOADS: [f64; 3] = [1.0, 2.0, 3.0];

const POLICIES: [PolicyKind; 3] =
    [PolicyKind::RateMonotonic, PolicyKind::Edf, PolicyKind::Adaptive];

/// One (load, policy) cell of the sweep.
struct Cell {
    load: f64,
    policy: PolicyKind,
    /// MTP / chain samples (also the CDF export) and the miss rate.
    run: RunSummary,
    shed: u64,
    level: u32,
}

/// Nine cells are simulated, so cap the per-cell duration well below
/// the harness-wide `ILLIXR_SECONDS` maximum (3 s under `--quick`).
fn bench_duration(quick: bool) -> Duration {
    let cap = if quick { 3 } else { 20 };
    illixr_bench::sim_duration().min(Duration::from_secs(cap))
}

fn run_once(load: f64, policy: PolicyKind, duration: Duration) -> ExperimentResult {
    IntegratedExperiment::run(&contended_config(load, duration).with_policy(policy))
}

fn summarize(load: f64, policy: PolicyKind, result: &ExperimentResult) -> Cell {
    Cell {
        load,
        policy,
        run: RunSummary::of(result),
        shed: result.shed_jobs,
        level: result.degradation_level,
    }
}

/// Writes one CDF CSV: cumulative fraction against chain latency and
/// MTP, sampled on a fixed quantile grid so files stay small and
/// comparable across policies.
fn write_cdf(policy: PolicyKind, cell: &Cell) -> io::Result<()> {
    let mut csv = String::from("quantile,chain_latency_ms,mtp_ms\n");
    for i in 0..=100u32 {
        let q = i as f64 / 100.0;
        writeln!(
            csv,
            "{q:.2},{:.6},{:.6}",
            cell.run.chain_ms.percentile(q),
            cell.run.mtp_ms.percentile(q)
        )
        .unwrap();
    }
    let path = format!("results/sched_compare_cdf_{}.csv", policy.label());
    std::fs::write(&path, csv)?;
    println!("wrote {path}");
    Ok(())
}

pub fn row(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    let duration = bench_duration(cx.quick);
    out.note(format_args!(
        "# Scheduling-policy comparison, Platformer on Desktop pinned to 1 CPU core \
         ({}s simulated per cell)",
        duration.as_secs()
    ));
    out.note(format_args!(
        "# chain = imu -> imu_integrator -> timewarp, deadline {} ms",
        CONTENDED_CHAIN_DEADLINE.as_millis()
    ));
    out.note(format_args!(
        "{:>5} {:>15} {:>7} {:>10} {:>9} {:>9} {:>9} {:>9} {:>6} {:>6}",
        "load",
        "policy",
        "chains",
        "miss_rate",
        "p50_ms",
        "p99_ms",
        "mtp_ms",
        "mtp_p99",
        "shed",
        "level"
    ));

    println!("Scheduling-policy comparison ({duration:?} simulated per cell)");
    rule(96);

    let mut cells: Vec<Cell> = Vec::new();
    for &load in &LOADS {
        for &policy in &POLICIES {
            let cell = summarize(load, policy, &run_once(load, policy, duration));
            out.line(format_args!(
                "{:>5.1} {:>15} {:>7} {:>10.4} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>6} {:>6}",
                cell.load,
                cell.policy.label(),
                cell.run.chain_ms.len(),
                cell.run.chain_miss_rate,
                cell.run.chain_ms.percentile(0.50),
                cell.run.chain_ms.percentile(0.99),
                cell.run.mtp_ms.mean(),
                cell.run.mtp_ms.percentile(0.99),
                cell.shed,
                cell.level,
            ));
            cells.push(cell);
        }
    }

    // The claims the subsystem exists to support, checked on the top
    // overload row: the governor strictly reduces p99 chain lateness
    // and miss rate versus rate-monotonic while MTP stays bounded
    // (timewarp is Critical — never shed).
    let top = *LOADS.last().expect("loads non-empty");
    let find = |load: f64, policy: PolicyKind| {
        cells.iter().find(|c| c.load == load && c.policy == policy).expect("cell present")
    };
    let rm = find(top, PolicyKind::RateMonotonic);
    let gov = find(top, PolicyKind::Adaptive);
    let governor_reduces_p99 = gov.run.chain_ms.percentile(0.99) < rm.run.chain_ms.percentile(0.99);
    let governor_reduces_misses = gov.run.chain_miss_rate < rm.run.chain_miss_rate;
    let mtp_bounded =
        gov.run.mtp_ms.percentile(0.99) < 3.0 * rm.run.mtp_ms.percentile(0.99).max(1.0);
    out.note("");
    out.claim(&[
        ("governor_reduces_p99_chain_latency", governor_reduces_p99),
        ("governor_reduces_miss_rate", governor_reduces_misses),
        ("mtp_bounded", mtp_bounded),
    ]);
    rule(96);

    // Determinism: the overload governor cell rerun must match its
    // first run sample for sample.
    let rerun =
        summarize(top, PolicyKind::Adaptive, &run_once(top, PolicyKind::Adaptive, duration));
    let deterministic = rerun.run == gov.run && rerun.shed == gov.shed && rerun.level == gov.level;
    out.claim(&[("deterministic_rerun_identical", deterministic)]);

    std::fs::create_dir_all("results")?;
    for &policy in &POLICIES {
        write_cdf(policy, find(top, policy))?;
    }
    Ok(())
}
