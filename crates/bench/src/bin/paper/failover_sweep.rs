//! Crash-intensity sweep for session failover: 64 sessions share one
//! server while two of its engine shards take repeated injected worker
//! crashes, under three recovery policies:
//!
//! * **none** — failover disabled: crashed shards' sessions are
//!   quarantined (shadowed so bystanders see identical contention)
//!   and never come back;
//! * **restart** — restart-only recovery: each session gets a budgeted
//!   cold restart after `RESTART_DELAY`; once the budget is exhausted
//!   the session is lost;
//! * **catchup** — checkpoint + catch-up replay: sessions restore the
//!   last `ILXC` checkpoint and replay the journaled boundary events,
//!   paying `RESTORE_COST + CATCHUP_PER_EVENT * journal_len` instead of
//!   the full restart delay, without consuming the restart budget.
//!
//! The sweep shows catch-up strictly reducing both the session-loss
//! rate and the p99 recovery latency versus restart-only (and versus no
//! failover), and that the whole pipeline is deterministic: the top
//! catch-up cell rerun is bit-identical.
//!
//! Usage: `cargo run --release -p illixr-bench --bin paper -- --only
//! failover_sweep` (`--quick` runs only the top crash intensity for CI;
//! writes `results/failover_sweep.txt`).

use std::collections::HashSet;
use std::io;
use std::time::Duration;

use illixr_bench::{rule, Report, Samples};
use illixr_core::fault::{FaultKind, FaultPlan, FaultWindow};
use illixr_core::link::LinkProfile;
use illixr_server::{
    AdmissionConfig, FailoverConfig, FailoverPolicy, LinkConfig, ServerBuilder, ServerReport,
};

use crate::Context;

const SEED: u64 = 7;
const SESSIONS: usize = 64;
const SHARDS: usize = 8;
const DURATION: Duration = Duration::from_secs(3);
/// Crashed shards: two fault domains out of [`SHARDS`], so most
/// sessions are bystanders whose telemetry must not move.
const CRASHED_SHARDS: [usize; 2] = [1, 2];
/// Crash intensity = injected worker crashes per crashed shard. The
/// top intensity exceeds the default restart budget (3), which is
/// where restart-only starts losing sessions and catch-up does not.
const INTENSITIES: [usize; 3] = [1, 2, 5];
const FIRST_CRASH: Duration = Duration::from_millis(500);
const CRASH_SPACING: Duration = Duration::from_millis(400);

#[derive(Clone, Copy, PartialEq)]
enum Policy {
    None,
    Restart,
    Catchup,
}

impl Policy {
    const ALL: [Policy; 3] = [Policy::None, Policy::Restart, Policy::Catchup];

    fn label(self) -> &'static str {
        match self {
            Policy::None => "none",
            Policy::Restart => "restart",
            Policy::Catchup => "catchup",
        }
    }

    fn config(self) -> FailoverConfig {
        match self {
            Policy::None => FailoverConfig::default(),
            Policy::Restart => {
                FailoverConfig { policy: FailoverPolicy::RestartOnly, ..Default::default() }
            }
            Policy::Catchup => FailoverConfig {
                policy: FailoverPolicy::CheckpointCatchup,
                checkpoint_every: Some(Duration::from_millis(300)),
            },
        }
    }
}

/// `crashes` staggered `WorkerCrash` windows per crashed shard, spaced
/// so each fires only after the previous recovery window has passed.
fn crash_plan(crashes: usize) -> FaultPlan {
    let mut plan = FaultPlan::new(SEED);
    for (i, shard) in CRASHED_SHARDS.iter().enumerate() {
        for k in 0..crashes {
            let at =
                (FIRST_CRASH + CRASH_SPACING * k as u32 + Duration::from_millis(100) * i as u32)
                    .as_nanos() as u64;
            plan = plan.with_window(FaultWindow::new(
                FaultKind::WorkerCrash,
                &format!("shard/{shard}"),
                at,
                at + 1,
                1.0,
            ));
        }
    }
    plan
}

fn run_once(crashes: usize, policy: Policy) -> ServerReport {
    ServerBuilder::new()
        .sessions(SESSIONS)
        .duration(DURATION)
        .shards(SHARDS)
        .workers(1)
        // A LAN-class link and open admission so all 64 sessions stay
        // live: the crashed fault domains then hold a real population
        // (8 sessions per shard under the FNV shard map).
        .link(LinkConfig::from_profile(LinkProfile::lan(), SEED))
        .admission(AdmissionConfig {
            degrade_threshold: f64::INFINITY,
            reject_threshold: f64::INFINITY,
        })
        .fault_plan(crash_plan(crashes))
        .failover(policy.config())
        .build()
        .run()
}

struct Cell {
    crashes: usize,
    policy: Policy,
    incidents: usize,
    recovered: usize,
    lost_sessions: usize,
    loss_rate: f64,
    lost_frames: u64,
    recovery_p50_ms: f64,
    recovery_p99_ms: f64,
    /// Full deterministic artifact, kept for the rerun check.
    summary: String,
}

fn summarize(crashes: usize, policy: Policy, report: &ServerReport) -> Cell {
    let incidents = &report.failover_incidents;
    // A session is lost when its final incident never closed.
    let lost: HashSet<u32> = {
        let mut open: HashSet<u32> = HashSet::new();
        for i in incidents {
            if i.recovered_at.is_none() {
                open.insert(i.session);
            } else {
                open.remove(&i.session);
            }
        }
        open
    };
    let recovery_ms = Samples::new(
        incidents
            .iter()
            .filter_map(|i| i.recovered_at.map(|r| (r - i.crashed_at).as_secs_f64() * 1e3)),
    );
    Cell {
        crashes,
        policy,
        incidents: incidents.len(),
        recovered: recovery_ms.len(),
        lost_sessions: lost.len(),
        loss_rate: lost.len() as f64 / SESSIONS as f64,
        lost_frames: incidents.iter().map(|i| i.lost_frames).sum(),
        recovery_p50_ms: recovery_ms.percentile(0.50),
        recovery_p99_ms: recovery_ms.percentile(0.99),
        summary: report.summary_text(),
    }
}

pub fn row(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    let top = *INTENSITIES.last().expect("intensities non-empty");
    let intensities: Vec<usize> = if cx.quick { vec![top] } else { INTENSITIES.to_vec() };

    out.note(format_args!(
        "# Failover sweep: {SESSIONS} sessions, {SHARDS} shards, shards {CRASHED_SHARDS:?} \
         crashed N times each ({}s simulated, seed {SEED})",
        DURATION.as_secs()
    ));
    out.note(format_args!(
        "# crashes at {}ms + k*{}ms; restart budget {} per session; checkpoint epoch 300ms",
        FIRST_CRASH.as_millis(),
        CRASH_SPACING.as_millis(),
        FailoverConfig::RESTART_BUDGET,
    ));
    println!("Failover sweep ({SESSIONS} sessions, {:?} simulated per cell)", DURATION);
    rule(92);
    out.line(format_args!(
        "{:>8} {:>8} {:>10} {:>10} {:>6} {:>10} {:>12} {:>9} {:>9}",
        "crashes",
        "policy",
        "incidents",
        "recovered",
        "lost",
        "loss_rate",
        "lost_frames",
        "p50_ms",
        "p99_ms",
    ));

    let mut cells: Vec<Cell> = Vec::new();
    for &crashes in &intensities {
        for policy in Policy::ALL {
            let cell = summarize(crashes, policy, &run_once(crashes, policy));
            out.line(format_args!(
                "{:>8} {:>8} {:>10} {:>10} {:>6} {:>10.4} {:>12} {:>9.3} {:>9.3}",
                cell.crashes,
                cell.policy.label(),
                cell.incidents,
                cell.recovered,
                cell.lost_sessions,
                cell.loss_rate,
                cell.lost_frames,
                cell.recovery_p50_ms,
                cell.recovery_p99_ms,
            ));
            cells.push(cell);
        }
    }

    // The claims this subsystem exists to support, checked at the top
    // crash intensity (past the restart budget).
    let find = |policy: Policy| {
        cells
            .iter()
            .find(|c| c.crashes == top && c.policy == policy)
            .expect("top-intensity cell present")
    };
    let none = find(Policy::None);
    let restart = find(Policy::Restart);
    let catchup = find(Policy::Catchup);
    let catchup_beats_restart = catchup.loss_rate < restart.loss_rate
        && catchup.recovery_p99_ms < restart.recovery_p99_ms
        && catchup.loss_rate < none.loss_rate;
    out.note(format_args!(
        "\ncatchup vs restart: loss {:.4} < {:.4} < {:.4}; p99 {:.3}ms < {:.3}ms",
        catchup.loss_rate,
        restart.loss_rate,
        none.loss_rate,
        catchup.recovery_p99_ms,
        restart.recovery_p99_ms,
    ));
    rule(92);

    // Determinism: the top catch-up cell rerun must match bit for bit.
    let rerun = summarize(top, Policy::Catchup, &run_once(top, Policy::Catchup));
    let deterministic = rerun.summary == catchup.summary;
    out.claim(&[
        ("catchup_beats_restart", catchup_beats_restart),
        ("deterministic_rerun_identical", deterministic),
    ]);
    Ok(())
}
