//! Session-scaling study: how motion-to-photon latency, frame drops
//! and admission decisions evolve as client sessions pile onto one
//! edge server (the multi-user counterpart of the paper's single-user
//! QoE tables).
//!
//! Two sweeps:
//!
//! 1. **Wi-Fi class** (1–16 sessions, real MSCKF per session): the
//!    historical contention curve on a 2-worker pool behind an
//!    802.11ac-class link — byte-identical to what this bench always
//!    produced;
//! 2. **Edge pool** (1–1,000 sessions): an accelerator-backed worker
//!    pool behind a 30/100 Gbit/s link with deadline-aware batch
//!    trimming, the régime the event-driven session engine exists
//!    for. Reports aggregate
//!    throughput (sessions × frames/s) alongside per-session p99 MTP,
//!    and reruns the 256-session point to check bit-identical reports.
//!
//! Usage: `cargo run --release -p illixr-bench --bin paper -- --only
//! scaling_sessions` (honours `ILLIXR_SECONDS`; writes
//! `results/scaling_sessions.txt`). `--quick` caps runs at 2 simulated
//! seconds and the edge sweep at 256 sessions for CI; `--trace <path>`
//! replays the recorded boundary trace at `path` (written by
//! `trace_replay --write-fixture` or any `record_boundary` server run)
//! into every Wi-Fi-sweep session through per-session fan-out
//! transforms instead of running live generators.
//!
//! Every run is fully deterministic — simulated clock, seeded
//! trajectories, seeded link jitter — so two invocations produce a
//! bit-identical output file.

use std::io;
use std::time::Duration;

use illixr_bench::{mtp_stage_summary, rule, sim_duration, write_obs_artifacts, Report};
use illixr_server::{
    LinkConfig, PlacementPolicy, SchedulerConfig, ServerBuilder, ServerReport, SessionState,
};

use crate::{trace_replay, Context};

const WIFI_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
const EDGE_COUNTS: [usize; 5] = [1, 16, 64, 256, 1000];
/// Rerun-for-determinism point of the edge sweep, and its last point
/// under `--quick`.
const EDGE_RERUN: usize = 256;
/// Engine shards of the edge sweep (reports do not depend on it).
const EDGE_SHARDS: usize = 32;

/// The scaled profile: a rack-class VIO pool (32 accelerator-backed
/// workers at 0.5 ms per update, 1 ms batch ticks) behind an
/// aggregated 30 Gbit/s up / 100 Gbit/s down edge ingress, batches
/// trimmed deadline-aware so overload sheds instead of queueing
/// unboundedly. A batch runs on one worker sequentially, so the
/// per-update cost — not the worker count — bounds how many jobs fit
/// one tick's batch inside the deadline; 0.5 ms carries a 1,000-session
/// tick comfortably where the Wi-Fi profile's 11 ms CPU updates cannot.
/// Per-session MSCKF is off — pose values don't affect timing, and
/// 1,000 live filters would dominate wall time.
fn edge_builder(n: usize, duration: Duration) -> ServerBuilder {
    ServerBuilder::new()
        .sessions(n)
        .duration(duration)
        .shards(EDGE_SHARDS)
        .link(LinkConfig {
            uplink_bps: 30e9,
            downlink_bps: 100e9,
            base_latency: Duration::from_millis(2),
            jitter_sigma: 0.0,
            seed: 0,
        })
        .scheduler(SchedulerConfig {
            workers: 32,
            batch_setup: Duration::from_millis(2),
            per_job: Duration::from_micros(500),
            placement: PlacementPolicy::DeadlineAware { deadline: Duration::from_millis(30) },
        })
        .tune(|c| c.server_tick = Duration::from_millis(1))
}

fn edge_row(n: usize, report: &ServerReport) -> String {
    format!(
        "{:>8} {:>9} {:>9} {:>9} {:>11.1} {:>12.3} {:>11.3} {:>10.4} {:>10.4}",
        n,
        report.admitted(),
        report.degraded(),
        report.count(SessionState::Rejected),
        report.aggregate_fps(),
        report.mean_mtp().as_secs_f64() * 1e3,
        report.p99_mtp().as_secs_f64() * 1e3,
        report.drop_rate(),
        report.pool_utilization,
    )
}

pub fn row(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    let quick = cx.quick;
    let duration = if quick { Duration::from_secs(2) } else { sim_duration() };
    out.note(format_args!(
        "# Session scaling on one edge server ({}s simulated per point)",
        duration.as_secs()
    ));
    out.note("# Shared link: Wi-Fi class (200 Mbit/s up, 400 Mbit/s down, 2 ms)");
    out.note("# VIO pool: 2 workers, batched per 4 ms server tick; real MSCKF per session");
    out.note(format_args!(
        "{:>8} {:>9} {:>9} {:>9} {:>12} {:>11} {:>10} {:>13} {:>13} {:>10}",
        "sessions",
        "admitted",
        "degraded",
        "rejected",
        "mtp_mean_ms",
        "mtp_p99_ms",
        "drop_rate",
        "up_queue_ms",
        "down_queue_ms",
        "pool_util"
    ));

    println!("Session scaling ({duration:?} simulated per point)");
    rule(112);

    let mut details: Vec<String> = Vec::new();
    let mut mean_curve: Vec<f64> = Vec::new();
    let mut drops_or_rejections_seen = false;
    for &n in &WIFI_COUNTS {
        let mut builder = ServerBuilder::new().sessions(n).duration(duration).real_vio(true);
        if let Some(trace) = &cx.trace {
            builder = builder.replay(trace_replay::fan_out(trace.clone()));
        }
        let report = builder.build().run();
        let mean_ms = report.mean_mtp().as_secs_f64() * 1e3;
        out.line(format_args!(
            "{:>8} {:>9} {:>9} {:>9} {:>12.3} {:>11.3} {:>10.4} {:>13.3} {:>13.3} {:>10.4}",
            n,
            report.admitted(),
            report.degraded(),
            report.count(SessionState::Rejected),
            mean_ms,
            report.p99_mtp().as_secs_f64() * 1e3,
            report.drop_rate(),
            report.uplink.mean_queue_delay().as_secs_f64() * 1e3,
            report.downlink.mean_queue_delay().as_secs_f64() * 1e3,
            report.pool_utilization,
        ));
        details.push(format!("\n## {n} sessions\n{}", report.summary_text()));
        mean_curve.push(mean_ms);
        if report.drop_rate() > 0.0 || report.count(SessionState::Rejected) > 0 {
            drops_or_rejections_seen = true;
        }
    }

    // The whole point of the curve: contention can only make things
    // worse. Flag any inversion loudly (deterministic, so this is a
    // model regression, not noise).
    let monotone = mean_curve.windows(2).all(|w| w[1] >= w[0] - 1e-9);
    out.note("");
    out.claim(&[
        ("mean_mtp_monotone_nondecreasing", monotone),
        ("drops_or_rejections_at_scale", drops_or_rejections_seen),
    ]);
    details.iter().for_each(|d| out.note(d));

    rule(112);

    // --- Edge-pool sweep: the 1,000-session régime --------------------
    // Uniform per-point duration (capped: a 1,000-session point walks
    // ~5 M events) so aggregate throughput scales comparably.
    let edge_duration =
        if quick { Duration::from_secs(2) } else { duration.min(Duration::from_secs(4)) };
    let edge_counts = EDGE_COUNTS.iter().copied().filter(|&n| !quick || n <= EDGE_RERUN);
    out.note(format_args!(
        "\n# Edge-pool scaling ({}s simulated per point, {} shards)",
        edge_duration.as_secs(),
        EDGE_SHARDS
    ));
    out.note("# Shared link: edge ingress (30 Gbit/s up, 100 Gbit/s down, 2 ms)");
    out.note(
        "# VIO pool: 32 workers at 0.5 ms/update, 1 ms ticks, deadline-aware (30 ms); synthetic poses",
    );
    out.note(format_args!(
        "{:>8} {:>9} {:>9} {:>9} {:>11} {:>12} {:>11} {:>10} {:>10}",
        "sessions",
        "admitted",
        "degraded",
        "rejected",
        "agg_fps",
        "mtp_mean_ms",
        "mtp_p99_ms",
        "drop_rate",
        "pool_util"
    ));

    println!("Edge-pool scaling ({edge_duration:?} simulated per point, {EDGE_SHARDS} shards)");
    rule(98);

    let mut p99_curve: Vec<f64> = Vec::new();
    let mut rerun_reference = String::new();
    for n in edge_counts {
        let report = edge_builder(n, edge_duration).build().run();
        out.line(edge_row(n, &report));
        p99_curve.push(report.p99_mtp().as_secs_f64() * 1e3);
        if n == EDGE_RERUN {
            rerun_reference = report.summary_text();
        }
    }

    // Claims the engine exists to support: per-session p99 MTP stays
    // monotone under load and bounded (no unbounded queueing) all the
    // way up, and the rerun of the 256-session point is bit-identical.
    // Monotonicity is judged at the table's display resolution (1 µs):
    // nearest-rank p99 can dip by nanoseconds as the sample count
    // grows, which is not a contention inversion.
    let edge_monotone = p99_curve.windows(2).all(|w| w[1] >= w[0] - 1e-3);
    let edge_bounded = p99_curve.last().is_some_and(|&p| p < 100.0);
    println!("re-running {EDGE_RERUN}-session edge point for determinism...");
    let rerun = edge_builder(EDGE_RERUN, edge_duration).build().run().summary_text();
    let edge_rerun_identical = rerun == rerun_reference;
    out.note("");
    out.claim(&[
        ("edge_p99_monotone_nondecreasing", edge_monotone),
        ("edge_p99_bounded", edge_bounded),
        ("edge_rerun_identical", edge_rerun_identical),
    ]);
    rule(98);

    // Traced run at a modest scale: spans for every pipeline stage,
    // switchboard flow events and per-stage MTP histograms, exported
    // as a Perfetto-loadable trace plus a metrics CSV. Deterministic:
    // re-running produces bit-identical artifacts.
    let traced_duration = duration.min(Duration::from_secs(4));
    let traced = ServerBuilder::new()
        .sessions(4)
        .duration(traced_duration)
        .trace(true)
        .real_vio(true)
        .build()
        .run();
    let stages = mtp_stage_summary(&traced.metrics);
    print!("{stages}");
    out.note(format_args!(
        "\n## traced run (4 sessions, {}s)\n{stages}",
        traced_duration.as_secs()
    ));
    write_obs_artifacts("scaling_sessions", &traced.tracer, &traced.metrics)
}
