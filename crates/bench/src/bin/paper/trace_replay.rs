//! Record/replay determinism study plus trace-driven load generation.
//!
//! Three parts:
//!
//! 1. **Record** a fig4-style integrated run (Platformer/desktop, obs
//!    on) with the determinism boundary captured;
//! 2. **Replay** it — under a *different* config seed — and check bit
//!    identity of the re-recorded trace, the Perfetto trace JSON and
//!    the metrics CSV (printing the first divergence if any);
//! 3. **Fan out** a recorded one-session server run to {1, 16, 64}
//!    synthetic sessions with deterministic per-session phase jitter
//!    and time dilation, reporting aggregate throughput
//!    (sessions × frames/s) and per-session MTP, then rerun the
//!    64-session point and check the reports match byte for byte.
//!
//! Usage: `cargo run --release -p illixr-bench --bin paper -- --only
//! trace_replay` (`--quick` caps runs at 2 simulated seconds for CI;
//! honours `ILLIXR_SECONDS` otherwise; `--write-fixture <path>` also
//! saves the recorded integrated-run trace as a binary fixture; writes
//! `results/trace_replay.txt`).

use std::io;
use std::sync::Arc;
use std::time::Duration;

use illixr_bench::{rule, sim_duration, Report};
use illixr_core::boundary::{Boundary, Trace, TraceSource};
use illixr_core::obs::{chrome_trace_json, metrics_csv};
use illixr_platform::spec::Platform;
use illixr_render::apps::Application;
use illixr_server::server::ReplayLoad;
use illixr_server::ServerBuilder;
use illixr_system::experiment::{ExperimentConfig, IntegratedExperiment};

use crate::Context;

const FAN_OUTS: [usize; 3] = [1, 16, 64];

/// The synthetic sessions a recorded server trace fans out to, here
/// and under `scaling_sessions --trace`: seed 42, phase jitter up to
/// 40 ms, 5 % time-dilation spread.
pub fn fan_out(trace: Arc<Trace>) -> ReplayLoad {
    ReplayLoad::fan_out(trace, 42, Duration::from_millis(40), 0.05)
}

/// The fig4-style recording configuration. `tests/trace_golden.rs`
/// replays the committed fixture under this exact shape (2 s), so keep
/// the two in sync.
fn fig4_config(duration: Duration) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(Application::Platformer, Platform::Desktop)
        .with_trace()
        .with_boundary_record();
    cfg.duration = duration;
    cfg
}

pub fn row(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    let duration = if cx.quick { Duration::from_secs(2) } else { sim_duration() };
    out.note(format_args!(
        "# Record/replay determinism + trace-driven load ({}s)",
        duration.as_secs()
    ));

    // --- 1. Record the fig4-style run -------------------------------
    println!("recording fig4-style run ({duration:?})...");
    let recorded = IntegratedExperiment::run(&fig4_config(duration));
    let trace = recorded.boundary_trace.clone().expect("recording enabled");
    out.note(format_args!(
        "recorded: streams={} records={} bytes={}",
        trace.streams.len(),
        trace.record_count(),
        trace.encode().len(),
    ));
    if let Some(path) = &cx.write_fixture {
        std::fs::write(path, trace.encode())?;
        println!("wrote fixture {path}");
    }

    // --- 2. Replay it and check bit identity -------------------------
    println!("replaying under a different config seed...");
    let mut replay_cfg =
        fig4_config(duration).with_trace_source(TraceSource::new(Arc::new(trace.clone())));
    replay_cfg.seed ^= 0x5EED_D1FF;
    let replayed = IntegratedExperiment::run(&replay_cfg);
    let rerec = replayed.boundary_trace.clone().expect("re-recording enabled");
    let trace_ok = rerec.encode() == trace.encode();
    let obs_ok = chrome_trace_json(&replayed.tracer) == chrome_trace_json(&recorded.tracer);
    let csv_ok = metrics_csv(&replayed.metrics) == metrics_csv(&recorded.metrics);
    let identity = trace_ok && obs_ok && csv_ok;
    out.note(format_args!("replay: trace_ok={trace_ok} obs_ok={obs_ok} metrics_ok={csv_ok}"));
    if !trace_ok {
        let report = Boundary::divergence_report(&trace, &rerec, &replayed.stream_stats);
        eprintln!("{report}");
        out.note(report.trim_end());
    }

    // --- 3. Trace-driven fan-out against the server -------------------
    println!("recording one-session server run...");
    let server_trace = Arc::new(
        ServerBuilder::new()
            .sessions(1)
            .duration(duration)
            .real_vio(true)
            .record_boundary(true)
            .build()
            .run()
            .boundary_trace
            .expect("recorded"),
    );
    out.note(format_args!(
        "server trace: streams={} records={} bytes={}",
        server_trace.streams.len(),
        server_trace.record_count(),
        server_trace.encode().len(),
    ));

    out.note(format_args!(
        "\n{:>8} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "sessions", "agg_fps", "mtp_mean_ms", "mtp_p99_ms", "drop_rate", "admitted"
    ));
    rule(72);
    let fan_run = |n: usize| {
        ServerBuilder::new()
            .sessions(n)
            .duration(duration)
            .real_vio(true)
            .tune(|cfg| {
                cfg.admission.degrade_threshold = 10.0; // full load, no shaping
                cfg.admission.reject_threshold = 10.0;
            })
            .replay(fan_out(server_trace.clone()))
            .build()
    };
    let mut last_summary = String::new();
    for &n in &FAN_OUTS {
        let report = fan_run(n).run();
        let agg_fps = report.aggregate_fps();
        out.line(format_args!(
            "{:>8} {:>12.1} {:>12.3} {:>12.3} {:>12.4} {:>10}",
            n,
            agg_fps,
            report.mean_mtp().as_secs_f64() * 1e3,
            report.p99_mtp().as_secs_f64() * 1e3,
            report.drop_rate(),
            report.admitted(),
        ));
        if n == *FAN_OUTS.last().unwrap() {
            last_summary = report.summary_text();
            out.note(format_args!("\n## per-session MTP at fan-out {n}"));
            for s in report.sessions() {
                let mtp = s.mtp();
                out.note(format_args!(
                    "session {:>2}: mtp_mean_ms={:.3} mtp_p99_ms={:.3} displayed={}",
                    s.id(),
                    mtp.mean.as_secs_f64() * 1e3,
                    mtp.p99.as_secs_f64() * 1e3,
                    mtp.displayed,
                ));
            }
        }
    }

    // Rerun the widest fan-out: byte-identical report or bust.
    println!("re-running {}-session fan-out for determinism...", FAN_OUTS.last().unwrap());
    let rerun = fan_run(*FAN_OUTS.last().unwrap()).run().summary_text();
    let fan_out_deterministic = rerun == last_summary;

    out.note("");
    out.claim(&[("replay_identity", identity)]);
    out.claim(&[("fan_out_deterministic", fan_out_deterministic)]);
    rule(72);
    Ok(())
}
