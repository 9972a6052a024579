//! Golden tests for the event-driven session engine at scale: a
//! 256-session trace-driven run must be bit-identical across reruns,
//! and reports must be invariant to the engine's shard and worker
//! counts (they only change *where* work executes, never *what* it
//! computes) — including on batches wide enough to fork across threads.

use std::sync::Arc;
use std::time::Duration;

use illixr_server::server::ReplayLoad;
use illixr_server::{LinkConfig, PlacementPolicy, SchedulerConfig, ServerBuilder, SessionState};

/// A pool/link profile wide enough that 256 sessions are all admitted
/// at full rate (the Wi-Fi default saturates around 16).
fn at_scale(n: usize) -> ServerBuilder {
    ServerBuilder::new()
        .sessions(n)
        .duration(Duration::from_secs(1))
        .link(LinkConfig {
            uplink_bps: 30e9,
            downlink_bps: 100e9,
            base_latency: Duration::from_millis(2),
            jitter_sigma: 0.0,
            seed: 0,
        })
        .scheduler(SchedulerConfig {
            workers: 256,
            placement: PlacementPolicy::DeadlineAware { deadline: Duration::from_millis(30) },
            ..SchedulerConfig::default()
        })
}

/// `ReplayLoad::fan_out` at 256 sessions: every session runs from the
/// same one-session recording through per-session transforms, and the
/// whole report is bit-identical across same-seed reruns.
#[test]
fn fan_out_rerun_at_256_sessions_is_bit_identical() {
    let trace = Arc::new(
        ServerBuilder::new()
            .sessions(1)
            .duration(Duration::from_secs(1))
            .record_boundary(true)
            .build()
            .run()
            .boundary_trace
            .expect("recording enabled"),
    );
    let run = || {
        at_scale(256)
            .replay(ReplayLoad::fan_out(trace.clone(), 42, Duration::from_millis(40), 0.05))
            .build()
            .run()
    };
    let a = run();
    assert_eq!(a.count(SessionState::Rejected), 0, "scale profile must admit all 256");
    assert!(a.aggregate_fps() > 0.0, "fan-out sessions should display frames");
    let b = run();
    assert_eq!(a.summary_text(), b.summary_text(), "256-session fan-out reruns diverged");
}

/// Sharding decides which worker owns a session's state machine —
/// nothing else. One mega-shard and 32 shards must produce the same
/// bytes at 256 sessions.
#[test]
fn reports_are_invariant_to_shard_count_at_scale() {
    let run = |shards: usize| at_scale(256).shards(shards).build().run().summary_text();
    let one = run(1);
    assert_eq!(one, run(32), "shard count leaked into results");
}

/// At 64 sessions, all admitted and connected at t = 0, every IMU
/// instant is a batch of 64 ticks — four times the engine's parallel
/// threshold — so with more than one worker those batches run as
/// scoped fork-joins across threads. The report must match the inline
/// (single-threaded) run byte for byte.
#[test]
fn forked_batches_match_inline_run() {
    let run = |workers: usize| at_scale(64).workers(workers).build().run().summary_text();
    let inline = run(1);
    assert_eq!(inline, run(2), "two-worker run diverged from the inline run");
    assert_eq!(inline, run(4), "four-worker run diverged from the inline run");
}
