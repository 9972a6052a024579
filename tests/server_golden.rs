//! Golden tests for the event-driven session engine at scale: a
//! 256-session trace-driven run must be bit-identical across reruns,
//! and reports must be invariant to the engine's shard and worker
//! counts (they only change *where* work executes, never *what* it
//! computes) — including on batches wide enough to fork across threads.

use std::sync::Arc;
use std::time::Duration;

use illixr_core::boundary::{fnv1a, Xoshiro256pp};
use illixr_core::fault::{FaultKind, FaultPlan, FaultWindow};
use illixr_core::Time;
use illixr_server::server::ReplayLoad;
use illixr_server::{
    FailoverConfig, FailoverPolicy, LinkConfig, PlacementPolicy, SchedulerConfig, ServerBuilder,
    ServerConfig, ServerReport, SessionState,
};

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

/// At 64 sessions, all admitted and connected at t = 0, every vsync
/// instant is a batch of 64 vsyncs (each settling its lane's IMU ticks
/// first) — four times the engine's parallel threshold — so with more
/// than one worker those batches run as scoped fork-joins across
/// threads. The report must match the inline (single-threaded) run byte
/// for byte.
#[test]
fn forked_batches_match_inline_run() {
    let run = |workers: usize| at_scale(64).workers(workers).build().run().summary_text();
    let inline = run(1);
    assert_eq!(inline, run(2), "two-worker run diverged from the inline run");
    assert_eq!(inline, run(4), "four-worker run diverged from the inline run");
}

/// The digest the engine-path pins compare: FNV-1a of the summary text
/// followed by every session's telemetry and stream counters, which the
/// summary leaves out (a disconnect one IMU step later changes only the
/// `imu` stream's count), and every failover incident's exact instants,
/// which the summary rounds to the millisecond.
fn report_digest(report: &ServerReport) -> u64 {
    let mut text = report.summary_text();
    for s in report.sessions() {
        text.push_str(&format!("{:?}\n{:?}\n", s.telemetry(), s.stream_stats()));
    }
    for i in &report.failover_incidents {
        text.push_str(&format!("{:?} {:?} {:?}\n", i.crashed_at, i.recovered_at, i.mode));
    }
    fnv1a(text.bytes())
}

/// Every admitted session's `imu` stream published one sample per IMU
/// step `k ≥ 0` whose time `k / imu_hz` lies at or before the session's
/// end (its disconnect, else the horizon) — the pre-connect burn
/// included. A tick the engine failed to run before a disconnect or the
/// horizon shows here as a short count.
fn assert_imu_ticks_reach_session_end(name: &str, report: &ServerReport, cfg: &ServerConfig) {
    let horizon = Time::ZERO + cfg.duration;
    for (s, config) in report.sessions().zip(&cfg.sessions) {
        if s.state() == SessionState::Rejected {
            continue;
        }
        let end = config.disconnect_at.filter(|&t| t < horizon).unwrap_or(horizon);
        let steps = (0..)
            .take_while(|&k| Time::from_secs_f64(k as f64 / config.imu_hz) <= end)
            .count() as u64;
        let imu = s.stream_stats().iter().find(|t| t.name == "imu").expect("imu stream");
        assert_eq!(imu.seq, steps, "{name}: session {} published {} IMU samples", s.id(), imu.seq);
    }
}

/// Runs `builder`, checks every admitted session's IMU count against its
/// end and returns the report.
fn run_checked(name: &str, builder: ServerBuilder) -> ServerReport {
    let mut cfg = None;
    let report = builder.tune(|c| cfg = Some(c.clone())).build().run();
    assert_imu_ticks_reach_session_end(name, &report, &cfg.expect("tune ran"));
    report
}

/// Pins each engine path the perf digests never reach: a late joiner
/// whose first IMU step rounds to t = 0, before its connect; a late
/// joiner off the step grid; degraded admission; a disconnect between
/// two IMU steps and one exactly on a step; and a recorded run plus its
/// identity replay, whose `.ilxt` bytes are pinned too.
///
/// Three more cases land a delivery exactly on another event's instant,
/// which jittered links never do. On a link of infinite bandwidth and a
/// fixed latency, one session on one shard:
/// * at 125 Hz and 1.5 ms, every token arrives on the next vsync, where
///   it is shown;
/// * at 3 ms, every pose arrives on a `ServerBatch` instant; with a
///   checkpoint at each one and a crash at 90 ms, the pose that arrived
///   on the 88 ms checkpoint is journaled, not snapshotted, and the
///   catch-up replays it;
/// * at 3 ms, a crash at 102 ms restarts the session at 352 ms, the
///   instant a pose arrives: the shadow takes the pose before the
///   restart.
///
/// Two more land VIO jobs on the pool's instants, on the same link at
/// 2 ms:
/// * every odd camera frame's job arrives on a `ServerBatch` instant and
///   joins that batch;
/// * with two sessions on one shard, session 0 joining at 20 ms, and the
///   uplink out from 100 to 200 ms, three jobs arrive together at 202 ms,
///   pushed out of session order; the pool's 25 ms deadline sheds the
///   first of them in arrival-then-session order.
#[test]
fn engine_paths_are_pinned() {
    let fleet = |n: usize| ServerBuilder::new().sessions(n).duration(Duration::from_secs(1));
    let at_us = |us: u64| Time::from_nanos(us * 1_000);
    let join = |us: u64| fleet(4).configure_session(3, move |c| c.connect_at = at_us(us));
    let leave = |us: u64| fleet(3).configure_session(1, move |c| c.disconnect_at = Some(at_us(us)));
    let exact = |latency_us: u64| {
        fleet(1).shards(1).link(LinkConfig {
            uplink_bps: f64::INFINITY,
            downlink_bps: f64::INFINITY,
            base_latency: Duration::from_micros(latency_us),
            jitter_sigma: 0.0,
            seed: 0,
        })
    };
    let crash = |us: u64, policy: FailoverPolicy| {
        let ns = us * 1_000;
        let window = FaultWindow::new(FaultKind::WorkerCrash, "shard/0", ns, ns + 1, 1.0);
        let checkpoint_every = Some(Duration::from_millis(4));
        exact(3_000)
            .fault_plan(FaultPlan::new(7).with_window(window))
            .failover(FailoverConfig { policy, checkpoint_every })
    };
    let outage = FaultWindow::new(FaultKind::LinkOutage, "uplink", 100_000_000, 200_000_000, 1.0);
    let jobs_tie = exact(2_000)
        .sessions(2)
        .configure_session(0, |c| c.connect_at = at_us(20_000))
        .fault_plan(FaultPlan::new(7).with_window(outage))
        .scheduler(SchedulerConfig {
            placement: PlacementPolicy::DeadlineAware { deadline: Duration::from_millis(25) },
            ..SchedulerConfig::default()
        });
    let cases = [
        ("join_0.9ms", join(900), 0x060c_bf5c_b068_45c9),
        ("join_3.3ms", join(3_300), 0xed77_4bc7_6c30_e993),
        ("degraded", fleet(8), 0x4fe5_ae53_a4ec_1aac),
        ("leave_between_steps", leave(501_300), 0x95bd_a31d_7907_c78a),
        ("leave_on_step", leave(502_000), 0xd04a_4fd2_846f_4476),
        (
            "token_on_vsync",
            exact(1_500).configure_session(0, |c| c.display_hz = 125.0),
            0x1438_3f63_73af_cd14,
        ),
        (
            "pose_on_checkpoint",
            crash(90_000, FailoverPolicy::CheckpointCatchup),
            0xb696_ee1e_340e_d6b8,
        ),
        ("pose_on_recover", crash(101_500, FailoverPolicy::RestartOnly), 0x4b85_a302_a6eb_e2e7),
        ("job_on_batch", exact(2_000), 0x71de_4d1f_e41a_9dff),
        ("jobs_tie_out_of_order", jobs_tie, 0xe28f_202d_6f15_f532),
    ];
    for (name, builder, digest) in cases {
        let report = run_checked(name, builder);
        assert_eq!(report.count(SessionState::Rejected), 0, "{name}: every session is admitted");
        assert_eq!(report_digest(&report), digest, "{name}: the pinned run changed");
    }
    assert_eq!(fleet(8).build().run().degraded(), 3, "the degraded case must mix rates");

    let recorded = run_checked("record", fleet(1).record_boundary(true));
    let trace = Arc::new(recorded.boundary_trace.clone().expect("recording enabled"));
    let bytes = trace.encode();
    let replay = fleet(1).record_boundary(true).replay(ReplayLoad::identity(trace));
    let replayed = run_checked("replay", replay);
    let rerecorded = replayed.boundary_trace.as_ref().expect("re-recording enabled");
    assert_eq!(rerecorded.encode(), bytes, "identity replay must re-record the recorded bytes");
    assert_eq!(fnv1a(bytes.iter().copied()), 0x096d_ec1c_1391_3daa, "the recorded bytes changed");
    assert_eq!(report_digest(&recorded), 0xdfb2_b783_65f2_3dbb, "the recorded run changed");
    assert_eq!(report_digest(&replayed), 0xdfb2_b783_65f2_3dbb, "the identity replay changed");
}

/// The IMU count rule of `engine_paths_are_pinned` over 40 seeded
/// fleets: sessions join anywhere in the first 200 ms, on or off the
/// step grid, and some leave at a random instant a millisecond or more
/// after joining — never before their first step, which rounds to at
/// most half a step after the join (a session that leaves before its
/// first step still runs it).
#[test]
fn imu_ticks_reach_every_session_end_across_seeds() {
    for case in 0..40 {
        let mut rng = Xoshiro256pp::new(case);
        let n = 1 + rng.below(10) as usize;
        let mut fleet = ServerBuilder::new().sessions(n).duration(Duration::from_millis(600));
        for i in 0..n {
            let connect = if rng.chance(0.5) { 0 } else { rng.below(200_000_000) };
            let leave = rng.chance(0.4).then(|| connect + 1_000_000 + rng.below(600_000_000));
            fleet = fleet.configure_session(i, |c| {
                c.connect_at = Time::from_nanos(connect);
                c.disconnect_at = leave.map(Time::from_nanos);
            });
        }
        run_checked(&format!("case {case}"), fleet);
    }
}
