//! Golden tests for crash-consistent session failover: a run with
//! injected worker crashes plus checkpoint/catch-up recovery must
//! produce the same per-session telemetry as a run that never crashed
//! (a quarantined session keeps loading the link, the VIO pool and the
//! renderer exactly as if it were alive — with sensor faults active or
//! not — and catch-up replay reconstructs the session exactly);
//! an armed-but-uncrashed failover config must be bitwise inert; the
//! whole failover pipeline must be deterministic across reruns and
//! worker counts; and a corrupt checkpoint (a `CheckpointCorrupt` fault
//! window) must surface as a typed decode error with a graceful restart
//! fallback, never a panic.
//!
//! Also pins the `ILXC` checkpoint container format via the committed
//! `tests/data/checkpoint_fixture.ilxc` (regenerate with
//! `cargo test --test failover_golden write_checkpoint_fixture -- --ignored`).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use illixr_core::boundary::{fnv1a, Checkpoint, DecodeError};
use illixr_core::fault::{FaultKind, FaultPlan, FaultWindow, StochasticRates};
use illixr_core::{Clock, SimClock, Time};
use illixr_sched::ShardMap;
use illixr_server::snapshot::SessionSnapshot;
use illixr_server::{
    ClientSession, FailoverConfig, FailoverPolicy, LinkConfig, PlacementPolicy, SchedulerConfig,
    ServerBuilder, ServerReport, SessionConfig, SessionState,
};

const CRASH_AT: Duration = Duration::from_millis(900);

fn catchup() -> FailoverConfig {
    FailoverConfig {
        policy: FailoverPolicy::CheckpointCatchup,
        checkpoint_every: Some(Duration::from_millis(300)),
    }
}

/// Adds one deterministic `WorkerCrash` window for shard 1, firing at
/// the first batch that shard executes at or after `CRASH_AT`.
fn with_crash(plan: FaultPlan) -> FaultPlan {
    let at = CRASH_AT.as_nanos() as u64;
    plan.with_window(FaultWindow::new(FaultKind::WorkerCrash, "shard/1", at, at + 1, 1.0))
}

fn crash_plan() -> FaultPlan {
    with_crash(FaultPlan::new(7))
}

/// Sensor faults straddling `CRASH_AT`: camera-drop, camera-freeze and
/// IMU-gap windows on every session plus stochastic drops and gaps, so
/// a quarantined session's fault ladder is live while it is dark.
fn sensor_fault_plan() -> FaultPlan {
    let ms = |t: u64| Duration::from_millis(t).as_nanos() as u64;
    FaultPlan::new(7)
        .with_rates(StochasticRates { camera_drop: 0.2, imu_gap: 0.05, ..StochasticRates::ZERO })
        .with_window(FaultWindow::new(FaultKind::CameraDrop, "", ms(880), ms(1000), 1.0))
        .with_window(FaultWindow::new(FaultKind::CameraFreeze, "", ms(1000), ms(1150), 1.0))
        .with_window(FaultWindow::new(FaultKind::ImuGap, "", ms(890), ms(960), 1.0))
}

fn base(n: usize) -> ServerBuilder {
    ServerBuilder::new().sessions(n).duration(Duration::from_secs(2)).shards(4).workers(1)
}

/// `base(n)` on `server_golden::at_scale`'s link and VIO pool, wide
/// enough that every session is admitted at full rate: all of them
/// connect at t = 0 and tick in step.
fn open(n: usize) -> ServerBuilder {
    base(n)
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

/// Runs `plan` with and without shard 1's crash under `failover` and
/// checks what the crash may not change: sessions outside the crashed
/// fault domain are identical over the whole run, and under catch-up so
/// are the crashed sessions — every counter and the whole per-frame
/// display log (times, MTP, warp poses), before the crash and after.
fn assert_crash_is_contained(plan: FaultPlan, failover: FailoverConfig) {
    let crashed = base(8).fault_plan(with_crash(plan.clone())).failover(failover).build().run();
    let clean = base(8).fault_plan(plan).failover(failover).build().run();
    let policy = failover.policy;

    let incidents = &crashed.failover_incidents;
    assert!(!incidents.is_empty(), "the WorkerCrash window must quarantine shard 1's sessions");
    let mode = match policy {
        FailoverPolicy::Disabled => "none",
        FailoverPolicy::RestartOnly => "restart",
        FailoverPolicy::CheckpointCatchup => "catchup",
    };
    for i in incidents {
        assert_eq!(i.mode, mode, "{policy:?}: session {} recovered the wrong way", i.session);
        assert_eq!(i.recovered_at.is_some(), mode != "none", "{policy:?}: session {}", i.session);
    }

    let crashed_ids: HashSet<u32> = incidents.iter().map(|i| i.session).collect();
    for (a, b) in crashed.sessions().zip(clean.sessions()) {
        // A dark session must keep link/pool/render contention exactly
        // as the live session would have: bystander sessions never
        // notice the crash. Catch-up continues a crashed session's log
        // from its checkpoint, so it ends as if it never crashed.
        let was_crashed = crashed_ids.contains(&a.id());
        if was_crashed && policy != FailoverPolicy::CheckpointCatchup {
            continue;
        }
        assert_eq!(
            format!("{:?}", a.telemetry()),
            format!("{:?}", b.telemetry()),
            "{policy:?}: session {} (crashed: {was_crashed}) diverged from the uncrashed run",
            a.id()
        );
    }
}

/// Criterion (a): a crash plus catch-up recovery is invisible to
/// bystanders and to the crashed sessions.
#[test]
fn catchup_recovery_restores_per_session_suffix_byte_identically() {
    assert_crash_is_contained(FaultPlan::new(7), catchup());
}

/// The same containment while sensor faults are active across the
/// quarantine, under every policy: a dark session's camera fault
/// ladder, IMU gaps and degraded parity must load the link exactly as
/// the live session's would have. Three of the eight sessions come up
/// degraded under default admission.
#[test]
fn crash_during_sensor_faults_is_contained_under_every_policy() {
    assert_eq!(base(8).build().run().degraded(), 3, "the cohort must mix full and half rate");
    for policy in
        [FailoverPolicy::RestartOnly, FailoverPolicy::CheckpointCatchup, FailoverPolicy::Disabled]
    {
        assert_crash_is_contained(sensor_fault_plan(), FailoverConfig { policy, ..catchup() });
    }
}

/// Criterion (b): arming failover (checkpoint epochs, journaling)
/// without any crash must not perturb the engine's output by a single
/// byte relative to the historical (pre-failover) engine — summary,
/// metrics CSV and chrome trace alike.
#[test]
fn armed_failover_without_crashes_is_bitwise_inert() {
    use illixr_core::obs::{chrome_trace_json, metrics_csv};
    let plain = base(8).trace(true).build().run();
    let armed = base(8).trace(true).failover(catchup()).build().run();
    let summary = armed.summary_text();
    assert_eq!(
        plain.summary_text(),
        summary,
        "checkpointing must be invisible until a crash consumes it"
    );
    assert!(!summary.contains("failover"), "no incidents means no failover summary lines");
    assert_eq!(metrics_csv(&plain.metrics), metrics_csv(&armed.metrics), "metrics CSV diverged");
    assert_eq!(
        chrome_trace_json(&plain.tracer),
        chrome_trace_json(&armed.tracer),
        "chrome trace diverged"
    );
}

/// Criterion (c): the whole crash-quarantine-recover pipeline is
/// deterministic — same seed, same report — and invariant to the
/// worker count (crash injection lives in the plan, not the threads).
///
/// At 8 sessions a batch reaches the engine's 16-item parallel
/// threshold only when camera and vsync items coincide, so the crash
/// need not land in a forked batch. The 32-session cases are admitted
/// at full rate and connect at t = 0. Shard 1's window opens at 900 ms,
/// an IMU step instant: its lanes' IMU ticks there are shard work, so
/// the crash must land on the IMU grid. Shard 2's window opens at
/// vsync 108, off the IMU grid, where all 32 sessions' vsyncs form one
/// batch — wide enough that 2 and 4 workers fork it — so that crash
/// lands inside a forked batch.
#[test]
fn failover_runs_are_bit_identical_across_reruns_and_worker_counts() {
    let run_plan = |builder: ServerBuilder, plan: FaultPlan, workers: usize| {
        builder.workers(workers).fault_plan(plan).failover(catchup()).build().run()
    };
    let run = |builder: ServerBuilder, workers: usize| run_plan(builder, crash_plan(), workers);
    let a = run(base(8), 1);
    assert!(!a.failover_incidents.is_empty(), "crash must fire");
    let b = run(base(8), 1);
    assert_eq!(a.summary_text(), b.summary_text(), "same-seed failover rerun diverged");
    let c = run(base(8), 4);
    assert_eq!(a.summary_text(), c.summary_text(), "failover output depends on worker count");

    let wide = run(open(32), 1);
    assert_eq!(wide.count(SessionState::Rejected), 0, "the open profile must admit all 32");
    assert_eq!(wide.degraded(), 0, "the open profile must admit all 32 at full rate");
    let map = ShardMap::new(4);
    let shard1: HashSet<u32> = (0..32).filter(|&id| map.shard_of(id) == 1).collect();
    let crashed: HashSet<u32> = wide.failover_incidents.iter().map(|i| i.session).collect();
    assert_eq!(crashed, shard1, "the crash must quarantine exactly shard 1's sessions");
    let imu_hz = SessionConfig::new(11).imu_hz;
    for i in &wide.failover_incidents {
        let step = (i.crashed_at.as_secs_f64() * imu_hz).round();
        assert_eq!(
            Time::from_secs_f64(step / imu_hz),
            i.crashed_at,
            "the crash must land on an IMU step instant"
        );
    }
    for workers in [2, 4] {
        assert_eq!(
            wide.summary_text(),
            run(open(32), workers).summary_text(),
            "32-session failover output depends on worker count ({workers} workers)"
        );
    }

    let config = SessionConfig::new(11);
    let period = Duration::from_secs_f64(1.0 / config.display_hz).as_nanos() as u64;
    let vsync_108 = 108 * period;
    assert_eq!(vsync_108, 899_999_964, "vsync 108 opens shard 2's window");
    let shard2_plan = || {
        FaultPlan::new(7).with_window(FaultWindow::new(
            FaultKind::WorkerCrash,
            "shard/2",
            vsync_108,
            vsync_108 + 1,
            1.0,
        ))
    };
    let wave = run_plan(open(32), shard2_plan(), 1);
    let shard2: HashSet<u32> = (0..32).filter(|&id| map.shard_of(id) == 2).collect();
    let crashed: HashSet<u32> = wave.failover_incidents.iter().map(|i| i.session).collect();
    assert_eq!(crashed, shard2, "the crash must quarantine exactly shard 2's sessions");
    for i in &wave.failover_incidents {
        assert_eq!(i.crashed_at.as_nanos(), vsync_108, "the crash must land on the vsync wave");
    }
    for workers in [2, 4] {
        assert_eq!(
            wave.summary_text(),
            run_plan(open(32), shard2_plan(), workers).summary_text(),
            "a crash in a forked vsync wave depends on worker count ({workers} workers)"
        );
    }
}

/// Pins a crash run under each policy: FNV-1a of the summary, every
/// incident's exact crash and recovery instants in nanoseconds, and every
/// session's telemetry.
#[test]
fn failover_policies_are_pinned() {
    let cases = [
        ("checkpoint_catchup", catchup(), 0x4cfc_c4d2_3b3d_7b26),
        (
            "restart_only",
            FailoverConfig { policy: FailoverPolicy::RestartOnly, ..Default::default() },
            0x20b7_d898_b647_69f1,
        ),
        ("disabled", FailoverConfig::default(), 0xc969_ac4f_6b45_0e8f),
    ];
    for (name, failover, digest) in cases {
        let report = base(8).fault_plan(crash_plan()).failover(failover).build().run();
        assert!(!report.failover_incidents.is_empty(), "{name}: the crash must fire");
        let mut text = report.summary_text();
        for i in &report.failover_incidents {
            text.push_str(&format!(
                "incident session={} crashed_at={} recovered_at={:?} mode={} lost={}\n",
                i.session,
                i.crashed_at.as_nanos(),
                i.recovered_at.map(Time::as_nanos),
                i.mode,
                i.lost_frames,
            ));
        }
        for s in report.sessions() {
            text.push_str(&format!("{:?}\n", s.telemetry()));
        }
        assert_eq!(fnv1a(text.bytes()), digest, "{name}: the pinned crash run changed");
    }
}

/// A shard whose only work is one session's first IMU step still
/// crashes on it, and where it falls. One session on one shard under
/// `RestartOnly`, a crash window open from t = 0:
/// * connecting at 124.999995 ms, its first step rounds to 124 ms, before
///   the connect — the crash lands there;
/// * connecting at 386 ms after a disconnect at 314 ms, the disconnect is
///   the shard's first work and the crash lands on it; the quarantined
///   session leaves at once, and its first step, past its end, still
///   runs on the lane;
/// * with a second window opening at 384.128282 ms, that step is the
///   work the second crash consumes, and it never runs.
#[test]
fn a_first_imu_step_is_shard_work() {
    let run = |connect_ns: u64, disconnect_ns: Option<u64>, windows: &[u64]| {
        let plan = windows.iter().fold(FaultPlan::new(7), |plan, &at| {
            plan.with_window(FaultWindow::new(FaultKind::WorkerCrash, "shard/0", at, at + 1, 1.0))
        });
        ServerBuilder::new()
            .sessions(1)
            .duration(Duration::from_secs(1))
            .shards(1)
            .configure_session(0, |c| {
                c.connect_at = Time::from_nanos(connect_ns);
                c.disconnect_at = disconnect_ns.map(Time::from_nanos);
            })
            .fault_plan(plan)
            .failover(FailoverConfig { policy: FailoverPolicy::RestartOnly, ..Default::default() })
            .build()
            .run()
    };
    let imu_seq = |report: &ServerReport| {
        let s = report.session(0).expect("one session");
        s.stream_stats().iter().find(|t| t.name == "imu").expect("imu stream").seq
    };
    let ms = |ms: u64| Time::from_millis(ms);

    let early = run(124_999_995, None, &[0]);
    let i = &early.failover_incidents[..];
    assert_eq!(i.len(), 1, "one crash");
    assert_eq!((i[0].crashed_at, i[0].recovered_at), (ms(124), Some(ms(374))));

    let left = run(386_000_000, Some(314_000_000), &[0]);
    let i = &left.failover_incidents[..];
    assert_eq!(i.len(), 1, "one crash");
    assert_eq!((i[0].crashed_at, i[0].recovered_at, i[0].mode), (ms(314), None, "none"));
    assert_eq!(imu_seq(&left), 194, "193 steps burned at connect, then the first step");

    let lost = run(386_000_000, Some(314_000_000), &[0, 384_128_282]);
    assert_eq!(lost.failover_incidents.len(), 1, "the second crash finds no attached session");
    assert_eq!(imu_seq(&lost), 193, "the first step dies with the second crash");
}

/// Criterion (d): a corrupt checkpoint is a typed decode error at the
/// codec layer, and the engine degrades to a restart-only recovery
/// instead of panicking.
#[test]
fn corrupt_checkpoint_yields_typed_error_and_restart_fallback() {
    let mut ck = Checkpoint::new(42, 0xABCD, 123);
    ck.entries.push(("session".to_owned(), vec![1, 2, 3, 4]));
    let mut bytes = ck.encode();
    bytes.pop();
    assert!(
        matches!(Checkpoint::decode(&bytes), Err(DecodeError::Truncated { .. })),
        "dropping the final byte must decode to a typed truncation error"
    );

    let corrupt = FaultWindow::new(FaultKind::CheckpointCorrupt, "shard/1", 0, u64::MAX, 1.0);
    let report =
        base(8).fault_plan(crash_plan().with_window(corrupt)).failover(catchup()).build().run();
    assert!(!report.failover_incidents.is_empty(), "crash must fire");
    for i in &report.failover_incidents {
        assert_eq!(
            i.mode, "restart_fallback",
            "a corrupt checkpoint must fall back to a budgeted restart"
        );
        assert!(i.recovered_at.is_some(), "session {} never recovered via restart", i.session);
    }
}

/// A session whose every checkpoint is corrupt spends its restart budget
/// on fallbacks, and the crash after that leaves it quarantined with its
/// own telemetry as of that crash: the per-frame log moves to a restored
/// session only once a checkpoint decoded, so here it never leaves.
#[test]
fn a_session_out_of_restarts_keeps_its_log() {
    let plan = [200, 700, 1200, 1700].iter().fold(FaultPlan::new(7), |plan, &ms| {
        let at = Duration::from_millis(ms).as_nanos() as u64;
        plan.with_window(FaultWindow::new(FaultKind::WorkerCrash, "shard/1", at, at + 1, 1.0))
    });
    let corrupt = FaultWindow::new(FaultKind::CheckpointCorrupt, "", 0, u64::MAX, 1.0);
    let report = base(8).fault_plan(plan.with_window(corrupt)).failover(catchup()).build().run();
    let budget = FailoverConfig::RESTART_BUDGET as usize;
    for s in report.sessions().filter(|s| s.state() == SessionState::Quarantined) {
        let incidents: Vec<_> =
            report.failover_incidents.iter().filter(|i| i.session == s.id()).collect();
        assert_eq!(incidents.len(), budget + 1, "session {}: one crash past the budget", s.id());
        let last = incidents[budget];
        assert_eq!((last.recovered_at, last.mode), (None, "none"));
        let t = s.telemetry();
        assert!(t.frames_displayed > 0, "session {} displayed before its last crash", s.id());
        assert_eq!(t.mtp_ns.len() as u64, t.frames_displayed, "session {}", s.id());
        assert_eq!(t.displayed_frames.len() as u64, t.frames_displayed, "session {}", s.id());
        assert!(t.displayed_frames.iter().all(|f| f.time < last.crashed_at));
    }
    assert!(report.count(SessionState::Quarantined) > 0, "the fourth crash must strand someone");
}

/// Restart-only recovery (no checkpoints) still brings sessions back,
/// and a disabled policy leaves them quarantined for good.
#[test]
fn restart_only_recovers_and_disabled_stays_quarantined() {
    let restart = base(8)
        .fault_plan(crash_plan())
        .failover(FailoverConfig { policy: FailoverPolicy::RestartOnly, ..Default::default() })
        .build()
        .run();
    assert!(!restart.failover_incidents.is_empty());
    for i in &restart.failover_incidents {
        assert_eq!(i.mode, "restart");
        assert!(i.recovered_at.is_some());
    }

    let disabled = base(8).fault_plan(crash_plan()).build().run();
    assert!(!disabled.failover_incidents.is_empty());
    for i in &disabled.failover_incidents {
        assert_eq!(i.mode, "none");
        assert!(i.recovered_at.is_none(), "disabled policy must never recover");
        assert!(i.lost_frames > 0, "a dark session loses display opportunities");
    }
}

/// The canonical fixture content: a checkpoint wrapping a genuine
/// mid-run session snapshot, so the committed bytes pin both the
/// `ILXC` container and the session-snapshot codec underneath it.
fn fixture_checkpoint() -> Checkpoint {
    let clock = Arc::new(SimClock::new());
    let mut session = ClientSession::new(0, SessionConfig::new(11), clock.clone());
    session.connect(Time::ZERO, false);
    let imu_period = Duration::from_secs_f64(1.0 / session.config.imu_hz);
    for step in 0..40u64 {
        clock.advance_to(Time::ZERO + imu_period * step as u32);
        session.on_imu_due();
        if step % 10 == 9 {
            let _ = session.on_camera_due();
        }
    }
    let snap = session.snapshot();
    let mut ck = Checkpoint::new(11, 0x1117_C0DE, clock.now().as_nanos());
    ck.entries.push(("session".to_owned(), snap.encode()));
    ck
}

const FIXTURE_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/checkpoint_fixture.ilxc");

/// Format stability: the committed fixture keeps decoding under the
/// current schema, re-encodes to the committed bytes, and its embedded
/// session snapshot round-trips byte-identically.
#[test]
fn committed_checkpoint_fixture_round_trips_byte_identically() {
    let bytes = std::fs::read(FIXTURE_PATH).expect("fixture committed under tests/data/");
    let ck = Checkpoint::decode(&bytes).expect("fixture decodes under the current schema");
    assert_eq!(ck.encode(), bytes, "fixture must re-encode to the committed bytes");
    let entry = ck.entry("session").expect("fixture carries a session snapshot");
    let snap = SessionSnapshot::decode(entry).expect("embedded snapshot decodes");
    assert_eq!(snap.encode(), entry, "embedded snapshot must re-encode byte-identically");
}

/// Corrupt or truncated fixtures are rejected with typed errors, never
/// misread: every truncation point and a flipped magic byte fail.
#[test]
fn corrupted_fixture_bytes_are_rejected() {
    let bytes = std::fs::read(FIXTURE_PATH).expect("fixture committed under tests/data/");
    for cut in 0..bytes.len() {
        assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "truncation at {cut} must fail");
    }
    let mut flipped = bytes.clone();
    flipped[0] ^= 0xFF;
    assert!(matches!(Checkpoint::decode(&flipped), Err(DecodeError::BadMagic { .. })));
}

/// Regenerates the committed fixture after an intentional schema bump:
/// `cargo test --test failover_golden write_checkpoint_fixture -- --ignored`.
#[test]
#[ignore]
fn write_checkpoint_fixture() {
    std::fs::write(FIXTURE_PATH, fixture_checkpoint().encode()).expect("write fixture");
}
