//! Session-negotiation matrix: sweeps the WebXR-style front-end
//! (`illixr-api`) across session mode × feature set × backend and
//! checks the claims the front-end exists to support.
//!
//! Three parts:
//!
//! 1. **Per-backend sweep** (mock, headless): every supported
//!    (mode, feature-set) pair gets its own registry and session; the
//!    row reports negotiated features, delivered frames, input edges
//!    and hit-test answers. Refusals (headless × immersive-ar) are
//!    reported as typed errors, not skipped silently.
//! 2. **Mixed-mode remote run**: inline + immersive-vr + immersive-ar
//!    sessions all adopted into ONE `illixr-server` run through
//!    `RemoteDiscovery`, with negotiated features feeding admission
//!    control via the session load-weight.
//! 3. **Claims**: the whole matrix reruns bit-identically
//!    (`deterministic_rerun_identical`); every mixed-mode remote
//!    session delivers frames (`mixed_modes_coexist`); and a default
//!    immersive-vr remote session's report is byte-identical to a
//!    direct `ServerBuilder` run of the same shape
//!    (`remote_matches_direct`).
//!
//! Usage: `cargo run --release -p illixr-bench --bin paper -- --only
//! session_matrix` (`--quick` halves simulated durations and frame
//! counts for CI; writes `results/session_matrix.txt`).

use std::fmt::Write as _;
use std::io;
use std::time::Duration;

use illixr_api::{
    Feature, HeadlessConfig, HeadlessDiscovery, MockConfig, MockDiscovery, Registry, RemoteConfig,
    RemoteDiscovery, Session, SessionInit, SessionMode,
};
use illixr_bench::{rule, Report};
use illixr_math::Vec3;
use illixr_server::ServerBuilder;

use crate::Context;

/// The mock backend's script seed.
const SEED: u64 = 7;

/// The feature sets each (mode, backend) cell is negotiated with.
fn feature_sets() -> Vec<(&'static str, SessionInit)> {
    vec![
        ("base", SessionInit::new()),
        (
            "full",
            SessionInit::new().optional(&[
                Feature::LocalFloor,
                Feature::HandTracking,
                Feature::HitTest,
                Feature::Anchors,
            ]),
        ),
    ]
}

/// Comma-joined feature names for a row.
fn feature_names(features: &[Feature]) -> String {
    features.iter().map(|f| f.name()).collect::<Vec<_>>().join(",")
}

/// Drains a session completely and renders its row.
fn drain(mut session: Session, mode: SessionMode, set: &str) -> String {
    let inputs = session.input_events();
    let hits = session.hit_test_events();
    let subscribed = session
        .request_hit_test(illixr_api::Ray {
            origin: Vec3::new(0.0, 1.6, 0.0),
            direction: Vec3::new(0.0, -1.0, 0.0),
        })
        .is_ok();
    let frames = session.run(u64::MAX);
    format!(
        "{:<8} {:<13} {:<5} frames={:<5} input_events={:<4} hit_events={:<5} hit_test={} \
         granted={}",
        session.backend(),
        mode.label(),
        set,
        frames,
        inputs.drain().len(),
        hits.drain().len(),
        subscribed,
        feature_names(session.granted_features()),
    )
}

/// One full deterministic pass over the matrix. Returns the rendered
/// report body plus the claim bits computed from it.
fn run_matrix(quick: bool) -> (String, bool, bool) {
    let mut out = String::new();
    let mock_frames = if quick { 60 } else { 120 };
    let sim = if quick { Duration::from_secs(1) } else { Duration::from_secs(2) };

    writeln!(out, "## per-backend sweep (mode x feature-set)").unwrap();
    for mode in SessionMode::ALL {
        for (set, init) in feature_sets() {
            let mut registry = Registry::new();
            registry.register(Box::new(MockDiscovery::with_config(MockConfig {
                frames: mock_frames,
                ..MockConfig::new(SEED)
            })));
            let session = registry.request_session(mode, &init).expect("mock serves all modes");
            writeln!(out, "{}", drain(session, mode, set)).unwrap();
        }
    }
    for mode in SessionMode::ALL {
        let (set, init) = feature_sets().swap_remove(1);
        let mut registry = Registry::new();
        registry.register(Box::new(HeadlessDiscovery::new(HeadlessConfig {
            duration: sim,
            ..HeadlessConfig::default()
        })));
        match registry.request_session(mode, &init) {
            Ok(session) => writeln!(out, "{}", drain(session, mode, set)).unwrap(),
            Err(err) => {
                writeln!(out, "{:<8} {:<13} {:<5} refused: {}", "headless", mode.label(), set, err)
                    .unwrap();
            }
        }
    }

    writeln!(out, "\n## mixed-mode remote run (one shared server)").unwrap();
    let discovery = RemoteDiscovery::new(RemoteConfig { duration: sim });
    let server = discovery.handle();
    let mut registry = Registry::new();
    registry.register(Box::new(discovery));
    let requests = [
        (SessionMode::Inline, "base", SessionInit::new()),
        (SessionMode::ImmersiveVr, "base", SessionInit::new()),
        (SessionMode::ImmersiveVr, "full", feature_sets().swap_remove(1).1),
        (SessionMode::ImmersiveAr, "full", feature_sets().swap_remove(1).1),
    ];
    let mut sessions: Vec<(SessionMode, &str, Session)> = requests
        .into_iter()
        .map(|(mode, set, init)| {
            let session = registry.request_session(mode, &init).expect("remote serves all modes");
            (mode, set, session)
        })
        .collect();
    let mut coexist = true;
    for (mode, set, session) in &mut sessions {
        let frames = session.run(u64::MAX);
        coexist &= frames > 0;
        writeln!(
            out,
            "{:<8} {:<13} {:<5} frames={:<5} granted={}",
            session.backend(),
            mode.label(),
            set,
            frames,
            feature_names(session.granted_features()),
        )
        .unwrap();
    }
    let report = server.server_report();
    writeln!(
        out,
        "server: sessions={} admitted={} degraded={} mean_mtp_ms={:.3} drop_rate={:.4}",
        report.session_count(),
        report.admitted(),
        report.degraded(),
        report.mean_mtp().as_secs_f64() * 1e3,
        report.drop_rate(),
    )
    .unwrap();

    writeln!(out, "\n## remote vs direct identity (immersive-vr, defaults)").unwrap();
    let mut registry = Registry::new();
    registry.register(Box::new(RemoteDiscovery::new(RemoteConfig { duration: sim })));
    let mut session =
        registry.request_session(SessionMode::ImmersiveVr, &SessionInit::new()).unwrap();
    let frames = session.run(u64::MAX);
    let direct = ServerBuilder::new().sessions(1).duration(sim).build().run().summary_text();
    let matches = session.report() == direct;
    writeln!(out, "remote frames={frames} report_bytes={}", session.report().len()).unwrap();

    (out, coexist, matches)
}

pub fn row(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    println!("session negotiation matrix (mode x feature-set x backend)");
    rule(98);

    let (body, coexist, matches) = run_matrix(cx.quick);
    print!("{body}");
    println!("re-running the full matrix for determinism...");
    let (body2, _, _) = run_matrix(cx.quick);
    let identical = body == body2;

    out.note("# session_matrix\n");
    // The body ends its own last row; `note`'s newline is the blank
    // line before the claims.
    out.note(&body);
    out.claim(&[
        ("mixed_modes_coexist", coexist),
        ("deterministic_rerun_identical", identical),
        ("remote_matches_direct", matches),
    ]);

    rule(98);
    Ok(())
}
