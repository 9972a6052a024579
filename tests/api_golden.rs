//! Golden tests for the WebXR-style front-end (`illixr-api`).
//!
//! Three contracts:
//!
//! 1. **Mock backend**: two sessions negotiated from the same seed
//!    replay bit-identical frame/input/hit-test streams (compared both
//!    as transcript bytes and as drained payloads).
//! 2. **Remote backend**: an immersive-vr session with default features
//!    adopted into an `illixr-server` run reports byte-identically to a
//!    direct `ServerBuilder` run of the same shape — the front-end adds
//!    no nondeterminism and no configuration drift.
//! 3. **Pinned transcripts**: the mock, remote and headless transcripts
//!    hash to committed FNV-1a digests, so a change that moved every
//!    transcript the same way on both reruns still fails.

use std::time::Duration;

use illixr_testbed::api::{
    payloads, Feature, HeadlessConfig, HeadlessDiscovery, MockConfig, MockDiscovery, Ray, Registry,
    RemoteConfig, RemoteDiscovery, Session, SessionInit, SessionMode,
};
use illixr_testbed::core::boundary::fnv1a;
use illixr_testbed::math::Vec3;
use illixr_testbed::server::ServerBuilder;

/// The FNV-1a digest of a session transcript.
fn digest(transcript: &str) -> u64 {
    fnv1a(transcript.bytes())
}

/// A hit-test ray from standing eye height straight down.
fn down_ray() -> Ray {
    Ray { origin: Vec3::new(0.0, 1.6, 0.0), direction: Vec3::new(0.0, -1.0, 0.0) }
}

/// Opens a fully-featured mock session and drains every stream.
fn run_mock(seed: u64) -> (String, Vec<String>, usize, usize) {
    let mut registry = Registry::new();
    registry.register(Box::new(MockDiscovery::with_config(MockConfig {
        frames: 90,
        ..MockConfig::new(seed)
    })));
    let init = SessionInit::new().optional(&[Feature::HandTracking, Feature::HitTest]);
    let mut session: Session = registry.request_session(SessionMode::ImmersiveVr, &init).unwrap();
    let frames = session.frames();
    let inputs = session.input_events();
    let hits = session.hit_test_events();
    session.request_hit_test(down_ray()).unwrap();
    while session.pump().is_some() {}
    let frame_lines: Vec<String> = payloads(frames.drain())
        .into_iter()
        .map(|f| format!("{} {} {:?}", f.index, f.time.as_nanos(), f.viewer))
        .collect();
    (session.transcript().to_owned(), frame_lines, inputs.drain().len(), hits.drain().len())
}

#[test]
fn mock_streams_are_bit_identical_across_same_seed_reruns() {
    let (transcript_a, frames_a, inputs_a, hits_a) = run_mock(13);
    let (transcript_b, frames_b, inputs_b, hits_b) = run_mock(13);
    assert!(!transcript_a.is_empty());
    assert_eq!(transcript_a, transcript_b, "same-seed transcripts must be byte-identical");
    assert_eq!(frames_a, frames_b);
    assert_eq!(frames_a.len(), 90);
    assert_eq!((inputs_a, hits_a), (inputs_b, hits_b));
    assert!(inputs_a > 0, "90 scripted frames must produce input edges");
    assert_eq!(hits_a, 90, "every frame answers the active hit-test subscription");
    assert_eq!(digest(&transcript_a), 0x42f5_5536_5f37_0d7f, "mock transcript moved");

    // A different seed must actually change the streams.
    let (transcript_c, ..) = run_mock(14);
    assert_ne!(transcript_a, transcript_c);
}

#[test]
fn remote_session_report_matches_direct_server_run() {
    let duration = Duration::from_secs(2);
    let mut registry = Registry::new();
    registry.register(Box::new(RemoteDiscovery::new(RemoteConfig { duration })));
    let mut session =
        registry.request_session(SessionMode::ImmersiveVr, &SessionInit::new()).unwrap();
    let frames = session.run(u64::MAX);

    let direct = ServerBuilder::new().sessions(1).duration(duration).build().run();
    assert_eq!(
        session.report(),
        direct.summary_text(),
        "front-end session must configure the server identically to a direct run"
    );
    let handle = direct.session(0).unwrap();
    assert_eq!(
        frames as usize,
        handle.telemetry().displayed_frames.len(),
        "session frame stream must replay the displayed-frame log one-to-one"
    );
    assert!(frames > 0);
}

#[test]
fn mixed_mode_remote_sessions_coexist_and_rerun_identically() {
    let open_all = || {
        let discovery = RemoteDiscovery::new(RemoteConfig { duration: Duration::from_secs(1) });
        let server = discovery.handle();
        let mut registry = Registry::new();
        registry.register(Box::new(discovery));
        let modes = [SessionMode::Inline, SessionMode::ImmersiveVr, SessionMode::ImmersiveAr];
        // All sessions must be adopted before the first frame triggers
        // the shared server run.
        let mut sessions: Vec<Session> = modes
            .into_iter()
            .map(|mode| registry.request_session(mode, &SessionInit::new()).unwrap())
            .collect();
        let counts: Vec<u64> = sessions.iter_mut().map(|s| s.run(u64::MAX)).collect();
        (counts, server.server_report().summary_text())
    };
    let (counts_a, report_a) = open_all();
    let (counts_b, report_b) = open_all();
    assert_eq!(counts_a, counts_b);
    assert_eq!(report_a, report_b, "mixed-mode server run must be deterministic");
    assert!(
        counts_a.iter().all(|&frames| frames > 0),
        "all three modes must deliver frames from one shared server: {counts_a:?}"
    );
}

#[test]
fn mixed_mode_remote_transcripts_are_pinned() {
    let discovery = RemoteDiscovery::new(RemoteConfig { duration: Duration::from_secs(1) });
    let mut registry = Registry::new();
    registry.register(Box::new(discovery));
    let init = SessionInit::new().optional(&[Feature::HandTracking, Feature::HitTest]);
    let modes = [SessionMode::Inline, SessionMode::ImmersiveVr, SessionMode::ImmersiveAr];
    let mut sessions: Vec<Session> =
        modes.into_iter().map(|mode| registry.request_session(mode, &init).unwrap()).collect();
    for session in &mut sessions {
        session.request_hit_test(down_ray()).unwrap();
    }
    let digests: Vec<u64> = sessions
        .iter_mut()
        .map(|session| {
            session.run(u64::MAX);
            digest(session.transcript())
        })
        .collect();
    assert_eq!(
        digests,
        [0xfe8a_2049_886e_937e, 0x7924_f3a2_2540_839a, 0x084d_ddca_9023_6471],
        "inline, immersive-vr and immersive-ar transcripts moved"
    );
}

#[test]
fn headless_transcript_and_report_are_pinned() {
    let mut registry = Registry::new();
    registry.register(Box::new(HeadlessDiscovery::new(HeadlessConfig {
        duration: Duration::from_secs(1),
        ..HeadlessConfig::default()
    })));
    let init = SessionInit::new().optional(&[Feature::HandTracking]);
    let mut session = registry.request_session(SessionMode::ImmersiveVr, &init).unwrap();
    session.run(u64::MAX);
    assert_eq!(digest(session.transcript()), 0x70d7_80f0_b7af_6b19, "headless transcript moved");
    assert_eq!(
        session.report(),
        "headless app=Platformer platform=Desktop seed=42 frames=120 mean_mtp_ms=2.833"
    );
}
