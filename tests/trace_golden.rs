//! Golden tests for the record/replay determinism boundary: a recorded
//! run must replay bit-identically — same boundary trace bytes, same
//! Perfetto trace JSON, same metrics CSV — even when the replaying
//! config carries a different seed and a quiet fault plan (the trace,
//! not the generators or the fault RNG, is the source of truth); the
//! committed fixture trace must keep decoding and re-recording to the
//! exact committed bytes (format stability); and fanning one recording
//! out to 64 synthetic server sessions must be deterministic across
//! reruns.
#![recursion_limit = "256"]

use std::sync::Arc;
use std::time::Duration;

use illixr_core::boundary::{
    splitmix64, unit_f64, Boundary, Checkpoint, DecodeError, ReplayCause, ReplayError,
    SessionTransform, Trace, TraceSource, Wire,
};
use illixr_core::fault::FaultPlan;
use illixr_core::obs::{chrome_trace_json, metrics_csv};
use illixr_core::sched::Side;
use illixr_platform::spec::Platform;
use illixr_render::apps::Application;
use illixr_sensors::types::ImuSample;
use illixr_sensors::wire::CameraRecord;
use illixr_server::link::Transfer;
use illixr_server::server::ReplayLoad;
use illixr_server::snapshot::SessionSnapshot;
use illixr_server::ServerBuilder;
use illixr_system::experiment::{ExperimentConfig, ExperimentResult, IntegratedExperiment};
use illixr_system::offload::Delivery;

/// The fig4-style shape `paper --only trace_replay --write-fixture`
/// records under — keep in sync with
/// `crates/bench/src/bin/paper/trace_replay.rs`.
fn fig4_config() -> ExperimentConfig {
    ExperimentConfig::quick(Application::Platformer, Platform::Desktop)
        .with_trace()
        .with_boundary_record()
}

fn assert_replay_identity(recorded: &ExperimentResult, replayed: &ExperimentResult) {
    assert_eq!(replayed.replay_error, None, "a valid trace replays without error");
    let trace = recorded.boundary_trace.as_ref().expect("recording enabled");
    let rerec = replayed.boundary_trace.as_ref().expect("re-recording enabled");
    if rerec.encode() != trace.encode() {
        panic!(
            "re-recorded trace diverged:\n{}",
            Boundary::divergence_report(trace, rerec, &replayed.stream_stats)
        );
    }
    assert_eq!(
        chrome_trace_json(&replayed.tracer),
        chrome_trace_json(&recorded.tracer),
        "replayed trace.json must be bit-identical"
    );
    assert_eq!(
        metrics_csv(&replayed.metrics),
        metrics_csv(&recorded.metrics),
        "replayed metrics.csv must be bit-identical"
    );
}

#[test]
fn recorded_run_replays_bit_identically_with_different_config_seed() {
    let recorded = IntegratedExperiment::run(&fig4_config());
    let trace = recorded.boundary_trace.clone().expect("recording enabled");
    assert!(trace.record_count() > 500, "2 s of IMU+camera: {}", trace.record_count());

    let mut cfg = fig4_config().with_trace_source(TraceSource::new(Arc::new(trace)));
    cfg.seed ^= 0xFACE_FEED;
    let replayed = IntegratedExperiment::run(&cfg);
    assert_replay_identity(&recorded, &replayed);
}

/// Satellite: a faulted *and supervised* recording replays identically
/// under a quiet plan — sensor faults are baked into the recorded
/// samples, and scheduled plugin crashes replay from the recorded
/// `crash/<plugin>` boundary stream, not from the fault RNG.
#[test]
fn faulted_supervised_recording_replays_under_a_quiet_plan() {
    let mut cfg = fig4_config()
        .with_fault_plan(FaultPlan::scheduled(42, 1.0, Duration::from_secs(2).as_nanos() as u64))
        .with_supervision();
    cfg.chain_deadline = Duration::from_millis(15);
    let recorded = IntegratedExperiment::run(&cfg);
    let trace = recorded.boundary_trace.clone().expect("recording enabled");
    assert!(
        trace.streams.iter().any(|(name, _)| name.starts_with("crash/")),
        "intensity-1.0 scheduled plan should crash at least one plugin"
    );

    // Quiet plan, different seed: everything must come from the trace.
    let mut replay_cfg =
        fig4_config().with_supervision().with_trace_source(TraceSource::new(Arc::new(trace)));
    replay_cfg.chain_deadline = Duration::from_millis(15);
    replay_cfg.seed ^= 0xDEAD;
    let replayed = IntegratedExperiment::run(&replay_cfg);
    assert_replay_identity(&recorded, &replayed);
    assert_eq!(
        recorded.supervisor.report(),
        replayed.supervisor.report(),
        "replayed crash/restart history must match the recording"
    );
}

/// Format stability: the committed fixture keeps decoding, and
/// replaying it re-records to the exact committed bytes.
#[test]
fn committed_fixture_replays_and_rerecords_byte_identically() {
    let bytes = fixture_bytes("trace_fixture.ilxt");
    let trace = Trace::decode(&bytes).expect("fixture decodes under the current schema");
    assert!(trace.record_count() > 0);

    let cfg = fig4_config().with_trace_source(TraceSource::new(Arc::new(trace)));
    let replayed = IntegratedExperiment::run(&cfg);
    assert_eq!(replayed.replay_error, None);
    let rerec = replayed.boundary_trace.expect("re-recording enabled");
    assert_eq!(
        rerec.encode(),
        bytes,
        "fixture replay must re-record to the committed bytes (format or boundary drift)"
    );
}

fn fixture_bytes(name: &str) -> Vec<u8> {
    std::fs::read(format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR")))
        .expect("fixture committed under tests/data/")
}

/// Replays the fixture with record `index` of `stream` edited by `edit`,
/// and returns that record's tag with the run's replay error.
fn replay_with_bad_record(
    stream: &str,
    index: usize,
    edit: impl FnOnce(&mut Vec<u8>),
) -> (u64, Option<ReplayError>) {
    let mut trace = Trace::decode(&fixture_bytes("trace_fixture.ilxt")).expect("fixture decodes");
    let (_, records) = trace.streams.iter_mut().find(|(name, _)| name == stream).expect("recorded");
    edit(&mut records[index].payload);
    let tag_ns = records[index].tag_ns;
    let cfg = fig4_config().with_trace_source(TraceSource::new(Arc::new(trace)));
    (tag_ns, IntegratedExperiment::run(&cfg).replay_error)
}

/// A record that does not decode never stops a replay: that crossing
/// generates its input live, and the run reports the first bad record.
#[test]
fn truncated_imu_record_replays_to_a_typed_error() {
    let (tag_ns, error) = replay_with_bad_record("imu", 100, |payload| payload.truncate(55));
    let cause = DecodeError::Truncated { offset: 48, needed: 8, remaining: 7 };
    let want = ReplayError { stream: "imu".into(), tag_ns, cause: ReplayCause::Corrupt(cause) };
    assert_eq!(error, Some(want));
}

#[test]
fn overlong_camera_record_replays_to_a_typed_error() {
    let (tag_ns, error) = replay_with_bad_record("camera", 10, |payload| payload.push(0));
    let cause = DecodeError::TrailingBytes { remaining: 1 };
    let want = ReplayError { stream: "camera".into(), tag_ns, cause: ReplayCause::Corrupt(cause) };
    assert_eq!(error, Some(want));
}

/// Corrupt or truncated fixtures are rejected, never misread.
#[test]
fn corrupt_fixture_bytes_are_rejected() {
    let bytes = fixture_bytes("trace_fixture.ilxt");
    assert!(matches!(Trace::decode(&bytes[..bytes.len() - 3]), Err(DecodeError::Truncated { .. })));
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(Trace::decode(&bad_magic), Err(DecodeError::BadMagic { .. })));
    let mut bad_version = bytes;
    bad_version[4] = 0xEE;
    assert!(matches!(Trace::decode(&bad_version), Err(DecodeError::UnsupportedVersion { .. })));
}

/// One mutant of `bytes`, every choice drawn from `draw`: a bit flip, a
/// byte overwrite, a truncation, an append, a splice onto a suffix of
/// `other`, or a u16/u32/u64 length field overwritten with 0, its
/// maximum or a random value.
fn mutate(bytes: &[u8], other: &[u8], draw: &mut impl FnMut() -> u64) -> Vec<u8> {
    let mut m = bytes.to_vec();
    let mut below = |n: usize| (draw() % n.max(1) as u64) as usize;
    match below(6) {
        0 => {
            let i = below(m.len());
            if let Some(byte) = m.get_mut(i) {
                *byte ^= 1 << below(8);
            }
        }
        1 => {
            let i = below(m.len());
            if let Some(byte) = m.get_mut(i) {
                *byte = below(256) as u8;
            }
        }
        2 => m.truncate(below(m.len())),
        3 => {
            let n = 1 + below(16);
            m.extend((0..n).map(|_| below(256) as u8));
        }
        4 => {
            m.truncate(below(m.len()));
            m.extend_from_slice(&other[below(other.len())..]);
        }
        _ => {
            let width = [2, 4, 8][below(3)];
            let value = match below(3) {
                0 => 0,
                1 => u64::MAX,
                _ => below(usize::MAX) as u64,
            };
            if width <= m.len() {
                let i = below(m.len() + 1 - width);
                m[i..i + width].copy_from_slice(&value.to_le_bytes()[..width]);
            }
        }
    }
    m
}

/// A boundary payload type's row decoder, at tag 2^40. Camera and IMU
/// payloads decode under a 1.25× dilation, which rescales their deltas,
/// so they have no canonical form; every other type decodes under the
/// identity and must re-encode to its own bytes.
fn wire_row<T: Wire, const DILATE: bool>(bytes: &[u8]) -> Result<Option<Vec<u8>>, DecodeError> {
    const TAG_NS: u64 = 1 << 40;
    if DILATE {
        let dilate = SessionTransform { offset_ns: 0, dilation: 1.25 };
        T::decode(bytes, TAG_NS, &dilate).map(|_| None)
    } else {
        T::decode(bytes, TAG_NS, &SessionTransform::IDENTITY).map(|t| Some(t.encode(TAG_NS)))
    }
}

/// The byte half of the no-panic surface: deterministic mutants of the
/// committed trace and checkpoint fixtures, the snapshot inside the
/// checkpoint and one payload of each of the six boundary [`Wire`]
/// types (camera and IMU from the trace, which records no link, bridge,
/// placement or crash stream; the others encoded here). Mutant counts
/// per row: `ILXT` 2 000, crash 1 000, every other row 10 000. No mutant
/// may panic a decoder, and a mutant of a canonical format (`ILXT`,
/// `ILXC`, the snapshot, and every payload but camera and IMU) that
/// decodes must re-encode to exactly its own bytes.
#[test]
fn mutated_fixture_bytes_never_panic_and_decode_canonically() {
    type Reencode = fn(&[u8]) -> Result<Option<Vec<u8>>, DecodeError>;
    let ilxt = fixture_bytes("trace_fixture.ilxt");
    let ilxc = fixture_bytes("checkpoint_fixture.ilxc");
    let trace = Trace::decode(&ilxt).expect("fixture decodes");
    let snapshot =
        Checkpoint::decode(&ilxc).expect("fixture decodes").entry("session").unwrap().to_vec();
    let payload = |stream: &str| trace.stream(stream).expect("recorded stream")[0].payload.clone();
    let transfer = Transfer { wait_ns: 1_250, arrival_delta_ns: 3_001_250 }.encode(0);
    let delivery = Delivery { due_ns: 16_683_333, duplicate: true }.encode(0);
    let inputs: [(&str, Vec<u8>, usize, Reencode); 9] = [
        ("ILXT", ilxt, 2_000, |b| Trace::decode(b).map(|t| Some(t.encode()))),
        ("ILXC", ilxc, 10_000, |b| Checkpoint::decode(b).map(|c| Some(c.encode()))),
        ("snapshot", snapshot, 10_000, |b| SessionSnapshot::decode(b).map(|s| Some(s.encode()))),
        ("camera", payload("camera"), 10_000, wire_row::<CameraRecord, true>),
        ("imu", payload("imu"), 10_000, wire_row::<ImuSample, true>),
        ("link transfer", transfer, 10_000, wire_row::<Transfer, false>),
        ("bridge delivery", delivery, 10_000, wire_row::<Delivery, false>),
        ("placement", Side::Device.encode(0), 10_000, wire_row::<Side, false>),
        ("crash", Vec::new(), 1_000, wire_row::<(), false>),
    ];
    let mut state = 0x1DEC_0DE5_u64;
    let mut draw = || {
        state = state.wrapping_add(1);
        splitmix64(state)
    };
    for (k, (name, bytes, count, reencode)) in inputs.iter().enumerate() {
        let other = &inputs[(k + 1) % inputs.len()].1;
        let (mut accepted, mut rejected) = (0, 0);
        for i in 0..*count {
            let m = mutate(bytes, other, &mut draw);
            let outcome = std::panic::catch_unwind(|| reencode(&m))
                .unwrap_or_else(|_| panic!("{name} mutant {i} panicked the decoder"));
            match outcome {
                Ok(Some(again)) => {
                    assert!(again == m, "{name} mutant {i} decoded but re-encoded differently");
                    accepted += 1;
                }
                Ok(None) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
        println!("{name}: {count} mutants, {accepted} decoded, {rejected} rejected");
        assert!(accepted > 0 && rejected > 0, "{name}: the mutants must exercise both outcomes");
    }
}

/// Fanning one recording out to 64 synthetic sessions is deterministic
/// across reruns — same trace, same transform seed, same report bytes.
#[test]
fn fan_out_to_64_sessions_is_deterministic_across_reruns() {
    let duration = Duration::from_secs(1);
    let recorded =
        ServerBuilder::new().sessions(1).duration(duration).record_boundary(true).build().run();
    let trace = Arc::new(recorded.boundary_trace.expect("recording enabled"));

    let run = || {
        ServerBuilder::new()
            .sessions(64)
            .duration(duration)
            .tune(|cfg| {
                cfg.admission.degrade_threshold = 10.0;
                cfg.admission.reject_threshold = 10.0;
            })
            .replay(ReplayLoad::fan_out(trace.clone(), 7, Duration::from_millis(40), 0.05))
            .build()
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.summary_text(), b.summary_text(), "64-session fan-out reruns diverged");
    let displayed: u64 = a.sessions().map(|s| s.mtp().displayed).sum();
    assert!(displayed > 64, "fan-out sessions should display frames: {displayed}");
}

/// Record→replay bit identity for one `(seed, intensity)` point: a
/// faulted supervised 1 s recording replayed under a quiet plan and a
/// different config seed.
fn check_identity_at(seed: u64, intensity: f64) {
    let base = || {
        let mut cfg = ExperimentConfig::quick(Application::Platformer, Platform::Desktop)
            .with_trace()
            .with_boundary_record()
            .with_supervision();
        cfg.duration = Duration::from_secs(1);
        cfg.seed = seed;
        cfg
    };
    let recorded = IntegratedExperiment::run(&base().with_fault_plan(FaultPlan::scheduled(
        seed,
        intensity,
        Duration::from_secs(1).as_nanos() as u64,
    )));
    let trace = recorded.boundary_trace.clone().expect("recording enabled");
    let mut replay_cfg = base().with_trace_source(TraceSource::new(Arc::new(trace)));
    replay_cfg.seed = seed.wrapping_add(999);
    let replayed = IntegratedExperiment::run(&replay_cfg);
    assert_replay_identity(&recorded, &replayed);
}

/// Four `(seed, intensity)` points drawn from `splitmix64`: seeds below
/// 1 000, intensities in `[0, 1.5)`.
#[test]
fn record_replay_identity_across_seeds_and_intensities() {
    for case in 0..4u64 {
        let draw = splitmix64(0x1D_E171_7700 + case);
        let intensity = 1.5 * unit_f64(splitmix64(draw));
        check_identity_at(draw % 1_000, intensity);
    }
}
