//! Micro loops: the small public operations the engine, the codecs and
//! the observability layer are built from, each run a fixed number of
//! times in five batches; the median batch gives the per-call figure.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use illixr_api::{MockConfig, MockDiscovery, Registry, SessionInit, SessionMode};
use illixr_core::fault::FaultPlan;
use illixr_core::obs::{chrome_trace_json, tracer_for, Metrics};
use illixr_core::sched::{
    JobQueue, PlacementConfig, PlacementController, PolicyKind, PriorityClass, ReadyJob, Side,
};
use illixr_core::sim::{ExecOutcome, Resource, SimEngine, TaskSpec};
use illixr_core::{RecordLogger, SimClock, SlabPool, Switchboard, Time};
use illixr_platform::spec::Platform;
use illixr_qoe::mtp::MtpCalculator;
use illixr_sched::spsc_ring;
use illixr_sensors::types::ImuSample;
use illixr_sensors::wire::{decode_camera, decode_imu, encode_camera, encode_imu, CameraRecord};
use illixr_server::{AdmissionConfig, AdmissionController, SessionSnapshot};
use illixr_system::experiment::timing_model;
use illixr_trace::{Checkpoint, SessionTransform, Trace, TraceRecorder, TraceSource};

use crate::stats::median;
use crate::workloads::live_snapshot;

const BATCHES: usize = 5;

/// One discarded warm-up batch, then the median of [`BATCHES`] batches.
fn median_batch(mut batch: impl FnMut() -> f64) -> f64 {
    batch();
    let timed: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&timed)
}

/// Nanoseconds per call of `f`, in batches of `iters` calls each.
fn per_call_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    median_batch(|| {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    })
}

/// Megabytes per second of `f` moving `bytes` per call.
fn mb_per_s(bytes: usize, iters: u64, f: impl FnMut(u64)) -> f64 {
    bytes as f64 / per_call_ns(iters, f) * 1e3
}

/// A boundary trace shaped like a recorded session: one camera stream,
/// one IMU stream, two link streams, `records` records in all.
fn synthetic_trace(seed: u64, records: u64) -> Trace {
    let recorder = TraceRecorder::new(seed, 0x005e_5510);
    for i in 0..records {
        let tag = i * 2_000_000;
        let (stream, len) = match i % 8 {
            0 => ("s0/camera", 72),
            1 => ("s0/link/uplink", 16),
            2 => ("s0/link/downlink", 16),
            _ => ("s0/imu", 56),
        };
        recorder.record(stream, tag, vec![(i % 251) as u8; len]);
    }
    recorder.snapshot()
}

/// Runs every micro loop; returns `(metric, value)` in registry order.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    // --- core ---------------------------------------------------------
    let sb = Switchboard::new();
    let topic = sb.topic::<u64>("perf").expect("fresh stream");
    let (writer, reader, latest) = (topic.writer(), topic.sync_reader(8), topic.async_reader());
    out.push((
        "core.switchboard.put_recv_ns",
        per_call_ns(200_000, |i| {
            writer.put(i);
            black_box(reader.try_recv());
        }),
    ));
    out.push((
        "core.switchboard.async_latest_ns",
        per_call_ns(200_000, |i| {
            writer.put(i);
            black_box(latest.latest());
            black_box(reader.try_recv());
        }),
    ));
    let pool: SlabPool<Vec<u64>> = SlabPool::new(4);
    out.push((
        "core.slab.take_return_ns",
        per_call_ns(200_000, |i| {
            let mut frame = pool.take();
            frame.make_mut().push(i);
            black_box(&frame);
        }),
    ));
    out.push(("core.sim.dispatch_ns", sim_dispatch_ns()));

    // --- sched, platform, qoe --------------------------------------------
    let (mut tx, mut rx) = spsc_ring::<u64>(256);
    out.push((
        "sched.ring.push_pop_ns",
        per_call_ns(500_000, |i| {
            tx.push(i).expect("ring drained every call");
            black_box(rx.pop());
        }),
    ));
    let queue = JobQueue::new(PolicyKind::Edf.build());
    out.push((
        "sched.queue.push_pop_ns",
        per_call_ns(200_000, |i| {
            queue.push(ReadyJob {
                task: (i % 8) as usize,
                seq: i,
                release_ns: i * 1000,
                deadline_ns: i * 1000 + 8_000_000,
                priority: 1,
                class: PriorityClass::Perception,
            });
            black_box(queue.try_pop());
        }),
    ));
    let mut placement = PlacementController::new(Side::Edge, PlacementConfig::default());
    let epoch = PlacementConfig::default().epoch_ns;
    out.push((
        "sched.place.epoch_ns",
        per_call_ns(100_000, |i| {
            for k in 0..4 {
                placement.observe((i + k) % 7 == 0);
            }
            placement.observe_link(i % 11 != 0);
            black_box(placement.on_epoch((i + 1) * epoch));
        }),
    ));
    let timing = timing_model(Platform::Desktop);
    out.push((
        "platform.cost_ns",
        per_call_ns(500_000, |i| {
            black_box(timing.cost("vio", i, 1.0 + (i % 5) as f64 * 0.1));
        }),
    ));
    let mtp = MtpCalculator::new(Duration::from_nanos(8_333_333));
    out.push((
        "qoe.mtp_sample_ns",
        per_call_ns(500_000, |i| {
            let start = Time::from_nanos(i * 8_333_333 + 5_000_000);
            black_box(mtp.sample(
                Time::from_nanos(i * 8_333_333),
                start,
                start + Duration::from_millis(1),
            ));
        }),
    ));

    // --- trace ------------------------------------------------------------
    let trace = synthetic_trace(seed, 20_000);
    let bytes = trace.encode();
    out.push(("trace.encode_mb_s", mb_per_s(bytes.len(), 20, |_| drop(black_box(trace.encode())))));
    out.push((
        "trace.decode_mb_s",
        mb_per_s(bytes.len(), 20, |_| {
            black_box(Trace::decode(&bytes).expect("fresh encode decodes"));
        }),
    ));
    let recorder = TraceRecorder::new(seed, 1).scoped("s0/");
    out.push((
        "trace.record_ns",
        per_call_ns(100_000, |i| recorder.record("imu", i * 2_000_000, vec![0u8; 56])),
    ));
    let source = TraceSource::new(Arc::new(trace)).scoped("s0/");
    let mut fresh = source.clone();
    out.push((
        "trace.next_due_ns",
        per_call_ns(10_000, |i| {
            // 12 500 IMU records: a batch of 10 000 pops never runs dry.
            if i == 0 {
                fresh = TraceSource::new(source.trace().clone()).scoped("s0/");
            }
            black_box(fresh.next_due("imu", u64::MAX));
        }),
    ));
    let snapshot = live_snapshot(seed);
    let snapshot_bytes = snapshot.encode();
    let mut checkpoint = Checkpoint::new(seed, 1, 100_000_000);
    for i in 0..8 {
        checkpoint.entries.push((format!("s{i}/session"), snapshot_bytes.clone()));
    }
    let checkpoint_bytes = checkpoint.encode();
    out.push((
        "trace.checkpoint_encode_ns",
        per_call_ns(5_000, |_| drop(black_box(checkpoint.encode()))),
    ));
    out.push((
        "trace.checkpoint_decode_ns",
        per_call_ns(5_000, |_| {
            black_box(Checkpoint::decode(&checkpoint_bytes).expect("fresh encode decodes"));
        }),
    ));

    // --- server snapshot, sensors wire, fault -----------------------------
    out.push((
        "server.snapshot.encode_ns",
        per_call_ns(5_000, |_| drop(black_box(snapshot.encode()))),
    ));
    out.push((
        "server.snapshot.decode_ns",
        per_call_ns(5_000, |_| {
            black_box(SessionSnapshot::decode(&snapshot_bytes).expect("fresh encode decodes"));
        }),
    ));
    out.push(("server.snapshot.bytes", snapshot_bytes.len() as f64));
    let camera = CameraRecord {
        timestamp: Time::from_millis(66),
        seq: 1,
        work_factor: 1.0,
        pose: illixr_math::Pose::IDENTITY,
    };
    out.push((
        "sensors.wire.camera_roundtrip_ns",
        per_call_ns(200_000, |i| {
            let tag = Time::from_nanos(66_000_000 + i);
            let payload = encode_camera(&camera, tag);
            black_box(decode_camera(&payload, tag.as_nanos(), &SessionTransform::IDENTITY));
        }),
    ));
    let imu = ImuSample {
        timestamp: Time::from_millis(2),
        gyro: illixr_math::Vec3::new(0.1, 0.2, 0.3),
        accel: illixr_math::Vec3::new(0.0, 9.8, 0.1),
    };
    out.push((
        "sensors.wire.imu_roundtrip_ns",
        per_call_ns(200_000, |i| {
            let tag = Time::from_nanos(2_000_000 + i);
            let payload = encode_imu(&imu, tag);
            black_box(decode_imu(&payload, tag.as_nanos(), &SessionTransform::IDENTITY));
        }),
    ));
    let plan = FaultPlan::scheduled(seed, 0.5, 3_000_000_000);
    out.push((
        "fault.query_ns",
        per_call_ns(200_000, |i| {
            let now = i * 15_000;
            black_box(plan.sensor("camera").drop_frame(now, i));
            black_box(plan.sensor("imu").imu_gap(now, i));
            black_box(plan.link("uplink").outage_until(now));
        }),
    ));

    // --- obs ---------------------------------------------------------------
    let clock = Arc::new(SimClock::new());
    let tracer = tracer_for(clock.clone());
    out.push((
        "obs.span_ns",
        per_call_ns(50_000, |i| tracer.record_span("perf/track", "span", i * 1000, i * 1000 + 500)),
    ));
    let metrics = Metrics::new();
    out.push((
        "obs.hist_record_ns",
        per_call_ns(200_000, |i| metrics.record_ns("perf.latency", 1_000 + i * 37 % 9_000_000)),
    ));
    let export_len = chrome_trace_json(&tracer).len();
    out.push((
        "obs.export_mb_s",
        mb_per_s(export_len, 3, |_| drop(black_box(chrome_trace_json(&tracer)))),
    ));

    // --- api, admission ------------------------------------------------------
    let mut registry = Registry::new();
    registry.register(Box::new(MockDiscovery::with_config(MockConfig {
        frames: u64::MAX,
        ..MockConfig::new(seed)
    })));
    let init = SessionInit::new();
    let mut session = registry
        .request_session(SessionMode::ImmersiveVr, &init)
        .expect("the mock backend accepts every mode");
    let frames = session.frames();
    out.push((
        "api.mock_frame_ns",
        per_call_ns(20_000, |_| {
            black_box(session.pump());
            black_box(frames.try_recv());
        }),
    ));
    out.push((
        "api.request_session_us",
        per_call_ns(2_000, |_| {
            let mut s = registry
                .request_session(SessionMode::ImmersiveVr, &init)
                .expect("the mock backend accepts every mode");
            s.end();
        }) / 1e3,
    ));
    let mut admission = AdmissionController::new(AdmissionConfig::default());
    out.push((
        "server.admission.decide_ns",
        per_call_ns(100_000, |i| {
            black_box(admission.admit(
                Time::from_nanos(i),
                (i % 1000) as u32,
                (i % 100) as f64 * 0.01,
                0.0075,
            ));
        }),
    ));
    out
}

/// Host time per `SimEngine` dispatch: eight no-op periodic tasks over
/// one simulated second, 12 000 dispatches per batch.
fn sim_dispatch_ns() -> f64 {
    median_batch(|| {
        let mut engine = SimEngine::new(4, 1, Arc::new(RecordLogger::new()));
        for i in 0..8u64 {
            let period = Duration::from_micros(500 + 100 * i);
            engine.add_task(
                TaskSpec {
                    name: format!("noop{i}"),
                    resource: if i % 4 == 0 { Resource::Gpu } else { Resource::Cpu },
                    period,
                    offset: Duration::ZERO,
                    deadline: period,
                    drop_if_busy: true,
                    priority: (i % 3) as u8,
                    preemptive: false,
                    preempt_latency: Duration::ZERO,
                    class: PriorityClass::BestEffort,
                },
                Box::new(|_| ExecOutcome {
                    cost: Duration::from_micros(20),
                    work_factor: 1.0,
                    did_work: true,
                }),
            );
        }
        let dispatches: f64 = (0..8u64).map(|i| 1e6 / (500.0 + 100.0 * i as f64)).sum();
        let t = Instant::now();
        engine.run_for(Duration::from_secs(1));
        t.elapsed().as_nanos() as f64 / dispatches
    })
}
