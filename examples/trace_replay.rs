//! Trace-driven component study (§V-G): record a full-system run's
//! physical inputs at the determinism boundary, then replay them to
//! drive VIO in isolation.
//!
//! This is the "rosbag" workflow the paper proposes for using ILLIXR
//! with architectural simulators: the component under study sees exactly
//! the traffic a full-system run produced — same frames, same IMU
//! samples, same timing — without running the rest of the system. It is
//! the same mechanism the golden tests pin: the camera and IMU plugins
//! cross the boundary through `RuntimeBuilder::with_recorder` /
//! `with_trace`, and a re-recorded replay is byte-identical to its
//! input.
//!
//! ```bash
//! cargo run --release --example trace_replay
//! ```

use std::sync::Arc;

use illixr_testbed::core::boundary::{Trace, TraceRecorder, TraceSource};
use illixr_testbed::core::plugin::{Plugin, PluginContext, RuntimeBuilder};
use illixr_testbed::core::{SimClock, Time};
use illixr_testbed::sensors::camera::{PinholeCamera, StereoRig};
use illixr_testbed::sensors::imu::ImuNoise;
use illixr_testbed::sensors::plugins::{SyntheticCameraPlugin, SyntheticImuPlugin};
use illixr_testbed::sensors::trajectory::Trajectory;
use illixr_testbed::sensors::types::{streams, PoseEstimate};
use illixr_testbed::sensors::world::LandmarkWorld;
use illixr_testbed::vio::integrator::ImuState;
use illixr_testbed::vio::msckf::VioConfig;
use illixr_testbed::vio::plugins::{ImuIntegratorPlugin, VioPlugin};

const IMU_HZ: u64 = 500;
/// One camera frame every 33 IMU samples (≈15 Hz).
const CAMERA_EVERY: u64 = 33;
const IMU_TICKS: u64 = 3 * IMU_HZ;

/// Drives camera + IMU + VIO (+ the integrator standing in for the
/// rest of the system when `full_system`) on `ctx`'s boundary for three
/// simulated seconds; returns VIO's poses. The sensors generate from
/// `seed` unless the boundary replays them.
fn run(ctx: &PluginContext, clock: &SimClock, seed: u64, full_system: bool) -> Vec<PoseEstimate> {
    let trajectory = Trajectory::walking(seed);
    let rig = StereoRig::zed_mini(PinholeCamera::qvga());
    let init = ImuState::from_pose(
        Time::ZERO,
        trajectory.pose(Time::ZERO),
        trajectory.velocity(Time::ZERO),
    );
    let mut camera =
        SyntheticCameraPlugin::new(trajectory.clone(), Arc::new(LandmarkWorld::lab(seed)), rig);
    let mut imu = SyntheticImuPlugin::new(trajectory, ImuNoise::default(), IMU_HZ as f64, seed);
    let mut vio = VioPlugin::new(VioConfig::fast(rig.camera), init);
    let mut rest = full_system.then(|| ImuIntegratorPlugin::new(init));
    camera.start(ctx);
    imu.start(ctx);
    vio.start(ctx);
    if let Some(p) = &mut rest {
        p.start(ctx);
    }
    let poses = ctx
        .switchboard
        .topic::<PoseEstimate>(streams::SLOW_POSE)
        .expect("stream")
        .sync_reader(1 << 10);
    for k in 0..IMU_TICKS {
        clock.advance_to(Time::from_nanos(k * 1_000_000_000 / IMU_HZ));
        imu.iterate(ctx);
        if k % CAMERA_EVERY == 0 {
            camera.iterate(ctx);
            vio.iterate(ctx);
        }
        if let Some(p) = &mut rest {
            p.iterate(ctx);
        }
    }
    poses.drain().iter().map(|e| e.data).collect()
}

fn main() {
    let seed = 33;

    // --- Phase 1: full(ish) system run with a recorder attached ---------
    println!("Phase 1: run the system and record its physical inputs");
    let recorder = TraceRecorder::new(seed, 0);
    let clock_a = SimClock::new();
    let ctx_a =
        RuntimeBuilder::new(Arc::new(clock_a.clone())).with_recorder(recorder.clone()).build();
    let reference = run(&ctx_a, &clock_a, seed, true);
    // The trace is a self-describing binary artifact (ILXT): what would
    // be handed to the simulator, rosbag-style.
    let bytes = recorder.snapshot().encode();
    let trace = Arc::new(Trace::decode(&bytes).expect("a recorder's snapshot decodes"));
    println!(
        "  recorded {} camera frames + {} IMU samples ({} bytes)",
        trace.stream(streams::CAMERA).map_or(0, <[_]>::len),
        trace.stream(streams::IMU).map_or(0, <[_]>::len),
        bytes.len(),
    );

    // --- Phase 2: replay the trace into an isolated VIO -----------------
    println!("\nPhase 2: replay the trace to drive a fresh VIO in isolation");
    let rerecorder = TraceRecorder::new(seed, 0);
    let clock_b = SimClock::new();
    let ctx_b = RuntimeBuilder::new(Arc::new(clock_b.clone()))
        .with_trace(TraceSource::new(trace.clone()))
        .with_recorder(rerecorder.clone())
        .build();
    // Under replay the sensor plugins are only the boundary's decoders:
    // the camera publishes each recorded pose as a view of the world of
    // the trace header's seed (VIO renders it when it reads the frame),
    // the IMU model is never sampled, and the trajectory only supplies
    // VIO's initial state.
    let replayed = run(&ctx_b, &clock_b, trace.header.seed, false);

    // --- Compare ----------------------------------------------------------
    println!(
        "  reference run produced {} poses, trace-driven run {}",
        reference.len(),
        replayed.len()
    );
    assert_eq!(reference.len(), replayed.len());
    let max_diff = reference
        .iter()
        .zip(&replayed)
        .map(|(a, b)| a.pose.translation_distance(&b.pose))
        .fold(0.0f64, f64::max);
    println!("  max pose difference between runs: {:.3e} m", max_diff);
    assert!(max_diff < 1e-12, "trace-driven run must be bit-identical");
    assert_eq!(rerecorder.snapshot().encode(), bytes, "re-recorded replay must equal its input");
    println!("  re-recorded trace is byte-identical to the recording");
    println!("\nOK: the component under study saw exactly the recorded traffic —");
    println!("identical outputs, no rest-of-system required (the §V-G workflow).");
}
