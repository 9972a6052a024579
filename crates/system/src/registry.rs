//! The standard plugin registry and the standard pipeline: every stock
//! component implementation, constructible by name, and the one table
//! that says which of them run, where, how often and how urgently.
//!
//! The paper's artifact selects plugin implementations per run from YAML
//! configs (`ILLIXR/configs/${app}.yaml`); this module is the ILLIXR-rs
//! equivalent. `standard_registry` is a name → constructor table
//! covering each Table II component and its alternatives, built over a
//! `RegistryEnvironment` — the one place trajectory, world, rig and
//! initial state are derived from `(app, seed, SystemConfig)`.
//! `STANDARD_PIPELINE` lists the integrated configuration's rows in
//! start order; live mode ([`crate::testbed`]) and simulated mode
//! ([`crate::experiment`]) are two executors looping over it.
//!
//! Naming convention: `component/variant`, e.g. `"vio/msckf-fast"`,
//! `"integrator/rk4"`, `"timewarp/translational"`.

use std::sync::Arc;
use std::time::Duration;

use illixr_audio::plugins::{AudioEncodingPlugin, AudioPlaybackPlugin};
use illixr_core::plugin::PluginRegistry;
use illixr_core::sched::PriorityClass;
use illixr_core::sim::Resource;
use illixr_core::Time;
use illixr_eyetrack::plugin::EyeTrackingPlugin;
use illixr_reconstruction::plugin::SceneReconstructionPlugin;
use illixr_render::apps::Application;
use illixr_render::plugin::ApplicationPlugin;
use illixr_sensors::camera::{PinholeCamera, StereoRig};
use illixr_sensors::dataset::SyntheticDataset;
use illixr_sensors::imu::ImuNoise;
use illixr_sensors::plugins::{OfflineImuCameraPlugin, SyntheticCameraPlugin, SyntheticImuPlugin};
use illixr_sensors::trajectory::Trajectory;
use illixr_sensors::world::LandmarkWorld;
use illixr_vio::integrator::{ImuState, Scheme};
use illixr_vio::msckf::VioConfig;
use illixr_vio::plugins::{GroundTruthPosePlugin, ImuIntegratorPlugin, VioPlugin};
use illixr_visual::distortion::DistortionParams;
use illixr_visual::hologram::HologramConfig;
use illixr_visual::plugins::{HologramPlugin, TimewarpPlugin};
use illixr_visual::reprojection::ReprojectionConfig;

use crate::config::SystemConfig;

/// Shared inputs the stock constructors need (trajectory, world, rig,
/// initial state, …).
#[derive(Debug, Clone)]
pub(crate) struct RegistryEnvironment {
    /// Head trajectory driving the synthetic sensors.
    pub trajectory: Trajectory,
    /// The observed world.
    pub world: Arc<LandmarkWorld>,
    /// Stereo camera rig.
    pub rig: StereoRig,
    /// System parameters (rates, resolutions).
    pub system: SystemConfig,
    /// Workload application.
    pub app: Application,
    /// RNG seed.
    pub seed: u64,
}

impl RegistryEnvironment {
    /// The environment of one run.
    pub(crate) fn new(app: Application, seed: u64, system: SystemConfig) -> Self {
        Self {
            trajectory: Trajectory::walking(seed),
            world: Arc::new(LandmarkWorld::lab(seed)),
            rig: StereoRig::zed_mini(PinholeCamera::qvga()),
            system,
            app,
            seed,
        }
    }

    fn initial_state(&self) -> ImuState {
        ImuState::from_pose(
            Time::ZERO,
            self.trajectory.pose(Time::ZERO),
            self.trajectory.velocity(Time::ZERO),
        )
    }
}

/// How a row's release offset and relative deadline follow from its
/// period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeadlineRule {
    /// Release at the row's offset; due one period after release.
    Period,
    /// "As late as possible before vsync" (§II-B): release a reserve
    /// ahead of the period's end, due at the end.
    LatestBeforeVsync,
}

/// One row of the standard pipeline's schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PipelineRow {
    /// Name the plugin is built under in [`standard_registry`].
    pub plugin: &'static str,
    /// Resource pool the task occupies.
    pub resource: Resource,
    /// The Table III period the task is released at.
    pub period: fn(&SystemConfig) -> Duration,
    /// Release offset within the period (under [`DeadlineRule::Period`]).
    pub offset: Duration,
    /// How offset and deadline are derived.
    pub deadline: DeadlineRule,
    /// Static priority (higher runs first; ≥ 10 preempts).
    pub priority: u8,
    /// Semantic class (the degradation governor's shedding unit).
    pub class: PriorityClass,
    /// Runs only in the extended configuration
    /// ([`crate::ExperimentConfig::extended`]).
    pub extended: bool,
}

impl PipelineRow {
    /// `(release offset, relative deadline)` for a task of `period`.
    /// `reserve` is the time a [`DeadlineRule::LatestBeforeVsync`] row
    /// sets aside before the period's end — the executor knows what its
    /// platform needs.
    pub(crate) fn schedule(&self, period: Duration, reserve: Duration) -> (Duration, Duration) {
        match self.deadline {
            DeadlineRule::Period => (self.offset, period),
            DeadlineRule::LatestBeforeVsync => (period.saturating_sub(reserve), reserve),
        }
    }
}

const fn row(
    plugin: &'static str,
    resource: Resource,
    period: fn(&SystemConfig) -> Duration,
    offset_us: u64,
    priority: u8,
    class: PriorityClass,
) -> PipelineRow {
    PipelineRow {
        plugin,
        resource,
        period,
        offset: Duration::from_micros(offset_us),
        deadline: DeadlineRule::Period,
        priority,
        class,
        extended: false,
    }
}

/// The integrated configuration of Fig 1/2 (§III-B), in start order —
/// which is also task-id, topic-creation and RNG-draw order, so rows
/// may be edited but not reordered without moving every golden.
///
/// VIO releases just after the camera so the frame is available, the
/// integrator just after the IMU, playback after encoding. The
/// compositor runs at high GPU priority, like every real XR runtime (it
/// must never starve behind the application). The extended rows — eye
/// tracking at the display rate, scene reconstruction at the camera
/// rate — both contend for the GPU with the application and compositor.
pub(crate) const STANDARD_PIPELINE: [PipelineRow; 10] = {
    use PriorityClass::{Audio, BestEffort, Critical, Perception, Visual};
    use Resource::{Cpu, Gpu};
    [
        row("camera/synthetic", Cpu, SystemConfig::camera_period, 0, 0, Perception),
        row("imu/synthetic", Cpu, SystemConfig::imu_period, 0, 2, Critical),
        row("vio/msckf-fast", Cpu, SystemConfig::camera_period, 100, 0, Perception),
        row("integrator/rk4", Cpu, SystemConfig::imu_period, 50, 2, Critical),
        row("application/scene", Gpu, SystemConfig::display_period, 0, 0, Visual),
        PipelineRow {
            deadline: DeadlineRule::LatestBeforeVsync,
            ..row("timewarp/rotational", Gpu, SystemConfig::display_period, 0, 10, Critical)
        },
        row("audio/encoding", Cpu, SystemConfig::audio_period, 0, 1, Audio),
        row("audio/playback", Cpu, SystemConfig::audio_period, 200, 1, Audio),
        PipelineRow {
            extended: true,
            ..row("eye_tracking/ritnet-like", Gpu, SystemConfig::display_period, 400, 1, BestEffort)
        },
        PipelineRow {
            extended: true,
            ..row(
                "scene_reconstruction/surfel",
                Gpu,
                SystemConfig::camera_period,
                500,
                0,
                BestEffort,
            )
        },
    ]
};

/// Builds the registry of every stock plugin implementation.
///
/// Registered names:
///
/// | component | variants |
/// |---|---|
/// | camera | `camera/synthetic`, `camera_imu/offline` |
/// | imu | `imu/synthetic` |
/// | vio | `vio/msckf-fast`, `vio/msckf-accurate`, `vio/frame-to-frame` |
/// | integrator | `integrator/rk4`, `integrator/midpoint` |
/// | pose | `pose/ground-truth` |
/// | application | `application/scene` |
/// | timewarp | `timewarp/rotational`, `timewarp/translational` |
/// | hologram | `hologram/weighted-gs` |
/// | audio | `audio/encoding`, `audio/playback` |
/// | extras | `eye_tracking/ritnet-like`, `scene_reconstruction/surfel` |
pub(crate) fn standard_registry(env: &RegistryEnvironment) -> PluginRegistry {
    let mut reg = PluginRegistry::new();

    let e = env.clone();
    reg.register("camera/synthetic", move |_| {
        Box::new(SyntheticCameraPlugin::new(e.trajectory.clone(), e.world.clone(), e.rig))
    });
    let e = env.clone();
    reg.register("camera_imu/offline", move |_| {
        let ds = Arc::new(SyntheticDataset::vicon_room_like(e.seed, 10.0));
        Box::new(OfflineImuCameraPlugin::new(ds, e.rig))
    });
    let e = env.clone();
    reg.register("imu/synthetic", move |_| {
        Box::new(SyntheticImuPlugin::new(
            e.trajectory.clone(),
            ImuNoise::default(),
            e.system.imu_hz,
            e.seed,
        ))
    });
    let e = env.clone();
    reg.register("vio/msckf-fast", move |_| {
        Box::new(VioPlugin::new(VioConfig::fast(e.rig.camera), e.initial_state()))
    });
    let e = env.clone();
    reg.register("vio/msckf-accurate", move |_| {
        Box::new(VioPlugin::new(VioConfig::accurate(e.rig.camera), e.initial_state()))
    });
    let e = env.clone();
    reg.register("vio/frame-to-frame", move |_| {
        Box::new(illixr_vio::plugins::AlternativeVioPlugin::new(
            illixr_vio::alternative::FrameToFrameConfig::default(),
            e.rig,
            e.initial_state(),
        ))
    });
    let e = env.clone();
    reg.register("integrator/rk4", move |_| {
        Box::new(ImuIntegratorPlugin::new(e.initial_state()).with_scheme(Scheme::Rk4))
    });
    let e = env.clone();
    reg.register("integrator/midpoint", move |_| {
        Box::new(ImuIntegratorPlugin::new(e.initial_state()).with_scheme(Scheme::Midpoint))
    });
    let e = env.clone();
    reg.register("pose/ground-truth", move |_| {
        Box::new(GroundTruthPosePlugin::new(e.trajectory.clone()))
    });
    let e = env.clone();
    reg.register("application/scene", move |_| {
        Box::new(ApplicationPlugin::new(e.app, e.seed, e.system.eye_width, e.system.eye_height))
    });
    let e = env.clone();
    reg.register("timewarp/rotational", move |_| {
        Box::new(TimewarpPlugin::new(
            ReprojectionConfig::rotational(
                e.system.fov_rad(),
                e.system.eye_width as f64 / e.system.eye_height as f64,
            ),
            DistortionParams::default(),
        ))
    });
    let e = env.clone();
    reg.register("timewarp/translational", move |_| {
        Box::new(TimewarpPlugin::new(
            ReprojectionConfig::translational(
                e.system.fov_rad(),
                e.system.eye_width as f64 / e.system.eye_height as f64,
                2.0,
            ),
            DistortionParams::default(),
        ))
    });
    reg.register("hologram/weighted-gs", |_| {
        Box::new(HologramPlugin::new(HologramConfig::default()))
    });
    let e = env.clone();
    reg.register("audio/encoding", move |_| {
        Box::new(AudioEncodingPlugin::with_default_scene(e.seed))
    });
    reg.register("audio/playback", |_| Box::new(AudioPlaybackPlugin::new()));
    reg.register("eye_tracking/ritnet-like", |_| Box::new(EyeTrackingPlugin::new()));
    let e = env.clone();
    reg.register("scene_reconstruction/surfel", move |_| {
        Box::new(SceneReconstructionPlugin::new(e.world.clone(), e.rig, e.trajectory.clone()))
    });
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_core::plugin::RuntimeBuilder;
    use illixr_core::SimClock;
    use illixr_sensors::types::{streams, PoseEstimate};

    #[test]
    fn every_registered_plugin_builds_and_starts() {
        let env = RegistryEnvironment::new(Application::ArDemo, 3, SystemConfig::default());
        let reg = standard_registry(&env);
        let names = reg.names();
        assert!(names.len() >= 16, "registry has {} entries", names.len());
        let ctx = RuntimeBuilder::new(Arc::new(SimClock::new())).build();
        for name in names {
            let mut plugin = reg.build(&name, &ctx).expect("registered name builds");
            plugin.start(&ctx);
            assert!(!plugin.name().is_empty());
        }
    }

    #[test]
    fn every_pipeline_row_names_a_registered_plugin() {
        let env = RegistryEnvironment::new(Application::ArDemo, 3, SystemConfig::default());
        let names = standard_registry(&env).names();
        for row in STANDARD_PIPELINE {
            assert!(names.iter().any(|n| n == row.plugin), "unregistered row '{}'", row.plugin);
        }
    }

    #[test]
    fn pipeline_assembled_from_names_produces_poses() {
        let env = RegistryEnvironment::new(Application::Platformer, 5, SystemConfig::default());
        let reg = standard_registry(&env);
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let mut pipeline: Vec<_> =
            ["camera/synthetic", "imu/synthetic", "vio/msckf-fast", "integrator/rk4"]
                .iter()
                .map(|n| reg.build(n, &ctx).expect("stock plugin"))
                .collect();
        for p in &mut pipeline {
            p.start(&ctx);
        }
        let fast = ctx
            .switchboard
            .topic::<PoseEstimate>(streams::FAST_POSE)
            .expect("stream")
            .async_reader();
        for k in 1..20u64 {
            clock.advance_to(Time::from_millis(k * 67));
            for p in &mut pipeline {
                p.iterate(&ctx);
            }
        }
        assert!(fast.latest().is_some(), "names-only pipeline produced no poses");
    }

    #[test]
    fn unknown_name_returns_none() {
        let env = RegistryEnvironment::new(Application::Sponza, 1, SystemConfig::default());
        let reg = standard_registry(&env);
        let ctx = RuntimeBuilder::new(Arc::new(SimClock::new())).build();
        assert!(reg.build("vio/does-not-exist", &ctx).is_none());
    }
}
