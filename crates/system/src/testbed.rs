//! Live-mode execution: the full plugin graph on real threads and the
//! wall clock — how the testbed runs when you actually want to *use* it
//! rather than model a platform.

use std::sync::Arc;
use std::time::Duration;

use illixr_audio::plugins::{AudioEncodingPlugin, AudioPlaybackPlugin};
use illixr_core::clock::WallClock;
use illixr_core::plugin::{Plugin, PluginContext, RuntimeBuilder};
use illixr_core::supervisor::SupervisionPolicy;
use illixr_core::threadloop::{RuntimeHandles, ThreadloopBuilder};
use illixr_core::Time;
use illixr_render::apps::Application;
use illixr_render::plugin::ApplicationPlugin;
use illixr_sensors::camera::{PinholeCamera, StereoRig};
use illixr_sensors::imu::ImuNoise;
use illixr_sensors::plugins::{SyntheticCameraPlugin, SyntheticImuPlugin};
use illixr_sensors::trajectory::Trajectory;
use illixr_sensors::world::LandmarkWorld;
use illixr_vio::integrator::ImuState;
use illixr_vio::msckf::VioConfig;
use illixr_vio::plugins::{ImuIntegratorPlugin, VioPlugin};
use illixr_visual::distortion::DistortionParams;
use illixr_visual::plugins::TimewarpPlugin;
use illixr_visual::reprojection::ReprojectionConfig;

use crate::config::SystemConfig;

/// A running live testbed.
pub struct LiveTestbed {
    ctx: PluginContext,
    handles: RuntimeHandles,
    plugins: usize,
}

impl std::fmt::Debug for LiveTestbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LiveTestbed({} plugins)", self.plugins)
    }
}

impl LiveTestbed {
    /// Starts the full integrated configuration (§III-B: Table II
    /// components minus scene reconstruction / eye tracking / hologram)
    /// for `app` at the Table III rates.
    ///
    /// Rates can be derated by `rate_scale` (< 1 slows every component
    /// proportionally — handy for running on weak CI machines).
    pub fn start(app: Application, config: SystemConfig, seed: u64, rate_scale: f64) -> Self {
        assert!(rate_scale > 0.0 && rate_scale <= 1.0, "rate scale must be in (0, 1]");
        let ctx = RuntimeBuilder::new(Arc::new(WallClock::new()))
            .with_supervision(SupervisionPolicy::default())
            .build();
        let trajectory = Trajectory::walking(seed);
        let world = Arc::new(LandmarkWorld::lab(seed));
        let cam = PinholeCamera::qvga();
        let rig = StereoRig::zed_mini(cam);
        let init = ImuState::from_pose(
            Time::ZERO,
            trajectory.pose(Time::ZERO),
            trajectory.velocity(Time::ZERO),
        );

        let scaled = |d: Duration| Duration::from_secs_f64(d.as_secs_f64() / rate_scale);
        let mut builder = ThreadloopBuilder::new();
        let mut plugins = 0usize;
        let mut spawn = |plugin: Box<dyn Plugin>, period: Duration| {
            plugins += 1;
            builder = std::mem::take(&mut builder).task(plugin, period);
        };
        spawn(
            Box::new(SyntheticCameraPlugin::new(trajectory.clone(), world, rig)),
            scaled(config.camera_period()),
        );
        spawn(
            Box::new(SyntheticImuPlugin::new(
                trajectory.clone(),
                ImuNoise::default(),
                config.imu_hz * rate_scale,
                seed,
            )),
            scaled(config.imu_period()),
        );
        spawn(Box::new(VioPlugin::new(VioConfig::fast(cam), init)), scaled(config.camera_period()));
        spawn(Box::new(ImuIntegratorPlugin::new(init)), scaled(config.imu_period()));
        spawn(
            Box::new(ApplicationPlugin::new(app, seed, config.eye_width, config.eye_height)),
            scaled(config.display_period()),
        );
        spawn(
            Box::new(TimewarpPlugin::new(
                ReprojectionConfig::rotational(
                    config.fov_rad(),
                    config.eye_width as f64 / config.eye_height as f64,
                ),
                DistortionParams::default(),
            )),
            scaled(config.display_period()),
        );
        spawn(
            Box::new(AudioEncodingPlugin::with_default_scene(seed)),
            scaled(config.audio_period()),
        );
        spawn(Box::new(AudioPlaybackPlugin::new()), scaled(config.audio_period()));

        let handles = builder.spawn(&ctx);
        Self { ctx, handles, plugins }
    }

    /// The runtime context (switchboard, telemetry) for observers.
    pub fn context(&self) -> &PluginContext {
        &self.ctx
    }

    /// Lets the system run for `duration` of wall time.
    pub fn run_for(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    /// Stops all plugins.
    pub fn shutdown(self) {
        self.handles.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_sensors::types::{streams, PoseEstimate};
    use illixr_visual::plugins::{WarpedFrame, DISPLAY_STREAM};

    /// A smoke test of the live path: heavy components at derated rates.
    #[test]
    fn live_testbed_produces_display_frames() {
        let testbed = LiveTestbed::start(
            Application::ArDemo,
            SystemConfig { eye_width: 48, eye_height: 48, ..Default::default() },
            7,
            0.25,
        );
        let frames = testbed
            .context()
            .switchboard
            .topic::<WarpedFrame>(DISPLAY_STREAM)
            .expect("stream")
            .sync_reader(1024);
        let poses = testbed
            .context()
            .switchboard
            .topic::<PoseEstimate>(streams::FAST_POSE)
            .expect("stream")
            .async_reader();
        testbed.run_for(Duration::from_millis(1200));
        let n = frames.drain().len();
        let have_pose = poses.latest().is_some();
        let telemetry = testbed.context().telemetry.clone();
        testbed.shutdown();
        assert!(n > 3, "only {n} display frames in 1.2 s");
        assert!(have_pose, "no fast pose was ever published");
        for name in crate::experiment::COMPONENTS {
            assert!(telemetry.stats(name).is_some(), "component '{name}' logged nothing");
        }
    }
}
