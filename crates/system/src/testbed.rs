//! Live-mode execution: each row of `STANDARD_PIPELINE` on its own
//! thread and the wall clock — how the testbed runs when you actually
//! want to *use* it rather than model a platform.

use std::sync::Arc;
use std::time::Duration;

use illixr_core::clock::WallClock;
use illixr_core::plugin::{PluginContext, RuntimeBuilder};
use illixr_core::threadloop::{RuntimeHandles, ThreadloopBuilder};
use illixr_render::apps::Application;

use crate::config::SystemConfig;
use crate::registry::{standard_registry, RegistryEnvironment, STANDARD_PIPELINE};

/// A running live testbed.
pub struct LiveTestbed {
    ctx: PluginContext,
    handles: RuntimeHandles,
}

impl std::fmt::Debug for LiveTestbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LiveTestbed({:?})", self.handles)
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
        let ctx = RuntimeBuilder::new(Arc::new(WallClock::new())).with_supervision().build();
        // Derating the Table III rates derates every row's period and
        // the IMU model's sample rate with it.
        let system = SystemConfig {
            camera_hz: config.camera_hz * rate_scale,
            imu_hz: config.imu_hz * rate_scale,
            display_hz: config.display_hz * rate_scale,
            audio_hz: config.audio_hz * rate_scale,
            ..config
        };
        let registry = standard_registry(&RegistryEnvironment::new(app, seed, system));
        let mut builder = ThreadloopBuilder::new();
        for row in STANDARD_PIPELINE.iter().filter(|row| !row.extended) {
            let plugin =
                registry.build(row.plugin, &ctx).expect("pipeline rows name stock plugins");
            let period = (row.period)(&system);
            // Threads have no release offsets: a row due "before vsync"
            // has the whole period.
            let (_, deadline) = row.schedule(period, period);
            builder = builder.task(plugin, period).deadline(deadline);
        }
        let handles = builder.spawn(&ctx);
        Self { ctx, handles }
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
