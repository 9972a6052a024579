//! The `scene_reconstruction` plugin.
//!
//! The paper runs scene reconstruction standalone (OpenXR had no scene
//! interface for applications, §III-B); the plugin renders synthetic
//! depth from the landmark world along a trajectory and publishes map
//! updates on the `scene` stream.

use std::sync::Arc;

use illixr_core::obs::Metrics;
use illixr_core::plugin::{IterationReport, Plugin, PluginContext};
use illixr_core::switchboard::Writer;
use illixr_math::Pose;
use illixr_sensors::camera::StereoRig;
use illixr_sensors::trajectory::Trajectory;
use illixr_sensors::world::LandmarkWorld;

use crate::pipeline::{SceneOutput, ScenePipeline};

/// Stream name for scene updates.
pub const SCENE_STREAM: &str = "scene";

/// A published map update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneUpdate {
    /// Estimated camera pose for the fused frame.
    pub pose: Pose,
    /// Map size after fusion.
    pub map_size: usize,
    /// Whether a global refinement ran.
    pub refined: bool,
}

/// The plugin.
pub struct SceneReconstructionPlugin {
    world: Arc<LandmarkWorld>,
    rig: StereoRig,
    trajectory: Trajectory,
    pipeline: ScenePipeline,
    writer: Option<Writer<SceneUpdate>>,
    timer: Metrics,
    baseline_map: usize,
}

impl SceneReconstructionPlugin {
    /// Creates the plugin with an ElasticFusion-like surfel pipeline.
    pub fn new(world: Arc<LandmarkWorld>, rig: StereoRig, trajectory: Trajectory) -> Self {
        let initial = trajectory.pose(illixr_core::Time::ZERO);
        Self {
            pipeline: ScenePipeline::elastic_fusion_like(rig.camera, initial),
            world,
            rig,
            trajectory,
            writer: None,
            timer: Metrics::new(),
            baseline_map: 0,
        }
    }

    /// Task-level timing (Table VI instrumentation).
    pub fn task_metrics(&self) -> Metrics {
        self.timer.clone()
    }
}

impl Plugin for SceneReconstructionPlugin {
    fn name(&self) -> &str {
        "scene_reconstruction"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.writer =
            Some(ctx.switchboard.topic::<SceneUpdate>(SCENE_STREAM).expect("stream").writer());
    }

    fn iterate(&mut self, ctx: &PluginContext) -> IterationReport {
        let t = ctx.clock.now();
        let truth = self.trajectory.pose(t);
        let depth = self.world.render_depth(&self.rig, &truth);
        let out: SceneOutput = self.pipeline.process(&depth, Some(&self.timer));
        self.writer.as_ref().expect("start() must run before iterate()").put(SceneUpdate {
            pose: out.pose,
            map_size: out.map_size,
            refined: out.refined,
        });
        // Work grows with map size (the paper's steady runtime increase);
        // refinement frames spike an order of magnitude.
        if self.baseline_map == 0 {
            self.baseline_map = out.map_size.max(1);
        }
        let growth = out.map_size as f64 / self.baseline_map as f64;
        let work = if out.refined { growth * 8.0 } else { growth };
        IterationReport::with_work(work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_core::plugin::RuntimeBuilder;
    use illixr_core::{SimClock, Time};
    use illixr_math::Vec3;
    use illixr_sensors::camera::PinholeCamera;

    #[test]
    fn plugin_publishes_scene_updates_with_growing_map() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let reader =
            ctx.switchboard.topic::<SceneUpdate>(SCENE_STREAM).expect("stream").sync_reader(64);
        let cam = PinholeCamera { fx: 60.0, fy: 60.0, cx: 32.0, cy: 24.0, width: 64, height: 48 };
        let world = Arc::new(LandmarkWorld::new(60, Vec3::new(4.0, 2.5, 4.0), 2));
        let mut plugin =
            SceneReconstructionPlugin::new(world, StereoRig::zed_mini(cam), Trajectory::gentle(2));
        plugin.start(&ctx);
        for k in 0..6 {
            clock.advance_to(Time::from_millis(k * 120));
            let report = plugin.iterate(&ctx);
            assert!(report.did_work);
        }
        let updates = reader.drain();
        assert_eq!(updates.len(), 6);
        assert!(updates.last().unwrap().map_size >= updates.first().unwrap().map_size);
    }

    #[test]
    fn refinement_spikes_work_factor() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let cam = PinholeCamera { fx: 60.0, fy: 60.0, cx: 32.0, cy: 24.0, width: 64, height: 48 };
        let world = Arc::new(LandmarkWorld::new(60, Vec3::new(4.0, 2.5, 4.0), 5));
        let mut plugin =
            SceneReconstructionPlugin::new(world, StereoRig::zed_mini(cam), Trajectory::gentle(5));
        plugin.pipeline.set_refine_interval(3);
        plugin.start(&ctx);
        let mut works = Vec::new();
        for k in 0..6 {
            clock.advance_to(Time::from_millis(k * 120));
            works.push(plugin.iterate(&ctx).work_factor);
        }
        // Frames 3 and 6 (indices 2, 5) refined → big spikes.
        assert!(works[2] > 4.0 * works[1], "expected spike, works={works:?}");
    }
}
