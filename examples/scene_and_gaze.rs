//! The "futuristic" standalone components: dense scene reconstruction
//! and eye tracking.
//!
//! The paper measures these standalone because no OpenXR interface
//! existed for applications to consume them (§III-B). This example runs
//! both for a few seconds of synthetic sensing and reports what they
//! produced: a surfel map of the room with its pose-tracking accuracy,
//! and a gaze-estimation error sweep.
//!
//! ```bash
//! cargo run --release --example scene_and_gaze
//! ```

use std::sync::Arc;

use illixr_testbed::core::plugin::{Plugin, RuntimeBuilder};
use illixr_testbed::core::{SimClock, Time};
use illixr_testbed::eyetrack::eye::EyeParams;
use illixr_testbed::eyetrack::gaze::gaze_error;
use illixr_testbed::eyetrack::net::SegmentationNet;
use illixr_testbed::math::Vec3;
use illixr_testbed::reconstruction::plugin::{
    SceneReconstructionPlugin, SceneUpdate, SCENE_STREAM,
};
use illixr_testbed::sensors::camera::{PinholeCamera, StereoRig};
use illixr_testbed::sensors::trajectory::Trajectory;
use illixr_testbed::sensors::world::LandmarkWorld;

fn main() {
    // --- Scene reconstruction -------------------------------------------
    println!("Scene reconstruction (ElasticFusion-like surfel pipeline)\n");
    let clock = SimClock::new();
    let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
    let cam = PinholeCamera { fx: 95.0, fy: 95.0, cx: 48.0, cy: 36.0, width: 96, height: 72 };
    let world = Arc::new(LandmarkWorld::new(80, Vec3::new(4.0, 2.5, 4.0), 21));
    let trajectory = Trajectory::gentle(21);
    let mut scene =
        SceneReconstructionPlugin::new(world, StereoRig::zed_mini(cam), trajectory.clone());
    scene.start(&ctx);
    let updates =
        ctx.switchboard.topic::<SceneUpdate>(SCENE_STREAM).expect("stream").sync_reader(128);
    let frames = 30; // 3 s at 10 Hz
    for k in 0..frames {
        clock.advance_to(Time::from_millis(k * 100));
        scene.iterate(&ctx);
    }
    let all = updates.drain();
    let last = all.last().expect("scene updates were published");
    let truth = trajectory.pose(Time::from_millis((frames - 1) * 100));
    println!("fused {} depth frames into {} surfels", all.len(), last.map_size);
    println!(
        "ICP-only pose drift after {:.1} s: {:.1} cm",
        frames as f64 * 0.1,
        last.pose.translation_distance(&truth) * 100.0
    );
    let refinements = all.iter().filter(|u| u.refined).count();
    println!("global refinement passes (loop-closure stand-ins): {refinements}");
    println!("task shares:");
    for (task, share) in scene.task_metrics().shares() {
        println!("  {task:<22} {:.1}%", share * 100.0);
    }

    // --- Eye tracking ----------------------------------------------------
    println!("\nEye tracking (RITnet-like segmentation CNN)\n");
    let net = SegmentationNet::new();
    println!("{:>10} {:>10} {:>14}", "gaze x", "gaze y", "error (deg)");
    let mut worst: f64 = 0.0;
    for (gx, gy) in [(0.0, 0.0), (0.3, 0.0), (-0.3, 0.1), (0.2, -0.2), (-0.15, 0.15)] {
        let err = gaze_error(&net, &EyeParams { gaze_x: gx, gaze_y: gy, ..Default::default() });
        worst = worst.max(err);
        println!("{:>9.2}° {:>9.2}° {:>13.2}°", gx.to_degrees(), gy.to_degrees(), err.to_degrees());
    }
    println!(
        "\nworst gaze error {:.2}° across the sweep (one CNN pass per eye, batch 2 —",
        worst.to_degrees()
    );
    println!("the paper's low-GPU-utilization observation for eye tracking).");
}
