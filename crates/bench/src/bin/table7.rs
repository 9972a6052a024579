//! Table VII: task breakdowns of the visual-pipeline components
//! (reprojection, hologram) and the audio pipeline (encoding, playback),
//! measured from the instrumented standalone components.

use std::sync::Arc;

use illixr_audio::plugins::{AudioEncodingPlugin, AudioPlaybackPlugin};
use illixr_bench::print_task_shares;
use illixr_core::obs::Metrics;
use illixr_core::plugin::{Plugin, RuntimeBuilder};
use illixr_core::{SimClock, Time};
use illixr_image::RgbImage;
use illixr_render::plugin::{RenderedFrame, EYEBUFFER_STREAM};
use illixr_sensors::types::PoseEstimate;
use illixr_visual::distortion::DistortionParams;
use illixr_visual::hologram::{compute_hologram, HologramConfig};
use illixr_visual::plugins::TimewarpPlugin;
use illixr_visual::reprojection::ReprojectionConfig;

/// Task-name column width.
const NAME_WIDTH: usize = 28;

fn main() {
    println!("Table VII: task breakdown of visual and audio pipeline components");

    // --- Reprojection ------------------------------------------------------
    // Drive the timewarp plugin on 2K-aspect frames (scaled down).
    let clock = SimClock::new();
    let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
    let mut tw =
        TimewarpPlugin::new(ReprojectionConfig::rotational(1.57, 1.0), DistortionParams::default());
    tw.start(&ctx);
    let img = Arc::new(RgbImage::from_fn(256, 256, |x, y| {
        [(x % 37) as f32 / 37.0, (y % 23) as f32 / 23.0, ((x ^ y) % 11) as f32 / 11.0]
    }));
    ctx.switchboard.topic::<RenderedFrame>(EYEBUFFER_STREAM).expect("stream").writer().put(
        RenderedFrame {
            render_pose: PoseEstimate::identity(),
            submit_time: Time::ZERO,
            left: img.clone(),
            right: img,
        },
    );
    for k in 0..20u64 {
        clock.advance_to(Time::from_millis(8 * (k + 1)));
        tw.iterate(&ctx);
    }
    print_task_shares(
        "Reprojection (VR Museum-like 2K-aspect frames)",
        NAME_WIDTH,
        &[("reprojection", 22.0), ("distortion+chromatic", 0.0)],
        &tw.task_metrics(),
        "paper's other 78% is GPU-driver work (FBO 24%, OpenGL state 54%) that a \
         CPU reimplementation has no analogue for; the uarch model charges it in fig8",
    );

    // --- Hologram ------------------------------------------------------------
    let holo_timer = Metrics::new();
    let cfg = HologramConfig::default();
    let t0 = illixr_image::GrayImage::from_fn(cfg.width, cfg.height, |x, y| {
        if (x / 8 + y / 8) % 2 == 0 {
            1.0
        } else {
            0.0
        }
    });
    let t1 = illixr_image::GrayImage::from_fn(cfg.width, cfg.height, |x, _| {
        (x as f32 / cfg.width as f32 * 6.0).sin().max(0.0)
    });
    for _ in 0..3 {
        compute_hologram(&[t0.clone(), t1.clone()], &cfg, Some(&holo_timer));
    }
    print_task_shares(
        "Hologram (weighted Gerchberg-Saxton, 2 depth planes)",
        NAME_WIDTH,
        &[("hologram-to-depth", 57.0), ("sum", 0.0), ("depth-to-hologram", 43.0)],
        &holo_timer,
        "",
    );

    // --- Audio encoding --------------------------------------------------------
    let ctx2 = RuntimeBuilder::new(Arc::new(SimClock::new())).build();
    let mut enc = AudioEncodingPlugin::with_default_scene(42);
    enc.start(&ctx2);
    for _ in 0..50 {
        enc.iterate(&ctx2);
    }
    print_task_shares(
        "Audio encoding (2 sources, 48 kHz, 1024-sample blocks)",
        NAME_WIDTH,
        &[("normalization", 7.0), ("encoding", 81.0), ("summation", 12.0)],
        &enc.task_metrics(),
        "",
    );

    // --- Audio playback ---------------------------------------------------------
    let mut play = AudioPlaybackPlugin::new();
    play.start(&ctx2);
    for _ in 0..50 {
        enc.iterate(&ctx2);
        play.iterate(&ctx2);
    }
    print_task_shares(
        "Audio playback (8 virtual speakers, HRTF binauralization)",
        NAME_WIDTH,
        &[
            ("psychoacoustic filter", 29.0),
            ("rotation", 6.0),
            ("zoom", 5.0),
            ("binauralization", 60.0),
        ],
        &play.task_metrics(),
        "",
    );
}
