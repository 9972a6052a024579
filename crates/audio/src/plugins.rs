//! The `audio_encoding` and `audio_playback` plugins (48 kHz,
//! 1024-sample blocks — paper Table III).

use std::sync::Arc;

use illixr_core::obs::Metrics;
use illixr_core::plugin::{IterationReport, Plugin, PluginContext};
use illixr_core::switchboard::{AsyncReader, SyncReader, Writer};
use illixr_sensors::types::{streams, PoseEstimate};

use crate::ambisonics::{encode_block, normalize_block, Soundfield};
use crate::binaural::{default_ring_bank, psychoacoustic_filter, BinauralDecoder, StereoBlock};
use crate::rotation::{rotate_yaw, zoom_forward};
use crate::sources::SoundSource;

/// Stream carrying encoded soundfield blocks.
pub(crate) const SOUNDFIELD_STREAM: &str = "soundfield";
/// Stream carrying binauralized stereo blocks.
pub(crate) const BINAURAL_STREAM: &str = "binaural";

/// Default block size (samples) and rate, Table III.
pub(crate) const BLOCK_SIZE: usize = 1024;
/// Default sample rate, Hz.
pub(crate) const SAMPLE_RATE: f64 = 48_000.0;

/// The `audio_encoding` plugin: encodes all sources into one soundfield
/// block per invocation.
pub struct AudioEncodingPlugin {
    sources: Vec<SoundSource>,
    block_size: usize,
    writer: Option<Writer<Arc<Soundfield>>>,
    timer: Metrics,
}

impl AudioEncodingPlugin {
    /// Creates the plugin with a default two-source scene (a lecturer
    /// ahead-left and an orbiting radio — the paper's two Freesound
    /// clips).
    pub fn with_default_scene(seed: u64) -> Self {
        Self::new(vec![
            SoundSource::lecture(SAMPLE_RATE, 0.5, seed),
            SoundSource::radio(SAMPLE_RATE, -1.0, seed + 1).with_orbit(0.3),
        ])
    }

    /// Creates the plugin from explicit sources.
    pub(crate) fn new(sources: Vec<SoundSource>) -> Self {
        Self { sources, block_size: BLOCK_SIZE, writer: None, timer: Metrics::new() }
    }

    /// Task-level timing (Table VII instrumentation).
    pub fn task_metrics(&self) -> Metrics {
        self.timer.clone()
    }
}

impl Plugin for AudioEncodingPlugin {
    fn name(&self) -> &str {
        "audio_encoding"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.writer = Some(
            ctx.switchboard.topic::<Arc<Soundfield>>(SOUNDFIELD_STREAM).expect("stream").writer(),
        );
    }

    fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
        let mut sum = Soundfield::silent(self.block_size);
        for src in &mut self.sources {
            // Source synthesis stands in for reading the clip from disk
            // and is not part of the Table VII task accounting.
            let raw = src.next_block(self.block_size);
            let as_i16: Vec<i16> =
                raw.iter().map(|&v| (v.clamp(-1.0, 1.0) * 32767.0) as i16).collect();
            // Normalization: INT16 to FP32 (Table VII).
            let mono = {
                let _g = self.timer.host_scope("normalization");
                normalize_block(&as_i16)
            };
            // Encoding: sample → soundfield mapping.
            let field = {
                let _g = self.timer.host_scope("encoding");
                encode_block(&mono, src.current_azimuth(), 0.0)
            };
            // Summation: HOA soundfield superposition.
            {
                let _g = self.timer.host_scope("summation");
                sum.add_assign(&field);
            }
        }
        self.writer.as_ref().expect("start() must run before iterate()").put(Arc::new(sum));
        IterationReport::with_work(self.sources.len() as f64 / 2.0)
    }
}

/// The `audio_playback` plugin: rotates the soundfield by the listener's
/// head yaw, applies the psychoacoustic filter and binauralizes.
pub struct AudioPlaybackPlugin {
    decoder: BinauralDecoder,
    field_reader: Option<SyncReader<Arc<Soundfield>>>,
    pose_reader: Option<AsyncReader<PoseEstimate>>,
    writer: Option<Writer<Arc<StereoBlock>>>,
    timer: Metrics,
    zoom: f64,
}

impl AudioPlaybackPlugin {
    /// Creates the plugin with the default 8-speaker ring.
    pub fn new() -> Self {
        Self {
            decoder: BinauralDecoder::new(&default_ring_bank(SAMPLE_RATE), BLOCK_SIZE),
            field_reader: None,
            pose_reader: None,
            writer: None,
            timer: Metrics::new(),
            zoom: 0.15,
        }
    }

    /// Task-level timing (Table VII instrumentation).
    pub fn task_metrics(&self) -> Metrics {
        self.timer.clone()
    }
}

impl Default for AudioPlaybackPlugin {
    fn default() -> Self {
        Self::new()
    }
}

impl Plugin for AudioPlaybackPlugin {
    fn name(&self) -> &str {
        "audio_playback"
    }

    fn start(&mut self, ctx: &PluginContext) {
        self.field_reader = Some(
            ctx.switchboard
                .topic::<Arc<Soundfield>>(SOUNDFIELD_STREAM)
                .expect("stream")
                .sync_reader(8),
        );
        self.pose_reader = Some(
            ctx.switchboard
                .topic::<PoseEstimate>(streams::FAST_POSE)
                .expect("stream")
                .async_reader(),
        );
        self.writer = Some(
            ctx.switchboard.topic::<Arc<StereoBlock>>(BINAURAL_STREAM).expect("stream").writer(),
        );
    }

    fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
        let Some(event) = self.field_reader.as_ref().expect("started").try_recv() else {
            return IterationReport::skipped();
        };
        let field: &Soundfield = &event.data;
        // Head yaw from the freshest pose (asynchronous dependence).
        let yaw = self
            .pose_reader
            .as_ref()
            .expect("started")
            .latest()
            .map(|p| {
                // Extract yaw from the orientation: rotate body +X
                // (listener forward in audio convention) into the world
                // and take its horizontal angle.
                let fwd = p.pose.orientation.rotate(illixr_math::Vec3::UNIT_X);
                fwd.y.atan2(fwd.x)
            })
            .unwrap_or(0.0);
        let rotated = {
            let _g = self.timer.host_scope("rotation");
            rotate_yaw(field, yaw)
        };
        let zoomed = {
            let _g = self.timer.host_scope("zoom");
            zoom_forward(&rotated, self.zoom)
        };
        let filtered = {
            let _g = self.timer.host_scope("psychoacoustic filter");
            psychoacoustic_filter(&zoomed, SAMPLE_RATE)
        };
        let stereo = {
            let _g = self.timer.host_scope("binauralization");
            self.decoder.process(&filtered)
        };
        self.writer.as_ref().expect("start() must run before iterate()").put(Arc::new(stereo));
        IterationReport::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_core::plugin::RuntimeBuilder;
    use illixr_core::SimClock;
    use illixr_math::{Pose, Quat, Vec3};

    #[test]
    fn encoding_publishes_blocks_with_table_vii_tasks() {
        let ctx = RuntimeBuilder::new(Arc::new(SimClock::new())).build();
        let reader = ctx
            .switchboard
            .topic::<Arc<Soundfield>>(SOUNDFIELD_STREAM)
            .expect("stream")
            .sync_reader(4);
        let mut enc = AudioEncodingPlugin::with_default_scene(1);
        enc.start(&ctx);
        enc.iterate(&ctx);
        let block = reader.try_recv().expect("block published");
        assert_eq!(block.len(), BLOCK_SIZE);
        assert!(block.energy() > 0.0);
        let names: Vec<String> = enc.task_metrics().shares().into_iter().map(|(n, _)| n).collect();
        for expected in ["normalization", "encoding", "summation"] {
            assert!(names.iter().any(|n| n == expected), "missing '{expected}'");
        }
    }

    #[test]
    fn playback_consumes_every_block() {
        let ctx = RuntimeBuilder::new(Arc::new(SimClock::new())).build();
        let out = ctx
            .switchboard
            .topic::<Arc<StereoBlock>>(BINAURAL_STREAM)
            .expect("stream")
            .sync_reader(8);
        let mut enc = AudioEncodingPlugin::with_default_scene(2);
        let mut play = AudioPlaybackPlugin::new();
        enc.start(&ctx);
        play.start(&ctx);
        for _ in 0..3 {
            enc.iterate(&ctx);
            assert!(play.iterate(&ctx).did_work);
        }
        assert!(!play.iterate(&ctx).did_work); // queue drained
        assert_eq!(out.drain().len(), 3);
        let names: Vec<String> = play.task_metrics().shares().into_iter().map(|(n, _)| n).collect();
        for expected in ["rotation", "zoom", "psychoacoustic filter", "binauralization"] {
            assert!(names.iter().any(|n| n == expected), "missing '{expected}'");
        }
    }

    #[test]
    fn head_rotation_changes_binaural_output() {
        let run = |yaw: f64| -> StereoBlock {
            let ctx = RuntimeBuilder::new(Arc::new(SimClock::new())).build();
            let out = ctx
                .switchboard
                .topic::<Arc<StereoBlock>>(BINAURAL_STREAM)
                .expect("stream")
                .sync_reader(8);
            ctx.switchboard
                .topic::<PoseEstimate>(streams::FAST_POSE)
                .expect("stream")
                .writer()
                .put(PoseEstimate {
                    timestamp: illixr_core::Time::ZERO,
                    pose: Pose::new(Vec3::ZERO, Quat::from_axis_angle(Vec3::UNIT_Z, yaw)),
                    velocity: Vec3::ZERO,
                });
            let mut enc = AudioEncodingPlugin::new(vec![SoundSource::lecture(SAMPLE_RATE, 1.2, 1)]);
            let mut play = AudioPlaybackPlugin::new();
            enc.start(&ctx);
            play.start(&ctx);
            let mut last = StereoBlock::default();
            for _ in 0..3 {
                enc.iterate(&ctx);
                play.iterate(&ctx);
                last = (*out.drain().pop().unwrap().data).clone();
            }
            last
        };
        let straight = run(0.0);
        let turned = run(1.2); // facing the source
        let rms = |x: &[f64]| (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt();
        let imbalance_straight = (rms(&straight.left) - rms(&straight.right)).abs();
        let imbalance_turned = (rms(&turned.left) - rms(&turned.right)).abs();
        // Facing the source centers it: interaural imbalance shrinks.
        assert!(
            imbalance_turned < imbalance_straight,
            "turned {imbalance_turned} vs straight {imbalance_straight}"
        );
    }
}
