//! The typed session handle: builds a frame from each pose of a
//! [`PoseTimeline`] and fans frames, input events and hit-test results
//! out over lossless switchboard topics.

use std::sync::Arc;

use illixr_core::switchboard::{Event, Switchboard, SyncReader, Writer};

use crate::device::PoseTimeline;
use crate::error::SessionError;
use crate::types::{
    floor_hit, fmt_quat, fmt_vec, scripted_input, views_for, EnvironmentBlendMode, Feature, Frame,
    HitTestEvent, InputEvent, InputEventKind, Ray, SessionMode,
};

/// Topic names a session publishes on its private switchboard.
pub mod streams {
    /// Per-vsync [`crate::Frame`]s.
    pub(crate) const FRAME: &str = "xr/frame";
    /// Edge-triggered [`crate::InputEvent`]s.
    pub(crate) const INPUT: &str = "xr/input";
    /// Per-frame [`crate::HitTestEvent`]s (only while subscriptions are
    /// active).
    pub(crate) const HIT_TEST: &str = "xr/hit_test";
}

/// An open XR session: the application-facing half of a negotiated
/// device.
///
/// The session owns its own [`Switchboard`]; each call to
/// [`Session::pump`] pulls one pose from the backend, builds the frame
/// (per-mode views, input scripted from the backend's seed), derives
/// input edges from consecutive input snapshots, answers active hit-test
/// subscriptions against the floor plane `y = 0`, and publishes
/// everything on the [`streams`] topics.
/// All readers are lossless ([`illixr_core::switchboard::Topic::lossless_reader`])
/// — XR event streams must not drop a `select-end` to backpressure.
///
/// Every published payload is also appended to a textual
/// [`Session::transcript`], the bit-identity artifact golden tests
/// compare across same-seed reruns.
pub struct Session {
    mode: SessionMode,
    granted: Vec<Feature>,
    backend: &'static str,
    device: Box<dyn PoseTimeline>,
    seed: u64,
    switchboard: Switchboard,
    frame_writer: Writer<Frame>,
    input_writer: Writer<InputEvent>,
    hit_writer: Writer<HitTestEvent>,
    hit_sources: Vec<(u32, Ray)>,
    next_hit_source: u32,
    last_inputs: Vec<(u32, bool, bool)>,
    frames: u64,
    ended: bool,
    transcript: String,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("mode", &self.mode)
            .field("backend", &self.backend)
            .field("granted", &self.granted)
            .field("frames", &self.frames)
            .field("ended", &self.ended)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Wraps `device`, opened by the `backend` discovery for a
    /// negotiated session; its scripted input follows `seed`. Called by
    /// [`crate::Registry::request_session`].
    pub(crate) fn new(
        mode: SessionMode,
        granted: Vec<Feature>,
        backend: &'static str,
        device: Box<dyn PoseTimeline>,
        seed: u64,
    ) -> Self {
        let switchboard = Switchboard::new();
        let frame_writer =
            switchboard.topic::<Frame>(streams::FRAME).expect("fresh switchboard").writer();
        let input_writer =
            switchboard.topic::<InputEvent>(streams::INPUT).expect("fresh switchboard").writer();
        let hit_writer = switchboard
            .topic::<HitTestEvent>(streams::HIT_TEST)
            .expect("fresh switchboard")
            .writer();
        Self {
            mode,
            granted,
            backend,
            device,
            seed,
            switchboard,
            frame_writer,
            input_writer,
            hit_writer,
            hit_sources: Vec::new(),
            next_hit_source: 0,
            last_inputs: Vec::new(),
            frames: 0,
            ended: false,
            transcript: String::new(),
        }
    }

    /// The mode this session was opened with.
    pub fn mode(&self) -> SessionMode {
        self.mode
    }

    /// Features granted by negotiation, in `Feature::ALL` order.
    pub fn granted_features(&self) -> &[Feature] {
        &self.granted
    }

    /// The backend serving this session.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// How rendered output blends with the environment.
    pub fn blend_mode(&self) -> EnvironmentBlendMode {
        self.mode.blend_mode()
    }

    /// Whether the session has ended (backend exhausted or
    /// [`Session::end`] called).
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// Frames delivered so far.
    pub fn frame_count(&self) -> u64 {
        self.frames
    }

    /// A lossless reader over delivered [`Frame`]s.
    pub fn frames(&self) -> SyncReader<Frame> {
        self.reader(streams::FRAME)
    }

    /// A lossless reader over [`InputEvent`]s.
    pub fn input_events(&self) -> SyncReader<InputEvent> {
        self.reader(streams::INPUT)
    }

    /// A lossless reader over [`HitTestEvent`]s.
    pub fn hit_test_events(&self) -> SyncReader<HitTestEvent> {
        self.reader(streams::HIT_TEST)
    }

    fn reader<T: Send + Sync + 'static>(&self, name: &str) -> SyncReader<T> {
        self.switchboard.topic::<T>(name).expect("session topic types are fixed").lossless_reader()
    }

    /// Subscribes a hit-test ray; every subsequent frame answers it
    /// with a [`HitTestEvent`]. Returns the subscription id.
    ///
    /// # Errors
    ///
    /// [`SessionError::FeatureUnavailable`] when `hit-test` was not
    /// granted at negotiation.
    pub fn request_hit_test(&mut self, ray: Ray) -> Result<u32, SessionError> {
        if !self.granted.contains(&Feature::HitTest) {
            return Err(SessionError::FeatureUnavailable(Feature::HitTest));
        }
        let id = self.next_hit_source;
        self.next_hit_source += 1;
        self.hit_sources.push((id, ray));
        Ok(id)
    }

    /// Advances the frame loop by one frame.
    ///
    /// Builds the next frame from the device's next pose, publishes it
    /// on `streams::FRAME`, derives and publishes input edges, answers
    /// hit-test subscriptions, and returns the frame. Returns `None` —
    /// after ending the session — once the backend's timeline is
    /// exhausted.
    pub fn pump(&mut self) -> Option<Frame> {
        if self.ended {
            return None;
        }
        let Some((time, viewer)) = self.device.next_pose() else {
            self.end();
            return None;
        };
        let hands = self.granted.contains(&Feature::HandTracking);
        let frame = Frame {
            index: self.frames,
            time,
            viewer,
            views: views_for(self.mode, &viewer),
            inputs: scripted_input(self.seed, self.frames, &viewer, hands),
        };
        self.transcript.push_str(&format!(
            "F{} t={} p={} q={} views={}",
            frame.index,
            frame.time.as_nanos(),
            fmt_vec(&frame.viewer.position),
            fmt_quat(&frame.viewer.orientation),
            frame.views.len(),
        ));
        for input in &frame.inputs {
            self.transcript.push_str(&format!(
                " s{}:{}{}",
                input.source,
                u8::from(input.select_pressed),
                u8::from(input.squeeze_pressed),
            ));
        }
        self.transcript.push('\n');
        // Edge-detect input transitions against the previous frame.
        for input in &frame.inputs {
            let prev = self
                .last_inputs
                .iter()
                .find(|(source, _, _)| *source == input.source)
                .map(|(_, select, squeeze)| (*select, *squeeze))
                .unwrap_or((false, false));
            let edges = [
                (
                    prev.0,
                    input.select_pressed,
                    InputEventKind::SelectStart,
                    InputEventKind::SelectEnd,
                ),
                (
                    prev.1,
                    input.squeeze_pressed,
                    InputEventKind::SqueezeStart,
                    InputEventKind::SqueezeEnd,
                ),
            ];
            for (was, is, start, end) in edges {
                if was != is {
                    let kind = if is { start } else { end };
                    self.transcript.push_str(&format!(
                        "E t={} s{} {}\n",
                        frame.time.as_nanos(),
                        input.source,
                        kind.label()
                    ));
                    self.input_writer.put(InputEvent {
                        frame: frame.index,
                        time: frame.time,
                        source: input.source,
                        kind,
                    });
                }
            }
            match self.last_inputs.iter_mut().find(|(source, _, _)| *source == input.source) {
                Some(slot) => *slot = (input.source, input.select_pressed, input.squeeze_pressed),
                None => {
                    self.last_inputs.push((
                        input.source,
                        input.select_pressed,
                        input.squeeze_pressed,
                    ));
                }
            }
        }
        // Answer hit-test subscriptions in subscription order.
        if !self.hit_sources.is_empty() {
            let results: Vec<_> =
                self.hit_sources.iter().filter_map(|(id, ray)| floor_hit(ray, 0.0, *id)).collect();
            self.transcript.push_str(&format!("H f={} n={}", frame.index, results.len()));
            if let Some(first) = results.first() {
                self.transcript.push_str(&format!(
                    " first=s{} t={:.4} p={}",
                    first.source,
                    first.t,
                    fmt_vec(&first.point)
                ));
            }
            self.transcript.push('\n');
            self.hit_writer.put(HitTestEvent { frame: frame.index, time: frame.time, results });
        }
        self.frames += 1;
        self.frame_writer.put(frame.clone());
        Some(frame)
    }

    /// Pumps up to `limit` frames; returns how many were delivered.
    pub fn run(&mut self, limit: u64) -> u64 {
        let mut delivered = 0;
        while delivered < limit && self.pump().is_some() {
            delivered += 1;
        }
        delivered
    }

    /// Ends the session and records the end in the transcript exactly
    /// once.
    pub fn end(&mut self) {
        if !self.ended {
            self.ended = true;
            self.transcript.push_str(&format!("L ended frames={}\n", self.frames));
        }
    }

    /// The deterministic textual record of everything published so far
    /// — the artifact golden tests compare byte-for-byte.
    pub fn transcript(&self) -> &str {
        &self.transcript
    }

    /// The backend's run report (empty for backends without one).
    pub fn report(&self) -> String {
        self.device.report()
    }
}

/// Unwraps switchboard events into payload clones, preserving order.
pub fn payloads<T: Clone>(events: Vec<Arc<Event<T>>>) -> Vec<T> {
    events.into_iter().map(|e| e.data.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{MockConfig, MockDiscovery};
    use crate::registry::Registry;
    use crate::types::SessionInit;
    use illixr_math::Vec3;

    fn mock_session(frames: u64) -> Session {
        let mut registry = Registry::new();
        registry.register(Box::new(MockDiscovery::with_config(MockConfig {
            frames,
            ..MockConfig::new(9)
        })));
        let init = SessionInit::new().required(&[Feature::HitTest, Feature::HandTracking]);
        registry.request_session(SessionMode::ImmersiveVr, &init).unwrap()
    }

    #[test]
    fn pump_delivers_frames_and_lossless_event_streams() {
        let mut session = mock_session(60);
        let frames = session.frames();
        let inputs = session.input_events();
        while session.pump().is_some() {}
        assert_eq!(session.frame_count(), 60);
        assert!(session.ended());
        let delivered = frames.drain();
        assert_eq!(delivered.len(), 60);
        assert_eq!(delivered[0].data.index, 0);
        assert!(!inputs.drain().is_empty(), "scripted input must produce edges over 60 frames");
        assert!(session.transcript().ends_with("L ended frames=60\n"));
        // Lossless contract: nothing on any session stream was dropped.
        for stat in session.switchboard.stats() {
            assert_eq!(stat.dropped, 0, "stream {} dropped events", stat.name);
        }
    }

    #[test]
    fn hit_test_requires_granted_feature() {
        let mut registry = Registry::new();
        registry.register(Box::new(MockDiscovery::new(3)));
        let mut session =
            registry.request_session(SessionMode::ImmersiveVr, &SessionInit::new()).unwrap();
        let ray = Ray { origin: Vec3::new(0.0, 1.6, 0.0), direction: Vec3::new(0.0, -1.0, 0.0) };
        assert_eq!(
            session.request_hit_test(ray).unwrap_err(),
            SessionError::FeatureUnavailable(Feature::HitTest)
        );
    }

    #[test]
    fn hit_test_subscription_reports_floor_hits_each_frame() {
        let mut session = mock_session(10);
        let hits = session.hit_test_events();
        let ray = Ray { origin: Vec3::new(0.0, 1.6, 0.0), direction: Vec3::new(0.0, -1.0, 0.0) };
        let id = session.request_hit_test(ray).unwrap();
        while session.pump().is_some() {}
        let events = payloads(hits.drain());
        assert_eq!(events.len(), 10);
        assert!(events.iter().all(|e| e.results.len() == 1 && e.results[0].source == id));
    }

    #[test]
    fn end_is_recorded_once() {
        let mut session = mock_session(5);
        session.end();
        session.end(); // idempotent
        assert_eq!(session.transcript(), "L ended frames=0\n");
        assert!(session.pump().is_none());
    }
}
