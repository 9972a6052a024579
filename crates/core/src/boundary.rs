//! The §V-G record/replay mechanism: the determinism boundary.
//!
//! Like [`crate::obs`], [`crate::sched`] and [`crate::fault`], this
//! module re-exports a below-core crate (`illixr-trace`) and adds the
//! runtime-facing handle: a [`Boundary`] carried by every
//! [`PluginContext`](crate::plugin::PluginContext). The boundary is
//! the determinism frontier of a run — every *physical input* (camera
//! pose, IMU sample, link delivery, placement decision, scheduled
//! crash) crosses it exactly once, and the crossing rule has one
//! implementation. A site is a [`Wire`] payload type and one call:
//!
//! ```text
//! for (tag_ns, input) in boundary.cross(STREAM, now_ns, || generate()) {
//!     /* act on input */
//! }
//! ```
//!
//! * **off** (the default) — `generate` runs once, nothing is encoded.
//! * **recording** — each generated input is also encoded and appended
//!   as `(stream, tag_ns, payload)` to the [`TraceRecorder`].
//! * **replaying** — a stream the trace holds is popped from the
//!   [`TraceSource`] and decoded instead (a stream it does not hold is
//!   generated live: a device recording fanned out into server sessions
//!   has no link streams). A replaying boundary may *also* carry a
//!   recorder; each used record is re-recorded verbatim, so a replayed
//!   run's trace is byte-identical to its input.
//!
//! **Error rule:** a record that does not decode, or is missing where a
//! site takes one input ([`Crossing::one`]: a link transfer, a bridge
//! delivery), never stops the run: the boundary keeps the first such
//! [`ReplayError`] and that crossing generates its input live.
//!
//! Fault-plan *outcomes* cross the boundary too (record the boundary,
//! not the RNG): `Boundary::crash_due` records each scheduled crash
//! as an empty payload on `crash/<plugin>`, so a faulted recording
//! replays identically even when the replay side runs a quiet plan
//! under supervision.

use std::sync::OnceLock;

pub use illixr_trace::checkpoint::{Checkpoint, CHECKPOINT_SCHEMA_VERSION};
pub use illixr_trace::codec::{
    ByteReader, ByteWriter, DecodeError, ReplayCause, ReplayError, Wire,
};
pub use illixr_trace::divergence::{first_divergence, Divergence};
pub use illixr_trace::format::{Trace, TraceHeader, TraceRecord, SCHEMA_VERSION};
pub use illixr_trace::hash::{fnv1a, splitmix64, unit_f64, Xoshiro256pp};
pub use illixr_trace::recorder::TraceRecorder;
pub use illixr_trace::source::TraceSource;
pub use illixr_trace::transform::{fan_out_transform, SessionTransform};

use crate::fault::FaultPlan;
use crate::switchboard::TopicStats;

/// Stream-name prefix for recorded fault-plan crash outcomes.
pub(crate) const CRASH_STREAM_PREFIX: &str = "crash/";

/// The runtime's view of the determinism boundary: an optional
/// recorder, an optional replay source, or neither (off).
#[derive(Debug, Default)]
pub struct Boundary {
    recorder: Option<TraceRecorder>,
    source: Option<TraceSource>,
    /// The first replayed record a crossing could not use.
    error: OnceLock<ReplayError>,
}

impl Boundary {
    /// The default boundary: inputs are generated and not recorded.
    pub fn off() -> Self {
        Self::default()
    }

    /// A recording boundary.
    pub fn recording(recorder: TraceRecorder) -> Self {
        Self { recorder: Some(recorder), ..Self::default() }
    }

    /// A replaying boundary. When `recorder` is also set, each replayed
    /// record is re-recorded verbatim (identity check).
    pub fn replaying(source: TraceSource, recorder: Option<TraceRecorder>) -> Self {
        Self { recorder, source: Some(source), ..Self::default() }
    }

    /// The replay source, when this boundary replays.
    pub fn source(&self) -> Option<&TraceSource> {
        self.source.as_ref()
    }

    /// The first replayed record a crossing could not use.
    pub fn replay_error(&self) -> Option<&ReplayError> {
        self.error.get()
    }

    /// The crossing rule. When this boundary replays `stream`, it yields
    /// each record due at `now_ns`, decoded, and `generate` never runs.
    /// Otherwise it yields what `generate` (called once) returns, and
    /// records it when a recorder is attached.
    pub fn cross<'a, T: Wire, G: FnOnce() -> Option<(u64, T)>>(
        &'a self,
        stream: &'a str,
        now_ns: u64,
        generate: G,
    ) -> Crossing<'a, G> {
        let replay = self.source.as_ref().filter(|src| src.has_stream(stream));
        Crossing {
            boundary: self,
            stream,
            now_ns,
            replay,
            generate: Some(generate),
            exactly_one: false,
        }
    }

    /// Whether plugin `plugin` has a crash due at `release_ns` beyond
    /// the `fired` already delivered — the boundary-side replacement
    /// for [`FaultPlan::crash_due`].
    ///
    /// Recording: consults `plan` and records each firing on
    /// `crash/<plugin>`. Replaying: consults the trace only, so a run
    /// recorded under `FaultPlan::scheduled(..)` replays its crashes
    /// (and nothing else) whatever plan the replay side carries.
    pub(crate) fn crash_due(
        &self,
        plan: &FaultPlan,
        plugin: &str,
        release_ns: u64,
        fired: u32,
    ) -> bool {
        let stream = format!("{CRASH_STREAM_PREFIX}{plugin}");
        // Replaying, the plan is never asked, even for a plugin the trace
        // holds no crash for; each crash consumes one record.
        let live = self.source.is_none() && plan.crash_due(plugin, release_ns, fired);
        self.cross(&stream, release_ns, || live.then_some((release_ns, ()))).next().is_some()
    }

    /// Human-readable divergence report for a failed replay-identity
    /// check: the first diverging `(stream, tag_ns)` coordinate plus
    /// the replay side's switchboard topic stats (satellite: make
    /// golden-test failures diagnosable, not a bare assert).
    pub fn divergence_report(recorded: &Trace, replayed: &Trace, stats: &[TopicStats]) -> String {
        let mut out = String::new();
        match first_divergence(recorded, replayed) {
            None => out.push_str("traces are identical\n"),
            Some(d) => {
                out.push_str(&format!("replay diverged: {d}\n"));
            }
        }
        out.push_str(&format!(
            "recorded: {} streams / {} records; replayed: {} streams / {} records\n",
            recorded.streams.len(),
            recorded.record_count(),
            replayed.streams.len(),
            replayed.record_count(),
        ));
        if !stats.is_empty() {
            out.push_str("replay-side switchboard topics:\n");
            out.push_str("  topic, seq, dropped, subscribers, queue_depth\n");
            for s in stats {
                out.push_str(&format!(
                    "  {}, {}, {}, {}, {}\n",
                    s.name, s.seq, s.dropped, s.subscribers, s.queue_depth
                ));
            }
        }
        out
    }
}

/// One crossing of one stream at one instant, from [`Boundary::cross`]:
/// an iterator over the `(tag_ns, input)` pairs that cross.
pub struct Crossing<'a, G> {
    boundary: &'a Boundary,
    stream: &'a str,
    now_ns: u64,
    /// The source while this crossing replays.
    replay: Option<&'a TraceSource>,
    generate: Option<G>,
    /// Set by [`Crossing::one`]: a replayed stream with no record due is
    /// [`ReplayCause::Missing`].
    exactly_one: bool,
}

impl<T: Wire, G: FnOnce() -> Option<(u64, T)>> Crossing<'_, G> {
    /// Exactly one input, for a site that takes one per call.
    pub fn one(mut self) -> Option<T> {
        self.exactly_one = true;
        self.next().map(|(_, input)| input)
    }

    /// Keeps the first error, naming the stream as the trace does, and
    /// generates from here on.
    fn fail(&mut self, source: &TraceSource, tag_ns: u64, cause: ReplayCause) {
        let stream = source.key(self.stream);
        self.boundary.error.get_or_init(|| ReplayError { stream: stream.into(), tag_ns, cause });
        self.replay = None;
    }
}

impl<T: Wire, G: FnOnce() -> Option<(u64, T)>> Iterator for Crossing<'_, G> {
    type Item = (u64, T);

    fn next(&mut self) -> Option<(u64, T)> {
        if let Some(source) = self.replay {
            match source.next_due(self.stream, self.now_ns) {
                Some((tag_ns, payload)) => match T::decode(&payload, tag_ns, &source.transform()) {
                    Ok(input) => {
                        if let Some(rec) = &self.boundary.recorder {
                            rec.record(self.stream, tag_ns, payload);
                        }
                        return Some((tag_ns, input));
                    }
                    Err(e) => self.fail(source, tag_ns, ReplayCause::Corrupt(e)),
                },
                None if self.exactly_one => self.fail(source, self.now_ns, ReplayCause::Missing),
                None => return None,
            }
        }
        let (tag_ns, input) = (self.generate.take()?)()?;
        if let Some(rec) = &self.boundary.recorder {
            rec.record(self.stream, tag_ns, input.encode(tag_ns));
        }
        Some((tag_ns, input))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Arc;

    use super::*;

    /// A test payload: one u64.
    #[derive(Debug, PartialEq)]
    struct Tick(u64);

    impl Wire for Tick {
        fn put(&self, w: &mut ByteWriter, _: u64) {
            w.put_u64(self.0);
        }

        fn take(r: &mut ByteReader, _: u64, _: &SessionTransform) -> Result<Tick, DecodeError> {
            r.take_u64().map(Tick)
        }
    }

    /// A payload that must never be encoded: a boundary without a
    /// recorder crosses it without calling `put`.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Unrecorded(pub(crate) u64);

    impl Wire for Unrecorded {
        fn put(&self, _: &mut ByteWriter, _: u64) {
            unreachable!("encoded without a recorder")
        }

        fn take(r: &mut ByteReader, _: u64, _: &SessionTransform) -> Result<Self, DecodeError> {
            r.take_u64().map(Unrecorded)
        }
    }

    fn never() -> Option<(u64, Tick)> {
        unreachable!("a replayed stream never generates")
    }

    #[test]
    fn off_boundary_is_inert() {
        let b = Boundary::off();
        let mut calls = 0;
        let mut generate = || {
            calls += 1;
            Some((5, Unrecorded(9)))
        };
        assert_eq!(b.cross("imu", 5, &mut generate).collect::<Vec<_>>(), [(5, Unrecorded(9))]);
        assert_eq!(b.cross("link", 5, &mut generate).one(), Some(Unrecorded(9)));
        assert_eq!(calls, 2, "generate runs exactly once a crossing");
        assert!(b.source().is_none() && b.replay_error().is_none());
    }

    fn imu_trace() -> Arc<Trace> {
        let rec = TraceRecorder::new(1, 2);
        for tag in [100, 200, 300] {
            rec.record("imu", tag, Tick(tag).encode(tag));
        }
        Arc::new(rec.snapshot())
    }

    #[test]
    fn replay_yields_only_due_records_and_rerecords_them_verbatim() {
        let trace = imu_trace();
        let rerec = TraceRecorder::new(1, 2);
        let b = Boundary::replaying(TraceSource::new(trace.clone()), Some(rerec.clone()));
        let live: Vec<_> = b.cross("camera", 7, || Some((7, Tick(1)))).collect();
        assert_eq!(live, [(7, Tick(1))], "an unrecorded stream is generated live");
        assert_eq!(b.cross("imu", 99, never).count(), 0);
        let due: Vec<_> = b.cross("imu", 250, never).collect();
        assert_eq!(due, [(100, Tick(100)), (200, Tick(200))]);
        assert_eq!(rerec.snapshot().stream("imu").map(<[_]>::len), Some(2), "only yielded");
        assert_eq!(b.cross("imu", 250, never).count(), 0, "each crosses once");
        assert_eq!(b.cross("imu", 300, never).count(), 1);
        assert_eq!(rerec.snapshot().stream("imu"), trace.stream("imu"));
        assert!(b.replay_error().is_none());
    }

    #[test]
    fn cross_records_generated_inputs_only_when_a_recorder_is_attached() {
        let replay_only = Boundary::replaying(TraceSource::new(imu_trace()), None);
        assert_eq!(replay_only.cross("imu", 100, never).count(), 1);
        // Generated for a stream the trace lacks, or for a missing record:
        // neither is encoded.
        let camera: Vec<_> = replay_only.cross("camera", 7, || Some((7, Unrecorded(3)))).collect();
        assert_eq!(camera, [(7, Unrecorded(3))]);
        let missing = replay_only.cross("imu", 150, || Some((150, Unrecorded(4)))).one();
        assert_eq!(missing, Some(Unrecorded(4)));
        let rec = TraceRecorder::new(1, 2);
        let recording = Boundary::recording(rec.clone());
        assert_eq!(recording.cross("imu", 7, || Some((7, Tick(3)))).count(), 1);
        assert_eq!(recording.cross("imu", 8, || None::<(u64, Tick)>).count(), 0);
        let want = [TraceRecord { tag_ns: 7, payload: 3u64.to_le_bytes().to_vec() }];
        assert_eq!(rec.snapshot().stream("imu"), Some(&want[..]));
    }

    #[test]
    fn bad_records_latch_the_first_error_and_generate_instead() {
        let rec = TraceRecorder::new(1, 2);
        rec.record("imu", 100, vec![1, 2, 3]);
        rec.record("imu", 200, Tick(200).encode(200));
        rec.record("link", 100, Tick(1).encode(100));
        let trace = Arc::new(rec.snapshot());
        let b = Boundary::replaying(TraceSource::new(trace), None);
        // The short record falls back to generate, once; the rest of the
        // crossing is generate's.
        let got: Vec<_> = b.cross("imu", 250, || Some((250, Tick(7)))).collect();
        assert_eq!(got, [(250, Tick(7))]);
        let truncated = DecodeError::Truncated { offset: 0, needed: 8, remaining: 3 };
        let first = ReplayError {
            stream: "imu".into(),
            tag_ns: 100,
            cause: ReplayCause::Corrupt(truncated),
        };
        assert_eq!(b.replay_error(), Some(&first));
        // The next crossing picks up the records still due.
        assert_eq!(b.cross("imu", 250, never).collect::<Vec<_>>(), [(200, Tick(200))]);
        // A site that takes one: a missing record generates, and the
        // first error stays the one kept.
        assert_eq!(b.cross("link", 150, never).one(), Some(Tick(1)));
        assert_eq!(b.cross("link", 300, || Some((300, Tick(4)))).one(), Some(Tick(4)));
        assert_eq!(b.replay_error(), Some(&first));
        let fresh = Boundary::replaying(TraceSource::new(imu_trace()), None);
        assert_eq!(fresh.cross("imu", 50, || Some((50, Tick(4)))).one(), Some(Tick(4)));
        let missing = ReplayError { stream: "imu".into(), tag_ns: 50, cause: ReplayCause::Missing };
        assert_eq!(fresh.replay_error(), Some(&missing));
        assert_eq!(missing.to_string(), "no imu record due at 50 ns");
        // A scoped source's error names the stream as the trace does.
        let rec = TraceRecorder::new(1, 2);
        rec.record("s1/imu", 100, vec![1]);
        let source = TraceSource::new(Arc::new(rec.snapshot())).scoped("s1/");
        let scoped = Boundary::replaying(source, None);
        assert_eq!(scoped.cross("imu", 100, || None::<(u64, Tick)>).count(), 0);
        assert_eq!(scoped.replay_error().map(|e| e.stream.as_str()), Some("s1/imu"));
    }

    #[test]
    fn recording_crash_outcomes_consults_the_plan() {
        let plan = FaultPlan::quiet();
        let rec = TraceRecorder::new(1, 2);
        let b = Boundary::recording(rec.clone());
        assert!(!b.crash_due(&plan, "vio", 1_000, 0));
        assert!(rec.snapshot().stream("crash/vio").is_none());
    }

    #[test]
    fn crash_payload_bytes_are_pinned() {
        use crate::fault::{FaultKind, FaultWindow};
        let plan = FaultPlan::new(1).with_window(FaultWindow::new(
            FaultKind::PluginCrash,
            "vio",
            100,
            101,
            1.0,
        ));
        let rec = TraceRecorder::new(1, 2);
        assert!(Boundary::recording(rec.clone()).crash_due(&plan, "vio", 250, 0));
        let want = [TraceRecord { tag_ns: 250, payload: b"".to_vec() }];
        assert_eq!(rec.snapshot().stream("crash/vio"), Some(&want[..]));
    }

    #[test]
    fn replaying_crash_outcomes_ignores_the_plan() {
        // Record one crash for vio at t=500 under a plan that fires it…
        let rec = TraceRecorder::new(1, 2);
        rec.record("crash/vio", 500, Vec::new());
        let trace = Arc::new(rec.snapshot());
        // …then replay under a quiet plan: the crash still fires, once.
        let quiet = FaultPlan::quiet();
        let rerec = TraceRecorder::new(1, 2);
        let b = Boundary::replaying(TraceSource::new(trace.clone()), Some(rerec.clone()));
        assert!(!b.crash_due(&quiet, "vio", 499, 0));
        assert!(b.crash_due(&quiet, "vio", 500, 0));
        assert!(!b.crash_due(&quiet, "vio", 800, 1));
        assert!(!b.crash_due(&quiet, "imu_integrator", 800, 0));
        // The re-recording reproduced the original record.
        assert_eq!(rerec.snapshot().stream("crash/vio"), trace.stream("crash/vio"));
    }

    #[test]
    fn divergence_report_names_the_first_mismatch() {
        let a = TraceRecorder::new(1, 2);
        a.record("imu", 10, vec![1]);
        let b = TraceRecorder::new(1, 2);
        b.record("imu", 10, vec![2]);
        let stats =
            [TopicStats { name: "imu".into(), seq: 3, dropped: 0, subscribers: 1, queue_depth: 0 }];
        let report = Boundary::divergence_report(&a.snapshot(), &b.snapshot(), &stats);
        assert!(report.contains("first divergence"), "{report}");
        assert!(report.contains("tag 10 ns"), "{report}");
        assert!(report.contains("imu, 3, 0, 1, 0"), "{report}");
    }
}
