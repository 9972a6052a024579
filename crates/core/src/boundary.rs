//! The §V-G record/replay mechanism: the determinism boundary.
//!
//! Like [`crate::obs`], [`crate::sched`] and [`crate::fault`], this
//! module re-exports a below-core crate (`illixr-trace`) and adds the
//! runtime-facing handle: a [`Boundary`] carried by every
//! [`PluginContext`](crate::plugin::PluginContext). The boundary is
//! the determinism frontier of a run — every *physical input* (camera
//! pose, IMU sample, link delivery, placement decision, scheduled
//! crash) crosses it exactly once, and the crossing rule has one
//! implementation, here. A crossing site is a codec plus two calls:
//!
//! ```text
//! if let Some(due) = boundary.replay_due(STREAM, now_ns) {
//!     for (tag, payload) in due { /* decode + act */ }
//! } else {
//!     /* generate + act */
//!     boundary.record_with(STREAM, now_ns, || encode(..));
//! }
//! ```
//!
//! * **off** (the default) — [`Boundary::replay_due`] is `None` and
//!   [`Boundary::record_with`] never runs its closure; zero cost.
//! * **recording** — the generated input is encoded and appended as
//!   `(stream, tag_ns, payload)` to the [`TraceRecorder`].
//! * **replaying** — a stream the trace holds is popped from the
//!   [`TraceSource`] instead of generated (a stream it does not hold
//!   is generated live: a device recording fanned out into server
//!   sessions has no link streams). A replaying boundary may *also*
//!   carry a recorder; [`ReplayDue`] re-records each popped payload
//!   verbatim, so a replayed run's trace is byte-identical to its
//!   input — the golden-test identity check.
//!
//! Fault-plan *outcomes* cross the boundary too (record the boundary,
//! not the RNG): `Boundary::crash_due` records each scheduled crash
//! as an empty payload on `crash/<plugin>`, so a faulted recording
//! replays identically even when the replay side runs a quiet plan
//! under supervision.

pub use illixr_trace::checkpoint::{Checkpoint, CHECKPOINT_SCHEMA_VERSION};
pub use illixr_trace::codec::{ByteReader, ByteWriter, DecodeError};
pub use illixr_trace::divergence::{first_divergence, Divergence};
pub use illixr_trace::format::{Trace, TraceHeader, TraceRecord, SCHEMA_VERSION};
pub use illixr_trace::hash::{fnv1a, splitmix64};
pub use illixr_trace::recorder::TraceRecorder;
pub use illixr_trace::source::TraceSource;
pub use illixr_trace::transform::{fan_out_transform, SessionTransform};

use crate::fault::FaultPlan;
use crate::switchboard::TopicStats;

/// Stream-name prefix for recorded fault-plan crash outcomes.
pub(crate) const CRASH_STREAM_PREFIX: &str = "crash/";

/// The runtime's view of the determinism boundary: an optional
/// recorder, an optional replay source, or neither (off).
#[derive(Debug, Clone, Default)]
pub struct Boundary {
    recorder: Option<TraceRecorder>,
    source: Option<TraceSource>,
}

impl Boundary {
    /// The default boundary: inputs are generated and not recorded.
    pub fn off() -> Self {
        Self::default()
    }

    /// A recording boundary.
    pub fn recording(recorder: TraceRecorder) -> Self {
        Self { recorder: Some(recorder), source: None }
    }

    /// A replaying boundary. When `recorder` is also set, replay paths
    /// re-record each popped payload verbatim (identity check).
    pub fn replaying(source: TraceSource, recorder: Option<TraceRecorder>) -> Self {
        Self { recorder, source: Some(source) }
    }

    /// The replay source, when this boundary replays.
    pub fn source(&self) -> Option<&TraceSource> {
        self.source.as_ref()
    }

    /// Live half of the crossing rule: append the input a site just
    /// generated. `encode` runs only when a recorder is attached, so an
    /// unrecorded run never pays for the payload.
    pub fn record_with(&self, stream: &str, tag_ns: u64, encode: impl FnOnce() -> Vec<u8>) {
        if let Some(rec) = &self.recorder {
            rec.record(stream, tag_ns, encode());
        }
    }

    /// Replay half of the crossing rule: the recorded inputs of
    /// `stream` due at `now_ns`, or `None` when this boundary does not
    /// replay that stream (no source, or the trace never recorded it)
    /// and the site must generate the input live.
    pub fn replay_due<'a>(&'a self, stream: &'a str, now_ns: u64) -> Option<ReplayDue<'a>> {
        let source = self.source.as_ref().filter(|src| src.has_stream(stream))?;
        Some(ReplayDue { recorder: self.recorder.as_ref(), source, stream, now_ns })
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
        let due = match &self.source {
            Some(src) => src.count_through(&stream, release_ns) > fired as u64,
            None => plan.crash_due(plugin, release_ns, fired),
        };
        if due {
            match self.replay_due(&stream, release_ns) {
                // Consume the record so a re-recording replay emits it
                // at its original tag.
                Some(mut recorded) => {
                    recorded.next();
                }
                None => self.record_with(&stream, release_ns, Vec::new),
            }
        }
        due
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

/// The recorded inputs of one stream due at one instant, from
/// [`Boundary::replay_due`]. Yields `(tag_ns, payload)` in recording
/// order — tags already mapped through the source's
/// [`SessionTransform`] — and re-records each pair verbatim as it is
/// yielded when the boundary also carries a recorder.
#[derive(Debug)]
pub struct ReplayDue<'a> {
    recorder: Option<&'a TraceRecorder>,
    source: &'a TraceSource,
    stream: &'a str,
    now_ns: u64,
}

impl ReplayDue<'_> {
    /// The replaying source's session transform, for payload codecs
    /// that carry times as deltas from the record tag.
    pub fn transform(&self) -> SessionTransform {
        self.source.transform()
    }
}

impl Iterator for ReplayDue<'_> {
    type Item = (u64, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        let (tag, payload) = self.source.next_due(self.stream, self.now_ns)?;
        if let Some(rec) = self.recorder {
            rec.record(self.stream, tag, payload.clone());
        }
        Some((tag, payload))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn off_boundary_is_inert() {
        let b = Boundary::off();
        b.record_with("imu", 1, || unreachable!("an off boundary never encodes"));
        assert!(b.replay_due("imu", u64::MAX).is_none() && b.source().is_none());
    }

    fn imu_trace() -> Arc<Trace> {
        let rec = TraceRecorder::new(1, 2);
        for tag in [100, 200, 300] {
            rec.record("imu", tag, vec![tag as u8]);
        }
        Arc::new(rec.snapshot())
    }

    #[test]
    fn replay_yields_only_due_records_and_rerecords_them_verbatim() {
        let trace = imu_trace();
        let rerec = TraceRecorder::new(1, 2);
        let b = Boundary::replaying(TraceSource::new(trace.clone()), Some(rerec.clone()));
        assert!(b.replay_due("camera", u64::MAX).is_none(), "unrecorded stream is generated live");
        assert_eq!(b.replay_due("imu", 99).expect("imu replays").count(), 0);
        let due: Vec<_> = b.replay_due("imu", 250).expect("imu replays").collect();
        assert_eq!(due, [(100, vec![100]), (200, vec![200])]);
        assert_eq!(rerec.snapshot().record_count(), 2, "only yielded records are re-recorded");
        assert_eq!(b.replay_due("imu", 250).expect("imu replays").count(), 0, "each crosses once");
        assert_eq!(b.replay_due("imu", 300).expect("imu replays").count(), 1);
        assert_eq!(rerec.snapshot().encode(), trace.encode());
    }

    #[test]
    fn record_with_encodes_only_when_a_recorder_is_attached() {
        let replay_only = Boundary::replaying(TraceSource::new(imu_trace()), None);
        replay_only.record_with("imu", 1, || unreachable!("a replay-only boundary never encodes"));
        assert_eq!(replay_only.replay_due("imu", 100).expect("imu replays").count(), 1);
        let rec = TraceRecorder::new(1, 2);
        Boundary::recording(rec.clone()).record_with("imu", 7, || vec![3]);
        assert_eq!(rec.snapshot().stream("imu").map(<[_]>::len), Some(1));
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
