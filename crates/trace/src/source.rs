//! The replaying half of the boundary.
//!
//! A [`TraceSource`] wraps an immutable [`Trace`] with one cursor per
//! stream and an optional [`SessionTransform`]. Wiring points poll
//! [`TraceSource::next_due`] with the current simulated time and get
//! back each recorded input exactly once, in recording order, at its
//! (transformed) tag — the replay-side mirror of
//! [`TraceRecorder::record`](crate::recorder::TraceRecorder::record).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::format::{Trace, TraceHeader};
use crate::transform::SessionTransform;

/// Cursor-per-stream replay handle over a shared trace.
///
/// Clones share cursors (a stream is consumed once per source family);
/// scoped clones resolve `stream` against `prefix + stream`, mirroring
/// [`TraceRecorder::scoped`](crate::recorder::TraceRecorder::scoped).
#[derive(Debug, Clone)]
pub struct TraceSource {
    trace: Arc<Trace>,
    transform: SessionTransform,
    cursors: Arc<Mutex<HashMap<String, usize>>>,
    prefix: String,
}

impl TraceSource {
    pub fn new(trace: Arc<Trace>) -> Self {
        Self::with_transform(trace, SessionTransform::IDENTITY)
    }

    /// A source whose tags (and payload deltas, via
    /// [`TraceSource::transform`]) are mapped into a synthetic
    /// session's timeline.
    pub fn with_transform(trace: Arc<Trace>, transform: SessionTransform) -> Self {
        Self {
            trace,
            transform,
            cursors: Arc::new(Mutex::new(HashMap::new())),
            prefix: String::new(),
        }
    }

    /// A handle onto the same trace and cursors that resolves stream
    /// names under `prefix` (how per-session streams of a recorded
    /// multi-session run are replayed).
    pub fn scoped(&self, prefix: &str) -> Self {
        Self {
            trace: self.trace.clone(),
            transform: self.transform,
            cursors: self.cursors.clone(),
            prefix: format!("{}{prefix}", self.prefix),
        }
    }

    pub fn header(&self) -> TraceHeader {
        self.trace.header
    }

    pub fn transform(&self) -> SessionTransform {
        self.transform
    }

    /// The underlying trace (for divergence reports and re-recording).
    pub fn trace(&self) -> &Arc<Trace> {
        &self.trace
    }

    /// `stream` as the trace names it (this source's prefix applied).
    pub fn key<'a>(&self, stream: &'a str) -> Cow<'a, str> {
        if self.prefix.is_empty() {
            Cow::Borrowed(stream)
        } else {
            Cow::Owned(format!("{}{stream}", self.prefix))
        }
    }

    /// Pop the next record of `stream` whose transformed tag is
    /// `<= now_ns`, returning `(transformed_tag, payload)`. Returns
    /// `None` when the stream is exhausted or its next record is still
    /// in the future.
    pub fn next_due(&self, stream: &str, now_ns: u64) -> Option<(u64, Vec<u8>)> {
        let key = self.key(stream);
        let records = self.trace.stream(&key)?;
        let mut cursors = self.cursors.lock().unwrap();
        let cursor = cursors.entry(key.into_owned()).or_insert(0);
        let rec = records.get(*cursor)?;
        let tag = self.transform.apply(rec.tag_ns);
        if tag > now_ns {
            return None;
        }
        *cursor += 1;
        Some((tag, rec.payload.clone()))
    }

    /// Whether `stream` exists in the trace (with this source's
    /// prefix applied).
    pub fn has_stream(&self, stream: &str) -> bool {
        self.trace.stream(&self.key(stream)).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceRecord;

    fn trace() -> Arc<Trace> {
        let mut t = Trace::new(1, 2);
        t.streams.push((
            "imu".into(),
            vec![
                TraceRecord { tag_ns: 100, payload: vec![1] },
                TraceRecord { tag_ns: 200, payload: vec![2] },
                TraceRecord { tag_ns: 300, payload: vec![3] },
            ],
        ));
        t.streams.push(("s1/imu".into(), vec![TraceRecord { tag_ns: 150, payload: vec![9] }]));
        Arc::new(t)
    }

    #[test]
    fn pops_each_record_once_in_order() {
        let src = TraceSource::new(trace());
        assert_eq!(src.next_due("imu", 50), None);
        assert_eq!(src.next_due("imu", 250), Some((100, vec![1])));
        assert_eq!(src.next_due("imu", 250), Some((200, vec![2])));
        assert_eq!(src.next_due("imu", 250), None);
        assert_eq!(src.next_due("imu", 300), Some((300, vec![3])));
        assert_eq!(src.next_due("imu", u64::MAX), None);
    }

    #[test]
    fn transform_shifts_due_times() {
        let t = SessionTransform { offset_ns: 1_000, dilation: 2.0 };
        let src = TraceSource::with_transform(trace(), t);
        // First record is due at 1_000 + 2·100 = 1_200.
        assert_eq!(src.next_due("imu", 1_199), None);
        assert_eq!(src.next_due("imu", 1_200), Some((1_200, vec![1])));
        assert_eq!(src.next_due("imu", 1_400), Some((1_400, vec![2])));
    }

    #[test]
    fn scoped_source_resolves_prefixed_streams() {
        let src = TraceSource::new(trace());
        let s1 = src.scoped("s1/");
        assert!(s1.has_stream("imu"));
        assert!(!s1.has_stream("camera"));
        assert_eq!(s1.next_due("imu", 200), Some((150, vec![9])));
        // The unscoped stream's cursor is untouched.
        assert_eq!(src.next_due("imu", 200), Some((100, vec![1])));
    }
}
