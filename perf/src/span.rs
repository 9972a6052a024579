//! Host-clock spans recorded by the benchmark around its own calls
//! into each layer. Spans live in memory until the run ends and are
//! then written as a Chrome trace (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` indexes the enclosing span; spans of
/// one frame share `frame`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub frame: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span sink. A disabled recorder runs the wrapped calls
/// and records nothing, which is how the harness measures its own
/// tracing overhead.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { origin: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is open now.
    pub fn enter(&mut self, name: &'static str, frame: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, frame });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// Times `f` as a child of the open span.
    pub fn scope<R>(&mut self, name: &'static str, frame: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, frame);
        let out = f();
        self.exit();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every closed span called `name`, in call order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
    }

    /// Chrome trace of every span, with per-name call counts alongside.
    pub fn chrome_trace(&self) -> Json {
        chrome_trace(&self.spans)
    }
}

/// A span's own time: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let me = spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration_ns() - covered
}

/// Chrome trace-event JSON (`ph: "X"` complete events, microsecond
/// timestamps) plus a `callCounts` table — counts are taken at the same
/// boundaries as the times.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            *counts.entry(s.name).or_default() += 1;
            let mut args = vec![
                ("frame".to_owned(), Json::Num(s.frame as f64)),
                ("self_us".to_owned(), Json::Num(self_time_ns(spans, i) as f64 / 1e3)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_owned(), Json::str(spans[p].name)));
            }
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(events)),
        ("callCounts", Json::obj(counts.into_iter().map(|(k, v)| (k, Json::Num(v as f64))))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, frame: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("frame", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 30);
        assert_eq!(self_time_ns(&spans, 1), 20 - 8);
        assert_eq!(self_time_ns(&spans, 2), 30);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = [
            span("frame", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            // A child leaking past its parent only covers the overlap.
            span("c", 90, 140, Some(0)),
            span("nested", 20, 30, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_and_counts() {
        let mut rec = Recorder::new(true);
        for frame in 0..3 {
            rec.enter("frame", frame);
            assert_eq!(rec.scope("layer.call", frame, || 7), 7);
            rec.scope("layer.other", frame, || ());
            rec.exit();
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 9);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[4].frame, 1);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(self_time_ns(spans, 0) <= spans[0].duration_ns());
        assert_eq!(rec.durations_ns("layer.call").len(), 3);
        let trace = rec.chrome_trace();
        assert_eq!(trace.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len), Some(9));
        let counts = trace.get("callCounts").unwrap();
        assert_eq!(counts.get("frame").and_then(Json::as_f64), Some(3.0));
        assert_eq!(crate::json::parse(&trace.to_pretty()), Ok(trace));
    }

    #[test]
    fn disabled_recorder_runs_calls_and_records_nothing() {
        let mut rec = Recorder::new(false);
        rec.enter("frame", 0);
        assert_eq!(rec.scope("layer.call", 0, || 41 + 1), 42);
        rec.exit();
        assert!(rec.spans().is_empty());
    }
}
