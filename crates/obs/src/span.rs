//! Span and flow-event recording.
//!
//! A [`Tracer`] is a cheap-to-clone handle onto a shared in-memory
//! sink. Components record **spans** (named intervals on named tracks)
//! and **flow events** (begin/end markers linked by a deterministic
//! id) that the exporter renders as Chrome Trace Event JSON.
//!
//! Determinism: flow ids are content hashes ([`flow_id`]) rather than
//! allocation-ordered counters, timestamps come from the caller's
//! [`NowSource`] (the simulated clock in every bench bin), and the
//! exporter sorts on stable keys — so fixed-seed runs export
//! bit-identical traces.

use std::sync::{Arc, Mutex};

use illixr_trace::fnv1a;

/// Monotonic nanosecond time source. `illixr-core` adapts its `Clock`
/// trait to this so the obs layer stays below core.
pub trait NowSource: Send + Sync {
    /// Current time in nanoseconds since the epoch of the run.
    fn now_ns(&self) -> u64;
}

/// Whether a flow event starts or terminates a causal chain link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlowPhase {
    /// Producer side (`ph: "s"` in the trace).
    Begin,
    /// Consumer side (`ph: "f"` in the trace).
    End,
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Track (rendered as a named thread row) the span lives on.
    pub track: String,
    /// Slice name.
    pub name: String,
    /// Start time, nanoseconds.
    pub start_ns: u64,
    /// End time, nanoseconds (`>= start_ns`).
    pub end_ns: u64,
    /// Extra key/value annotations (rendered as `args`).
    pub args: Vec<(String, String)>,
}

/// One recorded flow endpoint.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Track the endpoint sits on.
    pub track: String,
    /// Flow name (typically the topic).
    pub name: String,
    /// Deterministic id linking begin and end (see [`flow_id`]).
    pub id: u64,
    /// Event time, nanoseconds.
    pub at_ns: u64,
    /// Begin (producer) or end (consumer).
    pub phase: FlowPhase,
}

/// One recorded counter sample (rendered as a `ph:"C"` event).
#[derive(Debug, Clone)]
pub(crate) struct CounterRecord {
    /// Track the counter belongs to.
    pub track: String,
    /// Counter series name.
    pub name: String,
    /// Sample time, nanoseconds.
    pub at_ns: u64,
    /// Sampled value.
    pub value: f64,
}

struct TracerInner {
    clock: Arc<dyn NowSource>,
    spans: Mutex<Vec<SpanRecord>>,
    flows: Mutex<Vec<FlowRecord>>,
    counters: Mutex<Vec<CounterRecord>>,
}

/// Handle for recording spans, flows, and counters.
///
/// Clones share one sink. A tracer built with [`Tracer::disabled`]
/// drops every record after a single branch, so instrumentation can be
/// unconditional. [`Tracer::scoped`] derives a handle whose track
/// names carry a prefix (e.g. `s3/imu`), which is how per-session
/// instrumentation stays distinguishable in multi-session runs.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
    scope: String,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("scope", &self.scope)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self { inner: None, scope: String::new() }
    }

    /// A recording tracer reading time from `clock`.
    pub fn new(clock: Arc<dyn NowSource>) -> Self {
        Self {
            inner: Some(Arc::new(TracerInner {
                clock,
                spans: Mutex::new(Vec::new()),
                flows: Mutex::new(Vec::new()),
                counters: Mutex::new(Vec::new()),
            })),
            scope: String::new(),
        }
    }

    /// True when records are kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current time from the tracer's clock (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// Derives a handle sharing this sink whose track names are
    /// prefixed with `prefix` (include your own separator: `"s3/"`).
    pub fn scoped(&self, prefix: &str) -> Tracer {
        Self { inner: self.inner.clone(), scope: format!("{}{}", self.scope, prefix) }
    }

    /// The accumulated track-name prefix of this handle (empty for an
    /// unscoped tracer).
    pub fn scope(&self) -> &str {
        &self.scope
    }

    fn track(&self, track: &str) -> String {
        format!("{}{}", self.scope, track)
    }

    /// Records a `[start_ns, end_ns)` span on `track`.
    pub fn record_span(&self, track: &str, name: &str, start_ns: u64, end_ns: u64) {
        self.record_span_args(track, name, start_ns, end_ns, &[]);
    }

    /// Records a span with `args` annotations.
    pub fn record_span_args(
        &self,
        track: &str,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        args: &[(&str, String)],
    ) {
        if let Some(inner) = &self.inner {
            inner.spans.lock().unwrap().push(SpanRecord {
                track: self.track(track),
                name: name.to_string(),
                start_ns,
                end_ns: end_ns.max(start_ns),
                args: args.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
            });
        }
    }

    /// Records one endpoint of a flow (see [`flow_id`]).
    pub fn flow(&self, track: &str, name: &str, id: u64, at_ns: u64, phase: FlowPhase) {
        if let Some(inner) = &self.inner {
            inner.flows.lock().unwrap().push(FlowRecord {
                track: self.track(track),
                name: name.to_string(),
                id,
                at_ns,
                phase,
            });
        }
    }

    /// Records a counter sample on `track`.
    pub fn counter(&self, track: &str, name: &str, at_ns: u64, value: f64) {
        if let Some(inner) = &self.inner {
            inner.counters.lock().unwrap().push(CounterRecord {
                track: self.track(track),
                name: name.to_string(),
                at_ns,
                value,
            });
        }
    }

    /// Appends every record of `other` to this tracer's sink, in
    /// `other`'s insertion order. The exporter's sorts are stable, so
    /// records tying on their sort keys keep the merge order — callers
    /// merging per-shard or per-session tracers must therefore absorb
    /// in a deterministic order (e.g. session id) to keep exports
    /// bit-identical across runs. No-op when either side is disabled.
    pub fn absorb(&self, other: &Tracer) {
        let (Some(inner), Some(src)) = (&self.inner, &other.inner) else {
            return;
        };
        if Arc::ptr_eq(inner, src) {
            return; // same sink — absorbing would duplicate records
        }
        inner.spans.lock().unwrap().extend(src.spans.lock().unwrap().iter().cloned());
        inner.flows.lock().unwrap().extend(src.flows.lock().unwrap().iter().cloned());
        inner.counters.lock().unwrap().extend(src.counters.lock().unwrap().iter().cloned());
    }

    /// Snapshot of all recorded spans.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.spans.lock().unwrap().clone())
    }

    /// Snapshot of all recorded flow endpoints.
    pub fn flows(&self) -> Vec<FlowRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.flows.lock().unwrap().clone())
    }

    /// Snapshot of all recorded counter samples.
    pub(crate) fn counters(&self) -> Vec<CounterRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.counters.lock().unwrap().clone())
    }
}

/// Deterministic flow id: [`fnv1a`] over the (scoped) stream name, then
/// the event sequence number's little-endian bytes. Producer and
/// consumer compute the same id independently, so no id needs to travel
/// with the payload and ids are independent of thread interleaving.
pub fn flow_id(stream: &str, seq: u64) -> u64 {
    fnv1a(stream.bytes().chain(seq.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct FakeClock(AtomicU64);
    impl NowSource for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.record_span("a", "b", 0, 10);
        t.flow("a", "b", 1, 0, FlowPhase::Begin);
        t.counter("a", "b", 0, 1.0);
        assert!(!t.is_enabled());
        assert!(t.spans().is_empty() && t.flows().is_empty() && t.counters().is_empty());
    }

    #[test]
    fn clones_share_the_sink_and_scopes_prefix_tracks() {
        let t = Tracer::new(Arc::new(FakeClock(AtomicU64::new(0))));
        let s3 = t.scoped("s3/");
        s3.record_span("imu", "tick", 5, 9);
        t.record_span("vio", "batch", 1, 2);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.track == "s3/imu"));
        assert!(spans.iter().any(|s| s.track == "vio"));
    }

    #[test]
    fn absorb_appends_in_source_order_and_respects_disabled_sides() {
        let a = Tracer::new(Arc::new(FakeClock(AtomicU64::new(0))));
        let b = Tracer::new(Arc::new(FakeClock(AtomicU64::new(0))));
        b.scoped("s1/").record_span("imu", "tick", 3, 4);
        b.counter("link", "q", 1, 2.0);
        a.record_span("vio", "batch", 0, 1);
        a.absorb(&b);
        let spans = a.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].track, "s1/imu", "absorbed records keep their scoped tracks");
        assert_eq!(a.counters().len(), 1);
        // Absorbing a clone of the same sink must not duplicate.
        let a2 = a.clone();
        a.absorb(&a2);
        assert_eq!(a.spans().len(), 2);
        // Disabled sides are no-ops.
        a.absorb(&Tracer::disabled());
        Tracer::disabled().absorb(&a);
        assert_eq!(a.spans().len(), 2);
    }

    #[test]
    fn flow_ids_are_stable_and_distinct() {
        assert_eq!(flow_id("s0/imu", 7), flow_id("s0/imu", 7));
        assert_ne!(flow_id("s0/imu", 7), flow_id("s0/imu", 8));
        assert_ne!(flow_id("s0/imu", 7), flow_id("s1/imu", 7));
        // Pinned across commits: `trace.json` joins flows by this value.
        assert_eq!(flow_id("s0/imu", 7), 0x5778_70b9_5c0a_055b);
    }
}
