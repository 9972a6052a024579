//! The switchboard: ILLIXR's event-stream communication framework.
//!
//! Plugins never hold references to one another — they communicate only
//! through named, typed event streams (paper §II-B):
//!
//! * a [`Writer`] publishes events;
//! * a [`SyncReader`] sees **every** value the producer publishes
//!   (synchronous dependence, e.g. VIO consuming every camera frame);
//! * an [`AsyncReader`] asks for the **latest** value (asynchronous
//!   dependence, e.g. reprojection sampling the freshest pose).
//!
//! Streams are obtained through typed [`Topic`] handles; a payload-type
//! conflict or duplicate registration surfaces as a [`SwitchboardError`]
//! instead of a panic. When the switchboard is built with
//! [`Switchboard::with_obs`], every `put`/`recv` pair additionally emits
//! a flow event with a deterministic id, letting the obs exporter
//! stitch producer→consumer causal chains across a trace.
//!
//! # Cost of an event
//!
//! The IMU and fast-pose streams carry 500 events a second a session, so
//! the stream's own cost is most of what their consumers cost. A `put`
//! allocates the one `Arc<Event<T>>` its readers share and makes no
//! system call unless a reader is parked in [`SyncReader::recv`]; a
//! receive allocates nothing, whether observability is on or off — the
//! track and histogram names it needs are built with the handle.
//!
//! # Examples
//!
//! ```
//! use illixr_core::switchboard::Switchboard;
//!
//! let sb = Switchboard::new();
//! let topic = sb.topic::<&'static str>("imu").unwrap();
//! let w = topic.writer();
//! let sync = topic.sync_reader(8);
//! let latest = topic.async_reader();
//!
//! w.put("sample-0");
//! w.put("sample-1");
//!
//! assert_eq!(sync.try_recv().unwrap().data, "sample-0"); // every value
//! assert_eq!(sync.try_recv().unwrap().data, "sample-1");
//! assert_eq!(latest.latest().unwrap().data, "sample-1"); // only the latest
//!
//! // Type conflicts are Results, not panics:
//! assert!(sb.topic::<u32>("imu").is_err());
//! ```

use std::any::{type_name, Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use parking_lot::{Mutex, RwLock};

use crate::obs::{flow_id, FlowPhase, Metrics, Tracer};

/// An event on a stream: payload plus a monotonically increasing sequence
/// number assigned by the topic.
#[derive(Debug)]
pub struct Event<T> {
    /// Sequence number, starting at 0 for the first event on the topic.
    pub seq: u64,
    /// The payload.
    pub data: T,
}

impl<T> std::ops::Deref for Event<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.data
    }
}

/// Why a [`Topic`] handle could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchboardError {
    /// The stream exists with a different payload type.
    TypeMismatch {
        /// Stream name.
        name: String,
        /// Payload type the caller asked for.
        requested: &'static str,
        /// Payload type the stream was created with.
        registered: &'static str,
    },
}

impl std::fmt::Display for SwitchboardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TypeMismatch { name, requested, registered } => write!(
                f,
                "stream '{name}' already exists with a different payload type \
                 (requested {requested}, registered {registered})"
            ),
        }
    }
}

impl std::error::Error for SwitchboardError {}

struct TopicState<T> {
    latest: RwLock<Option<Arc<Event<T>>>>,
    subscribers: Mutex<Vec<Sender<Arc<Event<T>>>>>,
    seq: AtomicU64,
    dropped: AtomicU64,
    last_publish_ns: AtomicU64,
}

impl<T> Default for TopicState<T> {
    fn default() -> Self {
        Self {
            latest: RwLock::new(None),
            subscribers: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            last_publish_ns: AtomicU64::new(u64::MAX),
        }
    }
}

impl<T: Send + Sync> TopicState<T> {
    fn publish(&self, data: T) -> Arc<Event<T>> {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let event = Arc::new(Event { seq, data });
        *self.latest.write() = Some(event.clone());
        let mut subs = self.subscribers.lock();
        subs.retain(|tx| match tx.try_send(event.clone()) {
            Ok(()) => true,
            Err(crossbeam::channel::TrySendError::Full(_)) => {
                // Back-pressure policy: drop the event for this slow
                // consumer but keep the subscription. The paper's runtime
                // similarly favours freshness over completeness when a
                // consumer cannot keep up.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(crossbeam::channel::TrySendError::Disconnected(_)) => false,
        });
        event
    }
}

/// Type-erased view of a topic's counters, so the switchboard can
/// report on streams whose payload type it no longer knows.
trait TopicMeta: Send + Sync {
    fn seq(&self) -> u64;
    fn dropped(&self) -> u64;
    fn subscribers(&self) -> usize;
    fn queue_depth(&self) -> usize;
}

impl<T: Send + Sync> TopicMeta for TopicState<T> {
    fn seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn subscribers(&self) -> usize {
        self.subscribers.lock().len()
    }

    fn queue_depth(&self) -> usize {
        self.subscribers.lock().iter().map(Sender::len).sum()
    }
}

/// Point-in-time counters for one stream, from [`Switchboard::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicStats {
    /// Stream name.
    pub name: String,
    /// Events published so far.
    pub seq: u64,
    /// Events dropped across all synchronous readers (back-pressure).
    pub dropped: u64,
    /// Live synchronous subscriptions (disconnected readers are only
    /// garbage-collected on the next publish, so this can briefly
    /// over-count).
    pub subscribers: usize,
    /// Events currently queued, summed over all synchronous readers.
    pub queue_depth: usize,
}

/// Shared observability context for one stream: the (possibly
/// disabled) tracer and metrics plus the scope-qualified stream name
/// that seeds deterministic flow ids, and the histogram name derived
/// from it. Every name is built once here so neither `put` nor `recv`
/// formats or allocates.
#[derive(Clone)]
struct TopicObs {
    tracer: Tracer,
    metrics: Metrics,
    flow_name: Arc<str>,
    /// `topic.<flow_name>.publish_interval_ns`.
    interval_name: Arc<str>,
}

impl TopicObs {
    fn on_put(&self, track: &str, state: &AtomicU64, seq: u64) {
        if !self.tracer.is_enabled() {
            return;
        }
        let now = self.tracer.now_ns();
        self.tracer.flow(
            track,
            &self.flow_name,
            flow_id(&self.flow_name, seq),
            now,
            FlowPhase::Begin,
        );
        let last = state.swap(now, Ordering::SeqCst);
        if self.metrics.is_enabled() && last != u64::MAX && now >= last {
            self.metrics.record_ns(&self.interval_name, now - last);
        }
    }

    fn on_recv(&self, track: &str, seq: u64) {
        if !self.tracer.is_enabled() {
            return;
        }
        let now = self.tracer.now_ns();
        self.tracer.flow(
            track,
            &self.flow_name,
            flow_id(&self.flow_name, seq),
            now,
            FlowPhase::End,
        );
    }
}

/// Typed handle onto one stream, from [`Switchboard::topic`]. Vends
/// writers and readers; cloning is cheap and clones address the same
/// stream.
pub struct Topic<T> {
    state: Arc<TopicState<T>>,
    name: String,
    obs: TopicObs,
}

impl<T> Clone for Topic<T> {
    fn clone(&self) -> Self {
        Self { state: self.state.clone(), name: self.name.clone(), obs: self.obs.clone() }
    }
}

impl<T> std::fmt::Debug for Topic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Topic<{}>({})", type_name::<T>(), self.name)
    }
}

impl<T: Send + Sync + 'static> Topic<T> {
    /// Stream name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A writer publishing onto this stream.
    pub fn writer(&self) -> Writer<T> {
        Writer { topic: self.state.clone(), name: self.name.clone(), obs: self.obs.clone() }
    }

    /// An asynchronous (latest-value) reader.
    pub fn async_reader(&self) -> AsyncReader<T> {
        AsyncReader {
            topic: self.state.clone(),
            recv_track: self.recv_track(),
            name: self.name.clone(),
            obs: self.obs.clone(),
            last_seen: AtomicU64::new(u64::MAX),
        }
    }

    /// A synchronous (every-value) reader buffering up to `capacity`
    /// events.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn sync_reader(&self, capacity: usize) -> SyncReader<T> {
        assert!(capacity > 0, "sync reader capacity must be positive");
        self.subscribe(capacity)
    }

    /// A synchronous reader with an unbounded queue: the subscription
    /// never drops events to back-pressure.
    ///
    /// Sensor streams want freshness over completeness (a slow consumer
    /// skips samples, [`Topic::sync_reader`]); *event* streams — XR
    /// input, hit-test results, session lifecycle — must be lossless
    /// within a session, since a dropped `SelectEnd` leaves the
    /// application's input state stuck. The caller owns the memory
    /// consequence: queued events accumulate until drained.
    pub fn lossless_reader(&self) -> SyncReader<T> {
        self.subscribe(usize::MAX)
    }

    fn subscribe(&self, capacity: usize) -> SyncReader<T> {
        let (tx, rx) = bounded(capacity);
        self.state.subscribers.lock().push(tx);
        SyncReader {
            rx,
            recv_track: self.recv_track(),
            name: self.name.clone(),
            obs: self.obs.clone(),
        }
    }

    /// The track a reader's flow ends land on, built once per reader.
    fn recv_track(&self) -> String {
        format!("{}.recv", self.name)
    }
}

/// Publishes events onto a named stream.
pub struct Writer<T> {
    topic: Arc<TopicState<T>>,
    name: String,
    obs: TopicObs,
}

impl<T: Send + Sync> Writer<T> {
    /// Publishes an event, delivering it to all synchronous readers and
    /// making it the stream's latest value.
    pub fn put(&self, data: T) {
        let event = self.topic.publish(data);
        self.obs.on_put(&self.name, &self.topic.last_publish_ns, event.seq);
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl<T> std::fmt::Debug for Writer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Writer<{}>({})", type_name::<T>(), self.name)
    }
}

/// Reads the latest value of a stream (asynchronous dependence).
pub struct AsyncReader<T> {
    topic: Arc<TopicState<T>>,
    name: String,
    recv_track: String,
    obs: TopicObs,
    /// Highest sequence number already reported as a flow end, so
    /// repeated `latest()` polls of one event emit one flow event.
    last_seen: AtomicU64,
}

impl<T: Send + Sync> AsyncReader<T> {
    /// The most recent event on the stream, if any has been published.
    ///
    /// This is the one latest-value accessor; the payload is a
    /// dereference away (`reader.latest().unwrap().data`).
    pub fn latest(&self) -> Option<Arc<Event<T>>> {
        let event = self.topic.latest.read().clone();
        if let Some(e) = &event {
            // Report each event at most once per reader so a 500 Hz
            // poller doesn't flood the trace with duplicate flow ends.
            if self.last_seen.swap(e.seq, Ordering::SeqCst) != e.seq {
                self.obs.on_recv(&self.recv_track, e.seq);
            }
        }
        event
    }

    /// The most recent event without observability side effects: no
    /// flow event is recorded and the once-per-event dedup marker is
    /// untouched, so checkpoints and other out-of-band inspectors can
    /// peek mid-run without perturbing the trace a live run would emit.
    pub fn peek_latest(&self) -> Option<Arc<Event<T>>> {
        self.topic.latest.read().clone()
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl<T> std::fmt::Debug for AsyncReader<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AsyncReader<{}>({})", type_name::<T>(), self.name)
    }
}

/// Receives every event on a stream (synchronous dependence), buffered in
/// a bounded queue.
pub struct SyncReader<T> {
    rx: Receiver<Arc<Event<T>>>,
    name: String,
    recv_track: String,
    obs: TopicObs,
}

impl<T: Send + Sync> SyncReader<T> {
    /// Pops the next event without blocking; `None` when the queue is
    /// empty.
    pub fn try_recv(&self) -> Option<Arc<Event<T>>> {
        match self.rx.try_recv() {
            Ok(e) => {
                self.obs.on_recv(&self.recv_track, e.seq);
                Some(e)
            }
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Blocks until the next event arrives (live mode only).
    pub fn recv(&self) -> Option<Arc<Event<T>>> {
        let event = self.rx.recv().ok();
        if let Some(e) = &event {
            self.obs.on_recv(&self.recv_track, e.seq);
        }
        event
    }

    /// Drains currently queued events lazily, without allocating.
    /// Stops at the first empty poll, like [`SyncReader::drain`].
    pub fn drain_iter(&self) -> DrainIter<'_, T> {
        DrainIter { reader: self }
    }

    /// Drains all currently queued events into a `Vec`. Hot loops
    /// should prefer [`SyncReader::drain_iter`].
    pub fn drain(&self) -> Vec<Arc<Event<T>>> {
        self.drain_iter().collect()
    }

    /// Number of events currently queued.
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl<T> std::fmt::Debug for SyncReader<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SyncReader<{}>({})", type_name::<T>(), self.name)
    }
}

/// Lazy draining iterator over a [`SyncReader`]'s queued events, from
/// [`SyncReader::drain_iter`].
#[derive(Debug)]
pub struct DrainIter<'a, T> {
    reader: &'a SyncReader<T>,
}

impl<T: Send + Sync> Iterator for DrainIter<'_, T> {
    type Item = Arc<Event<T>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.reader.try_recv()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Lower bound 0: concurrent consumers may win the race.
        (0, None)
    }
}

/// The stream registry: hands out typed [`Topic`] handles for named
/// streams. Cloning is cheap and all clones share the same streams.
#[derive(Clone, Default)]
pub struct Switchboard {
    topics: Arc<RwLock<HashMap<String, TopicEntry>>>,
    tracer: Tracer,
    metrics: Metrics,
}

/// A registered stream: the typed topic behind an `Any` for readers and
/// writers, plus a type-erased counter view for [`Switchboard::stats`].
struct TopicEntry {
    type_id: TypeId,
    type_name: &'static str,
    topic: Arc<dyn Any + Send + Sync>,
    meta: Arc<dyn TopicMeta>,
}

impl Switchboard {
    /// Creates an empty switchboard with observability disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty switchboard that emits flow events through
    /// `tracer` on every `put`/`recv` and per-topic publish-interval
    /// histograms into `metrics`. Flow ids are seeded with the
    /// tracer's scope, so per-session scoped tracers keep sessions
    /// distinguishable.
    pub fn with_obs(tracer: Tracer, metrics: Metrics) -> Self {
        Self { topics: Arc::new(RwLock::new(HashMap::new())), tracer, metrics }
    }

    fn handle<T: Send + Sync + 'static>(&self, name: &str, state: Arc<TopicState<T>>) -> Topic<T> {
        let flow_name = format!("{}{}", self.tracer.scope(), name);
        Topic {
            state,
            name: name.to_owned(),
            obs: TopicObs {
                tracer: self.tracer.clone(),
                metrics: self.metrics.clone(),
                interval_name: Arc::from(format!("topic.{flow_name}.publish_interval_ns")),
                flow_name: Arc::from(flow_name),
            },
        }
    }

    /// Returns a typed handle onto stream `name`, creating the stream
    /// on first use.
    ///
    /// # Errors
    ///
    /// [`SwitchboardError::TypeMismatch`] when the stream already
    /// exists with a different payload type.
    pub fn topic<T: Send + Sync + 'static>(
        &self,
        name: &str,
    ) -> Result<Topic<T>, SwitchboardError> {
        // Fast path: topic exists.
        if let Some(entry) = self.topics.read().get(name) {
            return entry
                .topic
                .clone()
                .downcast::<TopicState<T>>()
                .map(|state| self.handle(name, state))
                .map_err(|_| SwitchboardError::TypeMismatch {
                    name: name.to_owned(),
                    requested: type_name::<T>(),
                    registered: entry.type_name,
                });
        }
        // Slow path: create it (another thread may have won the race).
        let mut topics = self.topics.write();
        let entry = topics.entry(name.to_owned()).or_insert_with(|| {
            let topic = Arc::new(TopicState::<T>::default());
            TopicEntry {
                type_id: TypeId::of::<T>(),
                type_name: type_name::<T>(),
                topic: topic.clone(),
                meta: topic,
            }
        });
        if entry.type_id != TypeId::of::<T>() {
            return Err(SwitchboardError::TypeMismatch {
                name: name.to_owned(),
                requested: type_name::<T>(),
                registered: entry.type_name,
            });
        }
        let state =
            entry.topic.clone().downcast::<TopicState<T>>().expect("type id verified above");
        Ok(self.handle(name, state))
    }

    /// Point-in-time counters for every stream, sorted by name: events
    /// published, events dropped to back-pressure, live synchronous
    /// subscriptions, and total queued events.
    pub fn stats(&self) -> Vec<TopicStats> {
        let mut stats: Vec<TopicStats> = self
            .topics
            .read()
            .iter()
            .map(|(name, entry)| TopicStats {
                name: name.clone(),
                seq: entry.meta.seq(),
                dropped: entry.meta.dropped(),
                subscribers: entry.meta.subscribers(),
                queue_depth: entry.meta.queue_depth(),
            })
            .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }
}

impl std::fmt::Debug for Switchboard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Switchboard({} streams)", self.topics.read().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic<T: Send + Sync + 'static>(sb: &Switchboard, name: &str) -> Topic<T> {
        sb.topic::<T>(name).expect("topic")
    }

    #[test]
    fn async_reader_sees_latest_only() {
        let sb = Switchboard::new();
        let t = topic::<u32>(&sb, "s");
        let w = t.writer();
        let r = t.async_reader();
        assert!(r.latest().is_none());
        w.put(1);
        w.put(2);
        assert_eq!(**r.latest().unwrap(), 2);
    }

    #[test]
    fn sync_reader_sees_every_value_in_order() {
        let sb = Switchboard::new();
        let t = topic::<u32>(&sb, "s");
        let w = t.writer();
        let r = t.sync_reader(16);
        for i in 0..5 {
            w.put(i);
        }
        let values: Vec<u32> = r.drain().iter().map(|e| e.data).collect();
        assert_eq!(values, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drain_iter_is_lazy_and_complete() {
        let sb = Switchboard::new();
        let t = topic::<u32>(&sb, "s");
        let w = t.writer();
        let r = t.sync_reader(16);
        for i in 0..5 {
            w.put(i);
        }
        let mut it = r.drain_iter();
        assert_eq!(**it.next().unwrap(), 0);
        // Events published mid-drain are still observed (lazy pull).
        w.put(99);
        let rest: Vec<u32> = it.map(|e| e.data).collect();
        assert_eq!(rest, vec![1, 2, 3, 4, 99]);
        assert!(r.is_empty());
    }

    #[test]
    fn sync_reader_only_sees_events_after_subscription() {
        let sb = Switchboard::new();
        let t = topic::<u32>(&sb, "s");
        let w = t.writer();
        w.put(99);
        let r = t.sync_reader(4);
        assert!(r.try_recv().is_none());
        w.put(1);
        assert_eq!(**r.try_recv().unwrap(), 1);
    }

    #[test]
    fn bounded_queue_drops_for_slow_consumer_but_latest_works() {
        let sb = Switchboard::new();
        let t = topic::<u32>(&sb, "s");
        let w = t.writer();
        let r = t.sync_reader(2);
        let latest = t.async_reader();
        for i in 0..10 {
            w.put(i);
        }
        // Queue holds only the first two; the rest were dropped for this
        // subscriber, but the stream's latest value is unaffected.
        assert_eq!(r.len(), 2);
        assert_eq!(**latest.latest().unwrap(), 9);
    }

    #[test]
    fn lossless_reader_never_drops() {
        let sb = Switchboard::new();
        let t = topic::<u32>(&sb, "xr/input");
        let w = t.writer();
        let r = t.lossless_reader();
        // Far past any bounded reader's default capacity.
        for i in 0..5000 {
            w.put(i);
        }
        assert_eq!(sb.stats()[0].dropped, 0);
        assert_eq!(r.len(), 5000);
        let values: Vec<u32> = r.drain_iter().map(|e| e.data).collect();
        assert_eq!(values.len(), 5000);
        assert!(values.iter().enumerate().all(|(i, &v)| v == i as u32), "in order, complete");
    }

    #[test]
    fn events_have_sequence_numbers() {
        let sb = Switchboard::new();
        let t = topic::<&str>(&sb, "s");
        let w = t.writer();
        let r = t.sync_reader(4);
        w.put("a");
        w.put("b");
        assert_eq!(r.try_recv().unwrap().seq, 0);
        assert_eq!(r.try_recv().unwrap().seq, 1);
    }

    #[test]
    fn multiple_subscribers_all_receive() {
        let sb = Switchboard::new();
        let t = topic::<u32>(&sb, "s");
        let w = t.writer();
        let r1 = t.sync_reader(4);
        let r2 = t.sync_reader(4);
        w.put(7);
        assert_eq!(**r1.try_recv().unwrap(), 7);
        assert_eq!(**r2.try_recv().unwrap(), 7);
    }

    #[test]
    fn type_mismatch_is_an_error_not_a_panic() {
        let sb = Switchboard::new();
        let _t = topic::<u32>(&sb, "s");
        match sb.topic::<f64>("s") {
            Err(SwitchboardError::TypeMismatch { name, requested, registered }) => {
                assert_eq!(name, "s");
                assert!(requested.contains("f64"), "requested {requested}");
                assert!(registered.contains("u32"), "registered {registered}");
            }
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn cross_thread_delivery() {
        let sb = Switchboard::new();
        let t = topic::<u32>(&sb, "s");
        let w = t.writer();
        let r = t.sync_reader(64);
        let handle = std::thread::spawn(move || {
            for i in 0..32 {
                w.put(i);
            }
        });
        handle.join().unwrap();
        assert_eq!(r.drain().len(), 32);
    }

    /// Live mode's blocking read under real contention: the consumer
    /// parks in `recv` whenever it has drained the queue, two writers
    /// yield at seeded random points, and the stream going away (its
    /// last handle dropped, and with it the subscription's sender) must
    /// still wake the consumer. A missed wake-up hangs it; the watchdog
    /// turns that into a failure.
    #[test]
    fn blocking_recv_is_woken_by_every_put_and_by_the_last_drop() {
        const PER_WRITER: u64 = 50_000;
        let sb = Switchboard::new();
        let t = topic::<(u64, u64)>(&sb, "s");
        let reader = t.lossless_reader();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let consumer = std::thread::spawn(move || {
            let mut next = [0u64; 2];
            while let Some(event) = reader.recv() {
                let (writer, k) = event.data;
                assert_eq!(k, next[writer as usize], "writer {writer} out of order");
                next[writer as usize] += 1;
            }
            done_tx.send(next).unwrap();
        });
        let writers: Vec<_> = (0..2u64)
            .map(|writer| {
                let w = t.writer();
                std::thread::spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15 ^ (writer + 1);
                    for k in 0..PER_WRITER {
                        w.put((writer, k));
                        // xorshift64; yield after about one put in four.
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        if rng & 3 == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // The registry and this handle are the stream's last owners.
        drop((t, sb));
        let received = done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("consumer hung: a wake-up was missed");
        assert_eq!(received, [PER_WRITER; 2]);
        consumer.join().unwrap();
    }

    #[test]
    fn stats_report_per_stream_counters() {
        let sb = Switchboard::new();
        let t = topic::<u32>(&sb, "imu");
        let w = t.writer();
        let _fast = t.sync_reader(2);
        let _slow = t.sync_reader(64);
        let _other = topic::<&str>(&sb, "camera");
        for i in 0..10 {
            w.put(i);
        }
        let stats = sb.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "camera");
        assert_eq!(stats[0].seq, 0);
        let imu = &stats[1];
        assert_eq!(imu.name, "imu");
        assert_eq!(imu.seq, 10);
        assert_eq!(imu.dropped, 8); // capacity-2 reader missed 8 of 10
        assert_eq!(imu.subscribers, 2);
        // 2 queued in the capacity-2 reader + 10 in the capacity-64 one.
        assert_eq!(imu.queue_depth, 12);
    }

    #[test]
    fn queue_depth_falls_as_events_are_consumed() {
        let sb = Switchboard::new();
        let t = topic::<u32>(&sb, "s");
        let w = t.writer();
        let r = t.sync_reader(8);
        for i in 0..4 {
            w.put(i);
        }
        assert_eq!(sb.stats()[0].queue_depth, 4);
        let _ = r.try_recv();
        let _ = r.try_recv();
        assert_eq!(sb.stats()[0].queue_depth, 2);
    }

    #[test]
    fn obs_switchboard_emits_paired_flow_events() {
        use crate::clock::SimClock;
        use crate::obs::tracer_for;
        use crate::time::Time;

        let clock = Arc::new(SimClock::new());
        let tracer = tracer_for(clock.clone());
        let sb = Switchboard::with_obs(tracer.scoped("s0/"), Metrics::new());
        let t = topic::<u32>(&sb, "imu");
        let w = t.writer();
        let r = t.sync_reader(8);
        clock.advance_to(Time::from_micros(10));
        w.put(7);
        clock.advance_to(Time::from_micros(25));
        let _ = r.try_recv();

        let flows = tracer.flows();
        assert_eq!(flows.len(), 2);
        let begin = flows.iter().find(|f| f.phase == FlowPhase::Begin).unwrap();
        let end = flows.iter().find(|f| f.phase == FlowPhase::End).unwrap();
        assert_eq!(begin.id, end.id);
        assert_eq!(begin.id, flow_id("s0/imu", 0));
        assert_eq!(begin.track, "s0/imu");
        assert_eq!(end.track, "s0/imu.recv");
        assert_eq!((begin.at_ns, end.at_ns), (10_000, 25_000));
    }

    #[test]
    fn async_reader_reports_each_event_once() {
        use crate::clock::SimClock;
        use crate::obs::tracer_for;

        let clock = Arc::new(SimClock::new());
        let tracer = tracer_for(clock);
        let sb = Switchboard::with_obs(tracer.clone(), Metrics::disabled());
        let t = topic::<u32>(&sb, "pose");
        let w = t.writer();
        let r = t.async_reader();
        w.put(1);
        let _ = r.latest();
        let _ = r.latest();
        let _ = r.latest();
        w.put(2);
        let _ = r.latest();
        let ends = tracer.flows().iter().filter(|f| f.phase == FlowPhase::End).count();
        assert_eq!(ends, 2);
    }
}
