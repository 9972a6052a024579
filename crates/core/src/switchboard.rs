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
//! conflict surfaces as a [`SwitchboardError`] instead of a panic. When
//! the switchboard is built with `Switchboard::with_obs`, every
//! `put`/receive pair additionally emits a flow event with a
//! deterministic id, letting the obs exporter stitch producer→consumer
//! causal chains across a trace.
//!
//! # One stream, one lock
//!
//! Every receive polls: a plugin's `iterate` runs on the threadloop's
//! period or the simulator's schedule and asks its readers what has
//! arrived, so no reader ever sleeps on a stream and nothing here wakes
//! one. A stream is one object; `Topic`, `Writer`, `AsyncReader` and
//! `SyncReader` are references to it. Its one lock guards the sequence
//! counter, the latest event and the list of subscriptions, and a `put`
//! assigns the `seq`, replaces `latest` and pushes every subscription's
//! queue inside one critical section. Queue order is therefore `seq`
//! order is `latest` order, for any number of writer threads: two
//! writers cannot interleave between taking a `seq` and queuing it.
//!
//! The IMU and fast-pose streams carry 500 events a second a session, so
//! the stream's own cost is most of what their consumers cost. A `put`
//! costs that one lock, the one `Arc<Event<T>>` its readers share and one
//! queue push a subscriber; a receive is one queue pop or one clone of
//! `latest`, and allocates nothing whether observability is on or off —
//! the track and histogram names it needs are built with the stream.
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

use std::any::{type_name, Any};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

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

/// One synchronous reader's queue, shared between the stream (which
/// pushes under its lock) and the one [`SyncReader`] that pops. The
/// reader is not `Clone`, so a reference count of one means the reader
/// is gone for good.
struct Subscription<T> {
    /// Grown on demand: a queue drained as fast as it fills stays a few
    /// slots long whatever its capacity.
    queue: Mutex<VecDeque<Arc<Event<T>>>>,
    capacity: usize,
}

/// What a stream's one lock guards.
struct Shared<T> {
    seq: u64,
    latest: Option<Arc<Event<T>>>,
    subscribers: Vec<Arc<Subscription<T>>>,
    dropped: u64,
}

/// One stream. Every name is built once here so neither `put` nor a
/// receive formats or allocates.
struct TopicState<T> {
    name: Box<str>,
    /// `<name>.recv`: the track readers' flow ends land on.
    recv_track: Box<str>,
    /// The tracer's scope plus the stream name; seeds deterministic
    /// flow ids.
    flow_name: Box<str>,
    /// `topic.<flow_name>.publish_interval_ns`.
    interval_name: Box<str>,
    tracer: Tracer,
    metrics: Metrics,
    shared: Mutex<Shared<T>>,
    last_publish_ns: AtomicU64,
}

impl<T> TopicState<T> {
    fn new(name: &str, tracer: &Tracer, metrics: &Metrics) -> Self {
        let flow_name = format!("{}{}", tracer.scope(), name);
        Self {
            name: name.into(),
            recv_track: format!("{name}.recv").into(),
            interval_name: format!("topic.{flow_name}.publish_interval_ns").into(),
            flow_name: flow_name.into(),
            tracer: tracer.clone(),
            metrics: metrics.clone(),
            shared: Mutex::new(Shared {
                seq: 0,
                latest: None,
                subscribers: Vec::new(),
                dropped: 0,
            }),
            last_publish_ns: AtomicU64::new(u64::MAX),
        }
    }

    fn publish(&self, data: T) -> u64 {
        let mut guard = self.shared.lock().unwrap();
        let shared = &mut *guard;
        let seq = shared.seq;
        shared.seq += 1;
        let event = Arc::new(Event { seq, data });
        let Shared { subscribers, dropped, .. } = shared;
        subscribers.retain(|sub| {
            // A subscription only the stream still holds lost its reader.
            if Arc::strong_count(sub) == 1 {
                return false;
            }
            let mut queue = sub.queue.lock().unwrap();
            if queue.len() < sub.capacity {
                queue.push_back(event.clone());
            } else {
                // Back-pressure policy: drop the event for this slow
                // consumer but keep the subscription. The paper's runtime
                // similarly favours freshness over completeness when a
                // consumer cannot keep up.
                *dropped += 1;
            }
            true
        });
        shared.latest = Some(event);
        seq
    }

    fn latest(&self) -> Option<Arc<Event<T>>> {
        self.shared.lock().unwrap().latest.clone()
    }

    fn on_put(&self, seq: u64) {
        if !self.tracer.is_enabled() {
            return;
        }
        let now = self.tracer.now_ns();
        self.flow(&self.name, seq, now, FlowPhase::Begin);
        let last = self.last_publish_ns.swap(now, Ordering::SeqCst);
        if self.metrics.is_enabled() && last != u64::MAX && now >= last {
            self.metrics.record_ns(&self.interval_name, now - last);
        }
    }

    fn on_recv(&self, seq: u64) {
        if self.tracer.is_enabled() {
            self.flow(&self.recv_track, seq, self.tracer.now_ns(), FlowPhase::End);
        }
    }

    fn flow(&self, track: &str, seq: u64, now: u64, phase: FlowPhase) {
        self.tracer.flow(track, &self.flow_name, flow_id(&self.flow_name, seq), now, phase);
    }
}

/// Type-erased view of a stream: its counters, for a switchboard that
/// no longer knows the payload type, and (as `Any`) the way back to the
/// typed stream for a caller that does.
trait TopicMeta: Any + Send + Sync {
    fn stats(&self) -> TopicStats;
}

impl<T: Send + Sync + 'static> TopicMeta for TopicState<T> {
    fn stats(&self) -> TopicStats {
        let shared = self.shared.lock().unwrap();
        TopicStats {
            name: self.name.to_string(),
            seq: shared.seq,
            dropped: shared.dropped,
            subscribers: shared.subscribers.len(),
            queue_depth: shared.subscribers.iter().map(|sub| sub.queue.lock().unwrap().len()).sum(),
        }
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
    /// Live synchronous subscriptions (a dropped reader's is only
    /// garbage-collected on the next publish, so this can briefly
    /// over-count).
    pub subscribers: usize,
    /// Events currently queued, summed over all synchronous readers.
    pub queue_depth: usize,
}

/// Typed handle onto one stream, from [`Switchboard::topic`]. Vends
/// writers and readers; cloning is cheap and clones address the same
/// stream.
pub struct Topic<T> {
    state: Arc<TopicState<T>>,
}

impl<T> Clone for Topic<T> {
    fn clone(&self) -> Self {
        Self { state: self.state.clone() }
    }
}

impl<T: Send + Sync + 'static> Topic<T> {
    /// A writer publishing onto this stream.
    pub fn writer(&self) -> Writer<T> {
        Writer { topic: self.state.clone() }
    }

    /// An asynchronous (latest-value) reader.
    pub fn async_reader(&self) -> AsyncReader<T> {
        AsyncReader { topic: self.state.clone(), last_seen: AtomicU64::new(u64::MAX) }
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
    /// input, hit-test results — must be lossless
    /// within a session, since a dropped `SelectEnd` leaves the
    /// application's input state stuck. The caller owns the memory
    /// consequence: queued events accumulate until drained.
    pub fn lossless_reader(&self) -> SyncReader<T> {
        self.subscribe(usize::MAX)
    }

    fn subscribe(&self, capacity: usize) -> SyncReader<T> {
        let sub = Arc::new(Subscription { queue: Mutex::new(VecDeque::new()), capacity });
        self.state.shared.lock().unwrap().subscribers.push(sub.clone());
        SyncReader { topic: self.state.clone(), sub }
    }
}

/// Publishes events onto a named stream.
pub struct Writer<T> {
    topic: Arc<TopicState<T>>,
}

impl<T: Send + Sync> Writer<T> {
    /// Publishes an event, delivering it to all synchronous readers and
    /// making it the stream's latest value.
    pub fn put(&self, data: T) {
        let seq = self.topic.publish(data);
        self.topic.on_put(seq);
    }
}

/// Reads the latest value of a stream (asynchronous dependence).
pub struct AsyncReader<T> {
    topic: Arc<TopicState<T>>,
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
        let event = self.topic.latest();
        if let Some(e) = &event {
            // Report each event at most once per reader so a 500 Hz
            // poller doesn't flood the trace with duplicate flow ends.
            if self.last_seen.swap(e.seq, Ordering::SeqCst) != e.seq {
                self.topic.on_recv(e.seq);
            }
        }
        event
    }

    /// The most recent event without observability side effects: no
    /// flow event is recorded and the once-per-event dedup marker is
    /// untouched, so checkpoints and other out-of-band inspectors can
    /// peek mid-run without perturbing the trace a live run would emit.
    pub fn peek_latest(&self) -> Option<Arc<Event<T>>> {
        self.topic.latest()
    }
}

/// Receives every event on a stream (synchronous dependence), buffered in
/// a bounded queue. Deliberately not `Clone`: the stream collects a
/// subscription once its one reader is dropped.
pub struct SyncReader<T> {
    topic: Arc<TopicState<T>>,
    sub: Arc<Subscription<T>>,
}

impl<T: Send + Sync> SyncReader<T> {
    /// Pops the next event; `None` when the queue is empty.
    pub fn try_recv(&self) -> Option<Arc<Event<T>>> {
        let event = self.sub.queue.lock().unwrap().pop_front()?;
        self.topic.on_recv(event.seq);
        Some(event)
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
        self.sub.queue.lock().unwrap().len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> std::fmt::Debug for Topic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Topic<{}>({})", type_name::<T>(), self.state.name)
    }
}

impl<T> std::fmt::Debug for Writer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Writer<{}>({})", type_name::<T>(), self.topic.name)
    }
}

impl<T> std::fmt::Debug for AsyncReader<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AsyncReader<{}>({})", type_name::<T>(), self.topic.name)
    }
}

impl<T> std::fmt::Debug for SyncReader<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SyncReader<{}>({})", type_name::<T>(), self.topic.name)
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
}

/// The stream registry: hands out typed [`Topic`] handles for named
/// streams. Cloning is cheap and all clones share the same streams.
#[derive(Clone, Default)]
pub struct Switchboard {
    topics: Arc<RwLock<HashMap<String, TopicEntry>>>,
    tracer: Tracer,
    metrics: Metrics,
}

/// A registered stream and the name of its payload type.
struct TopicEntry {
    type_name: &'static str,
    topic: Arc<dyn TopicMeta>,
}

impl TopicEntry {
    fn typed<T: Send + Sync + 'static>(&self, name: &str) -> Result<Topic<T>, SwitchboardError> {
        let topic: Arc<dyn Any + Send + Sync> = self.topic.clone();
        match topic.downcast::<TopicState<T>>() {
            Ok(state) => Ok(Topic { state }),
            Err(_) => Err(SwitchboardError::TypeMismatch {
                name: name.to_owned(),
                requested: type_name::<T>(),
                registered: self.type_name,
            }),
        }
    }
}

impl Switchboard {
    /// Creates an empty switchboard with observability disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty switchboard that emits flow events through
    /// `tracer` on every `put`/receive and per-topic publish-interval
    /// histograms into `metrics`. Flow ids are seeded with the
    /// tracer's scope, so per-session scoped tracers keep sessions
    /// distinguishable.
    pub(crate) fn with_obs(tracer: Tracer, metrics: Metrics) -> Self {
        Self { topics: Arc::default(), tracer, metrics }
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
        if let Some(entry) = self.topics.read().unwrap().get(name) {
            return entry.typed(name);
        }
        // Slow path: create it (another thread may have won the race).
        self.topics
            .write()
            .unwrap()
            .entry(name.to_owned())
            .or_insert_with(|| {
                let topic = Arc::new(TopicState::<T>::new(name, &self.tracer, &self.metrics));
                TopicEntry { type_name: type_name::<T>(), topic }
            })
            .typed(name)
    }

    /// Point-in-time counters for every stream, sorted by name: events
    /// published, events dropped to back-pressure, live synchronous
    /// subscriptions, and total queued events.
    pub fn stats(&self) -> Vec<TopicStats> {
        let mut stats: Vec<TopicStats> =
            self.topics.read().unwrap().values().map(|entry| entry.topic.stats()).collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }
}

impl std::fmt::Debug for Switchboard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Switchboard({} streams)", self.topics.read().unwrap().len())
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

    /// The stream's invariant under real contention: two writers race
    /// on one stream and a polling reader must pop `seq` 0, 1, 2, … with
    /// no gap and no swap, ending on the event `latest` holds. A gap
    /// panics the consumer and a lost event hangs it; the watchdog turns
    /// both into a failure.
    #[test]
    fn queue_order_is_seq_order_under_two_writers() {
        const PER_WRITER: u64 = 100_000;
        let sb = Switchboard::new();
        let t = topic::<u64>(&sb, "s");
        let reader = t.lossless_reader();
        let start = Arc::new(std::sync::Barrier::new(3));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let (w, start) = (t.writer(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for k in 0..PER_WRITER {
                        w.put(k);
                    }
                })
            })
            .collect();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let consumer = std::thread::spawn(move || {
            start.wait();
            let mut next = 0;
            while next < 2 * PER_WRITER {
                match reader.try_recv() {
                    Some(event) => {
                        assert_eq!(event.seq, next, "queue order is not seq order");
                        next += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            done_tx.send(()).unwrap();
        });
        for w in writers {
            w.join().unwrap();
        }
        let finished = done_rx.recv_timeout(std::time::Duration::from_secs(30));
        consumer.join().expect("consumer saw a gap");
        finished.expect("consumer hung: an event was lost");
        assert_eq!(t.async_reader().latest().unwrap().seq, 2 * PER_WRITER - 1);
        let stats = &sb.stats()[0];
        assert_eq!((stats.seq, stats.dropped, stats.queue_depth), (2 * PER_WRITER, 0, 0));
    }

    #[test]
    fn a_dropped_reader_is_collected_at_the_next_publish() {
        let sb = Switchboard::new();
        let t = topic::<u32>(&sb, "s");
        let w = t.writer();
        let gone = t.sync_reader(1);
        let kept = t.sync_reader(4);
        assert_eq!(sb.stats()[0].subscribers, 2);
        drop(gone);
        assert_eq!(sb.stats()[0].subscribers, 2, "collected by a publish, not by the drop");
        w.put(7);
        let stats = &sb.stats()[0];
        assert_eq!((stats.subscribers, stats.dropped, stats.queue_depth), (1, 0, 1));
        assert_eq!(**kept.try_recv().unwrap(), 7);
    }

    #[test]
    fn handles_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Topic<u32>>();
        assert_send_sync::<Writer<u32>>();
        assert_send_sync::<AsyncReader<u32>>();
        assert_send_sync::<SyncReader<u32>>();
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
