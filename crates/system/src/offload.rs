//! Component offloading: running a plugin "remotely" behind a modeled
//! network link.
//!
//! The paper's footnote 2: *"Since component interfaces are well-specified
//! and modular, a local component can be easily swapped with a remote one
//! without modifying the rest of the system. We have already implemented
//! offloading some components and plan a generalized offloading module
//! that any component can use."* This module is that generalized
//! mechanism for ILLIXR-rs: [`OffloadedPlugin`] wraps any plugin in its
//! own private switchboard and *bridges* its input and output streams
//! across an [`OffloadLink`] with configurable uplink/downlink latency
//! and jitter. The rest of the system keeps talking to the same stream
//! names and cannot tell the component moved to an edge server — except
//! through the added latency, which is precisely the research question
//! (device–edge partitioning, §V-F).
//!
//! Each bridged transfer's final `(due time, duplicate)` outcome is a
//! physical input: `StreamBridge::pump` crosses the determinism
//! boundary with one `Boundary::cross` per transfer on
//! `offload/<plugin>/{up,down}/<stream>`, taking exactly one
//! [`Delivery`], the payload type. Which side of the cut a component
//! runs on is decided by the experiment runner's placement plan
//! (`experiment.rs`), not here: this wrapper is always the remote side.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use illixr_core::boundary::{
    Boundary, ByteReader, ByteWriter, DecodeError, SessionTransform, Wire,
};
use illixr_core::fault::FaultPlan;
use illixr_core::link::{Direction, LinkProfile};
use illixr_core::plugin::{IterationReport, Plugin, PluginContext};
use illixr_core::{Switchboard, Time};
use illixr_platform::rng::SplitMix64;

/// A modeled network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadLink {
    /// Device → server latency.
    pub uplink: Duration,
    /// Server → device latency.
    pub downlink: Duration,
    /// Log-normal jitter sigma applied to each transfer (0 = none).
    pub jitter_sigma: f64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl OffloadLink {
    /// A symmetric link with the given one-way latency and no jitter.
    ///
    /// The RNG seed is pinned to `0`. With `jitter_sigma == 0.0` the
    /// jitter RNG is never drawn, but the seed *still* keys stochastic
    /// link faults (duplicate/reorder draws in the stream bridges), so
    /// two `symmetric` links in one run share a fault-outcome universe.
    /// Build from a profile with [`OffloadLink::from_profile`], which
    /// threads the run seed through, when fault independence matters.
    pub fn symmetric(one_way: Duration) -> Self {
        Self { uplink: one_way, downlink: one_way, jitter_sigma: 0.0, seed: 0 }
    }

    /// A point-to-point link with a [`LinkProfile`]'s propagation
    /// latency and jitter, keyed by the run seed. Bandwidth is not
    /// modeled here (the point-to-point pipe is latency-only); use
    /// `illixr_server`'s `SharedLink` when serialization and queueing
    /// matter.
    pub fn from_profile(profile: LinkProfile, seed: u64) -> Self {
        Self {
            uplink: profile.base_latency,
            downlink: profile.base_latency,
            jitter_sigma: profile.jitter_sigma,
            seed,
        }
    }

    /// Adds log-normal jitter with the given sigma.
    pub fn with_jitter(mut self, sigma: f64, seed: u64) -> Self {
        self.jitter_sigma = sigma;
        self.seed = seed;
        self
    }
}

/// A one-direction, one-stream bridge pumped by the wrapper each
/// iteration: events read on the source switchboard become visible on
/// the destination switchboard after the link delay.
/// A deferred bridge constructor, run at `start` when the outer context
/// is known.
type BridgeFactory =
    Box<dyn FnOnce(&PluginContext, &Switchboard, OffloadLink, &str) -> Box<dyn Bridge> + Send>;

trait Bridge: Send {
    /// Moves due events; `now` is the runtime clock.
    fn pump(&mut self, now: Time);
}

struct StreamBridge<T: Clone + Send + Sync + 'static> {
    reader: illixr_core::SyncReader<T>,
    writer: illixr_core::Writer<T>,
    delay: Duration,
    jitter_sigma: f64,
    rng: SplitMix64,
    queue: VecDeque<(Time, T)>,
    /// The runtime's fault plan and the fault target this bridge
    /// reports as (the offloaded plugin's name).
    plan: Arc<FaultPlan>,
    target: String,
    /// Per-bridge transfer counter keying stochastic link faults.
    seq: u64,
    /// Latest scheduled delivery among in-order packets: nominal
    /// traffic never overtakes (per-stream FIFO even under jitter);
    /// only a `LinkReorder` fault may fall behind its successors.
    watermark: Time,
    /// Determinism boundary: each transfer's final `(due, duplicate)`
    /// outcome is recorded on `label` (and replayed from it instead of
    /// consulting the jitter RNG or the fault plan).
    boundary: Arc<Boundary>,
    label: String,
}

/// Boundary payload for one bridge transfer: final delivery time plus
/// the duplicate flag (jitter, outages, reordering and the watermark
/// clamp are already folded into `due_ns`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Delivery {
    pub due_ns: u64,
    pub duplicate: bool,
}

impl Wire for Delivery {
    fn put(&self, w: &mut ByteWriter, _: u64) {
        w.put_u64(self.due_ns);
        w.put_tag(self.duplicate);
    }

    fn take(r: &mut ByteReader, _: u64, _: &SessionTransform) -> Result<Self, DecodeError> {
        Ok(Delivery { due_ns: r.take_u64()?, duplicate: r.take_tag()? })
    }
}

impl<T: Clone + Send + Sync + 'static> Bridge for StreamBridge<T> {
    fn pump(&mut self, now: Time) {
        let faults = (!self.plan.is_quiet()).then(|| self.plan.link(&self.target));
        // Ingest new events with their delivery times.
        for event in self.reader.drain_iter() {
            let seq = self.seq;
            self.seq += 1;
            // Replay: the recorded outcome replaces the jitter RNG and the
            // fault plan entirely. Ingest order and times are
            // deterministic, so records pair up one-to-one.
            let crossing = self.boundary.cross(&self.label, now.as_nanos(), || {
                let jitter = if self.jitter_sigma > 0.0 {
                    self.rng.next_lognormal(self.jitter_sigma)
                } else {
                    1.0
                };
                let mut scale = jitter;
                if let Some(f) = &faults {
                    scale *= f.jitter_scale(now.as_nanos());
                }
                let delay = Duration::from_secs_f64(self.delay.as_secs_f64() * scale);
                let mut due = now + delay;
                let mut duplicate = false;
                let mut reordered = false;
                if let Some(f) = &faults {
                    if let Some(outage_end) = f.outage_until(now.as_nanos()) {
                        // The packet is held until the outage clears.
                        due = due.max(Time::from_nanos(outage_end));
                    }
                    if f.reorder(seq) {
                        // Held one extra link delay so it lands behind
                        // its successors.
                        due += self.delay;
                        reordered = true;
                    }
                    duplicate = f.duplicate(seq);
                }
                if !reordered {
                    due = due.max(self.watermark);
                    self.watermark = due;
                }
                Some((now.as_nanos(), Delivery { due_ns: due.as_nanos(), duplicate }))
            });
            // `generate` always yields, so the default is never taken.
            let Delivery { due_ns, duplicate } = crossing.one().unwrap_or_default();
            let due = Time::from_nanos(due_ns);
            // Due-sorted insert (stable): reorder-faulted packets
            // genuinely deliver after the ones that overtook them,
            // instead of head-of-line-blocking the queue.
            let pos = self.queue.iter().rposition(|(d, _)| *d <= due).map_or(0, |p| p + 1);
            self.queue.insert(pos, (due, event.data.clone()));
            if duplicate {
                self.queue.insert(pos + 1, (due, event.data.clone()));
            }
        }
        // Deliver what has arrived.
        while let Some((due, _)) = self.queue.front() {
            if *due > now {
                break;
            }
            let (_, value) = self.queue.pop_front().expect("checked front");
            self.writer.put(value);
        }
    }
}

/// A plugin running behind a network link.
///
/// Construct with [`OffloadedPlugin::new`], then declare which streams
/// cross the link with [`OffloadedPlugin::uplink`] (inputs) and
/// [`OffloadedPlugin::downlink`] (outputs) *before* the runtime calls
/// `start`.
pub struct OffloadedPlugin {
    inner: Box<dyn Plugin>,
    link: OffloadLink,
    /// The remote side's private switchboard.
    remote_switchboard: Switchboard,
    /// Deferred bridge constructors (run at start, when the outer
    /// context is known).
    pending: Vec<BridgeFactory>,
    bridges: Vec<Box<dyn Bridge>>,
    remote_ctx: Option<PluginContext>,
    name: String,
}

impl std::fmt::Debug for OffloadedPlugin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OffloadedPlugin({}, {} bridges)", self.name, self.bridges.len())
    }
}

impl OffloadedPlugin {
    /// Wraps `inner` behind `link`.
    pub fn new(inner: Box<dyn Plugin>, link: OffloadLink) -> Self {
        let name = format!("{}@remote", inner.name());
        Self {
            inner,
            link,
            remote_switchboard: Switchboard::new(),
            pending: Vec::new(),
            bridges: Vec::new(),
            remote_ctx: None,
            name,
        }
    }

    /// Declares an input stream that crosses the uplink (device →
    /// server): events published locally reach the remote component
    /// after `link.uplink`.
    pub fn uplink<T: Clone + Send + Sync + 'static>(self, stream: &str) -> Self {
        self.bridged::<T>(stream, Direction::Uplink)
    }

    /// Declares an output stream that crosses the downlink (server →
    /// device).
    pub fn downlink<T: Clone + Send + Sync + 'static>(self, stream: &str) -> Self {
        self.bridged::<T>(stream, Direction::Downlink)
    }

    fn bridged<T: Clone + Send + Sync + 'static>(
        mut self,
        stream: &str,
        direction: Direction,
    ) -> Self {
        let stream = stream.to_owned();
        let nth = self.pending.len() as u64;
        self.pending.push(Box::new(move |outer, remote, link, target| {
            let (from, to, delay, rng_salt, dir) = match direction {
                Direction::Uplink => (&outer.switchboard, remote, link.uplink, 0xB0A7 + nth, "up"),
                Direction::Downlink => {
                    (remote, &outer.switchboard, link.downlink, 0xE030 + nth, "down")
                }
            };
            Box::new(StreamBridge::<T> {
                reader: from.topic::<T>(&stream).expect("stream").sync_reader(4096),
                writer: to.topic::<T>(&stream).expect("stream").writer(),
                delay,
                jitter_sigma: link.jitter_sigma,
                rng: SplitMix64::new(link.seed ^ rng_salt),
                queue: VecDeque::new(),
                plan: outer.fault.clone(),
                target: target.to_owned(),
                seq: 0,
                watermark: Time::ZERO,
                boundary: outer.boundary.clone(),
                label: format!("offload/{target}/{dir}/{stream}"),
            })
        }));
        self
    }
}

impl Plugin for OffloadedPlugin {
    fn name(&self) -> &str {
        &self.name
    }

    fn start(&mut self, ctx: &PluginContext) {
        // The remote component lives in its own context: private
        // switchboard, everything else shared.
        let remote_ctx =
            PluginContext { switchboard: self.remote_switchboard.clone(), ..ctx.clone() };
        let target = self.inner.name().to_owned();
        for make in self.pending.drain(..) {
            self.bridges.push(make(ctx, &self.remote_switchboard, self.link, &target));
        }
        self.inner.start(&remote_ctx);
        // Keep the remote context for iterate.
        self.remote_ctx = Some(remote_ctx);
    }

    fn iterate(&mut self, ctx: &PluginContext) -> IterationReport {
        let now = ctx.clock.now();
        // Pump uplinks, run the remote component, pump downlinks.
        for b in &mut self.bridges {
            b.pump(now);
        }
        let remote_ctx = self.remote_ctx.as_ref().expect("start() must run before iterate()");
        let report = self.inner.iterate(remote_ctx);
        for b in &mut self.bridges {
            b.pump(now);
        }
        report
    }

    fn stop(&mut self) {
        self.inner.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use illixr_core::{Clock, RuntimeBuilder, SimClock};

    struct Echo {
        reader: Option<illixr_core::SyncReader<u32>>,
        writer: Option<illixr_core::Writer<u32>>,
    }
    impl Plugin for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn start(&mut self, ctx: &PluginContext) {
            self.reader = Some(ctx.switchboard.topic::<u32>("in").expect("stream").sync_reader(64));
            self.writer = Some(ctx.switchboard.topic::<u32>("out").expect("stream").writer());
        }
        fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
            let mut any = false;
            while let Some(v) = self.reader.as_ref().expect("started").try_recv() {
                self.writer.as_ref().expect("started").put(v.data + 1);
                any = true;
            }
            if any {
                IterationReport::nominal()
            } else {
                IterationReport::skipped()
            }
        }
    }

    fn echo() -> Box<dyn Plugin> {
        Box::new(Echo { reader: None, writer: None })
    }

    #[test]
    fn events_cross_the_link_with_delay() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let mut remote =
            OffloadedPlugin::new(echo(), OffloadLink::symmetric(Duration::from_millis(10)))
                .uplink::<u32>("in")
                .downlink::<u32>("out");
        remote.start(&ctx);
        let out = ctx.switchboard.topic::<u32>("out").expect("stream").sync_reader(16);
        ctx.switchboard.topic::<u32>("in").expect("stream").writer().put(41);
        // t=0: the event is still on the uplink.
        remote.iterate(&ctx);
        assert!(out.is_empty());
        // t=10ms: arrives at the server, gets processed, response enters
        // the downlink.
        clock.advance_to(Time::from_millis(10));
        remote.iterate(&ctx);
        assert!(out.is_empty(), "response must still be on the downlink");
        // t=20ms: response arrives at the device.
        clock.advance_to(Time::from_millis(20));
        remote.iterate(&ctx);
        assert_eq!(**out.try_recv().expect("response delivered"), 42);
    }

    #[test]
    fn zero_latency_link_is_transparent() {
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
        let mut remote = OffloadedPlugin::new(echo(), OffloadLink::symmetric(Duration::ZERO))
            .uplink::<u32>("in")
            .downlink::<u32>("out");
        remote.start(&ctx);
        let out = ctx.switchboard.topic::<u32>("out").expect("stream").sync_reader(16);
        ctx.switchboard.topic::<u32>("in").expect("stream").writer().put(1);
        remote.iterate(&ctx);
        remote.iterate(&ctx);
        assert_eq!(**out.try_recv().expect("instant delivery"), 2);
    }

    #[test]
    fn link_outage_holds_packets_until_the_window_clears() {
        use illixr_core::fault::{FaultKind, FaultPlan, FaultWindow};
        let clock = SimClock::new();
        // Outage from 5 ms to 40 ms on every link target.
        let plan = FaultPlan::new(3).with_window(FaultWindow::new(
            FaultKind::LinkOutage,
            "",
            Time::from_millis(5).as_nanos(),
            Time::from_millis(40).as_nanos(),
            1.0,
        ));
        let ctx =
            RuntimeBuilder::new(Arc::new(clock.clone())).with_fault_plan(Arc::new(plan)).build();
        let mut remote =
            OffloadedPlugin::new(echo(), OffloadLink::symmetric(Duration::from_millis(10)))
                .uplink::<u32>("in")
                .downlink::<u32>("out");
        remote.start(&ctx);
        let out = ctx.switchboard.topic::<u32>("out").expect("stream").sync_reader(16);
        // Sent at t=10ms, inside the outage: held until 40 ms, then the
        // echo reply crosses the downlink by 50 ms.
        clock.advance_to(Time::from_millis(10));
        ctx.switchboard.topic::<u32>("in").expect("stream").writer().put(7);
        remote.iterate(&ctx);
        clock.advance_to(Time::from_millis(30));
        remote.iterate(&ctx);
        assert!(out.is_empty(), "nothing crosses during the outage (10 ms delay elapsed)");
        clock.advance_to(Time::from_millis(41));
        remote.iterate(&ctx); // uplink clears, echo runs, reply enters downlink
        clock.advance_to(Time::from_millis(52));
        remote.iterate(&ctx);
        assert_eq!(**out.try_recv().expect("delivered after the outage"), 8);
    }

    #[test]
    fn duplicate_fault_delivers_the_packet_twice() {
        use illixr_core::fault::{FaultPlan, StochasticRates};
        let clock = SimClock::new();
        let rates = StochasticRates { link_duplicate: 1.0, ..StochasticRates::ZERO };
        let plan = FaultPlan::new(11).with_rates(rates);
        let ctx =
            RuntimeBuilder::new(Arc::new(clock.clone())).with_fault_plan(Arc::new(plan)).build();
        let mut remote = OffloadedPlugin::new(echo(), OffloadLink::symmetric(Duration::ZERO))
            .uplink::<u32>("in")
            .downlink::<u32>("out");
        remote.start(&ctx);
        let out = ctx.switchboard.topic::<u32>("out").expect("stream").sync_reader(16);
        ctx.switchboard.topic::<u32>("in").expect("stream").writer().put(1);
        remote.iterate(&ctx);
        remote.iterate(&ctx);
        let got = out.drain();
        // Both copies crossed the uplink; each echo reply was itself
        // duplicated on the downlink.
        assert!(got.len() >= 2, "duplicate rate 1.0 must at least double delivery");
        assert!(got.iter().all(|v| ***v == 2));
    }

    #[test]
    fn recorded_bridge_deliveries_replay_without_the_fault_plan() {
        use illixr_core::boundary::{TraceRecorder, TraceSource};
        use illixr_core::fault::{FaultPlan, StochasticRates};

        // One timeline of sends, exercised with jitter + duplicates.
        let drive = |ctx: &PluginContext, clock: &SimClock| {
            let mut remote = OffloadedPlugin::new(
                echo(),
                OffloadLink::symmetric(Duration::from_millis(10)).with_jitter(0.5, 77),
            )
            .uplink::<u32>("in")
            .downlink::<u32>("out");
            remote.start(ctx);
            let out = ctx.switchboard.topic::<u32>("out").expect("stream").sync_reader(64);
            let writer = ctx.switchboard.topic::<u32>("in").expect("stream").writer();
            let mut deliveries = Vec::new();
            for step in 0..40u64 {
                clock.advance_to(Time::from_millis(step * 5));
                if step % 3 == 0 {
                    writer.put(step as u32);
                }
                remote.iterate(ctx);
                for v in out.drain() {
                    deliveries.push((clock.now().as_nanos(), **v));
                }
            }
            deliveries
        };

        let rates = StochasticRates { link_duplicate: 0.3, ..StochasticRates::ZERO };
        let plan = Arc::new(FaultPlan::new(5).with_rates(rates));
        let recorder = TraceRecorder::new(5, 0);
        let clock = SimClock::new();
        let ctx = RuntimeBuilder::new(Arc::new(clock.clone()))
            .with_fault_plan(plan)
            .with_recorder(recorder.clone())
            .build();
        let recorded = drive(&ctx, &clock);
        let trace = Arc::new(recorder.snapshot());
        assert!(trace.stream("offload/echo/up/in").is_some());

        // Replay under a quiet plan and a different jitter outcome
        // universe: deliveries (times and duplicates) must match.
        let clock2 = SimClock::new();
        let rerec = TraceRecorder::new(5, 0);
        let ctx2 = RuntimeBuilder::new(Arc::new(clock2.clone()))
            .with_trace(TraceSource::new(trace.clone()))
            .with_recorder(rerec.clone())
            .build();
        let replayed = drive(&ctx2, &clock2);
        assert_eq!(recorded, replayed);
        assert_eq!(rerec.snapshot().encode(), trace.encode());
    }

    #[test]
    fn delivery_payload_bytes_are_pinned() {
        let encode = |due_ns, duplicate| Delivery { due_ns, duplicate }.encode(0);
        assert_eq!(encode(16_683_333, false), [0x45, 0x91, 0xfe, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            encode(u64::MAX - 1, true),
            [0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0]
        );
    }

    #[test]
    fn delivery_decoder_rejects_bad_tags_and_trailing_bytes() {
        let decode = |bytes: &[u8]| Delivery::decode(bytes, 0, &SessionTransform::IDENTITY);
        let mut bytes = Delivery { due_ns: 5, duplicate: true }.encode(0);
        assert_eq!(decode(&bytes), Ok(Delivery { due_ns: 5, duplicate: true }));
        bytes[8] = 2;
        assert_eq!(decode(&bytes), Err(DecodeError::BadTag { offset: 8, found: 2 }));
        bytes[8] = 1;
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(DecodeError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn from_profile_threads_the_run_seed() {
        let link = OffloadLink::from_profile(LinkProfile::cellular_5g(), 42);
        assert_eq!(link.uplink, Duration::from_millis(12));
        assert_eq!(link.downlink, Duration::from_millis(12));
        assert_eq!(link.jitter_sigma, 0.35);
        assert_eq!(link.seed, 42);
    }
}
