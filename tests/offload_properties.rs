//! Property tests for the offloading bridge: whatever the link
//! latency and jitter, offloading must stay deterministic per seed and
//! must never reorder a stream.

use std::sync::Arc;
use std::time::Duration;

use illixr_testbed::core::boundary::Xoshiro256pp;
use illixr_testbed::core::plugin::{IterationReport, Plugin, PluginContext, RuntimeBuilder};
use illixr_testbed::core::{SimClock, SyncReader, Time, Writer};
use illixr_testbed::system::offload::{OffloadLink, OffloadedPlugin};

/// A remote component that echoes `in` to `out` unchanged, preserving
/// arrival order.
struct Relay {
    reader: Option<SyncReader<u64>>,
    writer: Option<Writer<u64>>,
}

impl Plugin for Relay {
    fn name(&self) -> &str {
        "relay"
    }
    fn start(&mut self, ctx: &PluginContext) {
        self.reader = Some(ctx.switchboard.topic::<u64>("in").expect("stream").sync_reader(4096));
        self.writer = Some(ctx.switchboard.topic::<u64>("out").expect("stream").writer());
    }
    fn iterate(&mut self, _ctx: &PluginContext) -> IterationReport {
        while let Some(v) = self.reader.as_ref().expect("started").try_recv() {
            self.writer.as_ref().expect("started").put(v.data);
        }
        IterationReport::nominal()
    }
}

/// Drives `values` through an offloaded relay: publish one value per
/// tick, then idle long enough for the link to drain. Returns the
/// values received on `out`, in delivery order.
fn run_offloaded(values: &[u64], latency_ms: u64, sigma: f64, seed: u64) -> Vec<u64> {
    let clock = SimClock::new();
    let ctx = RuntimeBuilder::new(Arc::new(clock.clone())).build();
    let link = OffloadLink::symmetric(Duration::from_millis(latency_ms)).with_jitter(sigma, seed);
    let mut remote = OffloadedPlugin::new(Box::new(Relay { reader: None, writer: None }), link)
        .uplink::<u64>("in")
        .downlink::<u64>("out");
    remote.start(&ctx);
    let out = ctx.switchboard.topic::<u64>("out").expect("stream").sync_reader(4096);
    let writer = ctx.switchboard.topic::<u64>("in").expect("stream").writer();
    let tick = Duration::from_millis(2);
    let mut t = Time::ZERO;
    for &v in values {
        writer.put(v);
        remote.iterate(&ctx);
        t += tick;
        clock.advance_to(t);
    }
    // Idle ticks: generous headroom for the worst log-normal draw.
    let drain = 40 * latency_ms.max(1) + 200;
    for _ in 0..drain {
        remote.iterate(&ctx);
        t += tick;
        clock.advance_to(t);
    }
    remote.iterate(&ctx);
    out.drain().iter().map(|e| e.data).collect()
}

/// Cases per property.
const CASES: usize = 32;

/// One traffic and link draw: event count in `1..40`, latency in
/// `0..30` ms, jitter σ in `[0, 0.8)` and the jitter seed in `0..1000`.
fn link_params(rng: &mut Xoshiro256pp) -> (Vec<u64>, u64, f64, u64) {
    let n = 1 + rng.below(39);
    ((0..n).collect(), rng.below(30), rng.uniform(0.0..0.8), rng.below(1000))
}

// A jittered link is a deterministic function of its seed: the
// same traffic over the same link twice gives identical delivery.
#[test]
fn jittered_link_is_deterministic_per_seed() {
    let mut rng = Xoshiro256pp::new(5);
    for case in 0..CASES {
        let (values, latency_ms, sigma, seed) = link_params(&mut rng);
        let a = run_offloaded(&values, latency_ms, sigma, seed);
        let b = run_offloaded(&values, latency_ms, sigma, seed);
        assert_eq!(a, b, "case {case}");
    }
}

// Jitter delays individual transfers but the bridge is FIFO per
// stream: every published event arrives, in publication order.
#[test]
fn per_stream_order_survives_jitter() {
    let mut rng = Xoshiro256pp::new(6);
    for case in 0..CASES {
        let (values, latency_ms, sigma, seed) = link_params(&mut rng);
        let delivered = run_offloaded(&values, latency_ms, sigma, seed);
        assert_eq!(delivered, values, "case {case}");
    }
}
