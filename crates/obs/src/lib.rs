//! Observability layer for the ILLIXR testbed.
//!
//! The paper's evaluation (§IV) is built entirely from per-invocation
//! timing records; this crate generalises that into three primitives
//! the rest of the workspace threads through its runtime:
//!
//! * **Spans** — named `[start, end)` intervals on named tracks,
//!   recorded through a cheap-to-clone [`Tracer`] handle. A disabled
//!   tracer is a no-op (one branch, no locks), so hot paths can call it
//!   unconditionally.
//! * **Flow events** — begin/end markers with a deterministic id that
//!   stitch a causal chain across tracks (switchboard `put` → `recv`),
//!   so a trace viewer can draw arrows from producer to consumer and
//!   an analysis can decompose end-to-end motion-to-photon latency
//!   into per-stage contributions.
//! * **Histograms** — fixed-bucket log-scale latency histograms
//!   ([`LatencyHistogram`]) with p50/p90/p99/max, aggregated in a
//!   [`Metrics`] registry keyed by dotted names
//!   (`exec.vio`, `topic.imu.publish_interval_ns`, …).
//!
//! [`export`] renders everything as a Chrome/Perfetto
//! `trace.json` (Trace Event Format) plus a `metrics.csv`. All output
//! is deterministic: tracks are sorted, events are sorted on stable
//! keys, ids are content hashes rather than allocation order, and all
//! timestamps come from the caller's clock (the simulated [`NowSource`]
//! in every bench bin), so a fixed-seed run exports bit-identical
//! artifacts.
//!
//! This crate deliberately sits *below* `illixr-core`, above only
//! `illixr-trace` (whose [`fnv1a`](illixr_trace::fnv1a) makes the flow
//! ids): it knows nothing about `Time`, plugins, or the switchboard.
//! Times are raw `u64` nanoseconds and the clock is abstracted behind
//! [`NowSource`].

pub mod export;
pub mod hist;
pub mod metrics;
pub mod span;

pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use metrics::Metrics;
pub use span::{flow_id, FlowPhase, NowSource, Tracer};
