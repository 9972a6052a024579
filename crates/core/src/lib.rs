//! The ILLIXR-rs runtime — the paper's primary contribution.
//!
//! ILLIXR integrates the many components of an XR system (perception,
//! visual and audio pipelines) behind a *modular, extensible, multithreaded
//! runtime* (paper §II-B). This crate reproduces that runtime:
//!
//! * **[`switchboard`]** — typed event streams with writers, *synchronous*
//!   readers (see every value) and *asynchronous* readers (latest value),
//!   the only way plugins communicate.
//! * **[`plugin`]** — the plugin trait and registry. Components are
//!   interchangeable as long as they speak the same event streams; Rust's
//!   static registration replaces the paper's shared-object loader, and
//!   the [`PluginContext`]'s typed fields replace its service phonebook.
//! * **[`time`] / [`clock`]** — a single `Clock` abstraction with a
//!   wall-clock implementation for live runs and a virtual clock for
//!   deterministic simulated runs.
//! * **[`threadloop`]** — live mode, the paper's threadloop: one
//!   supervised thread per plugin at a fixed period
//!   ([`ThreadloopBuilder`]).
//! * **[`sim`]** — a discrete-event scheduler that executes periodic
//!   components on modeled CPU/GPU resources, enforcing the Fig 2
//!   dependency structure, producing deadline misses and frame drops
//!   exactly where a real constrained platform would.
//! * **[`telemetry`]** — the invocation log (§III-E): one
//!   [`FrameRecord`] per component invocation, from either executor;
//!   obs data (spans, `exec.*`/`response.*`/`sched.*` histograms) is
//!   derived from it by `telemetry::export_invocation` and nowhere
//!   else.
//! * **[`obs`]** — glue onto the `illixr-obs` observability layer:
//!   span tracing, switchboard flow events, latency histograms, and
//!   the Chrome/Perfetto trace exporter.
//! * **[`sched`]** — glue onto the `illixr-sched` scheduling layer:
//!   pluggable policies (rate-monotonic, EDF, adaptive degradation)
//!   for the simulated executor, end-to-end chain deadlines, and the
//!   placement controller.
//! * **[`fault`]** — glue onto the `illixr-fault` layer: seeded,
//!   deterministic fault plans (sensor faults, link faults, plugin
//!   crashes) consulted throughout the runtime; quiet by default.
//! * **[`supervisor`]** — crash containment: panic catch, at most
//!   three restarts after 10/20/40 ms backoffs, and panic→recovery
//!   latency accounting.
//! * **[`boundary`]** — the §V-G record/replay mechanism (over
//!   `illixr-trace`): the determinism boundary every physical input
//!   crosses, with the one implementation of the crossing rule —
//!   recordable to a versioned binary trace and replayable
//!   bit-for-bit (or fanned out into synthetic load) to drive
//!   components of interest from full-system traces.
//! * **[`link`]** — the device↔edge link vocabulary the
//!   point-to-point and the shared contended link models have in
//!   common: transfer [`Direction`]s and named [`LinkProfile`] presets.
//!
//! # Examples
//!
//! ```
//! use illixr_core::switchboard::Switchboard;
//!
//! let sb = Switchboard::new();
//! let pose = sb.topic::<i32>("pose").unwrap();
//! let writer = pose.writer();
//! let reader = pose.async_reader();
//! writer.put(42);
//! assert_eq!(**reader.latest().unwrap(), 42);
//! ```

pub mod boundary;
pub mod clock;
pub mod fault;
pub mod link;
pub mod obs;
pub mod plugin;
pub mod sched;
pub mod sim;
pub mod slab;
pub mod supervisor;
pub mod switchboard;
pub mod telemetry;
pub mod threadloop;
pub mod time;

pub use boundary::{Boundary, SessionTransform, Trace, TraceRecorder, TraceSource};
pub use clock::{Clock, SimClock, WallClock};
pub use link::{Direction, LinkProfile};
pub use plugin::{Plugin, PluginContext, PluginRegistry, RuntimeBuilder};
pub use slab::{Recycle, SlabFrame, SlabPool};
pub use supervisor::{PluginHealth, Supervisor};
pub use switchboard::{
    AsyncReader, Switchboard, SwitchboardError, SyncReader, Topic, TopicStats, Writer,
};
pub use telemetry::{ComponentStats, FrameRecord, RecordLogger};
pub use threadloop::{RuntimeHandles, ThreadloopBuilder};
pub use time::Time;
