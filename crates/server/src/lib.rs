//! illixr-server: a multi-session XR runtime server.
//!
//! The single-client testbed answers "what latency does one headset
//! see"; this crate answers "what happens when N headsets share one
//! edge server". It instantiates N independent client sessions — each
//! with its own switchboard, synthetic sensors along a per-seed
//! trajectory, and IMU integrator — against shared server
//! infrastructure, all under one deterministic simulated clock
//! (FleXR-style device/edge split: perception capture and late warp on
//! the device, VIO and rendering in the cloud).
//!
//! The pieces:
//!
//! * [`session::ClientSession`] — the thin client: camera + IMU + fast
//!   pose, shipping VIO jobs uplink and displaying rendered frame
//!   tokens at vsync;
//! * [`link::SharedLink`] — finite uplink/downlink bandwidth shared by
//!   every session; queueing delay grows with concurrency
//!   (generalizing the point-to-point `OffloadLink`);
//! * [`scheduler::BatchScheduler`] — server-side worker pool batching
//!   homogeneous VIO updates per tick;
//! * [`admission::AdmissionController`] — accept / degrade / reject on
//!   a projected-load estimate;
//! * `engine` (private) — the event-driven session engine: sessions as
//!   lightweight state machines sharded (FNV) on one coordinator, wide
//!   same-time batches forked across scoped threads with bit-identical
//!   results;
//! * [`server::ServerBuilder`] / [`server::Server`] — the public API:
//!   configure a run, execute it, read per-session results through
//!   typed [`server::SessionHandle`]s.
//!
//! The `scaling_sessions` bench binary sweeps the session count (up to
//! 1,000) and writes aggregate throughput plus the
//! sessions-vs-MTP/drop-rate curve.

pub mod admission;
mod engine;
pub mod link;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod snapshot;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionRecord};
pub use link::{Direction, DirectionStats, LinkConfig, SharedLink};
pub use scheduler::{BatchScheduler, PlacementPolicy, SchedulerConfig, SchedulerStats};
pub use server::{
    FailoverConfig, FailoverIncident, FailoverPolicy, MtpStats, ReplayLoad, Server, ServerBuilder,
    ServerConfig, ServerReport, SessionHandle,
};
pub use session::{
    ClientSession, DisplayedFrame, RenderRequest, RenderToken, SessionConfig, SessionState,
};
pub use snapshot::SessionSnapshot;
