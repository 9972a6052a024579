//! Deadline-aware scheduling for the ILLIXR testbed.
//!
//! The paper names scheduling as the first research direction the
//! testbed should enable (§VI): its own runtime only offers fixed-rate
//! threadloops, and the QoE losses of §IV all trace back to deadline
//! misses along the IMU → VIO → reprojection chain. This crate supplies
//! the missing machinery as a small, std-only library:
//!
//! * **[`task`]** — the periodic task model: each plugin iteration is a
//!   released *job* with a period, a relative deadline, a priority
//!   class and a release index, plus overflow-safe release arithmetic
//!   and the lateness-correct deadline-miss definition
//!   (`end > release + deadline`, *not* `cpu > period`).
//! * **[`policy`]** — one [`Policy`] trait, three implementations:
//!   [`RateMonotonic`] (static priority, the runtime's historical
//!   behaviour), [`Edf`] (earliest absolute deadline first on a
//!   work-conserving pool) and [`AdaptiveGovernor`] (EDF plus graceful
//!   degradation under sustained chain-deadline misses).
//! * **[`chain`]** — end-to-end chain deadlines: a [`ChainTracker`]
//!   propagates the *origin* timestamp of the freshest upstream sample
//!   through a pipeline (e.g. `imu → imu_integrator → reprojection`)
//!   and emits one [`ChainOutcome`] per tail completion, which is how
//!   a motion-to-photon deadline becomes a schedulable quantity.
//! * **[`governor`]** — the degradation ladder: on sustained chain
//!   misses the governor sheds load in a fixed order (halve
//!   perception/visual rates, then take work-factor shortcuts, then
//!   drop eye-tracking/audio-class jobs) and restores hysteretically.
//! * **[`live`]** — [`live::JobQueue`], a ready queue under a lock whose
//!   pop order a [`Policy`] decides; nothing blocks on it.
//! * **[`place`]** — device/edge placement: a [`PlacementPlan`]
//!   declares which pipeline cut-points run on-device vs behind a
//!   link, and a [`PlacementController`] migrates a cut at
//!   deterministic decision epochs using the governor's hysteresis
//!   shape, fed by chain outcomes and a link-health probe.
//! * **[`shard`]** — the multi-session server's deterministic
//!   session→shard map, [`illixr_trace::fnv1a`] of the session id.
//! * **[`ring`]** — bounded SPSC rings with lossless backpressure.
//!
//! [`live`] and [`ring`] are no longer engine building blocks: the
//! server's engine runs a wide batch as one scoped fork-join and needs
//! neither a wake-up queue nor an emission ring. Only `perf/`'s
//! `sched.queue.push_pop_ns` and `sched.ring.push_pop_ns` rows reach
//! them.
//!
//! Like `illixr-obs`, this crate sits *below* `illixr-core`, above only
//! `illixr-trace` (for the hash): it knows nothing about plugins,
//! switchboards or `Time` — all timestamps are raw `u64` nanoseconds —
//! so the runtime, the experiment runner and the multi-session server
//! can all share one scheduling vocabulary.

pub mod chain;
pub mod governor;
pub mod live;
pub mod place;
pub mod policy;
pub mod ring;
pub mod shard;
pub mod task;

pub use chain::{ChainId, ChainOutcome, ChainSpec, ChainTracker};
pub use governor::AdaptiveGovernor;
pub use place::{Migration, PlacementConfig, PlacementController, PlacementPlan, Side};
pub use policy::{Edf, Policy, PolicyKind, RateMonotonic};
pub use ring::{spsc_ring, RingConsumer, RingProducer};
pub use shard::ShardMap;
pub use task::{is_miss, lateness_ns, release_ns, PriorityClass, ReadyJob};
