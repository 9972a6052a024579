//! Deterministic fault injection for the ILLIXR testbed.
//!
//! The paper's evaluation (§IV) measures the happy path; real XR
//! deployments see sensor dropouts, network outages and component
//! crashes, and the QoE question is how the *system* — admission
//! control, scheduling, degradation — absorbs them. This crate supplies
//! the controlled-perturbation half of that experiment: a seeded
//! [`FaultPlan`] describing exactly which faults strike which targets
//! and when, such that two runs with the same plan observe bit-identical
//! fault sequences.
//!
//! * **[`plan`]** — [`FaultPlan`], [`FaultWindow`], [`FaultKind`]:
//!   scheduled fault windows plus intensity-scaled stochastic faults,
//!   all decisions stateless hashes of `(seed, kind, target, event)`.
//! * **[`views`]** — [`SensorFaults`] / [`LinkFaults`]: the domain
//!   queries the wiring points ask (drop this frame? outage until
//!   when? duplicate this message?).
//! * **[`rng`]** — uniform and Bernoulli draws over the stateless
//!   mixer underneath, [`illixr_trace::splitmix64`].
//!
//! Like `illixr-obs` and `illixr-sched`, this crate sits *below*
//! `illixr-core`, above only `illixr-trace` (for the two hashes): it
//! knows nothing about plugins, switchboards or `Time` — all timestamps
//! are raw `u64` nanoseconds — so the runtime, the offload bridges and
//! the multi-session server can all consume one fault vocabulary.

pub mod plan;
pub mod rng;
pub mod views;

pub use plan::{FaultKind, FaultPlan, FaultWindow, StochasticRates, NS_PER_SEC};
pub use views::{LinkFaults, SensorFaults};
