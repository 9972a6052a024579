//! Glue onto the `illixr-sched` scheduling layer.
//!
//! Like [`crate::obs`], this module re-exports a below-core crate so
//! the rest of the workspace needs no direct `illixr-sched`
//! dependency: the sim engine embeds a [`Policy`] in its dispatch
//! loop, the threadloop shares its release and miss arithmetic
//! ([`release_ns`], [`is_miss`]), and the experiment runner selects a
//! [`PolicyKind`] from config.
//!
//! `illixr-sched` keeps time as raw `u64` nanoseconds; the runtime
//! converts at the boundary with [`crate::time::Time::as_nanos`].

pub use illixr_sched::chain::{ChainId, ChainOutcome, ChainSpec, ChainTracker};
pub use illixr_sched::governor::AdaptiveGovernor;
pub use illixr_sched::live::JobQueue;
pub use illixr_sched::place::{
    Migration, PlacementConfig, PlacementController, PlacementPlan, Side,
};
pub use illixr_sched::policy::{Edf, Policy, PolicyKind, RateMonotonic};
pub use illixr_sched::task::{is_miss, lateness_ns, release_ns, PriorityClass, ReadyJob};

/// Boundary stream the `vio` cut's migration decisions live on.
pub(crate) const PLACE_STREAM: &str = "place/vio";

/// One step of an adaptive placement controller at `now_ns`, shared by
/// the device pipeline (per camera frame) and the server engine (per
/// `ServerBatch`): feed the link-health probe, close any due decision
/// epochs and record each migration on `PLACE_STREAM`. Under replay
/// the recorded decision stream drives [`PlacementController::force`]
/// instead of deciding live (and is re-recorded verbatim), so replayed
/// placement is exact by construction.
pub fn placement_epoch(
    ctl: &mut PlacementController,
    boundary: &crate::boundary::Boundary,
    now_ns: u64,
    healthy: bool,
) {
    if let Some(due) = boundary.replay_due(PLACE_STREAM, now_ns) {
        for (tag, payload) in due {
            let to = std::str::from_utf8(&payload)
                .ok()
                .and_then(Side::parse)
                .expect("corrupt placement decision record");
            ctl.force(tag, to);
        }
    } else {
        ctl.observe(!healthy);
        ctl.observe_link(healthy);
        if let Some(m) = ctl.on_epoch(now_ns) {
            boundary.record_with(PLACE_STREAM, m.at_ns, || m.to.label().as_bytes().to_vec());
        }
    }
}
