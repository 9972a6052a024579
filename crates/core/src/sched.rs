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

/// One step of an adaptive placement controller at `now_ns`, taken by
/// the device pipeline once per camera frame: feed the link-health
/// probe, close any due decision epochs and record each migration on
/// `PLACE_STREAM`. Under replay
/// the recorded decision stream drives [`PlacementController::force`]
/// instead of deciding live, so replayed placement is exact by
/// construction.
pub fn placement_epoch(
    ctl: &mut PlacementController,
    boundary: &crate::boundary::Boundary,
    now_ns: u64,
    healthy: bool,
) {
    let ctl = std::cell::RefCell::new(ctl);
    let crossing = boundary.cross(PLACE_STREAM, now_ns, || {
        let mut ctl = ctl.borrow_mut();
        ctl.observe(!healthy);
        ctl.observe_link(healthy);
        ctl.on_epoch(now_ns).map(|m| (m.at_ns, m.to))
    });
    // Each replayed decision is applied as it crosses, before a bad record
    // falls back to deciding live; forcing a live decision is a no-op.
    for (at_ns, to) in crossing {
        ctl.borrow_mut().force(at_ns, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{
        Boundary, DecodeError, ReplayCause, ReplayError, TraceRecord, TraceRecorder, TraceSource,
    };

    fn fast_config() -> PlacementConfig {
        PlacementConfig { epoch_ns: 100, restore_epochs: 1, min_samples: 1, ..Default::default() }
    }

    #[test]
    fn placement_payload_bytes_are_pinned() {
        let rec = TraceRecorder::new(1, 2);
        let boundary = Boundary::recording(rec.clone());
        let mut ctl = PlacementController::new(Side::Edge, fast_config());
        // Two unhealthy probes escalate at the first epoch; two healthy
        // ones restore at the second.
        for (now_ns, healthy) in [(50, false), (100, false), (150, true), (200, true)] {
            placement_epoch(&mut ctl, &boundary, now_ns, healthy);
        }
        let want = [
            TraceRecord { tag_ns: 100, payload: b"device".to_vec() },
            TraceRecord { tag_ns: 200, payload: b"edge".to_vec() },
        ];
        assert_eq!(rec.snapshot().stream(PLACE_STREAM), Some(&want[..]));
    }

    #[test]
    fn unknown_placement_label_replays_to_a_typed_error() {
        let rec = TraceRecorder::new(1, 2);
        rec.record(PLACE_STREAM, 100, b"device".to_vec());
        rec.record(PLACE_STREAM, 200, b"moon".to_vec());
        let source = TraceSource::new(std::sync::Arc::new(rec.snapshot()));
        let boundary = Boundary::replaying(source, None);
        let mut ctl = PlacementController::new(Side::Edge, fast_config());
        placement_epoch(&mut ctl, &boundary, 250, true);
        let want = ReplayError {
            stream: PLACE_STREAM.into(),
            tag_ns: 200,
            cause: ReplayCause::Corrupt(DecodeError::BadName { index: 0 }),
        };
        assert_eq!(boundary.replay_error(), Some(&want));
        // The decision replayed before the bad record is applied first; the
        // epoch is then decided live from it: a healthy sample restores.
        let moves: Vec<_> = ctl.migrations().iter().map(|m| (m.at_ns, m.epoch, m.to)).collect();
        assert_eq!(moves, [(100, 0, Side::Device), (200, 1, Side::Edge)]);
    }
}
