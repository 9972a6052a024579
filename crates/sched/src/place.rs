//! Device/edge placement plans and the adaptive placement controller.
//!
//! FleXR-style flexible pipeline distribution (PAPERS.md, arXiv
//! 2307.15574): an XR pipeline is cut at named *cut-points* (after
//! cameras, after feature tracking, after VIO …) and everything
//! downstream of a cut runs either [`Side::Device`] (on the headset)
//! or [`Side::Edge`] (behind a link). A [`PlacementPlan`] declares the
//! cuts; a [`PlacementController`] migrates one cut adaptively, fed by
//! the same chain-deadline outcomes the governor consumes plus a
//! link-health probe, with the governor's windowed-hysteresis shape
//! (escalate on a missed window, restore only after several
//! consecutive clean epochs) so placement flaps are bounded.
//!
//! **Decision-epoch determinism rule:** the controller is a pure
//! function of its call sequence — `observe`/`observe_link` feed the
//! current window, and decisions happen only inside `on_epoch`, at
//! epoch boundaries derived from the caller's deterministic clock.
//! There is no RNG and no wall-clock access, so a same-seed rerun
//! reproduces every migration bit-for-bit, and a recorded decision
//! stream can drive [`PlacementController::force`] during trace
//! replay. All timestamps are raw `u64` nanoseconds, as everywhere in
//! this crate.

use illixr_trace::codec::{ByteReader, ByteWriter, DecodeError, Wire};
use illixr_trace::transform::SessionTransform;

/// Which side of the link a cut's downstream components run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// On the headset/client.
    Device,
    /// On the edge server, behind a link.
    Edge,
}

impl Side {
    /// Short lowercase label for reports and boundary payloads.
    pub fn label(self) -> &'static str {
        match self {
            Side::Device => "device",
            Side::Edge => "edge",
        }
    }

    /// The opposite side (the migration target).
    fn other(self) -> Side {
        match self {
            Side::Device => Side::Edge,
            Side::Edge => Side::Device,
        }
    }
}

/// A migration decision's boundary payload: the target side's label,
/// unprefixed.
impl Wire for Side {
    fn put(&self, w: &mut ByteWriter, _: u64) {
        w.put_bytes(self.label().as_bytes());
    }

    fn take(r: &mut ByteReader, _: u64, _: &SessionTransform) -> Result<Self, DecodeError> {
        match r.take_rest() {
            b"device" => Ok(Side::Device),
            b"edge" => Ok(Side::Edge),
            _ => Err(DecodeError::BadName { index: 0 }),
        }
    }
}

/// One cut-point assignment within a [`PlacementPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
struct CutAssignment {
    /// Cut-point name — the component whose downstream work moves
    /// (e.g. `"vio"`).
    cut: String,
    /// Initial (and, for non-adaptive cuts, permanent) side.
    side: Side,
    /// When true, a [`PlacementController`] may migrate this cut at
    /// decision epochs.
    adaptive: bool,
}

/// A declared device/edge partitioning of the pipeline: zero or more
/// cut-point assignments. The empty plan is *all-local* — every
/// component on the device, the runtime's historical behaviour.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlacementPlan {
    cuts: Vec<CutAssignment>,
}

impl PlacementPlan {
    /// The behaviour-preserving default: no cuts, everything on-device.
    pub fn all_local() -> Self {
        Self::default()
    }

    /// A single cut pinned to `side` for the whole run.
    pub fn pinned(cut: &str, side: Side) -> Self {
        Self::default().with_cut(cut, side, false)
    }

    /// A single adaptive cut starting on `initial`; the controller may
    /// migrate it at decision epochs.
    pub fn adaptive(cut: &str, initial: Side) -> Self {
        Self::default().with_cut(cut, initial, true)
    }

    /// Adds (or replaces) one cut assignment.
    fn with_cut(mut self, cut: &str, side: Side, adaptive: bool) -> Self {
        self.cuts.retain(|c| c.cut != cut);
        self.cuts.push(CutAssignment { cut: cut.to_owned(), side, adaptive });
        self
    }

    /// The assignment for `cut`, if declared.
    fn assignment(&self, cut: &str) -> Option<&CutAssignment> {
        self.cuts.iter().find(|c| c.cut == cut)
    }

    /// Initial side of `cut` ([`Side::Device`] when undeclared).
    pub fn side_of(&self, cut: &str) -> Side {
        self.assignment(cut).map_or(Side::Device, |c| c.side)
    }

    /// Whether `cut` is declared adaptive.
    pub fn is_adaptive(&self, cut: &str) -> bool {
        self.assignment(cut).is_some_and(|c| c.adaptive)
    }

    /// True when the plan changes nothing: no cut leaves the device
    /// and none is adaptive. Such a plan must be bit-identical to no
    /// plan at all.
    pub(crate) fn is_all_local(&self) -> bool {
        self.cuts.iter().all(|c| c.side == Side::Device && !c.adaptive)
    }

    /// Stable label for config hashes and report rows, e.g.
    /// `all_local` or `vio=adaptive@edge`.
    pub fn label(&self) -> String {
        if self.is_all_local() {
            return "all_local".to_owned();
        }
        let mut parts = Vec::new();
        for c in &self.cuts {
            if c.adaptive {
                parts.push(format!("{}=adaptive@{}", c.cut, c.side.label()));
            } else {
                parts.push(format!("{}={}", c.cut, c.side.label()));
            }
        }
        parts.join(",")
    }
}

/// Restoring to the preferred side requires, besides a healthy link
/// probe, an epoch miss rate at or below this.
const RESTORE_MISS_RATE: f64 = 0.05;

/// Tuning for the placement controller's decision epochs. Mirrors the
/// governor's hysteresis ladder ([`crate::governor`]): escalate on one
/// bad window, restore only after several consecutive clean epochs, so
/// a flapping link cannot cause migration storms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlacementConfig {
    /// Decision-epoch period in nanoseconds. Decisions happen only at
    /// multiples of this period (the determinism rule).
    pub epoch_ns: u64,
    /// Migrate away from the current side when the epoch's active-path
    /// miss rate exceeds this.
    pub escalate_miss_rate: f64,
    /// Consecutive clean epochs (healthy link probe + in-band miss
    /// rate) required before migrating back to the preferred side.
    pub restore_epochs: u32,
    /// Minimum active-path samples in an epoch before its miss rate is
    /// trusted; sparser epochs neither escalate nor count clean.
    pub min_samples: u32,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        Self { epoch_ns: 250_000_000, escalate_miss_rate: 0.25, restore_epochs: 4, min_samples: 3 }
    }
}

impl PlacementConfig {
    /// Worst-case time from the moment the preferred side becomes
    /// healthy again to the restore migration — the controller's
    /// recovery budget (one epoch to observe health plus the clean
    /// streak).
    pub fn recovery_budget_ns(&self) -> u64 {
        self.epoch_ns.saturating_mul(self.restore_epochs as u64 + 1)
    }
}

/// One placement migration decision, taken at a decision epoch (or
/// forced by a replayed decision stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// Virtual time of the decision epoch, nanoseconds.
    pub at_ns: u64,
    /// Epoch index (0-based since controller construction).
    pub epoch: u64,
    /// Side the cut ran on before the decision.
    pub from: Side,
    /// Side the cut runs on from this epoch on.
    pub to: Side,
}

/// Adaptive placement for one cut-point.
///
/// Feed it the active path's deadline outcomes ([`observe`]) and a
/// link-health probe ([`observe_link`]); call [`on_epoch`] with the
/// current virtual time from any deterministic periodic hook. The
/// controller escalates away from its preferred side when the active
/// path misses, and restores only after [`PlacementConfig::restore_epochs`]
/// consecutive clean, link-healthy epochs.
///
/// [`observe`]: PlacementController::observe
/// [`observe_link`]: PlacementController::observe_link
/// [`on_epoch`]: PlacementController::on_epoch
#[derive(Debug)]
pub struct PlacementController {
    config: PlacementConfig,
    /// Restore target: the side the plan prefers when healthy.
    preferred: Side,
    side: Side,
    epoch: u64,
    next_epoch_ns: u64,
    window_total: u32,
    window_missed: u32,
    /// Latest link-probe verdict (true = healthy). Defaults healthy so
    /// a probe-less setup can still restore on clean windows.
    link_healthy: bool,
    clean_streak: u32,
    migrations: Vec<Migration>,
}

impl PlacementController {
    pub fn new(initial: Side, config: PlacementConfig) -> Self {
        Self {
            config,
            preferred: initial,
            side: initial,
            epoch: 0,
            next_epoch_ns: config.epoch_ns,
            window_total: 0,
            window_missed: 0,
            link_healthy: true,
            clean_streak: 0,
            migrations: Vec::new(),
        }
    }

    /// The side the cut currently runs on.
    pub fn side(&self) -> Side {
        self.side
    }

    /// Every migration decided so far, in decision order.
    pub fn migrations(&self) -> &[Migration] {
        &self.migrations
    }

    /// Record one active-path outcome (a chain completion or an RTT
    /// sample judged against its deadline) into the current window.
    pub fn observe(&mut self, missed: bool) {
        self.window_total += 1;
        if missed {
            self.window_missed += 1;
        }
    }

    /// Record the latest link-health probe. While the cut sits on its
    /// fallback side the active path no longer exercises the link, so
    /// restore decisions lean on this signal.
    pub fn observe_link(&mut self, healthy: bool) {
        self.link_healthy = healthy;
    }

    /// Apply a replayed migration decision verbatim (trace replay
    /// drives placement from the recorded stream instead of deciding).
    /// The epoch counter is fast-forwarded to the decision time first,
    /// so a forced migration carries the same epoch index the live
    /// decision did and replayed logs compare bit-identical.
    pub fn force(&mut self, at_ns: u64, to: Side) {
        if self.config.epoch_ns > 0 {
            while at_ns >= self.next_epoch_ns {
                self.next_epoch_ns += self.config.epoch_ns;
                self.epoch += 1;
            }
        }
        if to != self.side {
            let m = Migration { at_ns, epoch: self.epoch.saturating_sub(1), from: self.side, to };
            self.side = to;
            self.migrations.push(m);
        }
    }

    /// Close any decision epochs due at `now_ns`, returning the
    /// migration decided (at most one per call: windows after the
    /// first carry no samples). Call from any hook that fires at least
    /// once per epoch; intermediate calls are cheap no-ops.
    pub fn on_epoch(&mut self, now_ns: u64) -> Option<Migration> {
        let mut decided = None;
        while now_ns >= self.next_epoch_ns {
            let at_ns = self.next_epoch_ns;
            self.next_epoch_ns += self.config.epoch_ns;
            let decision = self.close_window(at_ns);
            if decision.is_some() {
                decided = decision;
            }
        }
        decided
    }

    fn close_window(&mut self, at_ns: u64) -> Option<Migration> {
        let total = self.window_total;
        let missed = self.window_missed;
        self.window_total = 0;
        self.window_missed = 0;
        self.epoch += 1;
        let trusted = total >= self.config.min_samples;
        let rate = if total == 0 { 0.0 } else { missed as f64 / total as f64 };

        if self.side == self.preferred {
            // Escalate: one bad window moves the cut to its fallback.
            if trusted && rate > self.config.escalate_miss_rate {
                self.clean_streak = 0;
                return Some(self.migrate(at_ns, self.side.other()));
            }
        } else {
            // Restore: require a healthy link probe and an in-band
            // window, several epochs in a row (the hysteresis ladder).
            let clean = self.link_healthy && (!trusted || rate <= RESTORE_MISS_RATE);
            if clean {
                self.clean_streak += 1;
                if self.clean_streak >= self.config.restore_epochs {
                    self.clean_streak = 0;
                    return Some(self.migrate(at_ns, self.preferred));
                }
            } else {
                self.clean_streak = 0;
            }
        }
        None
    }

    fn migrate(&mut self, at_ns: u64, to: Side) -> Migration {
        let m = Migration { at_ns, epoch: self.epoch - 1, from: self.side, to };
        self.side = to;
        self.migrations.push(m);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PlacementConfig {
        PlacementConfig { epoch_ns: 100, restore_epochs: 2, min_samples: 2, ..Default::default() }
    }

    #[test]
    fn all_local_plan_is_trivial() {
        assert!(PlacementPlan::all_local().is_all_local());
        assert!(PlacementPlan::pinned("vio", Side::Device).is_all_local());
        assert!(!PlacementPlan::pinned("vio", Side::Edge).is_all_local());
        assert!(!PlacementPlan::adaptive("vio", Side::Device).is_all_local());
        assert_eq!(PlacementPlan::all_local().label(), "all_local");
        assert_eq!(PlacementPlan::adaptive("vio", Side::Edge).label(), "vio=adaptive@edge");
        assert_eq!(PlacementPlan::all_local().side_of("vio"), Side::Device);
    }

    #[test]
    fn with_cut_replaces_earlier_assignment() {
        let plan = PlacementPlan::pinned("vio", Side::Edge).with_cut("vio", Side::Device, true);
        assert_eq!(plan.cuts.len(), 1);
        assert!(plan.is_adaptive("vio"));
        assert_eq!(plan.side_of("vio"), Side::Device);
    }

    #[test]
    fn side_round_trips_labels() {
        let id = SessionTransform::IDENTITY;
        for side in [Side::Device, Side::Edge] {
            assert_eq!(side.encode(0), side.label().as_bytes());
            assert_eq!(Side::decode(side.label().as_bytes(), 0, &id), Ok(side));
            assert_eq!(side.other().other(), side);
        }
        for bad in [&b"moon"[..], b"", b"edgeX", &[0xFF]] {
            assert_eq!(Side::decode(bad, 0, &id), Err(DecodeError::BadName { index: 0 }));
        }
    }

    #[test]
    fn bad_window_escalates_once() {
        let mut c = PlacementController::new(Side::Edge, cfg());
        for _ in 0..4 {
            c.observe(true);
        }
        assert!(c.on_epoch(50).is_none(), "no decision before the epoch boundary");
        let m = c.on_epoch(100).expect("escalates at the boundary");
        assert_eq!((m.from, m.to), (Side::Edge, Side::Device));
        assert_eq!(c.side(), Side::Device);
        // A second bad window while already on the fallback does not flap.
        for _ in 0..4 {
            c.observe(true);
        }
        assert!(c.on_epoch(200).is_none());
        assert_eq!(c.migrations().len(), 1);
    }

    #[test]
    fn restore_needs_consecutive_clean_epochs_and_a_healthy_link() {
        let mut c = PlacementController::new(Side::Edge, cfg());
        for _ in 0..4 {
            c.observe(true);
        }
        c.on_epoch(100).expect("escalate");
        // Unhealthy probe: clean windows do not count.
        c.observe_link(false);
        c.on_epoch(200);
        c.on_epoch(300);
        assert_eq!(c.side(), Side::Device);
        // Healthy again: two clean epochs restore (restore_epochs = 2).
        c.observe_link(true);
        assert!(c.on_epoch(400).is_none());
        let m = c.on_epoch(500).expect("restore after the streak");
        assert_eq!((m.from, m.to), (Side::Device, Side::Edge));
        assert!(c.on_epoch(600).is_none(), "stable after restore");
    }

    #[test]
    fn sparse_windows_do_not_escalate() {
        let mut c = PlacementController::new(Side::Edge, cfg());
        c.observe(true); // 1 sample < min_samples = 2
        assert!(c.on_epoch(100).is_none());
        assert_eq!(c.side(), Side::Edge);
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut c = PlacementController::new(Side::Edge, cfg());
            for t in 1..50u64 {
                c.observe(t % 3 == 0);
                c.observe_link(t % 7 != 0);
                c.on_epoch(t * 20);
            }
            c.migrations().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn force_applies_replayed_decisions_verbatim() {
        let mut c = PlacementController::new(Side::Edge, PlacementConfig::default());
        c.force(1_000, Side::Device);
        c.force(1_000, Side::Device); // idempotent
        c.force(9_000, Side::Edge);
        assert_eq!(c.migrations().len(), 2);
        assert_eq!(c.side(), Side::Edge);
    }

    #[test]
    fn recovery_budget_covers_the_restore_ladder() {
        let c = PlacementConfig::default();
        assert_eq!(c.recovery_budget_ns(), c.epoch_ns * (c.restore_epochs as u64 + 1));
    }
}
