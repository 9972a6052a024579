//! The adaptive degradation governor: EDF plus graceful degradation.
//!
//! The governor watches chain outcomes over a sliding window. When the
//! windowed miss rate stays above an escalation threshold it climbs a
//! fixed degradation ladder; when the miss rate stays below a (lower)
//! restoration threshold for several consecutive windows it climbs
//! back down. The gap between the two thresholds plus the
//! consecutive-window requirement is the hysteresis that prevents
//! level flapping at the overload boundary.
//!
//! The ladder (cumulative — each level includes the ones below):
//!
//! | level | action |
//! |-------|--------|
//! | 0 | nominal: plain EDF |
//! | 1 | halve `Perception` and `Visual` rates (shed odd-numbered releases) |
//! | 2 | + work-factor shortcut: scale `Perception`/`Visual` cost by `shortcut_scale` |
//! | 3 | + drop `Audio` and `BestEffort` jobs entirely |
//!
//! `Critical` jobs are never touched: they are the tail of the
//! motion-to-photon chain, and shedding them converts lateness into
//! absence.

use crate::chain::ChainOutcome;
use crate::policy::{Edf, Policy};
use crate::task::{PriorityClass, ReadyJob};

/// Chain outcomes per control window.
const WINDOW: u32 = 16;
/// Escalate one level when a window's miss rate exceeds this.
const ESCALATE_MISS_RATE: f64 = 0.25;
/// A window counts toward restoration when its miss rate is below this.
const RESTORE_MISS_RATE: f64 = 0.05;
/// Consecutive clean windows required to step down one level.
const RESTORE_WINDOWS: u32 = 4;
/// Highest ladder level.
const MAX_LEVEL: u32 = 3;
/// Cost multiplier applied to shortcut-capable classes at level ≥ 2.
const SHORTCUT_SCALE: f64 = 0.75;

/// EDF with the degradation ladder, starting at level 0. Wraps a plain
/// [`Edf`] selector; all governor behaviour lives in the `admit`/
/// `cost_scale`/`on_chain_outcome` hooks.
#[derive(Default)]
pub struct AdaptiveGovernor {
    edf: Edf,
    level: u32,
    /// Outcomes and misses accumulated in the current window.
    window_total: u32,
    window_missed: u32,
    /// Consecutive clean windows observed at the current level.
    clean_windows: u32,
}

impl AdaptiveGovernor {
    fn close_window(&mut self) {
        let rate = self.window_missed as f64 / self.window_total.max(1) as f64;
        if rate > ESCALATE_MISS_RATE {
            self.clean_windows = 0;
            if self.level < MAX_LEVEL {
                self.level += 1;
            }
        } else if rate < RESTORE_MISS_RATE {
            if self.level > 0 {
                self.clean_windows += 1;
                if self.clean_windows >= RESTORE_WINDOWS {
                    self.level -= 1;
                    self.clean_windows = 0;
                }
            }
        } else {
            // Between the thresholds: the hysteresis band — hold.
            self.clean_windows = 0;
        }
        self.window_total = 0;
        self.window_missed = 0;
    }
}

impl Policy for AdaptiveGovernor {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn select(&mut self, ready: &[ReadyJob]) -> usize {
        self.edf.select(ready)
    }

    fn admit(&mut self, job: &ReadyJob) -> bool {
        match job.class {
            PriorityClass::Critical => true,
            PriorityClass::Perception | PriorityClass::Visual => {
                // Level ≥ 1: halve the rate by shedding odd releases.
                self.level < 1 || job.seq.is_multiple_of(2)
            }
            // Level ≥ 3: drop the class entirely.
            PriorityClass::Audio | PriorityClass::BestEffort => self.level < 3,
        }
    }

    fn cost_scale(&self, class: PriorityClass) -> f64 {
        if self.level >= 2 && matches!(class, PriorityClass::Perception | PriorityClass::Visual) {
            SHORTCUT_SCALE
        } else {
            1.0
        }
    }

    fn on_chain_outcome(&mut self, outcome: &ChainOutcome) {
        self.window_total += 1;
        if outcome.missed {
            self.window_missed += 1;
        }
        if self.window_total >= WINDOW {
            self.close_window();
        }
    }

    fn level(&self) -> u32 {
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(missed: bool) -> ChainOutcome {
        ChainOutcome {
            chain: 0,
            origin_ns: 0,
            end_ns: 1,
            latency_ns: 1,
            deadline_ns: if missed { 0 } else { 10 },
            missed,
        }
    }

    fn job(class: PriorityClass, seq: u64) -> ReadyJob {
        ReadyJob { task: 0, seq, release_ns: 0, deadline_ns: 100, priority: 0, class }
    }

    fn feed(g: &mut AdaptiveGovernor, missed: usize, hit: usize) {
        for _ in 0..missed {
            g.on_chain_outcome(&outcome(true));
        }
        for _ in 0..hit {
            g.on_chain_outcome(&outcome(false));
        }
    }

    #[test]
    fn climbs_one_level_per_bad_window() {
        let mut g = AdaptiveGovernor::default();
        assert_eq!(g.level(), 0);
        feed(&mut g, 8, 8); // 50% miss rate > 25%
        assert_eq!(g.level(), 1);
        feed(&mut g, 8, 8);
        assert_eq!(g.level(), 2);
        feed(&mut g, 8, 8);
        assert_eq!(g.level(), 3);
        feed(&mut g, 16, 0); // capped at max_level
        assert_eq!(g.level(), 3);
    }

    #[test]
    fn restores_hysteretically_after_consecutive_clean_windows() {
        let mut g = AdaptiveGovernor::default();
        feed(&mut g, 16, 0);
        assert_eq!(g.level(), 1);
        // Three clean windows: not yet enough (RESTORE_WINDOWS = 4).
        for _ in 0..3 {
            feed(&mut g, 0, 16);
        }
        assert_eq!(g.level(), 1);
        feed(&mut g, 0, 16);
        assert_eq!(g.level(), 0);
    }

    #[test]
    fn miss_rate_in_hysteresis_band_holds_level_and_resets_streak() {
        let mut g = AdaptiveGovernor::default();
        feed(&mut g, 16, 0);
        assert_eq!(g.level(), 1);
        for _ in 0..3 {
            feed(&mut g, 0, 16); // clean streak of 3
        }
        feed(&mut g, 2, 14); // 12.5%: between 5% and 25% — resets streak
        for _ in 0..3 {
            feed(&mut g, 0, 16);
        }
        assert_eq!(g.level(), 1, "streak must restart after an in-band window");
        feed(&mut g, 0, 16);
        assert_eq!(g.level(), 0);
    }

    #[test]
    fn ladder_sheds_by_class_and_never_touches_critical() {
        let mut g = AdaptiveGovernor::default();
        // Level 0: everything admitted.
        assert!(g.admit(&job(PriorityClass::Perception, 1)));
        assert!(g.admit(&job(PriorityClass::Audio, 1)));

        feed(&mut g, 16, 0); // → level 1
        assert!(g.admit(&job(PriorityClass::Perception, 0)), "even seq kept");
        assert!(!g.admit(&job(PriorityClass::Perception, 1)), "odd seq shed");
        assert!(!g.admit(&job(PriorityClass::Visual, 3)));
        assert!(g.admit(&job(PriorityClass::Audio, 1)), "audio survives level 1");
        assert!(g.admit(&job(PriorityClass::Critical, 1)));
        assert_eq!(g.cost_scale(PriorityClass::Perception), 1.0);

        feed(&mut g, 16, 0); // → level 2
        assert_eq!(g.cost_scale(PriorityClass::Perception), 0.75);
        assert_eq!(g.cost_scale(PriorityClass::Visual), 0.75);
        assert_eq!(g.cost_scale(PriorityClass::Critical), 1.0);
        assert_eq!(g.cost_scale(PriorityClass::Audio), 1.0);

        feed(&mut g, 16, 0); // → level 3
        assert!(!g.admit(&job(PriorityClass::Audio, 0)));
        assert!(!g.admit(&job(PriorityClass::BestEffort, 2)));
        assert!(g.admit(&job(PriorityClass::Critical, 7)), "critical never shed");
    }
}
