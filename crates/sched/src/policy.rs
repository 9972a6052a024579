//! The [`Policy`] trait and the two stateless policies.
//!
//! A policy answers one question — "of the ready jobs, which runs
//! next?" — plus three optional hooks the adaptive governor uses:
//! admission (shed a job at release time), cost scaling (work-factor
//! shortcuts) and chain-outcome feedback (the governor's control
//! input). Policies are deliberately synchronous and allocation-free
//! on the hot path so the sim engine stays deterministic and the live
//! pool's dispatch lock stays cheap.

use crate::chain::ChainOutcome;
use crate::governor::AdaptiveGovernor;
use crate::task::{PriorityClass, ReadyJob};

/// A pluggable scheduling policy over released jobs.
///
/// `select` is the core decision; the remaining methods default to
/// "no admission control, no cost scaling, ignore feedback" so simple
/// policies stay one method long.
pub trait Policy: Send {
    /// Stable policy name for telemetry tracks and reports.
    fn name(&self) -> &'static str;

    /// Index into `ready` of the job to dispatch next. `ready` is
    /// never empty and is ordered by enqueue time (FIFO position), so
    /// "first among ties" preserves arrival order.
    fn select(&mut self, ready: &[ReadyJob]) -> usize;

    /// Admission control at release time: returning `false` sheds the
    /// job before it ever queues (counted as a drop, not a miss).
    fn admit(&mut self, _job: &ReadyJob) -> bool {
        true
    }

    /// Multiplier on a job's nominal cost — the governor lowers this
    /// below 1.0 for shortcut-capable classes at degradation level 2.
    fn cost_scale(&self, _class: PriorityClass) -> f64 {
        1.0
    }

    /// Feedback: one end-to-end chain completed (hit or missed its
    /// chain deadline). The governor's primary control input.
    fn on_chain_outcome(&mut self, _outcome: &ChainOutcome) {}

    /// Current degradation level (0 = nominal). Non-governor policies
    /// are always at level 0.
    fn level(&self) -> u32 {
        0
    }
}

/// Which policy to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Static-priority FIFO: the runtime's historical behaviour.
    #[default]
    RateMonotonic,
    /// Earliest absolute deadline first.
    Edf,
    /// EDF plus the adaptive degradation governor.
    Adaptive,
}

impl PolicyKind {
    /// Construct the policy with default tuning.
    pub fn build(self) -> Box<dyn Policy> {
        match self {
            PolicyKind::RateMonotonic => Box::new(RateMonotonic),
            PolicyKind::Edf => Box::new(Edf),
            PolicyKind::Adaptive => Box::new(AdaptiveGovernor::default()),
        }
    }

    /// Stable label for file stems and report rows.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::RateMonotonic => "rate_monotonic",
            PolicyKind::Edf => "edf",
            PolicyKind::Adaptive => "adaptive",
        }
    }
}

/// Static-priority FIFO: highest `priority` wins, ties broken by
/// arrival order. With priorities assigned by rate (faster period =
/// higher priority) this is classic rate-monotonic scheduling, and it
/// reproduces the sim engine's historical dispatch rule exactly.
pub struct RateMonotonic;

impl Policy for RateMonotonic {
    fn name(&self) -> &'static str {
        "rate_monotonic"
    }

    fn select(&mut self, ready: &[ReadyJob]) -> usize {
        let mut best = 0;
        for (i, job) in ready.iter().enumerate().skip(1) {
            if job.priority > ready[best].priority {
                best = i;
            }
        }
        best
    }
}

/// Earliest absolute deadline first, ties broken by arrival order.
/// Optimal for preemptive uniprocessor scheduling (Liu & Layland);
/// here it runs non-preemptively per worker, which is the standard
/// work-conserving approximation.
#[derive(Default)]
pub struct Edf;

impl Policy for Edf {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn select(&mut self, ready: &[ReadyJob]) -> usize {
        let mut best = 0;
        for (i, job) in ready.iter().enumerate().skip(1) {
            if job.deadline_ns < ready[best].deadline_ns {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(task: usize, priority: i32, deadline_ns: u64) -> ReadyJob {
        ReadyJob {
            task,
            seq: 0,
            release_ns: 0,
            deadline_ns,
            priority,
            class: PriorityClass::Critical,
        }
    }

    #[test]
    fn rate_monotonic_picks_highest_priority_fifo_on_ties() {
        let mut rm = RateMonotonic;
        let ready = [job(0, 1, 50), job(1, 3, 90), job(2, 3, 10)];
        // Task 1 and 2 tie on priority; task 1 arrived first.
        assert_eq!(rm.select(&ready), 1);
    }

    #[test]
    fn edf_picks_earliest_deadline_fifo_on_ties() {
        let mut edf = Edf;
        let ready = [job(0, 9, 70), job(1, 0, 30), job(2, 5, 30)];
        // Priority is irrelevant; tasks 1 and 2 tie on deadline, 1 first.
        assert_eq!(edf.select(&ready), 1);
    }

    #[test]
    fn every_kind_builds_at_level_zero_under_its_label() {
        for kind in [PolicyKind::RateMonotonic, PolicyKind::Edf, PolicyKind::Adaptive] {
            let policy = kind.build();
            assert_eq!(policy.name(), kind.label());
            assert_eq!(policy.level(), 0);
        }
    }
}
