//! Server-side batch scheduler for homogeneous offloaded work.
//!
//! Offloaded components arrive in homogeneous waves — N sessions each
//! ship a VIO update per camera period — so the server amortizes
//! per-invocation setup (cache warm-up, kernel launch, weight paging)
//! by batching the jobs that arrived in one server tick onto a single
//! worker: a batch of `k` jobs costs `setup + k × per_job` instead of
//! `k × (setup + per_job)`. Batches go to the earliest-free worker of a
//! fixed pool; when every worker is busy the batch queues, which is how
//! compute contention (as opposed to link contention) shows up in
//! motion-to-photon latency.
//!
//! Under sustained overload the earliest-free policy queues without
//! bound — every batch starts later than the previous one and pose
//! staleness grows monotonically. [`PlacementPolicy::DeadlineAware`]
//! instead bounds each batch by a completion deadline: jobs that cannot
//! finish inside the budget are *shed* (the session reprojects with its
//! last delivered pose — graceful degradation) rather than enqueued.

use std::time::Duration;

use illixr_core::Time;

/// How batches are placed onto the worker pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementPolicy {
    /// Earliest-free worker; under overload, batches queue unboundedly.
    EarliestFree,
    /// Earliest-free worker, but each batch is trimmed so it completes
    /// within `deadline` of its arrival; jobs that cannot make the
    /// deadline are shed and counted in
    /// [`SchedulerStats::shed_jobs`]. A stale pose now beats a fresh
    /// pose far too late — shed sessions fall back to reprojecting
    /// their previous pose instead of waiting on an unbounded queue.
    DeadlineAware {
        /// Completion budget measured from batch arrival.
        deadline: Duration,
    },
}

/// Worker-pool and batching parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Number of identical workers.
    pub workers: usize,
    /// Fixed cost to launch a batch, independent of its size.
    pub batch_setup: Duration,
    /// Marginal cost per job in a batch.
    pub per_job: Duration,
    /// Placement policy (see [`PlacementPolicy`]).
    pub placement: PlacementPolicy,
}

impl Default for SchedulerConfig {
    /// Two workers sized for VIO updates (paper Table IV: ~11 ms per
    /// update on a desktop; batching amortizes a 2 ms setup), placed
    /// earliest-free (the historical behaviour).
    fn default() -> Self {
        Self {
            workers: 2,
            batch_setup: Duration::from_millis(2),
            per_job: Duration::from_millis(11),
            placement: PlacementPolicy::EarliestFree,
        }
    }
}

/// Aggregate scheduler counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedulerStats {
    /// Batches launched.
    pub batches: u64,
    /// Jobs across all batches.
    pub jobs: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Total worker-busy time, ns.
    pub busy_ns: u64,
    /// Sum of batch start delays (arrival → worker pickup), ns.
    pub wait_ns: u64,
    /// Jobs shed by deadline-aware placement (never scheduled).
    pub shed_jobs: u64,
}

impl SchedulerStats {
    /// Mean jobs per batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.jobs as f64 / self.batches as f64
        }
    }
}

/// Where one batch landed: the worker index and its execution window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchPlacement {
    /// Index of the worker that ran the batch.
    pub worker: usize,
    /// When the worker picked the batch up (`>=` arrival).
    pub start: Time,
    /// Batch completion time.
    pub end: Time,
}

/// Result of a deadline-bounded placement: what ran and what was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BoundedPlacement {
    /// Where the accepted jobs ran (`None` when everything was shed).
    pub placement: Option<BatchPlacement>,
    /// Jobs scheduled onto the worker.
    pub accepted: usize,
    /// Jobs shed because they could not finish inside the deadline.
    pub shed: usize,
}

/// The worker pool.
#[derive(Debug)]
pub struct BatchScheduler {
    config: SchedulerConfig,
    /// When each worker finishes its current assignment.
    free_at: Vec<Time>,
    stats: SchedulerStats,
}

impl BatchScheduler {
    /// Creates an idle pool.
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` is zero.
    pub fn new(config: SchedulerConfig) -> Self {
        assert!(config.workers > 0, "scheduler needs at least one worker");
        Self { config, free_at: vec![Time::ZERO; config.workers], stats: SchedulerStats::default() }
    }

    /// Schedules `jobs` homogeneous jobs arriving at `now` as one batch
    /// on the earliest-free worker (lowest index on ties, so placement
    /// is deterministic) and returns the batch completion time. All
    /// jobs in the batch complete together.
    pub fn schedule_batch(&mut self, now: Time, jobs: usize) -> Time {
        self.schedule_batch_placed(now, jobs).end
    }

    /// [`BatchScheduler::schedule_batch`] with the full placement: which
    /// worker ran the batch and when it started.
    fn schedule_batch_placed(&mut self, now: Time, jobs: usize) -> BatchPlacement {
        assert!(jobs > 0, "cannot schedule an empty batch");
        let worker = self.earliest_free();
        let start = self.free_at[worker].max(now);
        let cost = self.config.batch_setup + self.config.per_job * jobs as u32;
        let end = start + cost;
        self.free_at[worker] = end;
        self.stats.batches += 1;
        self.stats.jobs += jobs as u64;
        self.stats.max_batch = self.stats.max_batch.max(jobs as u64);
        self.stats.busy_ns += cost.as_nanos() as u64;
        self.stats.wait_ns += (start - now).as_nanos() as u64;
        BatchPlacement { worker, start, end }
    }

    /// Places a batch under the configured [`PlacementPolicy`].
    ///
    /// With [`PlacementPolicy::EarliestFree`] everything is accepted.
    /// With [`PlacementPolicy::DeadlineAware`] the batch is trimmed to
    /// the largest prefix that completes by `now + deadline`; the
    /// remainder is shed. Completing exactly at the deadline counts as
    /// making it, mirroring the strict-miss convention in
    /// `illixr-sched`.
    pub(crate) fn schedule_batch_bounded(&mut self, now: Time, jobs: usize) -> BoundedPlacement {
        assert!(jobs > 0, "cannot schedule an empty batch");
        let accepted = match self.config.placement {
            PlacementPolicy::EarliestFree => jobs,
            PlacementPolicy::DeadlineAware { deadline } => {
                let worker = self.earliest_free();
                let start = self.free_at[worker].max(now);
                let latest = now.as_nanos().saturating_add(deadline.as_nanos() as u64);
                let head =
                    start.as_nanos().saturating_add(self.config.batch_setup.as_nanos() as u64);
                let per_job = (self.config.per_job.as_nanos() as u64).max(1);
                if head >= latest {
                    0
                } else {
                    (((latest - head) / per_job) as usize).min(jobs)
                }
            }
        };
        let shed = jobs - accepted;
        self.stats.shed_jobs += shed as u64;
        let placement = (accepted > 0).then(|| self.schedule_batch_placed(now, accepted));
        BoundedPlacement { placement, accepted, shed }
    }

    fn earliest_free(&self) -> usize {
        self.free_at
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (**t, *i))
            .map(|(i, _)| i)
            .expect("pool is non-empty")
    }

    /// Fraction of pool capacity used over a horizon.
    pub(crate) fn utilization(&self, horizon: Duration) -> f64 {
        if horizon.is_zero() {
            0.0
        } else {
            self.stats.busy_ns as f64 / (horizon.as_nanos() as f64 * self.config.workers as f64)
        }
    }

    /// Run counters.
    pub(crate) fn stats(&self) -> &SchedulerStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(workers: usize) -> BatchScheduler {
        BatchScheduler::new(SchedulerConfig {
            workers,
            batch_setup: Duration::from_millis(2),
            per_job: Duration::from_millis(10),
            placement: PlacementPolicy::EarliestFree,
        })
    }

    fn deadline_pool(workers: usize, deadline_ms: u64) -> BatchScheduler {
        BatchScheduler::new(SchedulerConfig {
            workers,
            batch_setup: Duration::from_millis(2),
            per_job: Duration::from_millis(10),
            placement: PlacementPolicy::DeadlineAware {
                deadline: Duration::from_millis(deadline_ms),
            },
        })
    }

    #[test]
    fn batching_amortizes_setup() {
        let mut s = pool(1);
        // One batch of 4: 2 + 4×10 = 42 ms, versus 4×12 unbatched.
        assert_eq!(s.schedule_batch(Time::ZERO, 4), Time::from_millis(42));
        assert_eq!(s.stats().mean_batch(), 4.0);
    }

    #[test]
    fn batches_spread_across_free_workers() {
        let mut s = pool(2);
        let a = s.schedule_batch(Time::ZERO, 1);
        let b = s.schedule_batch(Time::ZERO, 1);
        // Both 12 ms batches run concurrently on separate workers.
        assert_eq!(a, Time::from_millis(12));
        assert_eq!(b, Time::from_millis(12));
        // Third batch queues behind the earliest-free worker.
        let c = s.schedule_batch(Time::from_millis(1), 1);
        assert_eq!(c, Time::from_millis(24));
        assert_eq!(s.stats().wait_ns, Duration::from_millis(11).as_nanos() as u64);
    }

    #[test]
    fn utilization_counts_busy_time_across_pool() {
        let mut s = pool(2);
        s.schedule_batch(Time::ZERO, 1); // 12 ms busy
        let util = s.utilization(Duration::from_millis(12));
        assert!((util - 0.5).abs() < 1e-12, "one of two workers busy: {util}");
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batches_are_rejected() {
        pool(1).schedule_batch(Time::ZERO, 0);
    }

    #[test]
    fn earliest_free_accepts_everything_bounded() {
        let mut s = pool(1);
        let b = s.schedule_batch_bounded(Time::ZERO, 4);
        assert_eq!(b.accepted, 4);
        assert_eq!(b.shed, 0);
        assert_eq!(b.placement.unwrap().end, Time::from_millis(42));
        assert_eq!(s.stats().shed_jobs, 0);
    }

    #[test]
    fn deadline_aware_trims_to_what_fits() {
        // Budget 35 ms: setup 2 + k×10 ≤ 35 → k = 3 of 5 fit.
        let mut s = deadline_pool(1, 35);
        let b = s.schedule_batch_bounded(Time::ZERO, 5);
        assert_eq!(b.accepted, 3);
        assert_eq!(b.shed, 2);
        assert_eq!(b.placement.unwrap().end, Time::from_millis(32));
        assert_eq!(s.stats().shed_jobs, 2);
    }

    #[test]
    fn deadline_aware_bounds_the_queue_under_overload() {
        // Offered load is 2 jobs / 10 ms against capacity ~1 job / 10 ms.
        // Earliest-free queues without bound; deadline-aware sheds and
        // keeps completion within the 25 ms budget of each arrival.
        let mut unbounded = pool(1);
        let mut bounded = deadline_pool(1, 25);
        let mut worst_unbounded = Duration::ZERO;
        let mut worst_bounded = Duration::ZERO;
        for step in 0..50u64 {
            let now = Time::from_millis(10 * step);
            let end = unbounded.schedule_batch(now, 2);
            worst_unbounded = worst_unbounded.max(end - now);
            let b = bounded.schedule_batch_bounded(now, 2);
            if let Some(p) = b.placement {
                worst_bounded = worst_bounded.max(p.end - now);
            }
        }
        assert!(
            worst_unbounded > Duration::from_millis(500),
            "earliest-free backlog should grow without bound: {worst_unbounded:?}"
        );
        assert!(
            worst_bounded <= Duration::from_millis(25),
            "deadline-aware completion must stay inside the budget: {worst_bounded:?}"
        );
        assert!(bounded.stats().shed_jobs > 0, "overload must shed");
        assert_eq!(unbounded.stats().shed_jobs, 0);
    }

    #[test]
    fn exact_deadline_completion_is_accepted() {
        // setup 2 + 2×10 = 22 ms == budget → both jobs accepted (strict
        // miss convention: end == deadline is a hit).
        let mut s = deadline_pool(1, 22);
        let b = s.schedule_batch_bounded(Time::ZERO, 2);
        assert_eq!(b.accepted, 2);
        assert_eq!(b.shed, 0);
    }
}
