//! End-to-end chain deadlines.
//!
//! A *chain* is an ordered pipeline of tasks — e.g. `imu →
//! imu_integrator → reprojection` — with one end-to-end deadline: the
//! motion-to-photon budget. The tracker implements freshest-sample
//! (origin-stamp) propagation, the semantics XR pipelines actually
//! have: each stage consumes the *latest* output of its upstream
//! stage, so the chain latency of a tail completion is `tail end −
//! origin of the freshest upstream data it observed`.
//!
//! Propagation is snapshot-at-start: when a stage *starts*, it
//! captures the origin currently exposed by its predecessor (a head
//! stage's origin is its own release time); when it *finishes*, it
//! publishes that origin downstream. A tail finish emits a
//! [`ChainOutcome`]. This matches how a real pipeline reads its input
//! topic at iteration start and publishes at iteration end.

use crate::task::TaskId;

/// Index of a chain within one tracker, assigned in registration order.
pub type ChainId = usize;

/// A declared pipeline with an end-to-end deadline.
#[derive(Clone, Debug)]
pub struct ChainSpec {
    /// Chain name for telemetry (e.g. `"mtp"`).
    pub name: String,
    /// Member tasks in pipeline order, head first.
    pub members: Vec<TaskId>,
    /// End-to-end relative deadline in nanoseconds.
    pub deadline_ns: u64,
}

/// One tail completion of a chain: the chain's control signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainOutcome {
    /// Which chain completed.
    pub chain: ChainId,
    /// Origin timestamp of the freshest head sample that reached the
    /// tail, in nanoseconds.
    pub origin_ns: u64,
    /// When the tail stage finished, in nanoseconds.
    pub end_ns: u64,
    /// End-to-end latency: `end - origin`.
    pub latency_ns: u64,
    /// The chain's relative deadline, copied for convenience.
    pub deadline_ns: u64,
    /// Whether `latency > deadline` (lateness-correct: equality is a hit).
    pub missed: bool,
}

/// Per-stage propagation state within one chain.
#[derive(Clone, Copy, Debug)]
struct StageState {
    /// Origin snapshotted when the current in-flight job started, if any.
    in_flight: Option<u64>,
    /// Origin published by the last finished job, visible downstream.
    published: Option<u64>,
}

/// Tracks origin-stamp propagation for any number of chains. A task
/// may belong to at most one position per chain but may appear in
/// several chains; `on_start`/`on_finish` fan out to all memberships.
#[derive(Default)]
pub struct ChainTracker {
    specs: Vec<ChainSpec>,
    /// `stages[chain][position]` mirrors `specs[chain].members`.
    stages: Vec<Vec<StageState>>,
}

impl ChainTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a chain; returns its id. Chains with fewer than one
    /// member are ignored (returns the would-be id anyway so callers
    /// need not branch).
    pub fn add(&mut self, spec: ChainSpec) -> ChainId {
        let id = self.specs.len();
        self.stages.push(vec![StageState { in_flight: None, published: None }; spec.members.len()]);
        self.specs.push(spec);
        id
    }

    /// Registered chain specs, in registration order.
    pub fn specs(&self) -> &[ChainSpec] {
        &self.specs
    }

    /// A job of `task` started executing at `start_ns` (its release
    /// was `release_ns`). Snapshots the upstream origin for every
    /// chain position the task occupies.
    pub fn on_start(&mut self, task: TaskId, release_ns: u64, _start_ns: u64) {
        for (ci, spec) in self.specs.iter().enumerate() {
            for (pos, &member) in spec.members.iter().enumerate() {
                if member != task {
                    continue;
                }
                let origin = if pos == 0 {
                    // Head stage: the sample's origin is its release —
                    // the instant the motion it measures occurred.
                    Some(release_ns)
                } else {
                    // Downstream: consume the freshest published
                    // upstream origin; None until upstream produces.
                    self.stages[ci][pos - 1].published
                };
                self.stages[ci][pos].in_flight = origin;
            }
        }
    }

    /// The in-flight job of `task` finished at `end_ns`. Publishes
    /// its snapshotted origin downstream; tail finishes emit one
    /// [`ChainOutcome`] per chain (in chain-registration order, so
    /// the result is deterministic).
    pub fn on_finish(&mut self, task: TaskId, end_ns: u64) -> Vec<ChainOutcome> {
        let mut outcomes = Vec::new();
        for (ci, spec) in self.specs.iter().enumerate() {
            for (pos, &member) in spec.members.iter().enumerate() {
                if member != task {
                    continue;
                }
                let origin = self.stages[ci][pos].in_flight.take();
                if let Some(origin_ns) = origin {
                    self.stages[ci][pos].published = Some(origin_ns);
                    if pos + 1 == spec.members.len() {
                        let latency_ns = end_ns.saturating_sub(origin_ns);
                        outcomes.push(ChainOutcome {
                            chain: ci,
                            origin_ns,
                            end_ns,
                            latency_ns,
                            deadline_ns: spec.deadline_ns,
                            missed: latency_ns > spec.deadline_ns,
                        });
                    }
                }
            }
        }
        outcomes
    }

    /// The in-flight job of `task` was abandoned without doing work
    /// (e.g. the plugin returned `did_work = false`): discard its
    /// snapshot so stale origins are not published.
    pub fn on_abort(&mut self, task: TaskId) {
        for (ci, spec) in self.specs.iter().enumerate() {
            for (pos, &member) in spec.members.iter().enumerate() {
                if member == task {
                    self.stages[ci][pos].in_flight = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(members: &[TaskId], deadline_ns: u64) -> ChainSpec {
        ChainSpec { name: "test".into(), members: members.to_vec(), deadline_ns }
    }

    #[test]
    fn origin_propagates_head_to_tail() {
        let mut t = ChainTracker::new();
        t.add(chain(&[0, 1, 2], 10_000));
        // Head sample released at t=100, runs 100..200.
        t.on_start(0, 100, 100);
        assert!(t.on_finish(0, 200).is_empty(), "head finish emits nothing");
        // Middle stage starts at 300, sees head origin 100.
        t.on_start(1, 250, 300);
        assert!(t.on_finish(1, 400).is_empty());
        // Tail runs 500..600: chain latency = 600 - 100 = 500.
        t.on_start(2, 450, 500);
        let out = t.on_finish(2, 600);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].origin_ns, 100);
        assert_eq!(out[0].latency_ns, 500);
        assert!(!out[0].missed);
    }

    #[test]
    fn snapshot_at_start_ignores_fresher_upstream_finishing_mid_stage() {
        let mut t = ChainTracker::new();
        t.add(chain(&[0, 1], 1_000));
        t.on_start(0, 100, 100);
        t.on_finish(0, 150);
        // Tail starts at 200, snapshotting origin 100.
        t.on_start(1, 180, 200);
        // A fresher head sample completes while the tail is running …
        t.on_start(0, 300, 300);
        t.on_finish(0, 350);
        // … but the tail's outcome still carries the origin it read.
        let out = t.on_finish(1, 400);
        assert_eq!(out[0].origin_ns, 100);
        assert_eq!(out[0].latency_ns, 300);
    }

    #[test]
    fn tail_with_no_upstream_data_emits_nothing() {
        let mut t = ChainTracker::new();
        t.add(chain(&[0, 1], 1_000));
        // Tail runs before the head has ever published.
        t.on_start(1, 0, 10);
        assert!(t.on_finish(1, 20).is_empty());
    }

    #[test]
    fn miss_requires_latency_strictly_over_deadline() {
        let mut t = ChainTracker::new();
        t.add(chain(&[0], 500));
        t.on_start(0, 100, 100);
        let out = t.on_finish(0, 600); // latency exactly 500
        assert!(!out[0].missed);
        t.on_start(0, 700, 700);
        let out = t.on_finish(0, 1_201); // latency 501
        assert!(out[0].missed);
    }

    #[test]
    fn abort_discards_snapshot() {
        let mut t = ChainTracker::new();
        t.add(chain(&[0, 1], 1_000));
        t.on_start(0, 100, 100);
        t.on_abort(0); // did_work = false
        t.on_start(1, 200, 200);
        assert!(t.on_finish(1, 300).is_empty(), "no origin should have published");
    }

    #[test]
    fn task_in_two_chains_feeds_both() {
        let mut t = ChainTracker::new();
        t.add(chain(&[0, 1], 1_000));
        t.add(chain(&[0, 2], 2_000));
        t.on_start(0, 50, 50);
        t.on_finish(0, 60);
        t.on_start(1, 70, 70);
        t.on_start(2, 80, 80);
        assert_eq!(t.on_finish(1, 90)[0].origin_ns, 50);
        assert_eq!(t.on_finish(2, 95)[0].origin_ns, 50);
    }
}
