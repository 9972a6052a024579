//! A policy-driven ready queue behind a lock.
//!
//! The sim engine embeds a [`Policy`] directly in its event loop; code
//! that shares a ready set between threads needs the same decision point
//! behind a lock. [`JobQueue`] is that point: `push` offers a released
//! job through the policy's admission hook, and each `try_pop` asks the
//! policy to select among everything currently ready. The policy lives
//! under the queue lock, so its view of the ready set is always
//! consistent.
//!
//! Not an engine building block, and nothing waits on it: the
//! multi-session server's engine woke its shard workers through one
//! until it ran wide batches as scoped fork-joins instead. Only `perf/`'s
//! `sched.queue.push_pop_ns` row still reaches it.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::policy::Policy;
use crate::task::ReadyJob;

struct QueueState {
    ready: VecDeque<ReadyJob>,
    policy: Box<dyn Policy>,
}

/// A shared ready queue whose pop order is decided by a [`Policy`].
pub struct JobQueue {
    state: Mutex<QueueState>,
}

impl JobQueue {
    pub fn new(policy: Box<dyn Policy>) -> Self {
        Self { state: Mutex::new(QueueState { ready: VecDeque::new(), policy }) }
    }

    /// Offer a released job. Returns `false` if the policy's admission
    /// control shed it (the caller should count a drop, not a miss).
    pub fn push(&self, job: ReadyJob) -> bool {
        let mut state = self.state.lock().unwrap();
        if !state.policy.admit(&job) {
            return false;
        }
        state.ready.push_back(job);
        true
    }

    /// The policy's pick among the ready jobs, or `None` when none is
    /// ready.
    pub fn try_pop(&self) -> Option<ReadyJob> {
        let mut state = self.state.lock().unwrap();
        if state.ready.is_empty() {
            return None;
        }
        let QueueState { ready, policy } = &mut *state;
        let idx = policy.select(ready.make_contiguous());
        ready.remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Edf;
    use crate::task::PriorityClass;

    fn job(task: usize, deadline_ns: u64) -> ReadyJob {
        ReadyJob {
            task,
            seq: 0,
            release_ns: 0,
            deadline_ns,
            priority: 0,
            class: PriorityClass::Critical,
        }
    }

    #[test]
    fn pops_in_policy_order() {
        let q = JobQueue::new(Box::new(Edf));
        assert!(q.push(job(0, 300)));
        assert!(q.push(job(1, 100)));
        assert!(q.push(job(2, 200)));
        assert_eq!(q.try_pop().unwrap().task, 1);
        assert_eq!(q.try_pop().unwrap().task, 2);
        assert_eq!(q.try_pop().unwrap().task, 0);
        assert!(q.try_pop().is_none());
    }
}
