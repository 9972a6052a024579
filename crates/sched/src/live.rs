//! A policy-driven ready queue shared across OS threads.
//!
//! The sim engine embeds a [`Policy`] directly in its event loop; code
//! that hands work to threads needs the same decision point behind a
//! lock. [`JobQueue`] is that point: a producer `push`es released jobs
//! through the policy's admission hook, and worker threads
//! `pop_blocking`, each pop asking the policy to select among
//! everything currently ready. The policy lives under the queue lock,
//! so its view of the ready set is always consistent — which is exactly
//! the work-conserving single-queue model EDF's optimality argument
//! assumes.
//!
//! Not an engine building block: the multi-session server's engine woke
//! its shard workers through one until it ran wide batches as scoped
//! fork-joins instead. Only this module's tests and `perf/`'s
//! `sched.queue.push_pop_ns` row still use it.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::policy::Policy;
use crate::task::ReadyJob;

struct QueueState {
    ready: VecDeque<ReadyJob>,
    policy: Box<dyn Policy>,
    closed: bool,
}

/// A shared ready queue whose pop order is decided by a [`Policy`].
/// Wrap in an `Arc` to share between a producer and workers.
pub struct JobQueue {
    state: Mutex<QueueState>,
    available: Condvar,
}

impl JobQueue {
    pub fn new(policy: Box<dyn Policy>) -> Self {
        Self {
            state: Mutex::new(QueueState { ready: VecDeque::new(), policy, closed: false }),
            available: Condvar::new(),
        }
    }

    /// Offer a released job. Returns `false` if the policy's admission
    /// control shed it (the caller should count a drop, not a miss).
    pub fn push(&self, job: ReadyJob) -> bool {
        let mut state = self.state.lock().unwrap();
        if state.closed || !state.policy.admit(&job) {
            return false;
        }
        state.ready.push_back(job);
        drop(state);
        self.available.notify_one();
        true
    }

    /// Block until a job is ready (returning the policy's pick) or the
    /// queue is closed and drained (returning `None`).
    pub fn pop_blocking(&self) -> Option<ReadyJob> {
        let mut state = self.state.lock().unwrap();
        loop {
            if !state.ready.is_empty() {
                let QueueState { ready, policy, .. } = &mut *state;
                let idx = policy.select(ready.make_contiguous());
                return ready.remove(idx);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap();
        }
    }

    /// Non-blocking pop, for drain loops and tests.
    pub fn try_pop(&self) -> Option<ReadyJob> {
        let mut state = self.state.lock().unwrap();
        if state.ready.is_empty() {
            return None;
        }
        let QueueState { ready, policy, .. } = &mut *state;
        let idx = policy.select(ready.make_contiguous());
        ready.remove(idx)
    }

    /// Close the queue: pushes are rejected, workers drain what is
    /// left and then observe `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::policy::{Edf, PolicyKind};
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

    #[test]
    fn close_unblocks_workers_after_drain() {
        let q = Arc::new(JobQueue::new(PolicyKind::Edf.build()));
        q.push(job(0, 10));
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(j) = q.pop_blocking() {
                    got.push(j.task);
                }
                got
            })
        };
        q.close();
        assert_eq!(worker.join().unwrap(), vec![0]);
        assert!(!q.push(job(1, 10)), "closed queue rejects pushes");
    }

    #[test]
    fn workers_consume_everything_exactly_once() {
        let q = Arc::new(JobQueue::new(PolicyKind::Edf.build()));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut n = 0u32;
                    while q.pop_blocking().is_some() {
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for i in 0..100 {
            assert!(q.push(job(i, i as u64)));
        }
        q.close();
        let total: u32 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 100);
    }
}
