//! The periodic task model.
//!
//! Each plugin iteration is a *job*: the `k`-th release of a periodic
//! task, carrying an absolute release time, an absolute deadline, a
//! static priority and a [`PriorityClass`] that the degradation ladder
//! uses to decide what to shed first. All timestamps are raw `u64`
//! nanoseconds in whatever clock basis the caller uses (sim virtual
//! time or live monotonic time); this crate never converts bases.

/// Identifies a task within one scheduler instance. Assigned densely
/// from zero in registration order, so it doubles as a vector index.
pub(crate) type TaskId = usize;

/// Semantic class of a task, ordered by how early the degradation
/// ladder is allowed to touch it (later variants are shed sooner).
///
/// The ordering is deliberate: `Critical < Visual < Perception <
/// Audio < BestEffort` in shedding eagerness. `Critical` work (IMU
/// sampling, pose integration, reprojection) is never shed — it is
/// the tail of the motion-to-photon chain and dropping it converts a
/// late frame into no frame at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// IMU sampling, pose integration, reprojection: never shed.
    Critical,
    /// Application rendering: rate-halved at level 1, shortcut at 2.
    Visual,
    /// Camera + VIO: rate-halved at level 1, shortcut at level 2.
    Perception,
    /// Audio encode/playback: dropped entirely at level 3.
    Audio,
    /// Eye tracking, scene reconstruction: dropped entirely at level 3.
    BestEffort,
}

/// One released, not-yet-dispatched job: everything a [`crate::Policy`]
/// needs to pick the next job to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadyJob {
    /// The task this job belongs to.
    pub task: TaskId,
    /// Release index `k`: this is the `k`-th job of the task (0-based).
    pub seq: u64,
    /// Absolute release time in nanoseconds.
    pub release_ns: u64,
    /// Absolute deadline in nanoseconds (`release + relative deadline`).
    pub deadline_ns: u64,
    /// Static priority (higher runs first under rate-monotonic).
    pub priority: i32,
    /// Semantic class, consulted by the degradation governor.
    pub class: PriorityClass,
}

/// Absolute release time of the `k`-th job of a periodic task.
///
/// Computed in 128-bit arithmetic so that `period * k` cannot wrap:
/// the historical `period * k as u32` truncated `k` and wrapped after
/// ~4.3 billion iterations (for a 2 ms IMU period, under 100 days of
/// uptime — inside the paper's "always-on wearable" horizon). The
/// result saturates at `u64::MAX` rather than wrapping.
pub fn release_ns(origin_ns: u64, period_ns: u64, k: u64) -> u64 {
    let abs = origin_ns as u128 + period_ns as u128 * k as u128;
    abs.min(u64::MAX as u128) as u64
}

/// The lateness-correct deadline-miss predicate: a job misses iff it
/// *finishes after its absolute deadline*. CPU time is irrelevant — a
/// job that slept past its deadline missed it, and a job that burned
/// a full period of CPU but finished on time did not.
pub fn is_miss(end_ns: u64, release_ns: u64, deadline_rel_ns: u64) -> bool {
    end_ns > release_ns.saturating_add(deadline_rel_ns)
}

/// How late a job finished relative to its absolute deadline, in
/// nanoseconds; zero when it met the deadline.
pub fn lateness_ns(end_ns: u64, release_ns: u64, deadline_rel_ns: u64) -> u64 {
    end_ns.saturating_sub(release_ns.saturating_add(deadline_rel_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_math_does_not_wrap_past_u32_iterations() {
        // 2 ms period, k beyond u32::MAX: the old `period * k as u32`
        // would truncate k and jump back near the origin.
        let period = 2_000_000u64;
        let k = u32::MAX as u64 + 5;
        let r = release_ns(1_000, period, k);
        assert_eq!(r, 1_000 + period * k);
        // Strictly monotone across the u32 boundary.
        assert!(release_ns(1_000, period, k) > release_ns(1_000, period, u32::MAX as u64));
    }

    #[test]
    fn release_math_saturates_instead_of_wrapping() {
        let r = release_ns(u64::MAX - 10, 1_000_000, u64::MAX);
        assert_eq!(r, u64::MAX);
    }

    #[test]
    fn miss_is_lateness_not_cpu_time() {
        // Finishing exactly at the deadline is NOT a miss.
        assert!(!is_miss(10_000, 5_000, 5_000));
        // One nanosecond past is.
        assert!(is_miss(10_001, 5_000, 5_000));
        assert_eq!(lateness_ns(10_001, 5_000, 5_000), 1);
        assert_eq!(lateness_ns(9_000, 5_000, 5_000), 0);
    }

    #[test]
    fn class_ordering_matches_shedding_eagerness() {
        assert!(PriorityClass::Critical < PriorityClass::Visual);
        assert!(PriorityClass::Visual < PriorityClass::Perception);
        assert!(PriorityClass::Perception < PriorityClass::Audio);
        assert!(PriorityClass::Audio < PriorityClass::BestEffort);
    }
}
