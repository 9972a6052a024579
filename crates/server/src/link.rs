//! The shared, contended device↔edge link.
//!
//! `illixr-system`'s `OffloadLink` models a private point-to-point
//! pipe: every transfer sees the same one-way latency regardless of who
//! else is talking. That is the right model for one client, but a
//! multi-session server shares *finite* uplink and downlink bandwidth
//! across every connected client, so a transfer's delay has three
//! parts:
//!
//! 1. **queueing** — wait until the direction's serializer is free
//!    (grows with concurrent sessions; zero on an idle link);
//! 2. **serialization** — `bytes / bandwidth`;
//! 3. **propagation** — the base one-way latency, optionally jittered
//!    (log-normal, deterministic per seed), exactly like `OffloadLink`.
//!
//! [`SharedLink`] is the generalization: with infinite bandwidth it
//! degenerates to `OffloadLink`'s fixed-latency behaviour (see the
//! tests). The two models share no code, only `illixr_core::link`'s
//! vocabulary: the [`Direction`] type is re-exported from there, and
//! configs are built from named [`LinkProfile`] presets via
//! [`LinkConfig::from_profile`]. They stay separate on purpose: this one
//! is a per-direction serializer shared by every session (state: two
//! `busy_until` marks), the other a per-stream delay queue that owns the
//! in-flight events — merging them would make one body branch on which
//! caller it serves.
//!
//! Each transfer's `(queue wait, delivery delay)` is a physical input:
//! [`SharedLink::transfer`] crosses the determinism boundary with one
//! `Boundary::cross` per transfer, taking exactly one [`Transfer`], the
//! 16-byte payload type.

use std::sync::Arc;
use std::time::Duration;

use illixr_core::boundary::{
    Boundary, ByteReader, ByteWriter, DecodeError, SessionTransform, Wire,
};
use illixr_core::fault::FaultPlan;
use illixr_core::link::LinkProfile;
use illixr_core::Time;
use illixr_platform::rng::SplitMix64;

pub use illixr_core::link::Direction;

/// Boundary payload for one transfer: queue wait and total delivery
/// delay, as signed deltas from the record tag (the transfer's start
/// time) so a dilating replay transform scales them coherently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Transfer {
    pub wait_ns: i64,
    pub arrival_delta_ns: i64,
}

impl Wire for Transfer {
    fn put(&self, w: &mut ByteWriter, _: u64) {
        w.put_i64(self.wait_ns);
        w.put_i64(self.arrival_delta_ns);
    }

    fn take(r: &mut ByteReader, _: u64, t: &SessionTransform) -> Result<Self, DecodeError> {
        let wait_ns = t.scale_delta(r.take_i64()?);
        let arrival_delta_ns = t.scale_delta(r.take_i64()?);
        Ok(Transfer { wait_ns, arrival_delta_ns })
    }
}

/// Shared-link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Uplink bandwidth, bits per second.
    pub uplink_bps: f64,
    /// Downlink bandwidth, bits per second.
    pub downlink_bps: f64,
    /// One-way propagation latency, both directions.
    pub base_latency: Duration,
    /// Log-normal jitter sigma on the propagation term (0 = none).
    pub jitter_sigma: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl LinkConfig {
    /// Builds a config from a named [`LinkProfile`], threading the run
    /// seed into the jitter/fault RNG stream. This replaces the old
    /// per-model preset constructors (`LinkConfig::wifi()` et al.):
    /// profiles are the single source of preset numbers.
    pub fn from_profile(profile: LinkProfile, seed: u64) -> Self {
        Self {
            uplink_bps: profile.uplink_bps,
            downlink_bps: profile.downlink_bps,
            base_latency: profile.base_latency,
            jitter_sigma: profile.jitter_sigma,
            seed,
        }
    }
}

/// Aggregate counters for one run, per direction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DirectionStats {
    /// Transfers completed.
    pub transfers: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Sum of per-transfer queueing delays, ns.
    pub queue_delay_ns: u64,
    /// Worst single queueing delay, ns.
    pub max_queue_delay_ns: u64,
}

impl DirectionStats {
    /// Mean queueing delay per transfer.
    pub fn mean_queue_delay(&self) -> Duration {
        Duration::from_nanos(self.queue_delay_ns.checked_div(self.transfers).unwrap_or(0))
    }
}

/// The contended link: all sessions' transfers serialize through one
/// pipe per direction.
#[derive(Debug)]
pub struct SharedLink {
    config: LinkConfig,
    up_busy_until: Time,
    down_busy_until: Time,
    rng: SplitMix64,
    up: DirectionStats,
    down: DirectionStats,
    fault: Arc<FaultPlan>,
    pub(crate) boundary: Boundary,
}

impl SharedLink {
    /// Creates an idle link.
    pub fn new(config: LinkConfig) -> Self {
        Self {
            config,
            up_busy_until: Time::ZERO,
            down_busy_until: Time::ZERO,
            rng: SplitMix64::new(config.seed ^ 0x51A2_ED11),
            up: DirectionStats::default(),
            down: DirectionStats::default(),
            fault: Arc::new(FaultPlan::quiet()),
            boundary: Boundary::off(),
        }
    }

    /// Injects link faults according to `plan`: a `LinkOutage` window
    /// (targets `"uplink"` / `"downlink"`) defers the transfer's first
    /// byte to the window's end, and a `LinkJitterSpike` multiplies the
    /// propagation term.
    pub(crate) fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = plan;
        self
    }

    /// Attaches a determinism boundary: a recording boundary captures
    /// every transfer's `(queue wait, delivery delay)` on
    /// `link/uplink` / `link/downlink`, and a replaying one feeds those
    /// delays back instead of consulting jitter RNG or fault windows.
    pub(crate) fn with_boundary(mut self, boundary: Boundary) -> Self {
        self.boundary = boundary;
        self
    }

    /// Starts a transfer of `bytes` at `now` and returns its delivery
    /// time. FIFO per direction: the transfer first waits for the
    /// serializer to drain whatever earlier transfers queued.
    pub fn transfer(&mut self, direction: Direction, now: Time, bytes: u64) -> Time {
        let stream = direction.boundary_stream();
        let (bps, busy_until, target) = match direction {
            Direction::Uplink => (self.config.uplink_bps, self.up_busy_until, "uplink"),
            Direction::Downlink => (self.config.downlink_bps, self.down_busy_until, "downlink"),
        };
        let serialization = if bps.is_finite() {
            Duration::from_secs_f64(bytes as f64 * 8.0 / bps)
        } else {
            Duration::ZERO
        };
        let now_ns = now.as_nanos();
        let crossing = self.boundary.cross(stream, now_ns, || {
            let faults = self.fault.link(target);
            let mut start = busy_until.max(now);
            if let Some(outage_end) = faults.outage_until(now_ns) {
                // The radio is down: the first byte waits out the outage.
                start = start.max(Time::from_nanos(outage_end));
            }
            let jitter = if self.config.jitter_sigma > 0.0 {
                self.rng.next_lognormal(self.config.jitter_sigma)
            } else {
                1.0
            };
            let propagation = Duration::from_secs_f64(
                self.config.base_latency.as_secs_f64() * jitter * faults.jitter_scale(now_ns),
            );
            let arrival = start + serialization + propagation;
            let wait_ns = start.as_nanos().saturating_sub(now_ns) as i64;
            let arrival_delta_ns = arrival.as_nanos().saturating_sub(now_ns) as i64;
            Some((now_ns, Transfer { wait_ns, arrival_delta_ns }))
        });
        // `generate` always yields, so the default is never taken.
        let Transfer { wait_ns, arrival_delta_ns } = crossing.one().unwrap_or_default();
        let queue_ns = wait_ns.max(0) as u64;
        let arrival = Time::from_nanos(now_ns.saturating_add(arrival_delta_ns.max(0) as u64));
        let busy_until = match direction {
            Direction::Uplink => &mut self.up_busy_until,
            Direction::Downlink => &mut self.down_busy_until,
        };
        *busy_until = Time::from_nanos(now_ns + queue_ns) + serialization;
        let stats = match direction {
            Direction::Uplink => &mut self.up,
            Direction::Downlink => &mut self.down,
        };
        stats.transfers += 1;
        stats.bytes += bytes;
        stats.queue_delay_ns += queue_ns;
        stats.max_queue_delay_ns = stats.max_queue_delay_ns.max(queue_ns);
        arrival
    }

    /// How long a transfer issued at `now` would wait before its first
    /// byte goes out — the direction's current queue depth in time.
    pub(crate) fn queue_delay(&self, direction: Direction, now: Time) -> Duration {
        let busy_until = match direction {
            Direction::Uplink => self.up_busy_until,
            Direction::Downlink => self.down_busy_until,
        };
        busy_until - now
    }

    /// Counters for one direction.
    pub(crate) fn stats(&self, direction: Direction) -> &DirectionStats {
        match direction {
            Direction::Uplink => &self.up,
            Direction::Downlink => &self.down,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_link(bps: f64) -> SharedLink {
        SharedLink::new(LinkConfig {
            uplink_bps: bps,
            downlink_bps: bps,
            base_latency: Duration::from_millis(2),
            jitter_sigma: 0.0,
            seed: 0,
        })
    }

    #[test]
    fn transfer_payload_bytes_are_pinned() {
        let encode = |wait_ns, arrival_delta_ns| Transfer { wait_ns, arrival_delta_ns }.encode(0);
        assert_eq!(
            encode(1_250, 3_001_250),
            [0xe2, 0x04, 0, 0, 0, 0, 0, 0, 0xa2, 0xcb, 0x2d, 0, 0, 0, 0, 0]
        );
        assert_eq!(
            encode(-7, -9_000_000_000),
            [
                0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0xe6, 0x8e, 0xe7, 0xfd, 0xff,
                0xff, 0xff
            ]
        );
    }

    #[test]
    fn idle_link_has_no_queueing() {
        let mut link = flat_link(8e6); // 1 MB/s
        let t = link.transfer(Direction::Uplink, Time::ZERO, 1000);
        // 1 kB at 1 MB/s = 1 ms serialization + 2 ms propagation.
        assert_eq!(t, Time::from_millis(3));
        assert_eq!(link.stats(Direction::Uplink).queue_delay_ns, 0);
    }

    #[test]
    fn concurrent_transfers_queue_fifo() {
        let mut link = flat_link(8e6);
        let first = link.transfer(Direction::Uplink, Time::ZERO, 1000);
        let second = link.transfer(Direction::Uplink, Time::ZERO, 1000);
        // Second transfer waits out the first's serialization.
        assert_eq!(second - first, Duration::from_millis(1));
        assert_eq!(
            link.stats(Direction::Uplink).queue_delay_ns,
            Duration::from_millis(1).as_nanos() as u64
        );
    }

    #[test]
    fn directions_do_not_contend_with_each_other() {
        let mut link = flat_link(8e6);
        link.transfer(Direction::Uplink, Time::ZERO, 100_000);
        let down = link.transfer(Direction::Downlink, Time::ZERO, 1000);
        assert_eq!(down, Time::from_millis(3), "downlink must not see uplink queueing");
    }

    #[test]
    fn queue_delay_drains_over_time() {
        let mut link = flat_link(8e6);
        link.transfer(Direction::Uplink, Time::ZERO, 8000); // 8 ms of serialization
        assert_eq!(link.queue_delay(Direction::Uplink, Time::ZERO), Duration::from_millis(8));
        assert_eq!(
            link.queue_delay(Direction::Uplink, Time::from_millis(5)),
            Duration::from_millis(3)
        );
        assert_eq!(link.queue_delay(Direction::Uplink, Time::from_millis(20)), Duration::ZERO);
    }

    #[test]
    fn infinite_bandwidth_degenerates_to_offload_link() {
        let mut link = flat_link(f64::INFINITY);
        // Back-to-back huge transfers all arrive after exactly the base
        // latency — OffloadLink semantics.
        for _ in 0..4 {
            let t = link.transfer(Direction::Uplink, Time::from_millis(1), 10_000_000);
            assert_eq!(t, Time::from_millis(3));
        }
        assert_eq!(link.stats(Direction::Uplink).queue_delay_ns, 0);
    }

    #[test]
    fn outage_window_defers_uplink_but_not_downlink() {
        use illixr_core::fault::{FaultKind, FaultWindow};
        let plan = illixr_core::fault::FaultPlan::new(3).with_window(FaultWindow::new(
            FaultKind::LinkOutage,
            "uplink",
            Time::from_millis(5).as_nanos(),
            Time::from_millis(20).as_nanos(),
            1.0,
        ));
        let mut link = flat_link(8e6).with_fault_plan(Arc::new(plan));
        // Inside the outage: first byte leaves at 20 ms, +1 ms
        // serialization +2 ms propagation.
        let up = link.transfer(Direction::Uplink, Time::from_millis(10), 1000);
        assert_eq!(up, Time::from_millis(23));
        // The downlink target is unaffected.
        let down = link.transfer(Direction::Downlink, Time::from_millis(10), 1000);
        assert_eq!(down, Time::from_millis(13));
        // After the outage the uplink behaves nominally again.
        let late = link.transfer(Direction::Uplink, Time::from_millis(30), 1000);
        assert_eq!(late, Time::from_millis(33));
    }

    #[test]
    fn jitter_spike_scales_propagation() {
        use illixr_core::fault::{FaultKind, FaultWindow};
        let plan = illixr_core::fault::FaultPlan::new(4).with_window(FaultWindow::new(
            FaultKind::LinkJitterSpike,
            "downlink",
            0,
            Time::from_millis(100).as_nanos(),
            5.0,
        ));
        let mut link = flat_link(8e6).with_fault_plan(Arc::new(plan));
        // 1 ms serialization + 5 × 2 ms propagation.
        let t = link.transfer(Direction::Downlink, Time::ZERO, 1000);
        assert_eq!(t, Time::from_millis(11));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let config =
            LinkConfig { jitter_sigma: 0.3, ..LinkConfig::from_profile(LinkProfile::wifi(), 9) };
        let mut a = SharedLink::new(config);
        let mut b = SharedLink::new(config);
        for i in 0..32 {
            let now = Time::from_millis(i * 3);
            assert_eq!(
                a.transfer(Direction::Downlink, now, 5000),
                b.transfer(Direction::Downlink, now, 5000)
            );
        }
    }
}
