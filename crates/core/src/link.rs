//! The shared device↔edge link vocabulary.
//!
//! There are two link models: `illixr_system`'s `OffloadLink` (a
//! private point-to-point pipe with fixed one-way latency and optional
//! jitter) and `illixr_server`'s `SharedLink` (a contended
//! finite-bandwidth pipe with queueing and serialization). They share
//! no code, only this vocabulary:
//!
//! * [`Direction`] — uplink vs downlink, with the boundary stream each
//!   direction records on;
//! * [`LinkProfile`] — named parameter presets (`wifi`, `lan`,
//!   `cellular_5g`) that either model is built from
//!   (`OffloadLink::from_profile`, `LinkConfig::from_profile`).

use std::time::Duration;

/// Transfer direction on a device↔edge link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Device → edge server.
    Uplink,
    /// Edge server → device.
    Downlink,
}

impl Direction {
    /// Short lowercase label — also the fault-plan target name for
    /// `LinkOutage` / `LinkJitterSpike` windows.
    pub fn label(self) -> &'static str {
        match self {
            Self::Uplink => "uplink",
            Self::Downlink => "downlink",
        }
    }

    /// Boundary stream the direction's transfers are recorded on.
    pub fn boundary_stream(self) -> &'static str {
        match self {
            Self::Uplink => "link/uplink",
            Self::Downlink => "link/downlink",
        }
    }
}

/// A named link parameter preset. Profiles are pure data: build an
/// `OffloadLink` (point-to-point, latency + jitter only) or a
/// `SharedLink` config (adds finite bandwidth and queueing) from one,
/// threading the run seed through at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Stable preset name for report rows.
    pub name: &'static str,
    /// Uplink bandwidth, bits per second.
    pub uplink_bps: f64,
    /// Downlink bandwidth, bits per second.
    pub downlink_bps: f64,
    /// One-way propagation latency, both directions.
    pub base_latency: Duration,
    /// Log-normal jitter sigma on the propagation term (0 = none).
    pub jitter_sigma: f64,
}

impl LinkProfile {
    /// An 802.11ac-class wireless edge link: 200 Mbit/s up, 400 Mbit/s
    /// down, 2 ms one-way, no jitter. (Numerically identical to the
    /// retired `LinkConfig::wifi()` so existing goldens hold.)
    pub fn wifi() -> Self {
        Self {
            name: "wifi",
            uplink_bps: 200e6,
            downlink_bps: 400e6,
            base_latency: Duration::from_millis(2),
            jitter_sigma: 0.0,
        }
    }

    /// A wired gigabit LAN to a rack in the same room: symmetric
    /// 1 Gbit/s, 500 µs one-way, no jitter.
    pub fn lan() -> Self {
        Self {
            name: "lan",
            uplink_bps: 1e9,
            downlink_bps: 1e9,
            base_latency: Duration::from_micros(500),
            jitter_sigma: 0.0,
        }
    }

    /// A mid-band 5G cell: 75 Mbit/s up, 600 Mbit/s down, 12 ms
    /// one-way with substantial scheduling jitter.
    pub fn cellular_5g() -> Self {
        Self {
            name: "cellular_5g",
            uplink_bps: 75e6,
            downlink_bps: 600e6,
            base_latency: Duration::from_millis(12),
            jitter_sigma: 0.35,
        }
    }

    /// Every built-in preset, in presentation order.
    pub fn all() -> [Self; 3] {
        [Self::lan(), Self::wifi(), Self::cellular_5g()]
    }

    /// Bandwidth of one direction, bits per second.
    pub(crate) fn bps(&self, direction: Direction) -> f64 {
        match direction {
            Direction::Uplink => self.uplink_bps,
            Direction::Downlink => self.downlink_bps,
        }
    }

    /// Serialization delay for `bytes` in `direction` (zero on an
    /// infinite-bandwidth direction).
    pub fn serialization(&self, direction: Direction, bytes: u64) -> Duration {
        let bps = self.bps(direction);
        if bps.is_finite() {
            Duration::from_secs_f64(bytes as f64 * 8.0 / bps)
        } else {
            Duration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi_matches_the_retired_constructor_numbers() {
        let p = LinkProfile::wifi();
        assert_eq!(p.uplink_bps, 200e6);
        assert_eq!(p.downlink_bps, 400e6);
        assert_eq!(p.base_latency, Duration::from_millis(2));
        assert_eq!(p.jitter_sigma, 0.0);
    }

    #[test]
    fn serialization_scales_with_bytes_and_direction() {
        let p = LinkProfile::wifi();
        assert_eq!(p.serialization(Direction::Uplink, 0), Duration::ZERO);
        // 200 Mbit/s: 25 MB/s, so 25_000 bytes = 1 ms.
        assert_eq!(p.serialization(Direction::Uplink, 2_500_000), Duration::from_millis(100));
        // Downlink is twice as fast.
        assert_eq!(p.serialization(Direction::Downlink, 2_500_000), Duration::from_millis(50));
        let infinite = LinkProfile { uplink_bps: f64::INFINITY, ..p };
        assert_eq!(infinite.serialization(Direction::Uplink, 1 << 30), Duration::ZERO);
    }

    #[test]
    fn direction_labels_and_streams() {
        assert_eq!(Direction::Uplink.label(), "uplink");
        assert_eq!(Direction::Downlink.boundary_stream(), "link/downlink");
    }
}
