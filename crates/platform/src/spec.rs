//! Platform specifications (paper §III-A).

use core::fmt;

/// The three evaluated hardware configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Intel Xeon E-2236 (6C12T) + NVIDIA RTX 2080 — the tethered-VR
    /// upper bound.
    Desktop,
    /// NVIDIA Jetson AGX Xavier, 10 W mode, maximum clocks.
    JetsonHP,
    /// NVIDIA Jetson AGX Xavier, 10 W mode, half clocks.
    JetsonLP,
}

impl Platform {
    /// All three platforms in the order the paper plots them.
    pub const ALL: [Platform; 3] = [Platform::Desktop, Platform::JetsonHP, Platform::JetsonLP];

    /// The platform's model parameters.
    pub fn spec(self) -> PlatformSpec {
        match self {
            // CPU/GPU scale = how much slower than the desktop a unit of
            // work runs. Calibrated so the schedule qualitatively matches
            // Fig 3: desktop meets essentially all targets, Jetson-HP
            // degrades the visual pipeline, Jetson-LP misses nearly
            // everything except audio.
            Platform::Desktop => PlatformSpec {
                platform: self,
                name: "desktop",
                cpu_cores: 12,
                gpu_slots: 2,
                cpu_scale: 1.0,
                gpu_scale: 1.0,
                cpu_freq_ghz: 3.4,
                gpu_freq_ghz: 1.7,
                gpu_preempt_ms: 0.15,
            },
            Platform::JetsonHP => PlatformSpec {
                platform: self,
                name: "jetson-hp",
                cpu_cores: 8,
                gpu_slots: 1,
                cpu_scale: 3.4,
                gpu_scale: 5.5,
                cpu_freq_ghz: 2.27,
                gpu_freq_ghz: 1.37,
                gpu_preempt_ms: 2.2,
            },
            Platform::JetsonLP => PlatformSpec {
                platform: self,
                name: "jetson-lp",
                cpu_cores: 8,
                gpu_slots: 1,
                cpu_scale: 6.8,
                gpu_scale: 11.0,
                cpu_freq_ghz: 1.13,
                gpu_freq_ghz: 0.68,
                gpu_preempt_ms: 4.4,
            },
        }
    }

    /// Short display name matching the paper's figure labels.
    pub fn label(self) -> &'static str {
        match self {
            Platform::Desktop => "Desktop",
            Platform::JetsonHP => "Jetson-HP",
            Platform::JetsonLP => "Jetson-LP",
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Model parameters of one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformSpec {
    /// Which platform this spec belongs to.
    pub platform: Platform,
    /// Machine-readable name.
    pub name: &'static str,
    /// Schedulable CPU cores (hardware threads for the desktop).
    pub cpu_cores: usize,
    /// Concurrent GPU execution slots (the desktop's discrete GPU can
    /// overlap a graphics and a compute queue; the Jetson serializes).
    pub gpu_slots: usize,
    /// CPU execution-time multiplier relative to the desktop.
    pub cpu_scale: f64,
    /// GPU execution-time multiplier relative to the desktop.
    pub gpu_scale: f64,
    /// Nominal CPU clock, for cycle-count conversions.
    pub cpu_freq_ghz: f64,
    /// Nominal GPU clock.
    pub gpu_freq_ghz: f64,
    /// GPU preemption granularity in milliseconds: how long a
    /// high-priority context waits for running work to reach a
    /// preemption point. Discrete desktop GPUs preempt at pixel/draw
    /// granularity; embedded GPUs are coarser.
    pub gpu_preempt_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_ordering_of_compute_capability() {
        let d = Platform::Desktop.spec();
        let hp = Platform::JetsonHP.spec();
        let lp = Platform::JetsonLP.spec();
        assert!(d.cpu_scale < hp.cpu_scale);
        assert!(hp.cpu_scale < lp.cpu_scale);
        assert!(d.gpu_scale < hp.gpu_scale);
        assert!(hp.gpu_scale < lp.gpu_scale);
    }

    #[test]
    fn jetson_lp_is_half_clock_of_hp() {
        let hp = Platform::JetsonHP.spec();
        let lp = Platform::JetsonLP.spec();
        assert!((lp.cpu_freq_ghz * 2.0 - hp.cpu_freq_ghz).abs() < 0.02);
        assert!((lp.gpu_freq_ghz * 2.0 - hp.gpu_freq_ghz).abs() < 0.02);
        assert!((lp.cpu_scale / hp.cpu_scale - 2.0).abs() < 0.01);
        assert_eq!(hp.cpu_cores, lp.cpu_cores);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Platform::Desktop.label(), "Desktop");
        assert_eq!(Platform::JetsonHP.label(), "Jetson-HP");
        assert_eq!(Platform::JetsonLP.label(), "Jetson-LP");
    }
}
