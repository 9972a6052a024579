//! Power-rail model (paper §III-E, Fig 6).
//!
//! The Jetson exposes five measurable rails — CPU, GPU, DDR, SoC
//! (on-chip microcontrollers, excludes CPU/GPU) and Sys (display,
//! storage, I/O) — and the paper's key observation is that the
//! "invisible" SoC+Sys rails consume **more than half** of Jetson-LP's
//! total power, motivating on-sensor computing. Each rail here draws
//! `idle + dynamic × utilization` watts; utilizations come from the
//! simulated schedule, so power varies by application exactly as in
//! Fig 6.

use core::fmt;

use crate::spec::Platform;

/// A measurable power rail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rail {
    /// CPU cluster.
    Cpu,
    /// GPU.
    Gpu,
    /// DRAM.
    Ddr,
    /// On-chip logic other than CPU/GPU (microcontrollers, ISP, fabric).
    Soc,
    /// Board/system: display, sensors, storage, I/O.
    Sys,
}

impl Rail {
    /// All rails in the order Fig 6b stacks them.
    pub const ALL: [Rail; 5] = [Rail::Cpu, Rail::Gpu, Rail::Ddr, Rail::Soc, Rail::Sys];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Rail::Cpu => "CPU",
            Rail::Gpu => "GPU",
            Rail::Ddr => "DDR",
            Rail::Soc => "SoC",
            Rail::Sys => "Sys",
        }
    }
}

impl fmt::Display for Rail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Idle and dynamic (full-utilization) watts for one rail.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RailParams {
    idle: f64,
    dynamic: f64,
}

/// Per-rail power draw in watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// CPU watts.
    pub cpu: f64,
    /// GPU watts.
    pub gpu: f64,
    /// DDR watts.
    pub ddr: f64,
    /// SoC watts.
    pub soc: f64,
    /// Sys watts.
    pub sys: f64,
}

impl PowerBreakdown {
    /// Total watts across all rails.
    pub fn total(&self) -> f64 {
        self.cpu + self.gpu + self.ddr + self.soc + self.sys
    }

    /// The given rail's share of the total, in `[0, 1]`.
    pub fn share(&self, rail: Rail) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        self.get(rail) / total
    }

    /// Watts on one rail.
    pub fn get(&self, rail: Rail) -> f64 {
        match rail {
            Rail::Cpu => self.cpu,
            Rail::Gpu => self.gpu,
            Rail::Ddr => self.ddr,
            Rail::Soc => self.soc,
            Rail::Sys => self.sys,
        }
    }
}

/// The power model for one platform.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    cpu: RailParams,
    gpu: RailParams,
    ddr: RailParams,
    soc: RailParams,
    sys: RailParams,
}

impl PowerModel {
    /// Creates the calibrated model for `platform`.
    ///
    /// Calibration targets (paper Fig 6): desktop total is two-to-three
    /// orders of magnitude above the 0.1–2 W ideal and GPU-dominated;
    /// both Jetsons land near their 10 W TDP preset; on Jetson-LP the
    /// SoC+Sys rails exceed 50 % of total.
    pub fn new(platform: Platform) -> Self {
        match platform {
            Platform::Desktop => Self {
                cpu: RailParams { idle: 14.0, dynamic: 66.0 },
                gpu: RailParams { idle: 18.0, dynamic: 197.0 },
                ddr: RailParams { idle: 3.0, dynamic: 12.0 },
                soc: RailParams { idle: 12.0, dynamic: 6.0 },
                sys: RailParams { idle: 28.0, dynamic: 4.0 },
            },
            Platform::JetsonHP => Self {
                cpu: RailParams { idle: 0.7, dynamic: 3.1 },
                gpu: RailParams { idle: 0.6, dynamic: 4.2 },
                ddr: RailParams { idle: 0.5, dynamic: 2.1 },
                soc: RailParams { idle: 1.5, dynamic: 0.4 },
                sys: RailParams { idle: 2.4, dynamic: 0.3 },
            },
            Platform::JetsonLP => Self {
                // Half clocks: dynamic power drops superlinearly
                // (frequency and voltage), idle and board power barely
                // change — which is exactly why SoC+Sys dominate.
                cpu: RailParams { idle: 0.55, dynamic: 1.1 },
                gpu: RailParams { idle: 0.45, dynamic: 1.5 },
                ddr: RailParams { idle: 0.45, dynamic: 0.9 },
                soc: RailParams { idle: 1.45, dynamic: 0.25 },
                sys: RailParams { idle: 2.35, dynamic: 0.2 },
            },
        }
    }

    /// Power draw for the given average utilizations (each in `[0, 1]`).
    ///
    /// `ddr_util` is typically derived from CPU+GPU activity;
    /// [`PowerModel::breakdown_from_compute`] does this for you.
    pub(crate) fn breakdown(&self, cpu_util: f64, gpu_util: f64, ddr_util: f64) -> PowerBreakdown {
        let c = cpu_util.clamp(0.0, 1.0);
        let g = gpu_util.clamp(0.0, 1.0);
        let d = ddr_util.clamp(0.0, 1.0);
        // SoC and Sys activity track overall system business weakly.
        let activity = (0.5 * c + 0.5 * g).clamp(0.0, 1.0);
        PowerBreakdown {
            cpu: self.cpu.idle + self.cpu.dynamic * c,
            gpu: self.gpu.idle + self.gpu.dynamic * g,
            ddr: self.ddr.idle + self.ddr.dynamic * d,
            soc: self.soc.idle + self.soc.dynamic * activity,
            sys: self.sys.idle + self.sys.dynamic * activity,
        }
    }

    /// Power draw with DDR utilization estimated from compute activity.
    pub fn breakdown_from_compute(&self, cpu_util: f64, gpu_util: f64) -> PowerBreakdown {
        let ddr = (0.4 * cpu_util + 0.6 * gpu_util).clamp(0.0, 1.0);
        self.breakdown(cpu_util, gpu_util, ddr)
    }

    /// Energy in joules for holding a breakdown for `seconds`.
    pub fn energy_joules(breakdown: &PowerBreakdown, seconds: f64) -> f64 {
        breakdown.total() * seconds.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desktop_is_orders_of_magnitude_above_jetson() {
        let d = PowerModel::new(Platform::Desktop).breakdown_from_compute(0.6, 0.7);
        let lp = PowerModel::new(Platform::JetsonLP).breakdown_from_compute(0.6, 0.7);
        assert!(d.total() > 150.0, "desktop {}", d.total());
        assert!(lp.total() < 10.0, "jetson-lp {}", lp.total());
        assert!(d.total() / lp.total() > 20.0);
    }

    #[test]
    fn desktop_power_is_gpu_dominated() {
        let d = PowerModel::new(Platform::Desktop).breakdown_from_compute(0.5, 0.8);
        assert!(d.share(Rail::Gpu) > 0.4, "gpu share {}", d.share(Rail::Gpu));
        assert!(d.gpu > d.cpu);
    }

    #[test]
    fn jetson_lp_soc_sys_exceed_half() {
        // The paper's headline power observation (§IV-A2).
        let lp = PowerModel::new(Platform::JetsonLP).breakdown_from_compute(0.5, 0.5);
        let share = lp.share(Rail::Soc) + lp.share(Rail::Sys);
        assert!(share > 0.5, "SoC+Sys share {share}");
    }

    #[test]
    fn jetsons_near_ten_watt_preset() {
        let hp = PowerModel::new(Platform::JetsonHP).breakdown_from_compute(0.9, 0.9);
        let lp = PowerModel::new(Platform::JetsonLP).breakdown_from_compute(0.9, 0.9);
        assert!(hp.total() < 16.0 && hp.total() > 6.0, "hp {}", hp.total());
        assert!(lp.total() < 10.0 && lp.total() > 4.0, "lp {}", lp.total());
        assert!(hp.total() > lp.total());
    }

    #[test]
    fn higher_utilization_draws_more_power() {
        let m = PowerModel::new(Platform::JetsonHP);
        assert!(
            m.breakdown_from_compute(0.9, 0.9).total() > m.breakdown_from_compute(0.1, 0.1).total()
        );
    }

    #[test]
    fn utilization_is_clamped() {
        let m = PowerModel::new(Platform::Desktop);
        assert_eq!(m.breakdown(2.0, -1.0, 0.5).cpu, m.breakdown(1.0, 0.0, 0.5).cpu);
    }

    #[test]
    fn shares_sum_to_one() {
        let b = PowerModel::new(Platform::JetsonHP).breakdown_from_compute(0.4, 0.6);
        let sum: f64 = Rail::ALL.iter().map(|&r| b.share(r)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_integrates_power() {
        let b = PowerBreakdown { cpu: 1.0, gpu: 2.0, ddr: 0.5, soc: 0.5, sys: 1.0 };
        assert!((PowerModel::energy_joules(&b, 10.0) - 50.0).abs() < 1e-12);
    }
}
