//! The per-component execution-cost model driving simulated runs.
//!
//! Each component has a *base cost*: its mean execution time on the
//! desktop platform at nominal work. An invocation's modeled cost is
//!
//! ```text
//! cost = base × platform_scale(class) × work_factor × lognormal(σ)
//! ```
//!
//! where `work_factor` is the input-dependent work the component actually
//! performed (reported by the real algorithm execution — e.g. VIO's
//! tracked-feature count) and the log-normal term models scheduling and
//! resource-contention noise (paper §IV-A1 observes significant per-frame
//! variability in *all* components, not only the input-dependent ones).
//! The jitter is seeded per `(platform, component, invocation)` so runs
//! are bit-reproducible.

use std::collections::HashMap;
use std::time::Duration;

use crate::rng::{seed_from, SplitMix64};
use crate::spec::{Platform, PlatformSpec};

/// Whether a component's cost scales with the platform's CPU or GPU
/// capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// CPU-bound work (VIO, audio, sensor handling).
    Cpu,
    /// GPU-bound work (rendering, reprojection shaders, hologram).
    Gpu,
}

/// The cost parameters of one component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEntry {
    /// Mean desktop execution time at `work_factor == 1`.
    pub base: Duration,
    /// CPU- or GPU-scaled.
    pub class: CostClass,
    /// Sigma of the log-normal contention jitter (0 disables jitter).
    pub jitter_sigma: f64,
}

impl CostEntry {
    /// Convenience constructor from milliseconds.
    pub fn from_millis(base_ms: f64, class: CostClass, jitter_sigma: f64) -> Self {
        Self { base: Duration::from_secs_f64(base_ms / 1e3), class, jitter_sigma }
    }
}

/// Maps `(component, invocation, work_factor)` to modeled execution time
/// on a specific platform.
#[derive(Debug, Clone)]
pub struct TimingModel {
    spec: PlatformSpec,
    entries: HashMap<String, CostEntry>,
}

impl TimingModel {
    /// Creates an empty model for `platform`.
    pub fn new(platform: Platform) -> Self {
        Self { spec: platform.spec(), entries: HashMap::new() }
    }

    /// Registers (or replaces) a component's cost entry.
    pub fn insert(&mut self, component: &str, entry: CostEntry) {
        self.entries.insert(component.to_owned(), entry);
    }

    /// Returns the cost entry for `component`, if registered.
    pub fn entry(&self, component: &str) -> Option<&CostEntry> {
        self.entries.get(component)
    }

    /// Models the execution time of one invocation.
    ///
    /// # Panics
    ///
    /// Panics when `component` was never registered — a configuration
    /// error that should fail loudly.
    pub fn cost(&self, component: &str, invocation: u64, work_factor: f64) -> Duration {
        let entry = self
            .entries
            .get(component)
            .unwrap_or_else(|| panic!("no cost entry registered for component '{component}'"));
        let scale = match entry.class {
            CostClass::Cpu => self.spec.cpu_scale,
            CostClass::Gpu => self.spec.gpu_scale,
        };
        let jitter = if entry.jitter_sigma > 0.0 {
            let seed = seed_from(component, invocation) ^ seed_from(self.spec.name, 0);
            SplitMix64::new(seed).next_lognormal(entry.jitter_sigma)
        } else {
            1.0
        };
        let secs = entry.base.as_secs_f64() * scale * work_factor.max(0.0) * jitter;
        Duration::from_secs_f64(secs)
    }

    /// The deterministic mean cost (no jitter) — used for scheduling
    /// reservations such as "run reprojection as late as possible".
    pub fn mean_cost(&self, component: &str, work_factor: f64) -> Duration {
        let entry = self
            .entries
            .get(component)
            .unwrap_or_else(|| panic!("no cost entry registered for component '{component}'"));
        let scale = match entry.class {
            CostClass::Cpu => self.spec.cpu_scale,
            CostClass::Gpu => self.spec.gpu_scale,
        };
        Duration::from_secs_f64(entry.base.as_secs_f64() * scale * work_factor.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_with(platform: Platform) -> TimingModel {
        let mut m = TimingModel::new(platform);
        m.insert("vio", CostEntry::from_millis(10.0, CostClass::Cpu, 0.0));
        m.insert("app", CostEntry::from_millis(5.0, CostClass::Gpu, 0.0));
        m
    }

    #[test]
    fn desktop_cost_equals_base_without_jitter() {
        let m = model_with(Platform::Desktop);
        assert_eq!(m.cost("vio", 0, 1.0), Duration::from_millis(10));
        assert_eq!(m.cost("app", 0, 1.0), Duration::from_millis(5));
    }

    #[test]
    fn platform_scaling_applies_by_class() {
        let d = model_with(Platform::Desktop);
        let lp = model_with(Platform::JetsonLP);
        let spec = Platform::JetsonLP.spec();
        let cpu_ratio = lp.cost("vio", 0, 1.0).as_secs_f64() / d.cost("vio", 0, 1.0).as_secs_f64();
        let gpu_ratio = lp.cost("app", 0, 1.0).as_secs_f64() / d.cost("app", 0, 1.0).as_secs_f64();
        assert!((cpu_ratio - spec.cpu_scale).abs() < 1e-9);
        assert!((gpu_ratio - spec.gpu_scale).abs() < 1e-9);
    }

    #[test]
    fn work_factor_scales_linearly() {
        let m = model_with(Platform::Desktop);
        let c1 = m.cost("vio", 0, 1.0).as_secs_f64();
        let c2 = m.cost("vio", 0, 2.5).as_secs_f64();
        assert!((c2 / c1 - 2.5).abs() < 1e-9);
    }

    #[test]
    fn jitter_is_deterministic_and_varies_by_invocation() {
        let mut m = TimingModel::new(Platform::Desktop);
        m.insert("x", CostEntry::from_millis(10.0, CostClass::Cpu, 0.2));
        let a0 = m.cost("x", 0, 1.0);
        let a0_again = m.cost("x", 0, 1.0);
        let a1 = m.cost("x", 1, 1.0);
        assert_eq!(a0, a0_again);
        assert_ne!(a0, a1);
    }

    #[test]
    fn jitter_centers_on_base() {
        let mut m = TimingModel::new(Platform::Desktop);
        m.insert("x", CostEntry::from_millis(10.0, CostClass::Cpu, 0.15));
        let mean: f64 = (0..2000).map(|i| m.cost("x", i, 1.0).as_secs_f64()).sum::<f64>() / 2000.0;
        assert!((mean - 0.010).abs() < 0.0008, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "no cost entry")]
    fn unknown_component_panics() {
        let m = model_with(Platform::Desktop);
        let _ = m.cost("unknown", 0, 1.0);
    }

    #[test]
    fn mean_cost_has_no_jitter() {
        let mut m = TimingModel::new(Platform::JetsonHP);
        m.insert("x", CostEntry::from_millis(2.0, CostClass::Cpu, 0.5));
        assert_eq!(m.mean_cost("x", 1.0), m.mean_cost("x", 1.0));
        let expected = 2.0e-3 * Platform::JetsonHP.spec().cpu_scale;
        assert!((m.mean_cost("x", 1.0).as_secs_f64() - expected).abs() < 1e-12);
    }
}
