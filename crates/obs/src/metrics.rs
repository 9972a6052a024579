//! Named-histogram and gauge registry.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::hist::{HistogramSnapshot, LatencyHistogram};

struct MetricsInner {
    hists: Mutex<BTreeMap<String, LatencyHistogram>>,
    gauges: Mutex<BTreeMap<String, f64>>,
}

/// Cheap-to-clone registry of latency histograms and scalar gauges,
/// keyed by dotted names (`exec.vio`, `mtp.total`,
/// `topic.imu.dropped`). A registry built with [`Metrics::disabled`]
/// ignores every record after a single branch.
///
/// Names sort lexicographically in the exported CSV (the registry is a
/// `BTreeMap`), which is part of the determinism contract.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<MetricsInner>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics").field("enabled", &self.is_enabled()).finish()
    }
}

impl Metrics {
    /// A registry that records nothing (the [`Default`]).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording registry.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(MetricsInner {
                hists: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// True when records are kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds one sample to the named histogram (created on first use).
    pub fn record_ns(&self, name: &str, ns: u64) {
        if let Some(inner) = &self.inner {
            let mut hists = inner.hists.lock().unwrap();
            if let Some(h) = hists.get_mut(name) {
                h.record_ns(ns);
            } else {
                let mut h = LatencyHistogram::new();
                h.record_ns(ns);
                hists.insert(name.to_string(), h);
            }
        }
    }

    /// [`Metrics::record_ns`] taking a [`Duration`].
    pub fn record(&self, name: &str, d: Duration) {
        self.record_ns(name, d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Times a scope on the *host* clock: the elapsed time since this
    /// call is added to the named histogram when the returned guard
    /// drops. This is how components attribute work to the per-task
    /// rows of the paper's Tables VI and VII — into a private registry,
    /// never the run's simulated-time one.
    pub fn host_scope<'a>(&'a self, name: &'a str) -> HostScope<'a> {
        HostScope { metrics: self, name, start: Instant::now() }
    }

    /// Each histogram's share of the summed `sum_ns` of all of them,
    /// largest first (ties by name).
    pub fn shares(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> =
            self.snapshots().into_iter().map(|(n, h)| (n, h.sum_ns as f64)).collect();
        let total: f64 = out.iter().map(|(_, s)| s).sum();
        if total > 0.0 {
            out.iter_mut().for_each(|(_, s)| *s /= total);
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Sets (overwrites) the named gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.gauges.lock().unwrap().insert(name.to_string(), value);
        }
    }

    /// Snapshot of one histogram, if it exists.
    pub fn snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        self.inner.as_ref()?.hists.lock().unwrap().get(name).map(LatencyHistogram::snapshot)
    }

    /// Snapshots of every histogram, in name order.
    pub fn snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.hists.lock().unwrap().iter().map(|(n, h)| (n.clone(), h.snapshot())).collect()
        })
    }

    /// Every gauge, in name order.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.gauges.lock().unwrap().iter().map(|(n, v)| (n.clone(), *v)).collect()
        })
    }
}

/// RAII guard from [`Metrics::host_scope`].
#[derive(Debug)]
pub struct HostScope<'a> {
    metrics: &'a Metrics,
    name: &'a str,
    start: Instant,
}

impl Drop for HostScope<'_> {
    fn drop(&mut self) {
        self.metrics.record(self.name, self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_ignores_records() {
        let m = Metrics::disabled();
        m.record_ns("x", 5);
        m.set_gauge("g", 1.0);
        assert!(m.snapshots().is_empty() && m.gauges().is_empty());
        assert!(m.snapshot("x").is_none());
    }

    #[test]
    fn histograms_accumulate_per_name() {
        let m = Metrics::new();
        m.record_ns("exec.vio", 1_000);
        m.record_ns("exec.vio", 1_000);
        m.record_ns("exec.warp", 2_000);
        assert_eq!(m.snapshot("exec.vio").unwrap().count, 2);
        assert_eq!(m.snapshot("exec.warp").unwrap().count, 1);
        let names: Vec<String> = m.snapshots().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["exec.vio", "exec.warp"]);
    }

    #[test]
    fn host_scope_accumulates_and_shares_sum_to_one() {
        let m = Metrics::new();
        drop(m.host_scope("x"));
        drop(m.host_scope("x"));
        assert_eq!(m.snapshot("x").unwrap().count, 2);
        let m = Metrics::new();
        m.record_ns("a", 30);
        m.record_ns("b", 10);
        let shares = m.shares();
        assert_eq!(shares[0].0, "a");
        assert!((shares.iter().map(|(_, s)| s).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gauges_overwrite() {
        let m = Metrics::new();
        m.set_gauge("sessions", 4.0);
        m.set_gauge("sessions", 8.0);
        assert_eq!(m.gauges(), vec![("sessions".to_string(), 8.0)]);
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.record_ns("a", 1);
        assert_eq!(m.snapshot("a").unwrap().count, 1);
    }
}
