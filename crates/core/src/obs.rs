//! Glue between the runtime and the `illixr-obs` observability layer.
//!
//! `illixr-obs` sits below this crate and keeps time as raw `u64`
//! nanoseconds behind its [`NowSource`] trait; this module adapts the
//! runtime's [`Clock`] to it and re-exports the observability types
//! the rest of the workspace uses, so plugin crates need no direct
//! `illixr-obs` dependency.

use std::sync::Arc;

pub use illixr_obs::export::{chrome_trace_json, metrics_csv, write_artifacts};
pub use illixr_obs::{
    flow_id, FlowPhase, HistogramSnapshot, LatencyHistogram, Metrics, NowSource, Tracer,
};

use crate::clock::Clock;
use crate::switchboard::Switchboard;

/// Adapts any runtime [`Clock`] to the obs layer's [`NowSource`].
pub(crate) struct ClockNow(pub Arc<dyn Clock>);

impl NowSource for ClockNow {
    fn now_ns(&self) -> u64 {
        self.0.now().as_nanos()
    }
}

/// A recording tracer that reads time from the given runtime clock.
/// Pass a `SimClock` for deterministic (bit-identical per seed) traces.
pub fn tracer_for(clock: Arc<dyn Clock>) -> Tracer {
    Tracer::new(Arc::new(ClockNow(clock)))
}

/// Exports one gauge per [`Switchboard::stats`] counter into `metrics`
/// under `topic.<prefix><name>.{published,dropped,subscribers,queue_depth}`,
/// so bench bins report stream health without reaching into internals.
pub fn export_topic_gauges(sb: &Switchboard, metrics: &Metrics, prefix: &str) {
    for s in sb.stats() {
        let base = format!("topic.{prefix}{}", s.name);
        metrics.set_gauge(&format!("{base}.published"), s.seq as f64);
        metrics.set_gauge(&format!("{base}.dropped"), s.dropped as f64);
        metrics.set_gauge(&format!("{base}.subscribers"), s.subscribers as f64);
        metrics.set_gauge(&format!("{base}.queue_depth"), s.queue_depth as f64);
    }
}

/// Exports the supervisor's aggregate outcomes as metrics gauges —
/// `supervisor.{panics,restarts,failed}` — so crash
/// containment lands in `metrics.csv` next to the `supervisor.recovery`
/// latency histogram instead of living only in the in-process report.
pub fn export_supervisor_gauges(sup: &crate::supervisor::Supervisor, metrics: &Metrics) {
    use crate::supervisor::PluginHealth;
    let report = sup.report();
    let restarts: u32 = report.iter().map(|r| r.restarts).sum();
    let failed = report.iter().filter(|r| r.health == PluginHealth::Failed).count();
    metrics.set_gauge("supervisor.panics", sup.total_panics() as f64);
    metrics.set_gauge("supervisor.restarts", restarts as f64);
    metrics.set_gauge("supervisor.failed", failed as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::supervisor::{Supervisor, MAX_RESTARTS};
    use crate::time::Time;

    #[test]
    fn tracer_reads_the_sim_clock() {
        let clock = Arc::new(SimClock::new());
        let tracer = tracer_for(clock.clone());
        clock.advance_to(Time::from_millis(5));
        assert_eq!(tracer.now_ns(), 5_000_000);
    }

    #[test]
    fn topic_gauges_cover_every_stat() {
        let sb = Switchboard::new();
        let topic = sb.topic::<u32>("imu").unwrap();
        let w = topic.writer();
        let _r = topic.sync_reader(4);
        w.put(1);
        let metrics = Metrics::new();
        export_topic_gauges(&sb, &metrics, "s0/");
        let names: Vec<String> = metrics.gauges().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"topic.s0/imu.published".to_string()));
        assert!(names.contains(&"topic.s0/imu.queue_depth".to_string()));
        assert_eq!(metrics.gauges().len(), 4);
    }

    #[test]
    fn supervisor_gauges_count_restarts_and_failures() {
        let sup = Supervisor::new(true);
        sup.register("vio");
        sup.register("app");
        assert!(sup.on_panic("vio").is_some(), "one restart granted");
        sup.on_recovery("vio", 10);
        for _ in 0..MAX_RESTARTS {
            assert!(sup.on_panic("app").is_some());
        }
        assert!(sup.on_panic("app").is_none(), "budget exhausted -> failed");
        let metrics = Metrics::new();
        export_supervisor_gauges(&sup, &metrics);
        let gauges: std::collections::HashMap<String, f64> = metrics.gauges().into_iter().collect();
        assert_eq!(gauges["supervisor.panics"], 5.0);
        assert_eq!(gauges["supervisor.restarts"], 4.0);
        assert_eq!(gauges["supervisor.failed"], 1.0);
        assert_eq!(gauges.len(), 3);
    }
}
