//! Golden tests for the observability layer: traces and metrics must
//! be bit-identical across same-seed runs (every timestamp comes from
//! the simulated clock), the trace must contain spans and flow events
//! for the pipeline, and the per-stage MTP decomposition must sum to
//! the end-to-end MTP.

use std::time::Duration;

use illixr_core::boundary::fnv1a;
use illixr_core::obs::{chrome_trace_json, metrics_csv};
use illixr_platform::spec::Platform;
use illixr_render::apps::Application;
use illixr_server::ServerBuilder;
use illixr_system::experiment::{ExperimentConfig, IntegratedExperiment};

fn traced_server_artifacts() -> (String, String) {
    let report =
        ServerBuilder::new().sessions(3).duration(Duration::from_secs(2)).trace(true).build().run();
    (chrome_trace_json(&report.tracer), metrics_csv(&report.metrics))
}

#[test]
fn server_trace_and_metrics_are_bit_identical_across_runs() {
    let (trace_a, csv_a) = traced_server_artifacts();
    let (trace_b, csv_b) = traced_server_artifacts();
    assert_eq!(trace_a, trace_b, "trace.json must be bit-identical for the same seed");
    assert_eq!(csv_a, csv_b, "metrics.csv must be bit-identical for the same seed");
}

/// The traced run's bytes, pinned. 711 of its render spans start at or
/// before the horizon; a request that arrives after it never renders.
#[test]
fn server_trace_and_metrics_bytes_are_pinned() {
    let (trace, csv) = traced_server_artifacts();
    assert_eq!(trace.matches("\"name\":\"render\",").count(), 711, "render spans changed");
    assert_eq!(fnv1a(trace.bytes()), 0xe3c2_0f63_5c42_c7b0, "trace.json changed");
    assert_eq!(fnv1a(csv.bytes()), 0x6c83_7b9b_f791_4b53, "metrics.csv changed");
}

#[test]
fn server_trace_contains_pipeline_spans_and_flow_events() {
    let (trace, csv) = traced_server_artifacts();
    // Server-side spans: VIO worker-pool batches and cloud renders.
    assert!(trace.contains("vio_batch"), "missing vio_pool batch spans");
    assert!(trace.contains("\"render\""), "missing render spans");
    // Client-side spans on session-scoped tracks.
    assert!(trace.contains("s0/warp"), "missing session 0 warp track");
    assert!(trace.contains("s2/warp"), "missing session 2 warp track");
    // Switchboard flow events stitch the causal chain: "s" starts a
    // flow at the publisher, "f" finishes it at the consumer.
    assert!(trace.contains("\"ph\":\"s\""), "missing flow-start events");
    assert!(trace.contains("\"ph\":\"f\""), "missing flow-finish events");
    // Link backlog counters.
    assert!(trace.contains("uplink_queue_ms"), "missing uplink counter track");
    // Histogram CSV carries the MTP stages and topic gauges.
    for name in ["mtp.sense", "mtp.round_trip", "mtp.queue", "mtp.warp", "mtp.swap", "mtp.total"] {
        assert!(csv.contains(name), "metrics.csv missing {name}");
    }
    assert!(csv.contains("topic.s0/"), "metrics.csv missing per-session topic gauges");
}

#[test]
fn server_mtp_stage_means_sum_to_total() {
    let report =
        ServerBuilder::new().sessions(2).duration(Duration::from_secs(2)).trace(true).build().run();
    let mean = |name: &str| {
        let h = report.metrics.snapshot(name).unwrap_or_else(|| panic!("no histogram {name}"));
        h.sum_ns as f64 / h.count.max(1) as f64
    };
    let stage_sum = mean("mtp.sense")
        + mean("mtp.round_trip")
        + mean("mtp.queue")
        + mean("mtp.warp")
        + mean("mtp.swap");
    let total = mean("mtp.total");
    assert!(total > 0.0, "no displayed frames recorded");
    let gap = (stage_sum - total).abs() / total;
    assert!(
        gap < 0.01,
        "stage decomposition gap {gap} exceeds 1% (sum {stage_sum}, total {total})"
    );
}

#[test]
fn experiment_trace_is_deterministic_and_decomposes_mtp() {
    let run = || {
        let cfg = ExperimentConfig::quick(Application::Platformer, Platform::Desktop).with_trace();
        IntegratedExperiment::run(&cfg)
    };
    let a = run();
    let b = run();
    assert_eq!(chrome_trace_json(&a.tracer), chrome_trace_json(&b.tracer));
    assert_eq!(metrics_csv(&a.metrics), metrics_csv(&b.metrics));
    let trace = chrome_trace_json(&a.tracer);
    assert!(trace.contains("\"mtp\""), "missing per-frame mtp spans");
    assert!(trace.contains("\"ph\":\"s\""), "missing flow events");
    let mean = |name: &str| {
        let h = a.metrics.snapshot(name).unwrap_or_else(|| panic!("no histogram {name}"));
        h.sum_ns as f64 / h.count.max(1) as f64
    };
    let stage_sum = mean("mtp.imu_age") + mean("mtp.reprojection") + mean("mtp.swap");
    let total = mean("mtp.total");
    let gap = (stage_sum - total).abs() / total;
    assert!(gap < 0.01, "experiment stage gap {gap} (sum {stage_sum}, total {total})");
}

#[test]
fn untraced_runs_record_nothing() {
    let report = ServerBuilder::new().sessions(1).duration(Duration::from_secs(1)).build().run();
    assert!(!report.tracer.is_enabled());
    assert!(report.tracer.spans().is_empty());
    assert!(report.metrics.snapshots().is_empty());
}
