//! The traced run: per-layer metrics measured from outside, through
//! each layer's public functions, by the benchmark's own spans.
//!
//! Four parts — pipeline trace, session trace, micro loops, paired
//! repetitions — plus a few repetitions of the workload being traced.
//! End-to-end metrics are never taken here; tracing is off in `run`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;
use crate::span::Recorder;
use crate::stats::{median, percentile, Quartiles};
use crate::workloads::{
    device_result, edge_fleet_builder, server_rep, Calls, Rep, Workload, DEVICE_COMPONENTS,
};
use crate::{micro, paired, pipeline, probe, run, session};

/// Simulated seconds of the pipeline sequence (60 camera frames).
const PIPELINE_SECONDS: f64 = 4.0;
/// Simulated seconds of the one-session loop.
const SESSION_SECONDS: f64 = 4.0;
/// Sessions built to size one session's resident memory.
const RSS_SESSIONS: usize = 256;
/// Timed repetitions of the traced workload (after one warm-up).
const WORKLOAD_REPS: usize = 3;
/// IMU samples between two camera frames at Table III rates; the
/// `vio.propagate_rk4` span covers one such window.
const IMU_PER_FRAME: f64 = 500.0 / 15.0;

/// One per-layer metric of the contract.
pub struct LayerDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerDef {
    LayerDef { name: name.into(), unit, better, moves }
}

const ON_DEVICE: &str = "host_s_per_sim_s, cpu_s_per_sim_s on device_pipeline";
const ON_DEVICE_AND_FAULT: &str =
    "host_s_per_sim_s, cpu_s_per_sim_s on device_pipeline and fault_replay (phases b-d)";
const ON_FLEET: &str = "host_s_per_sim_s, cpu_s_per_sim_s, sim_ops_per_host_s on edge_fleet";
const ON_THIN: &str = "host_s_per_sim_s, cpu_s_per_sim_s, sim_ops_per_host_s on edge_thin";
const ON_FAULT: &str = "host_s_per_sim_s, cpu_s_per_sim_s on fault_replay only";
const ON_RSS: &str = "peak_rss_mib on edge_fleet and edge_thin";
const NONE_YET: &str = "no end-to-end row yet (baseline for a later API workload)";
const INFORMATIONAL: &str = "informational, not gating";
const HARNESS: &str = "the harness itself, not the program";
const EXACT: &str = "exact: any change is simulated behaviour changed";

fn pipeline_moves(child: &str) -> &'static str {
    match child.split('.').next() {
        Some("sensors") => ON_FLEET,
        Some("vio") => ON_DEVICE_AND_FAULT,
        _ => ON_DEVICE,
    }
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub fn registry() -> Vec<LayerDef> {
    let mut defs = Vec::new();
    for child in pipeline::CHILDREN {
        let moves = pipeline_moves(child);
        defs.push(def(format!("{child}.p50_us"), "us", "lower", moves));
        if pipeline::TAILED.contains(&child) {
            defs.push(def(format!("{child}.p95_us"), "us", "lower", moves));
        }
        defs.push(def(format!("{child}.share"), "share", "lower", moves));
    }
    defs.push(def("system.experiment.residual_share", "share", "lower", ON_DEVICE));
    for (name, unit) in [
        ("server.session.imu_ns", "ns"),
        ("server.session.vsync_ns", "ns"),
        ("server.session.pose_ns", "ns"),
        ("server.session.token_ns", "ns"),
        ("server.session.connect_us", "us"),
        ("server.link.transfer_ns", "ns"),
        ("server.scheduler.job_ns", "ns"),
        ("server.admission.decide_ns", "ns"),
    ] {
        defs.push(def(name, unit, "lower", ON_THIN));
    }
    defs.push(def("server.session.camera_us", "us", "lower", ON_FLEET));
    defs.push(def("server.session.rss_kib", "KiB", "lower", ON_RSS));
    defs.push(def("server.engine.residual_share.edge_fleet", "share", "lower", ON_FLEET));
    defs.push(def("server.engine.residual_share.edge_thin", "share", "lower", ON_THIN));
    for (name, unit, better, moves) in MICRO {
        defs.push(def(*name, unit, better, moves));
    }
    defs.push(def("obs.trace_overhead_share", "share", "lower", ON_FAULT));
    defs.push(def("server.failover.overhead_ratio", "ratio", "lower", ON_FAULT));
    defs.push(def("server.failover.rss_mib", "MiB", "lower", "peak_rss_mib on fault_replay"));
    defs.push(def("server.engine.par_speedup_w2", "ratio", "higher", INFORMATIONAL));
    defs.push(def("qoe.mtp_p99_ms.edge_fleet", "sim_ms", "lower", EXACT));
    defs.push(def("qoe.mtp_p99_ms.edge_thin", "sim_ms", "lower", EXACT));
    defs.push(def("harness.trace_overhead_share", "share", "lower", HARNESS));
    defs.push(def("harness.rep_iqr_share", "share", "lower", HARNESS));
    defs.push(def("harness.warmup_over_median", "ratio", "lower", HARNESS));
    defs.push(def("sim.mtp_p50_ms", "sim_ms", "lower", EXACT));
    defs.push(def("sim.mtp_p90_ms", "sim_ms", "lower", EXACT));
    defs.push(def("sim.frame_miss_rate", "share", "lower", EXACT));
    defs
}

/// The micro loops' metrics: name, unit, direction, pairing.
const MICRO: &[(&str, &str, &str, &str)] = &[
    ("core.switchboard.put_recv_ns", "ns", "lower", ON_THIN),
    ("core.switchboard.async_latest_ns", "ns", "lower", ON_THIN),
    ("core.slab.take_return_ns", "ns", "lower", ON_THIN),
    ("core.sim.dispatch_ns", "ns", "lower", ON_DEVICE),
    ("sched.ring.push_pop_ns", "ns", "lower", ON_THIN),
    ("sched.queue.push_pop_ns", "ns", "lower", ON_THIN),
    ("sched.place.epoch_ns", "ns", "lower", ON_THIN),
    ("platform.cost_ns", "ns", "lower", ON_DEVICE),
    ("qoe.mtp_sample_ns", "ns", "lower", ON_THIN),
    ("trace.encode_mb_s", "MB/s", "higher", ON_FAULT),
    ("trace.decode_mb_s", "MB/s", "higher", ON_FAULT),
    ("trace.record_ns", "ns", "lower", ON_FAULT),
    ("trace.next_due_ns", "ns", "lower", ON_FAULT),
    ("trace.checkpoint_encode_ns", "ns", "lower", ON_FAULT),
    ("trace.checkpoint_decode_ns", "ns", "lower", ON_FAULT),
    ("server.snapshot.encode_ns", "ns", "lower", ON_FAULT),
    ("server.snapshot.decode_ns", "ns", "lower", ON_FAULT),
    ("server.snapshot.bytes", "B", "lower", ON_FAULT),
    ("sensors.wire.camera_roundtrip_ns", "ns", "lower", ON_FAULT),
    ("sensors.wire.imu_roundtrip_ns", "ns", "lower", ON_FAULT),
    ("fault.query_ns", "ns", "lower", ON_FAULT),
    ("obs.span_ns", "ns", "lower", ON_FAULT),
    ("obs.hist_record_ns", "ns", "lower", ON_FAULT),
    ("obs.export_mb_s", "MB/s", "higher", ON_FAULT),
    ("api.mock_frame_ns", "ns", "lower", NONE_YET),
    ("api.request_session_us", "us", "lower", NONE_YET),
];

/// What a traced run produced.
pub struct Traced {
    /// Every registry metric with its value, in registry order.
    pub metrics: Vec<(LayerDef, f64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Traced {
    /// The contract's result line for `--trace 1`.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|(d, value)| {
            (d.name.clone(), Json::obj([("value", Json::Num(*value)), ("unit", Json::str(d.unit))]))
        });
        let failed = (self.failures.len() as u64).min(self.attempted);
        run::result_line(self.failures.is_empty(), self.attempted, failed, Json::obj(metrics))
    }

    /// The per-layer table with each metric's pairing.
    pub fn detail(&self) -> Json {
        Json::Arr(
            self.metrics
                .iter()
                .map(|(d, value)| {
                    Json::obj([
                        ("name", Json::str(d.name.clone())),
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(d.unit)),
                        ("better", Json::str(d.better)),
                        ("moves", Json::str(d.moves)),
                    ])
                })
                .collect(),
        )
    }

    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (d, value) in &self.metrics {
            let _ = writeln!(out, "  {:<44} {value:>14.4} {:<7} -> {}", d.name, d.unit, d.moves);
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED {f}");
        }
        out
    }
}

fn sorted_ns(rec: &Recorder, name: &str) -> Vec<u64> {
    let mut d = rec.durations_ns(name);
    d.sort_unstable();
    d
}

fn p50_ns(rec: &Recorder, name: &str) -> f64 {
    let d = sorted_ns(rec, name);
    assert!(!d.is_empty(), "no span named {name} was recorded");
    percentile(&d, 50.0) as f64
}

fn write_trace(out_dir: &Path, file: &str, rec: &Recorder) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(out_dir.join(file), rec.chrome_trace().to_pretty())
}

/// `1 − Σ(calls × p50) / wall`: the share of a repetition that the
/// priced entry points do not explain.
fn residual_share(priced_ns: f64, wall_s: f64) -> f64 {
    1.0 - priced_ns / (wall_s * 1e9)
}

fn fleet_priced_ns(calls: &Calls, price: &dyn Fn(&str) -> f64) -> f64 {
    calls.connects as f64 * price("server.session.connect")
        + calls.imu_ticks as f64 * price("server.session.imu")
        + calls.camera_frames as f64 * price("server.session.camera")
        + calls.vsyncs as f64 * price("server.session.vsync")
        + calls.poses as f64 * price("server.session.pose")
        + calls.tokens as f64 * price("server.session.token")
        + calls.link_transfers as f64 * price("server.link.transfer")
        + calls.pool_jobs as f64 * price("server.scheduler.job")
}

fn mtp_p99_ms(rep: &Rep) -> f64 {
    let mut mtp = rep.mtp_ns.clone();
    mtp.sort_unstable();
    assert!(mtp.len() >= 1000, "p99 needs ten samples beyond it");
    percentile(&mtp, 99.0) as f64 / 1e6
}

/// Runs the traced suite for `workload` and writes the two Chrome
/// traces under `out_dir`.
pub fn trace(workload: Workload, seed: u64, out_dir: &Path) -> std::io::Result<Traced> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut m = |name: &str, value: f64| {
        let fresh = values.insert(name.to_owned(), value).is_none();
        assert!(fresh, "{name} measured twice");
    };

    // 1. Pipeline trace, with spans and without.
    let (frames, traced_wall) = pipeline::run(seed, PIPELINE_SECONDS, true);
    let (_, plain_wall) = pipeline::run(seed, PIPELINE_SECONDS, false);
    write_trace(out_dir, "pipeline.trace.json", &frames)?;
    m("harness.trace_overhead_share", (traced_wall - plain_wall) / plain_wall);
    let frame_total = frames.durations_ns(pipeline::FRAME).iter().sum::<u64>() as f64;
    for child in pipeline::CHILDREN {
        let d = sorted_ns(&frames, child);
        assert!(!d.is_empty(), "no span named {child} was recorded");
        m(&format!("{child}.p50_us"), percentile(&d, 50.0) as f64 / 1e3);
        if pipeline::TAILED.contains(&child) {
            m(&format!("{child}.p95_us"), percentile(&d, 95.0) as f64 / 1e3);
        }
        m(&format!("{child}.share"), d.iter().sum::<u64>() as f64 / frame_total);
    }

    // One device run, priced with the pipeline's medians.
    let t = Instant::now();
    let device = device_result(seed);
    let device_wall = t.elapsed().as_secs_f64();
    let ns = |name: &str| p50_ns(&frames, name);
    let per_call_ns = |component: &str| match component {
        "camera" => ns("sensors.render_frame"),
        "vio" => ns("vio.process_frame") + ns("vio.process_imu"),
        "imu_integrator" => ns("vio.propagate_rk4") / IMU_PER_FRAME,
        "application" => ns("render.scene_platformer"),
        "timewarp" => ns("visual.reproject") + ns("visual.distort"),
        "audio_encoding" => ns("audio.encode"),
        "audio_playback" => ns("audio.psychoacoustic") + ns("audio.binaural"),
        "eye_tracking" => ns("eyetrack.segment"),
        "scene_reconstruction" => {
            ns("reconstruction.preprocess")
                + ns("reconstruction.icp")
                + ns("reconstruction.tsdf_integrate")
        }
        // The IMU model's own sample is not a priced layer call.
        _ => 0.0,
    };
    let priced: f64 = DEVICE_COMPONENTS
        .iter()
        .filter_map(|c| device.stats(c).map(|s| s.invocations as f64 * per_call_ns(c)))
        .sum();
    m("system.experiment.residual_share", residual_share(priced, device_wall));

    // 2. Session trace.
    let calls = session::run(seed, SESSION_SECONDS);
    write_trace(out_dir, "session.trace.json", &calls)?;
    let price = |name: &str| p50_ns(&calls, name);
    m("server.session.imu_ns", price("server.session.imu"));
    m("server.session.vsync_ns", price("server.session.vsync"));
    m("server.session.pose_ns", price("server.session.pose"));
    m("server.session.token_ns", price("server.session.token"));
    m("server.session.connect_us", price("server.session.connect") / 1e3);
    m("server.session.camera_us", price("server.session.camera") / 1e3);
    m("server.link.transfer_ns", price("server.link.transfer"));
    m("server.scheduler.job_ns", price("server.scheduler.job"));

    // Memory, each figure from a child process of its own.
    let hwm = |what: &str| probe::peak_rss_mib(what, seed).map_err(std::io::Error::other);
    let per_session_mib =
        (hwm(&format!("sessions={RSS_SESSIONS}"))? - hwm("sessions=0")?) / RSS_SESSIONS as f64;
    m("server.session.rss_kib", per_session_mib * 1024.0);
    m("server.failover.rss_mib", hwm("failover=armed")? - hwm("failover=quiet")?);

    // 3. Micro loops.
    for (name, value) in micro::run(seed) {
        m(name, value);
    }

    // 4. Paired repetitions, and the fleets priced with the session
    // trace's medians.
    let pairs = paired::run(seed);
    m("obs.trace_overhead_share", pairs.obs_trace_overhead_share);
    m("server.failover.overhead_ratio", pairs.failover_overhead_ratio);
    m("server.engine.par_speedup_w2", pairs.par_speedup_w2);
    let t = Instant::now();
    let fleet = server_rep(&edge_fleet_builder(seed).build().run());
    let fleet_wall = t.elapsed().as_secs_f64();
    let (thin, thin_wall) = &pairs.thin_rep;
    m(
        "server.engine.residual_share.edge_fleet",
        residual_share(fleet_priced_ns(&fleet.calls, &price), fleet_wall),
    );
    m(
        "server.engine.residual_share.edge_thin",
        residual_share(fleet_priced_ns(&thin.calls, &price), *thin_wall),
    );
    m("qoe.mtp_p99_ms.edge_fleet", mtp_p99_ms(&fleet));
    m("qoe.mtp_p99_ms.edge_thin", mtp_p99_ms(thin));

    // The traced workload itself: warm-up, then a few repetitions.
    let mut failures = Vec::new();
    let inputs = workload.inputs(seed);
    let t = Instant::now();
    let first = inputs.rep();
    let warm_wall = t.elapsed().as_secs_f64();
    failures.extend(first.failures.iter().map(|f| format!("warm-up: {f}")));
    let walls: Vec<f64> = (1..=WORKLOAD_REPS)
        .map(|k| {
            let t = Instant::now();
            let rep = inputs.rep();
            let wall = t.elapsed().as_secs_f64();
            failures.extend(rep.failures.iter().map(|f| format!("rep {k}: {f}")));
            if rep.digest != first.digest {
                failures.push(format!("rep {k}: digest differs from the warm-up's"));
            }
            wall
        })
        .collect();
    m("harness.rep_iqr_share", Quartiles::of(&walls).iqr_share());
    m("harness.warmup_over_median", warm_wall / median(&walls));
    let sim = run::SimMetrics::of(&first);
    m("sim.mtp_p50_ms", sim.mtp_p50_ms);
    m("sim.mtp_p90_ms", sim.mtp_tail_ms);
    m("sim.frame_miss_rate", sim.frame_miss_rate);

    let metrics: Vec<(LayerDef, f64)> = registry()
        .into_iter()
        .map(|d| {
            let value = values
                .remove(&d.name)
                .unwrap_or_else(|| panic!("{} is in the registry but was not measured", d.name));
            (d, value)
        })
        .collect();
    assert!(values.is_empty(), "measured but not in the registry: {:?}", values.keys());
    Ok(Traced { metrics, attempted: 1 + WORKLOAD_REPS as u64, failures })
}
