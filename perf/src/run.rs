//! The end-to-end run of one workload: set-up, timed repetitions,
//! metrics and correctness.
//!
//! Host time and simulated time are never mixed. Every metric whose
//! name starts `sim_` is simulated time and repeats exactly for a
//! seed; everything else is host time.

use std::time::{Duration, Instant};

use crate::host;
use crate::json::Json;
use crate::stats::{best, highest_supported_percentile, percentile, samples_beyond, Quartiles};
use crate::workloads::{Rep, Workload, DEFAULT_SEED};

/// A run is cycles of one set-up (input generation + one warm-up
/// repetition) and this many timed repetitions, so the set-ups and the
/// repetitions both sample the whole run: a slow stretch of the host
/// at the start does not decide `setup_s`.
const REPS_PER_SETUP: usize = 2;

/// Never fewer timed repetitions than this, however short `--seconds`.
const MIN_REPS: usize = 3;

/// Percentile of the MTP tail metric: the highest with at least ten
/// samples beyond it on the smallest workload (120 display frames).
pub const MTP_TAIL_PERCENTILE: f64 = 90.0;

/// One end-to-end metric of the contract.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

impl MetricDef {
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }

    /// The run's value of this metric: the best of its per-repetition
    /// values (see [`best`] for why not their median).
    pub fn value(&self, values: &[f64]) -> f64 {
        best(values, self.higher_is_better())
    }
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

/// The host-time end-to-end metrics, defined on every workload and
/// never zero. The simulated-time ones (`sim_*`) are exact rather than
/// bounded and live in the per-layer list; `check_failures` is the
/// `failed` count of the result line.
pub const END_TO_END: [MetricDef; 5] = [
    // Input generation + one warm-up repetition, best of the set-ups.
    metric("setup_s", "s", "lower", 0.25),
    // Repetition wall time / simulated seconds it covers, best repetition.
    metric("host_s_per_sim_s", "s/s", "lower", 0.25),
    // The same with process user+sys CPU from `/proc/self/stat`.
    metric("cpu_s_per_sim_s", "s/s", "lower", 0.25),
    // (Switchboard publishes + link transfers + pool jobs) / repetition
    // wall time: a change in event count is told apart from one in speed.
    metric("sim_ops_per_host_s", "1/s", "higher", 0.25),
    // `VmHWM` when the third timed repetition ends; every run has three.
    metric("peak_rss_mib", "MiB", "lower", 0.25),
];

/// Everything one run of one workload measured.
pub struct Measured {
    pub workload: Workload,
    pub seed: u64,
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub peak_rss_mib: f64,
    /// The (identical) simulated outcome of every repetition.
    pub rep: Rep,
    /// Repetitions and container checks attempted / failed.
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Runs `workload` on inputs generated from `seed`: cycles of one
/// set-up and [`REPS_PER_SETUP`] identical timed repetitions until
/// `seconds` have passed since `started`, the process start, which the
/// first set-up therefore includes.
pub fn measure(workload: Workload, seed: u64, seconds: f64, started: Instant) -> Measured {
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut reference: Option<Rep> = None;
    let mut check = |rep: Rep, label: &str, failures: &mut Vec<String>| {
        attempted += 1;
        failures.extend(rep.failures.iter().map(|f| format!("{label}: {f}")));
        match &reference {
            None => reference = Some(rep),
            Some(first) if first.digest != rep.digest => failures.push(format!(
                "{label}: digest {:016x} differs from the first repetition's {:016x}",
                rep.digest, first.digest
            )),
            Some(_) => {}
        }
    };

    let (mut setup_s, mut wall_s, mut cpu_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mib = 0.0;
    let budget = Duration::from_secs_f64(seconds);
    while wall_s.len() < MIN_REPS || started.elapsed() < budget {
        let t = if setup_s.is_empty() { started } else { Instant::now() };
        let inputs = workload.inputs(seed);
        let warm = inputs.rep();
        setup_s.push(t.elapsed().as_secs_f64());
        check(warm, &format!("warm-up {}", setup_s.len()), &mut failures);

        for _ in 0..REPS_PER_SETUP {
            let cpu0 = host::cpu_time();
            let t = Instant::now();
            let rep = inputs.rep();
            wall_s.push(t.elapsed().as_secs_f64());
            cpu_s.push((host::cpu_time() - cpu0).as_secs_f64());
            check(rep, &format!("rep {}", wall_s.len()), &mut failures);
            // Read at a fixed repetition count, so the figure does not
            // depend on how many repetitions the time budget fits.
            if wall_s.len() == MIN_REPS {
                peak_rss_mib = host::peak_rss_mib();
            }
        }
    }
    let rep = reference.expect("at least one repetition ran");

    if seed == DEFAULT_SEED {
        attempted += 1;
        let expected = expected_digest(workload);
        if expected != Some(rep.digest) {
            failures.push(format!(
                "simulated behaviour changed: digest {:016x}, expected/{}.digest says {}",
                rep.digest,
                workload.name(),
                expected.map_or("nothing readable".to_owned(), |d| format!("{d:016x}"))
            ));
        }
    }
    Measured { workload, seed, setup_s, wall_s, cpu_s, peak_rss_mib, rep, attempted, failures }
}

/// The committed digest of `workload` at [`DEFAULT_SEED`].
pub fn expected_digest(workload: Workload) -> Option<u64> {
    let text = match workload {
        Workload::EdgeFleet => include_str!("../expected/edge_fleet.digest"),
        Workload::EdgeThin => include_str!("../expected/edge_thin.digest"),
        Workload::DevicePipeline => include_str!("../expected/device_pipeline.digest"),
        Workload::FaultReplay => include_str!("../expected/fault_replay.digest"),
    };
    u64::from_str_radix(text.trim(), 16).ok()
}

/// Simulated-time outcome of a repetition, milliseconds and shares.
pub struct SimMetrics {
    pub mtp_p50_ms: f64,
    pub mtp_tail_ms: f64,
    pub mtp_samples: usize,
    pub frame_miss_rate: f64,
}

impl SimMetrics {
    pub fn of(rep: &Rep) -> Self {
        let mut mtp = rep.mtp_ns.clone();
        mtp.sort_unstable();
        let ms = |p: f64| if mtp.is_empty() { 0.0 } else { percentile(&mtp, p) as f64 / 1e6 };
        Self {
            mtp_p50_ms: ms(50.0),
            mtp_tail_ms: ms(MTP_TAIL_PERCENTILE),
            mtp_samples: mtp.len(),
            frame_miss_rate: rep.frame_miss_rate(),
        }
    }
}

impl Measured {
    fn per_sim_s(&self, reps: &[f64]) -> Vec<f64> {
        reps.iter().map(|s| s / self.rep.sim_s).collect()
    }

    /// Per-repetition values of one end-to-end metric.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        match metric {
            "setup_s" => self.setup_s.clone(),
            "host_s_per_sim_s" => self.per_sim_s(&self.wall_s),
            "cpu_s_per_sim_s" => self.per_sim_s(&self.cpu_s),
            "sim_ops_per_host_s" => self.wall_s.iter().map(|s| self.rep.ops as f64 / s).collect(),
            "peak_rss_mib" => vec![self.peak_rss_mib],
            other => panic!("unknown end-to-end metric {other}"),
        }
    }

    /// Repetitions that failed a check, plus the digest comparison.
    pub fn failed(&self) -> u64 {
        // One failure line per failed check; a repetition can fail two
        // checks, so cap at what was attempted.
        (self.failures.len() as u64).min(self.attempted)
    }

    /// The contract's result line for `--trace 0`.
    pub fn result_line(&self) -> Json {
        let metrics = END_TO_END.iter().map(|m| {
            let value = m.value(&self.values(m.name));
            (m.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]))
        });
        result_line(self.failures.is_empty(), self.attempted, self.failed(), Json::obj(metrics))
    }

    /// Everything measured, for result sets and `compare`.
    pub fn detail(&self) -> Json {
        let sim = SimMetrics::of(&self.rep);
        let end_to_end = END_TO_END.iter().map(|m| {
            let values = self.values(m.name);
            let q = Quartiles::of(&values);
            let entry = Json::obj([
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better)),
                ("best", Json::Num(m.value(&values))),
                ("median", Json::Num(q.median)),
                ("q1", Json::Num(q.q1)),
                ("q3", Json::Num(q.q3)),
                ("n", Json::Num(q.n as f64)),
                ("values", Json::nums(&values)),
            ]);
            (m.name, entry)
        });
        let exact = Json::obj([
            ("sim_mtp_p50_ms", Json::Num(sim.mtp_p50_ms)),
            ("sim_mtp_p90_ms", Json::Num(sim.mtp_tail_ms)),
            ("sim_mtp_samples", Json::Num(sim.mtp_samples as f64)),
            (
                "sim_mtp_samples_beyond_p90",
                Json::Num(samples_beyond(sim.mtp_samples, MTP_TAIL_PERCENTILE) as f64),
            ),
            ("sim_frame_miss_rate", Json::Num(sim.frame_miss_rate)),
            ("ops_attempted", Json::Num(self.rep.vsyncs as f64)),
            ("ops_failed", Json::Num(self.rep.vsyncs.saturating_sub(self.rep.displayed) as f64)),
            ("sim_seconds", Json::Num(self.rep.sim_s)),
            ("sim_ops", Json::Num(self.rep.ops as f64)),
            ("digest", Json::str(format!("{:016x}", self.rep.digest))),
            ("check_failures", Json::Num(self.failures.len() as f64)),
        ]);
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("checks_attempted", Json::Num(self.attempted as f64)),
            ("failures", Json::Arr(self.failures.iter().map(Json::str).collect())),
            ("end_to_end", Json::obj(end_to_end)),
            ("exact", exact),
        ])
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let sim = SimMetrics::of(&self.rep);
        let _ = writeln!(
            out,
            "{} (seed {}, {} reps of {} sim-s, {} set-ups)",
            self.workload.name(),
            self.seed,
            self.wall_s.len(),
            self.rep.sim_s,
            self.setup_s.len()
        );
        for m in &END_TO_END {
            let values = self.values(m.name);
            let q = Quartiles::of(&values);
            let _ = writeln!(
                out,
                "  {:<22} {:>14.4} {:<6} best of n={} (median {:.4}, q1 {:.4}, q3 {:.4}, iqr {:.1} %; bound {:.0} %)",
                m.name,
                m.value(&values),
                m.unit,
                q.n,
                q.median,
                q.q1,
                q.q3,
                q.iqr_share() * 100.0,
                m.bound * 100.0
            );
        }
        let beyond = samples_beyond(sim.mtp_samples, MTP_TAIL_PERCENTILE);
        let supported = highest_supported_percentile(sim.mtp_samples)
            .map_or("none".to_owned(), |p| format!("p{p:.0}"));
        let _ = writeln!(out, "  {:<22} {:>14.6} sim_ms exact", "sim_mtp_p50_ms", sim.mtp_p50_ms);
        let _ = writeln!(
            out,
            "  {:<22} {:>14.6} sim_ms exact, {} samples, {beyond} beyond (highest supported {supported})",
            "sim_mtp_p90_ms", sim.mtp_tail_ms, sim.mtp_samples
        );
        let _ = writeln!(
            out,
            "  {:<22} {:>14.6} share  exact, ops_attempted={} ops_failed={}",
            "sim_frame_miss_rate",
            sim.frame_miss_rate,
            self.rep.vsyncs,
            self.rep.vsyncs.saturating_sub(self.rep.displayed)
        );
        let _ = writeln!(
            out,
            "  {:<22} {:>14} count  exact, of {} checks; digest {:016x}",
            "check_failures",
            self.failures.len(),
            self.attempted,
            self.rep.digest
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED {f}");
        }
        out
    }
}

/// The contract's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
}
