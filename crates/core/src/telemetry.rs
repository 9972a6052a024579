//! The invocation log: per-frame telemetry with negligible overhead.
//!
//! ILLIXR's logging framework collects the wall-clock time and CPU time
//! of every component invocation (§III-E); the figures and tables of the
//! evaluation are all derived from these records. `RecordLogger` is the
//! ILLIXR-rs equivalent: the executors push one [`FrameRecord`] per
//! invocation, and analysis code reads back aggregated
//! [`ComponentStats`]. Obs data is derived from the same record by
//! `export_invocation`, so the log and the trace cannot disagree.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::obs::{Metrics, Tracer};
use crate::sched::lateness_ns;
use crate::time::Time;

/// One component invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// When the invocation became runnable (its period boundary).
    pub release: Time,
    /// When it actually started executing.
    pub start: Time,
    /// When it finished.
    pub end: Time,
    /// CPU time consumed (equals `end - start` for single-threaded
    /// components; the simulated scheduler fills in the modeled cost).
    pub cpu_time: Duration,
    /// The input-dependent work factor reported by the component.
    pub work_factor: f64,
    /// True when the invocation finished after its deadline.
    pub missed_deadline: bool,
}

impl FrameRecord {
    /// Execution latency `end - start`.
    pub fn execution_time(&self) -> Duration {
        self.end - self.start
    }

    /// Response latency `end - release` (includes queueing).
    pub(crate) fn response_time(&self) -> Duration {
        self.end - self.release
    }
}

/// Aggregated statistics for one component over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentStats {
    /// Component name.
    pub name: String,
    /// Completed invocations.
    pub invocations: u64,
    /// Releases skipped because the previous instance was still running.
    pub drops: u64,
    /// Invocations that finished past their deadline.
    pub deadline_misses: u64,
    /// Mean execution time.
    pub mean_execution: Duration,
    /// Sample standard deviation of execution time.
    pub std_execution: Duration,
    /// Achieved rate in Hz over the observed span.
    pub achieved_hz: f64,
    /// Total CPU time consumed.
    pub total_cpu: Duration,
}

#[derive(Default)]
struct ComponentLog {
    records: Vec<FrameRecord>,
    drops: u64,
}

/// Collects [`FrameRecord`]s per component.
#[derive(Default)]
pub struct RecordLogger {
    logs: Mutex<HashMap<String, ComponentLog>>,
}

impl RecordLogger {
    /// Creates an empty logger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record for `component`.
    pub(crate) fn log(&self, component: &str, record: FrameRecord) {
        self.logs.lock().unwrap().entry(component.to_owned()).or_default().records.push(record);
    }

    /// Counts a dropped (skipped) release for `component`.
    pub(crate) fn log_drop(&self, component: &str) {
        self.logs.lock().unwrap().entry(component.to_owned()).or_default().drops += 1;
    }

    /// All records for a component, in log order.
    pub fn records(&self, component: &str) -> Vec<FrameRecord> {
        self.logs.lock().unwrap().get(component).map(|l| l.records.clone()).unwrap_or_default()
    }

    /// Names of all components with records (sorted).
    pub fn component_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.logs.lock().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Aggregated statistics for one component, or `None` when it never
    /// ran.
    pub fn stats(&self, component: &str) -> Option<ComponentStats> {
        let logs = self.logs.lock().unwrap();
        let log = logs.get(component)?;
        let n = log.records.len() as u64;
        if n == 0 {
            return Some(ComponentStats {
                name: component.to_owned(),
                invocations: 0,
                drops: log.drops,
                deadline_misses: 0,
                mean_execution: Duration::ZERO,
                std_execution: Duration::ZERO,
                achieved_hz: 0.0,
                total_cpu: Duration::ZERO,
            });
        }
        let exec_secs: Vec<f64> =
            log.records.iter().map(|r| r.execution_time().as_secs_f64()).collect();
        let mean = exec_secs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            exec_secs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let misses = log.records.iter().filter(|r| r.missed_deadline).count() as u64;
        let total_cpu: Duration = log.records.iter().map(|r| r.cpu_time).sum();
        let first = log.records.first().expect("n > 0").release;
        let last = log.records.last().expect("n > 0").end;
        let span = (last - first).as_secs_f64();
        let achieved_hz = if span > 0.0 { n as f64 / span } else { 0.0 };
        Some(ComponentStats {
            name: component.to_owned(),
            invocations: n,
            drops: log.drops,
            deadline_misses: misses,
            mean_execution: Duration::from_secs_f64(mean),
            std_execution: Duration::from_secs_f64(var.sqrt()),
            achieved_hz,
            total_cpu,
        })
    }

    /// Serializes every component's records as CSV
    /// (`component,release_ns,start_ns,end_ns,cpu_ns,work_factor,missed`),
    /// the format the artifact's `results/metrics/` directories hold.
    pub fn to_csv(&self) -> String {
        let logs = self.logs.lock().unwrap();
        let mut names: Vec<&String> = logs.keys().collect();
        names.sort();
        let mut out =
            String::from("component,release_ns,start_ns,end_ns,cpu_ns,work_factor,missed\n");
        for name in names {
            for r in &logs[name].records {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{}\n",
                    name,
                    r.release.as_nanos(),
                    r.start.as_nanos(),
                    r.end.as_nanos(),
                    r.cpu_time.as_nanos(),
                    r.work_factor,
                    r.missed_deadline as u8,
                ));
            }
        }
        out
    }

    /// Writes [`RecordLogger::to_csv`] to a file.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

impl std::fmt::Debug for RecordLogger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecordLogger({} components)", self.logs.lock().unwrap().len())
    }
}

/// Turns one finished invocation into obs data — the only place either
/// executor does so, so simulated and live traces carry the same
/// tracks, args and histogram names. Emits a `{name}.wait` span when
/// the invocation queued, the execution span with its work factor and
/// deadline outcome, and `exec.{name}` / `response.{name}` /
/// `sched.lateness` / `sched.miss` samples. `deadline` is relative to
/// the record's release.
pub(crate) fn export_invocation(
    tracer: &Tracer,
    metrics: &Metrics,
    name: &str,
    record: &FrameRecord,
    deadline: Duration,
) {
    let (release, start, end) =
        (record.release.as_nanos(), record.start.as_nanos(), record.end.as_nanos());
    let lateness = lateness_ns(end, release, deadline.as_nanos() as u64);
    if tracer.is_enabled() {
        if start > release {
            // Queueing delay gets its own track so it never overlaps
            // the next invocation's execution slice.
            tracer.record_span(&format!("{name}.wait"), "wait", release, start);
        }
        tracer.record_span_args(
            name,
            name,
            start,
            end,
            &[
                ("work_factor", format!("{:.3}", record.work_factor)),
                ("missed_deadline", record.missed_deadline.to_string()),
                ("lateness_us", format!("{}", lateness / 1_000)),
            ],
        );
    }
    if metrics.is_enabled() {
        metrics.record(&format!("exec.{name}"), record.execution_time());
        metrics.record(&format!("response.{name}"), record.response_time());
        // Policy-comparable deadline accounting: lateness of every job
        // (0 when on time), and of misses alone.
        metrics.record_ns("sched.lateness", lateness);
        if record.missed_deadline {
            metrics.record_ns("sched.miss", lateness);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(start_ms: u64, exec_ms: u64, missed: bool) -> FrameRecord {
        FrameRecord {
            release: Time::from_millis(start_ms),
            start: Time::from_millis(start_ms),
            end: Time::from_millis(start_ms + exec_ms),
            cpu_time: Duration::from_millis(exec_ms),
            work_factor: 1.0,
            missed_deadline: missed,
        }
    }

    #[test]
    fn stats_aggregate_correctly() {
        let log = RecordLogger::new();
        log.log("vio", record(0, 10, false));
        log.log("vio", record(100, 20, true));
        log.log("vio", record(200, 30, false));
        let s = log.stats("vio").unwrap();
        assert_eq!(s.invocations, 3);
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(s.mean_execution, Duration::from_millis(20));
        assert_eq!(s.total_cpu, Duration::from_millis(60));
        // 3 invocations over 230 ms.
        assert!((s.achieved_hz - 3.0 / 0.230).abs() < 1e-9);
    }

    #[test]
    fn drops_counted_separately() {
        let log = RecordLogger::new();
        log.log_drop("app");
        log.log_drop("app");
        log.log("app", record(0, 5, false));
        let s = log.stats("app").unwrap();
        assert_eq!(s.drops, 2);
        assert_eq!(s.invocations, 1);
    }

    #[test]
    fn unknown_component_has_no_stats() {
        let log = RecordLogger::new();
        assert!(log.stats("nope").is_none());
    }

    #[test]
    fn csv_export_round_trips_fields() {
        let log = RecordLogger::new();
        log.log("vio", record(10, 5, true));
        log.log("app", record(0, 2, false));
        let csv = log.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("component,release_ns"));
        // Sorted by component: app first.
        assert!(lines[1].starts_with("app,0,0,2000000,2000000,1,0"));
        assert!(lines[2].starts_with("vio,10000000,10000000,15000000,5000000,1,1"));
    }

    #[test]
    fn response_time_includes_queueing() {
        let r = FrameRecord {
            release: Time::from_millis(0),
            start: Time::from_millis(5),
            end: Time::from_millis(12),
            cpu_time: Duration::from_millis(7),
            work_factor: 1.0,
            missed_deadline: false,
        };
        assert_eq!(r.execution_time(), Duration::from_millis(7));
        assert_eq!(r.response_time(), Duration::from_millis(12));
    }
}
