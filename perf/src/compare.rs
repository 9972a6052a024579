//! `compare A.json B.json`: one row per (workload, end-to-end metric),
//! judged by the bounds in `BENCHMARK.json`. A is the parent, B the
//! change. This is the check two sets of runs of one commit must pass,
//! and the one a later CI step calls.

use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::{best, Quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's value is better by more than the spread between repetitions
    /// and by more than a third of the bound, the run-to-run noise the
    /// benchmark was accepted with. A direction, not a claimed gain: a
    /// gain takes ten alternating pairs (see `README.md`).
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// B's value is worse by more than the bound.
    Worse,
    /// The spread between repetitions is wider than the bound, so the
    /// two values cannot settle it either way.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One judged pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub verdict: Verdict,
    /// Each side's value: the best of its repetitions.
    pub a: f64,
    pub b: f64,
    /// Signed share by which B's value is worse than A's (negative:
    /// better).
    pub worse_by: f64,
    /// The wider of the two sides' inter-quartile shares.
    pub spread: f64,
}

/// Judges B's repetitions against A's for one metric; each side's
/// value is its best repetition, as in the result line.
///
/// Where the spread is wider than the bound the pairing is unresolved,
/// unless every repetition of B reads better than every one of A.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Row {
    let (va, vb) = (best(a, higher_is_better), best(b, higher_is_better));
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (vb - va) / va.abs();
    let spread = Quartiles::of(a).iqr_share().max(Quartiles::of(b).iqr_share());
    let badness = |v: &f64| sign * v;
    let worst_b = b.iter().map(badness).fold(f64::NEG_INFINITY, f64::max);
    let best_a = a.iter().map(badness).fold(f64::INFINITY, f64::min);
    let verdict = if spread > bound {
        if worst_b < best_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread.max(bound / 3.0) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    Row { verdict, a: va, b: vb, worse_by, spread }
}

/// `(name, higher_is_better, bound)` of every end-to-end metric in a
/// parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> Result<Vec<(String, bool, f64)>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without better")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_owned(), better == "higher", bound))
        })
        .collect()
}

fn values(detail: &Json, metric: &str) -> Option<Vec<f64>> {
    detail
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn exact(detail: &Json, key: &str) -> Option<f64> {
    detail.get("exact")?.get(key)?.as_f64()
}

/// The simulated-time metrics: exact, lower is better.
const EXACT: [&str; 3] = ["sim_mtp_p50_ms", "sim_mtp_p90_ms", "sim_frame_miss_rate"];

/// The comparison of two result sets: a printable table and whether
/// anything got worse.
pub struct Comparison {
    pub table: String,
    pub worse: usize,
}

pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<Comparison, String> {
    let bounds = bounds(benchmark)?;
    let workloads_a = a.get("workloads").and_then(Json::as_obj).ok_or("A has no workloads")?;
    let mut table = String::new();
    let (mut worse, mut unresolved) = (0, 0);
    let _ = writeln!(
        table,
        "{:<16} {:<20} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A best", "B best", "change", "spread", "bound"
    );
    for (workload, da) in workloads_a {
        let db = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or(format!("B has no workload {workload}"))?;
        for (metric, higher, bound) in &bounds {
            let va = values(da, metric).ok_or(format!("A lacks {workload}/{metric}"))?;
            let vb = values(db, metric).ok_or(format!("B lacks {workload}/{metric}"))?;
            let row = judge(&va, &vb, *higher, *bound);
            worse += (row.verdict == Verdict::Worse) as usize;
            unresolved += (row.verdict == Verdict::Unresolved) as usize;
            let _ = writeln!(
                table,
                "{workload:<16} {metric:<20} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                row.a,
                row.b,
                // Printed in the metric's own direction: + is larger.
                (row.b / row.a - 1.0) * 100.0,
                row.spread * 100.0,
                bound * 100.0,
                row.verdict.label()
            );
        }
        for key in EXACT {
            let (xa, xb) = (exact(da, key), exact(db, key));
            let verdict = match (xa, xb) {
                (Some(xa), Some(xb)) if xa == xb => "identical",
                (Some(xa), Some(xb)) if xb > xa => {
                    worse += 1;
                    "worse (simulated behaviour changed)"
                }
                (Some(_), Some(_)) => "simulated behaviour changed",
                _ => return Err(format!("{workload}/{key} missing")),
            };
            let _ = writeln!(
                table,
                "{workload:<16} {key:<20} {:>12.6} {:>12.6} {:>8} {:>8} {:>6}  {verdict}",
                xa.unwrap_or(0.0),
                xb.unwrap_or(0.0),
                "",
                "",
                "exact"
            );
        }
        let digest = |d: &Json| d.get("exact").and_then(|e| e.get("digest")).cloned();
        if digest(da) != digest(db) {
            let _ = writeln!(table, "{workload:<16} digest differs: simulated behaviour changed");
        }
        let failed_share =
            |d: &Json| Some(exact(d, "ops_failed")? / exact(d, "ops_attempted")?.max(1.0));
        let checks = exact(db, "check_failures").unwrap_or(f64::NAN);
        if checks != 0.0 {
            worse += 1;
            let _ = writeln!(table, "{workload:<16} check_failures = {checks} in B: worse");
        }
        if failed_share(db) > failed_share(da) {
            worse += 1;
            let _ = writeln!(table, "{workload:<16} ops_failed/ops_attempted rose: worse");
        }
    }
    let _ = writeln!(table, "{worse} worse, {unresolved} unresolved");
    Ok(Comparison { table, worse })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_repetitions_do_not_decide() {
        // Three repetitions of B ran into a slow minute; its best did not.
        let a = [10.0, 10.1, 10.2, 10.0, 10.1];
        let b = [10.1, 14.0, 10.0, 14.5, 14.2];
        let row = judge(&a, &b, false, 0.5);
        assert_eq!((row.a, row.b, row.verdict), (10.0, 10.0, Verdict::WithinBound));
        // A rate's best is its highest.
        let row = judge(&[5.0, 9.0], &[9.0, 4.0], true, 0.9);
        assert_eq!((row.a, row.b), (9.0, 9.0));
    }

    #[test]
    fn verdicts_on_synthetic_repetitions() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.2];
        // 4 % slower at a 10 % bound: inside.
        let row = judge(&a, &[10.4, 10.5, 10.3, 10.4, 10.6], false, 0.10);
        assert_eq!(row.verdict, Verdict::WithinBound);
        assert!((row.worse_by - 0.4 / 9.9).abs() < 1e-9);
        // 20 % slower: worse.
        assert_eq!(judge(&a, &[12.0, 12.1, 11.9, 12.0, 12.2], false, 0.10).verdict, Verdict::Worse);
        // 20 % faster, well clear of the spread: better.
        assert_eq!(judge(&a, &[8.0, 8.1, 7.9, 8.0, 8.2], false, 0.10).verdict, Verdict::Better);
        // A rate: the direction flips.
        assert_eq!(judge(&a, &[8.0, 8.1, 7.9, 8.0, 8.2], true, 0.10).verdict, Verdict::Worse);
        assert_eq!(judge(&a, &[12.0, 12.1, 11.9, 12.0, 12.2], true, 0.10).verdict, Verdict::Better);
        // A single value a side (peak RSS): no spread, the bound decides.
        assert_eq!(judge(&[100.0], &[105.0], false, 0.10).verdict, Verdict::WithinBound);
        assert_eq!(judge(&[100.0], &[115.0], false, 0.10).verdict, Verdict::Worse);
        assert_eq!(judge(&[100.0], &[100.0], false, 0.10).verdict, Verdict::WithinBound);
        // An improvement inside a third of the bound is noise, not "better".
        assert_eq!(judge(&[100.0], &[98.0], false, 0.10).verdict, Verdict::WithinBound);
        assert_eq!(judge(&[100.0], &[95.0], false, 0.10).verdict, Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        // Repetitions scatter by far more than the 10 % bound.
        let a = [10.0, 14.0, 8.0, 12.0, 9.0];
        let slower = judge(&a, &[13.0, 9.0, 15.0, 11.0, 14.0], false, 0.10);
        assert_eq!(slower.verdict, Verdict::Unresolved);
        assert!(slower.spread > 0.10);
        // Same scatter, same best: still not "unchanged".
        assert_eq!(judge(&a, &a, false, 0.10).verdict, Verdict::Unresolved);
        // Every run of B beats every run of A: resolved despite the scatter.
        assert_eq!(judge(&a, &[7.0, 5.0, 7.9, 6.0, 4.0], false, 0.10).verdict, Verdict::Better);
        // One run of B ties A's best: unresolved again.
        assert_eq!(judge(&a, &[7.0, 5.0, 8.0, 6.0, 4.0], false, 0.10).verdict, Verdict::Unresolved);
    }

    fn set(wall: &[f64], miss: f64, checks: f64) -> Json {
        let metric = |v: &[f64]| Json::obj([("values", Json::nums(v))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "edge_fleet",
                Json::obj([
                    (
                        "end_to_end",
                        Json::obj([
                            ("host_s_per_sim_s", metric(wall)),
                            ("peak_rss_mib", metric(&[80.0])),
                        ]),
                    ),
                    (
                        "exact",
                        Json::obj([
                            ("sim_mtp_p50_ms", Json::Num(26.0)),
                            ("sim_mtp_p90_ms", Json::Num(27.0)),
                            ("sim_frame_miss_rate", Json::Num(miss)),
                            ("ops_attempted", Json::Num(1000.0)),
                            ("ops_failed", Json::Num(miss * 1000.0)),
                            ("check_failures", Json::Num(checks)),
                            ("digest", Json::str("abc")),
                        ]),
                    ),
                ]),
            )]),
        )])
    }

    fn benchmark() -> Json {
        let m = |name: &str, bound: f64| {
            Json::obj([
                ("name", Json::str(name)),
                ("better", Json::str("lower")),
                ("bound", Json::Num(bound)),
            ])
        };
        Json::obj([(
            "end_to_end",
            Json::Arr(vec![m("host_s_per_sim_s", 0.1), m("peak_rss_mib", 0.1)]),
        )])
    }

    #[test]
    fn compare_counts_worse_rows_and_failed_operations() {
        let a = set(&[2.0, 2.02, 1.98], 0.03, 0.0);
        let same = compare(&a, &a, &benchmark()).unwrap();
        assert_eq!(same.worse, 0);
        assert!(same.table.contains("0 worse, 0 unresolved"));
        assert!(same.table.contains("identical"));

        let slow = compare(&a, &set(&[2.5, 2.52, 2.48], 0.03, 0.0), &benchmark()).unwrap();
        assert_eq!(slow.worse, 1);

        // More missed frames: an exact metric worsened and the failed
        // share rose.
        let lossy = compare(&a, &set(&[2.0, 2.02, 1.98], 0.05, 0.0), &benchmark()).unwrap();
        assert_eq!(lossy.worse, 2);
        assert!(lossy.table.contains("simulated behaviour changed"));

        let broken = compare(&a, &set(&[2.0, 2.02, 1.98], 0.03, 1.0), &benchmark()).unwrap();
        assert_eq!(broken.worse, 1);

        assert!(compare(&a, &Json::obj([("workloads", Json::Obj(vec![]))]), &benchmark()).is_err());
    }
}
