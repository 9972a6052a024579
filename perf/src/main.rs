//! `illixr-perf`: the host-time benchmark of the ILLIXR-rs testbed.
//!
//! ```text
//! illixr-perf run     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//! illixr-perf trace   [--workload W] [--seed N] [--out-dir DIR]     (= run --trace 1)
//! illixr-perf compare A.json B.json
//! illixr-perf manifest                                              (prints BENCHMARK.json)
//! ```
//!
//! With `--workload` the last line of standard output is the result
//! object of the benchmark contract; without it every workload runs in
//! a process of its own and the set is written to `<out-dir>/run.json`
//! (`trace.json` for traced runs). See `perf/README.md`.

mod compare;
mod host;
mod json;
mod micro;
mod paired;
mod pipeline;
mod probe;
mod run;
mod session;
mod span;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use workloads::{Workload, DEFAULT_SEED};

/// Seconds of set-ups and timed repetitions when `--seconds` is not
/// given; also `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 26.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let perf_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out_dir: perf_dir.join("out"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                parsed.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                };
            }
            "--out-dir" => parsed.out_dir = PathBuf::from(value("a directory")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    let dir = path.parent().expect("output files live in a directory");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, value.to_pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn detail_file(workload: Workload, trace: bool) -> String {
    format!("{}{}.json", workload.name(), if trace { ".layers" } else { "" })
}

/// One workload in this process. Prints the table, then the contract's
/// result line last; returns whether every check passed.
fn run_one(workload: Workload, args: &Args, started: Instant) -> Result<bool, String> {
    let (table, detail, line, correct) = if args.trace {
        let t = traced::trace(workload, args.seed, &args.out_dir)
            .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
        (t.table(), t.detail(), t.result_line(), t.failures.is_empty())
    } else {
        let m = run::measure(workload, args.seed, args.seconds, started);
        (m.table(), m.detail(), m.result_line(), m.failures.is_empty())
    };
    write_json(&args.out_dir.join(detail_file(workload, args.trace)), &detail)?;
    print!("{table}");
    println!("{}", line.to_line());
    Ok(correct)
}

fn meta(args: &Args) -> Json {
    let git = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_owned(), |s| s.trim().to_owned());
    Json::obj([
        ("git_rev", Json::str(git)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("rustc", Json::str(host::tool_version("rustc"))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.trace)),
    ])
}

/// Every workload, each in a child process so that peak RSS and
/// set-up time are its own; the set goes to `run.json` / `trace.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut set = Vec::new();
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .arg("run")
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .status()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        all_correct &= status.success();
        set.push((
            workload.name(),
            read_json(&args.out_dir.join(detail_file(workload, args.trace)))?,
        ));
    }
    let file = if args.trace { "trace.json" } else { "run.json" };
    let path = args.out_dir.join(file);
    write_json(&path, &Json::obj([("meta", meta(args)), ("workloads", Json::obj(set))]))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn compare_sets(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two result sets: A.json B.json".to_owned());
    };
    let benchmark = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))?;
    let outcome =
        compare::compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?, &benchmark)?;
    print!("{}", outcome.table);
    Ok(outcome.worse == 0)
}

/// `BENCHMARK.json`, generated from the same tables the runs use.
fn manifest() -> Json {
    let workloads = Workload::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]))
        .collect();
    let end_to_end = run::END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = traced::registry()
        .into_iter()
        .map(|d| {
            Json::obj([
                ("name", Json::str(d.name)),
                ("unit", Json::str(d.unit)),
                ("better", Json::str(d.better)),
            ])
        })
        .collect();
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("perf/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("perf")])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: illixr-perf <run|trace|compare|manifest> ... (see perf/README.md)");
        return ExitCode::from(2);
    };
    let mut args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("illixr-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command.as_str() {
        "run" | "trace" => {
            args.trace |= command == "trace";
            match args.workload {
                Some(workload) => run_one(workload, &args, started),
                None => run_all(&args),
            }
        }
        "compare" => compare_sets(&args),
        // Child side of `probe::peak_rss_mib`.
        "probe" => match args.positional.as_slice() {
            [what] => probe::run(what, args.seed).map(|mib| {
                println!("{mib}");
                true
            }),
            _ => Err("probe takes one argument".to_owned()),
        },
        "manifest" => {
            print!("{}", manifest().to_pretty());
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("illixr-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCHMARK.json` is what `manifest` prints, and it
    /// fits the contract's limits.
    #[test]
    fn committed_manifest_matches_the_code() {
        let committed = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(committed, manifest());
        let per_layer = committed.get("per_layer").and_then(Json::as_arr).unwrap();
        assert!((1..=128).contains(&per_layer.len()), "{} per-layer metrics", per_layer.len());
        let mut names: Vec<&str> = ["end_to_end", "per_layer", "workloads"]
            .iter()
            .flat_map(|k| committed.get(k).and_then(Json::as_arr).unwrap())
            .map(|m| m.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(ok), "bad name {name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        }
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!(run::END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(run::END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a =
            args(&["--workload", "edge_fleet", "--seed", "7", "--seconds", "3", "--trace", "1"])
                .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::EdgeFleet), 7, 3.0, true)
        );
        assert_eq!(args(&[]).unwrap().seed, DEFAULT_SEED);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be refused");
        }
    }
}
