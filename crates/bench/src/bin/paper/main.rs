//! Regenerates every figure and table of the paper's evaluation (§IV)
//! and runs the extension sweeps: one runner, one row table.
//!
//! A row of [`FIGURES`] is a figure, a table, an ablation or a sweep.
//! The integrated figures are views of one [`Matrix`] of app × platform
//! runs, as the paper's artifact derives Figs 3–7 and Table IV from one
//! `metrics-${hardware}-${app}` log per pair: a full regeneration makes
//! 14 matrix runs. The seven sweeps after them (`failover_sweep` …
//! `trace_replay`) run their own configurations, each under its own
//! duration rule.
//!
//! Usage: `cargo run --release -p illixr-bench --bin paper`, with
//! `--only fig3,table4` to select rows and `--quick` for CI-sized runs
//! (3 simulated seconds a matrix run in place of `ILLIXR_SECONDS`; each
//! sweep states its own cap). `--trace <path>` and `--write-fixture
//! <path>` are `scaling_sessions`' and `trace_replay`'s. Each row
//! writes `results/<row>.txt`, ending in its claim line if it makes
//! claims; `results/paper.txt` collects one `row claim=bool …` line per
//! row. `table6`, `table7` and `ablation_vio` time real kernels on the
//! host clock and are not byte-stable; every other row is.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use illixr_bench::cli::BenchArgs;
use illixr_bench::{sim_duration, write_obs_artifacts, Report};
use illixr_core::boundary::Trace;
use illixr_platform::spec::Platform;
use illixr_render::apps::Application;
use illixr_system::experiment::{ExperimentConfig, ExperimentResult, IntegratedExperiment};

mod failover_sweep;
mod fault_sweep;
mod integrated;
mod placement_sweep;
mod scaling_sessions;
mod sched_compare;
mod session_matrix;
mod standalone;
mod trace_replay;

/// One row: its `--only` name, which is also its `results/<name>.txt`,
/// and the function that prints it into the [`Report`] the runner
/// writes.
struct Figure {
    name: &'static str,
    print: fn(&mut Context, &mut Report) -> std::io::Result<()>,
}

const FIGURES: [Figure; 23] = [
    Figure { name: "fig3", print: integrated::fig3 },
    Figure { name: "fig4", print: integrated::fig4 },
    Figure { name: "fig5", print: integrated::fig5 },
    Figure { name: "fig6", print: integrated::fig6 },
    Figure { name: "fig7", print: integrated::fig7 },
    Figure { name: "fig8", print: standalone::fig8 },
    Figure { name: "table3", print: standalone::table3 },
    Figure { name: "table4", print: integrated::table4 },
    Figure { name: "table5", print: standalone::table5 },
    Figure { name: "table6", print: standalone::table6 },
    Figure { name: "table7", print: standalone::table7 },
    Figure { name: "ablation_vio", print: standalone::ablation_vio },
    Figure { name: "ablation_extended", print: integrated::ablation_extended },
    Figure { name: "ablation_offload", print: standalone::ablation_offload },
    Figure { name: "ablation_timewarp", print: standalone::ablation_timewarp },
    Figure { name: "metrics_dump", print: integrated::metrics_dump },
    Figure { name: "failover_sweep", print: failover_sweep::row },
    Figure { name: "fault_sweep", print: fault_sweep::row },
    Figure { name: "placement_sweep", print: placement_sweep::row },
    Figure { name: "scaling_sessions", print: scaling_sessions::row },
    Figure { name: "sched_compare", print: sched_compare::row },
    Figure { name: "session_matrix", print: session_matrix::row },
    Figure { name: "trace_replay", print: trace_replay::row },
];

/// What the runner hands every row: the flags and the matrix.
struct Context {
    /// `--quick`: CI-sized runs; each row states its own cap.
    quick: bool,
    /// `--trace`, decoded: `scaling_sessions` replays it into its
    /// Wi-Fi sessions instead of running live generators.
    trace: Option<Arc<Trace>>,
    /// `--write-fixture`: where `trace_replay` saves its recorded trace.
    write_fixture: Option<String>,
    matrix: Matrix,
}

/// The integrated runs every figure is a view of: a cell runs the first
/// time a row asks for it and is kept for the rows after.
struct Matrix {
    duration: Duration,
    cells: HashMap<(Application, Platform, bool), Rc<ExperimentResult>>,
}

impl Matrix {
    /// The one cell that runs traced, for the span export.
    /// `tests/end_to_end.rs::tracing_is_inert_to_sim_time_outputs` is
    /// why its figures are the untraced run's.
    const TRACED: (Application, Platform, bool) =
        (Application::Platformer, Platform::Desktop, false);

    fn new(duration: Duration) -> Self {
        Self { duration, cells: HashMap::new() }
    }

    /// The paper's integrated configuration of `app` on `platform`.
    fn cell(&mut self, app: Application, platform: Platform) -> Rc<ExperimentResult> {
        self.get((app, platform, false))
    }

    /// Platformer on `platform` with eye tracking and scene
    /// reconstruction integrated (§V-A).
    fn extended(&mut self, platform: Platform) -> Rc<ExperimentResult> {
        self.get((Application::Platformer, platform, true))
    }

    fn get(&mut self, key: (Application, Platform, bool)) -> Rc<ExperimentResult> {
        let duration = self.duration;
        let result = self.cells.entry(key).or_insert_with(|| {
            let (app, platform, extended) = key;
            let mut cfg = ExperimentConfig::paper(app, platform);
            cfg.duration = duration;
            cfg.trace = key == Self::TRACED;
            if extended {
                cfg = cfg.with_extended_components();
            }
            Rc::new(IntegratedExperiment::run(&cfg))
        });
        Rc::clone(result)
    }
}

/// The rows `--only` names, in table order. The operand comes from
/// outside the program: an unknown or repeated name is an error that
/// lists the valid ones.
fn select(only: Option<&str>) -> Result<Vec<&'static Figure>, String> {
    let Some(only) = only else {
        return Ok(FIGURES.iter().collect());
    };
    let names: Vec<&str> = only.split(',').collect();
    for (i, name) in names.iter().enumerate() {
        let problem = if !FIGURES.iter().any(|f| f.name == *name) {
            "unknown"
        } else if names[..i].contains(name) {
            "repeated"
        } else {
            continue;
        };
        let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        return Err(format!("--only: {problem} row '{name}'; rows are {}", valid.join(",")));
    }
    Ok(FIGURES.iter().filter(|f| names.contains(&f.name)).collect())
}

fn main() -> std::io::Result<()> {
    let args = BenchArgs::parse();
    let rows = select(args.only.as_deref()).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    let mut cx = Context {
        quick: args.quick,
        trace: args.load_trace(),
        matrix: Matrix::new(if args.quick { Duration::from_secs(3) } else { sim_duration() }),
        write_fixture: args.write_fixture,
    };
    let mut summary = Report::new("paper");
    for row in &rows {
        let mut report = Report::new(row.name);
        (row.print)(&mut cx, &mut report)?;
        for claim in report.claims().iter().filter(|c| c.ends_with("=false")) {
            eprintln!("WARNING: {}: {claim}", row.name);
        }
        summary.note([&[row.name.to_owned()], report.claims()].concat().join(" "));
        report.write()?;
    }
    if let Some(traced) = cx.matrix.cells.get(&Matrix::TRACED) {
        write_obs_artifacts("paper", &traced.tracer, &traced.metrics)?;
    }
    summary.write()?;
    println!("wrote {} rows from {} matrix runs", rows.len(), cx.matrix.cells.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_names_are_unique() {
        for (i, row) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|f| f.name != row.name), "{} twice", row.name);
        }
    }

    fn names(only: Option<&str>) -> Result<Vec<&'static str>, String> {
        select(only).map(|rows| rows.iter().map(|f| f.name).collect())
    }

    #[test]
    fn only_selects_rows_in_table_order_and_rejects_bad_names() {
        assert_eq!(names(None).unwrap().len(), FIGURES.len());
        assert_eq!(names(Some("fig3")).unwrap(), ["fig3"]);
        assert_eq!(names(Some("table4,fig3")).unwrap(), ["fig3", "table4"]);
        let sweeps = names(Some("trace_replay,fault_sweep")).unwrap();
        assert_eq!(sweeps, ["fault_sweep", "trace_replay"]);
        for bad in ["fig9", "", "fig3,", "fig3, table4", "FIG3", "fig3,table4,fig3"] {
            let message = names(Some(bad)).unwrap_err();
            assert!(message.contains("rows are fig3,fig4,") && message.ends_with("trace_replay"));
        }
        assert!(names(Some("fig3,fig3")).unwrap_err().contains("repeated row 'fig3'"));
        assert!(names(Some("fig9")).unwrap_err().contains("unknown row 'fig9'"));
    }

    #[test]
    fn matrix_runs_a_cell_once_however_many_rows_ask() {
        let mut matrix = Matrix::new(Duration::from_secs(1));
        let first = matrix.cell(Application::ArDemo, Platform::Desktop);
        let again = matrix.cell(Application::ArDemo, Platform::Desktop);
        assert!(Rc::ptr_eq(&first, &again));
        assert_eq!(matrix.cells.len(), 1, "one run, asked for twice");
        assert_eq!(first.duration, Duration::from_secs(1));
        assert!(!first.tracer.is_enabled(), "only the Desktop/Platformer cell is traced");
    }
}
