//! The rows that are views of the [`Matrix`](crate::Matrix): Figs 3–7, Table IV, the
//! extended-configuration ablation and the raw telemetry dump.

use std::fmt::Write as _;
use std::io;

use illixr_bench::Report;
use illixr_platform::power::{PowerBreakdown, Rail};
use illixr_platform::spec::Platform;
use illixr_qoe::report::{format_row, MeanStd};
use illixr_render::apps::Application;
use illixr_system::experiment::{ExperimentResult, COMPONENTS};
use illixr_system::TableIRequirements;

use crate::Context;

/// The header of an app-column table.
fn app_header(label: &str, width: usize, cell: usize) -> String {
    format_row(label, &Application::ALL.map(|app| app.label().to_owned()), width, cell)
}

fn hz(r: &ExperimentResult, component: &str) -> f64 {
    r.stats(component).map(|s| s.achieved_hz).unwrap_or(0.0)
}

/// A per-frame series in ms, down-sampled to at most `points` values.
fn series_line(series: &[f64], points: usize) -> String {
    let stride = (series.len() / points).max(1);
    let pts: Vec<String> = series.iter().step_by(stride).map(|v| format!("{v:.2}")).collect();
    format!("  series(ms): {}", pts.join(" "))
}

fn rising(values: [f64; 3]) -> bool {
    values[0] < values[1] && values[1] < values[2]
}

/// Fig 3: average frame rate per component, application and platform,
/// against the Table III targets.
pub fn fig3(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    const TARGETS: [(&str, f64); 8] = [
        ("camera", 15.0),
        ("vio", 15.0),
        ("imu", 500.0),
        ("imu_integrator", 500.0),
        ("application", 120.0),
        ("timewarp", 120.0),
        ("audio_playback", 48.0),
        ("audio_encoding", 48.0),
    ];
    out.line("Fig 3: average component frame rates (Hz); target in [brackets]");
    out.line("(paper: Fig 3a–c — desktop meets nearly all targets, Jetson-HP degrades the");
    out.line(" visual pipeline, Jetson-LP misses everything except audio)");
    // Every (platform, component, app) more than 15 % under its target:
    // the paper's "meets (or almost meets)", negated.
    let mut missed = Vec::new();
    for platform in Platform::ALL {
        out.line(format_args!("\n=== {platform} ==="));
        out.line(app_header("component", 16, 12));
        out.rule(16 + 13 * 4);
        let results = Application::ALL.map(|app| cx.matrix.cell(app, platform));
        for (name, target) in TARGETS {
            let rates = results.each_ref().map(|r| hz(r, name));
            let label = format!("{name} [{target:.0}]");
            out.line(format_row(&label, &rates.map(|v| format!("{v:.1}")), 16, 12));
            let below = results.iter().zip(rates).filter(|(_, rate)| *rate < 0.85 * target);
            missed.extend(below.map(|(r, _)| (platform, name, r.app)));
        }
    }

    let on = |platform| missed.iter().filter(move |m| m.0 == platform).map(|m| (m.1, m.2));
    let heavy = [("application", Application::Sponza), ("application", Application::Materials)];
    // Sensor sources and the 2 ms integrator keep their rate; of the
    // three pipelines' compute components only audio does, for all four
    // applications.
    let all_but_audio = ["vio", "application", "timewarp"].iter().flat_map(|&name| [name; 4]);
    let lp_audio_only = on(Platform::JetsonLP).map(|m| m.0).eq(all_but_audio);
    out.claim(&[
        ("desktop_app_misses_only_sponza_materials", on(Platform::Desktop).eq(heavy)),
        ("jetson_lp_only_audio_meets_target", lp_audio_only),
        ("audio_meets_target_everywhere", !missed.iter().any(|m| m.1.starts_with("audio"))),
    ]);
    Ok(())
}

/// Fig 4: per-frame execution times of every component, Platformer on
/// the desktop. The same run's spans are `results/paper.trace.json`.
pub fn fig4(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    let result = cx.matrix.cell(Application::Platformer, Platform::Desktop);
    out.line("Fig 4: per-frame execution time (ms), Platformer on Desktop");
    out.line("(paper: VIO 5–25 ms with high variance; other components ≤ ~2 ms, all jittery)\n");
    // (component, mean, std)
    let mut stats = Vec::new();
    for name in COMPONENTS {
        let records = result.telemetry.records(name);
        if records.is_empty() {
            continue;
        }
        let series: Vec<f64> =
            records.iter().map(|r| r.execution_time().as_secs_f64() * 1e3).collect();
        let n = series.len();
        let MeanStd { mean, std } = MeanStd::of(&series).expect("non-empty");
        let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = series.iter().cloned().fold(0.0, f64::max);
        out.line(format_args!(
            "{name:<16} n={n:<5} mean={mean:>7.3} std={std:>6.3} min={min:>7.3} max={max:>7.3}"
        ));
        // The time series itself is the figure's content.
        out.line(series_line(&series, 60));
        stats.push((name, mean, std));
    }

    let vio = *stats.iter().find(|s| s.0 == "vio").expect("vio ran");
    let major = ["vio", "application"];
    out.claim(&[
        ("every_component_varies", stats.iter().all(|s| s.2 > 0.0)),
        (
            "vio_slowest_and_most_variable",
            stats.iter().all(|s| s.0 == "vio" || (s.1 < vio.1 && s.2 < vio.2)),
        ),
        ("minor_components_under_2ms", stats.iter().all(|s| major.contains(&s.0) || s.1 < 2.0)),
    ]);
    Ok(())
}

/// Fig 5: contribution of each component to total CPU time, per
/// application and platform.
pub fn fig5(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    out.line("Fig 5: share of total CPU cycles per component (%)");
    out.line("(paper: VIO and the application dominate, reprojection < 10 %, IMU-side");
    out.line(" components gain share on the constrained Jetsons)\n");
    // shares[platform][app], in Platform::ALL × Application::ALL order.
    let mut shares = Vec::new();
    for platform in Platform::ALL {
        out.line(format_args!("=== {platform} ==="));
        out.line(app_header("component", 16, 11));
        out.rule(16 + 12 * 4);
        let by_app = Application::ALL.map(|app| cx.matrix.cell(app, platform).cpu_shares());
        for name in COMPONENTS {
            let cells = by_app.each_ref().map(|s| format!("{:.1}%", share(s, name) * 100.0));
            out.line(format_row(name, &cells, 16, 11));
        }
        out.line("");
        shares.push(by_app);
    }

    // One quantity on [desktop, HP, LP], for each application.
    let shares = &shares;
    let by_platform = |f: fn(&[(String, f64)]) -> f64| {
        (0..Application::ALL.len()).map(move |app| [0, 1, 2].map(|p| f(&shares[p][app])))
    };
    let warp_small = |s: &Vec<(String, f64)>| share(s, "timewarp") < 0.10;
    let vio_leads = |s: &Vec<(String, f64)>| s.iter().all(|(_, v)| *v <= share(s, "vio"));
    out.claim(&[
        ("timewarp_cpu_share_below_10pct", shares.iter().flatten().all(warp_small)),
        ("vio_largest_cpu_consumer", shares.iter().flatten().all(vio_leads)),
        (
            "imu_side_share_rises_on_jetsons",
            by_platform(|s| share(s, "imu") + share(s, "imu_integrator")).all(rising),
        ),
        (
            "application_share_falls_on_jetsons",
            by_platform(|s| share(s, "application")).all(|[desktop, hp, lp]| hp.max(lp) < desktop),
        ),
    ]);
    Ok(())
}

fn share(shares: &[(String, f64)], name: &str) -> f64 {
    shares.iter().find(|(n, _)| n == name).map_or(0.0, |(_, s)| *s)
}

/// Fig 6: (a) total power and (b) power-rail breakdown per application
/// and platform.
pub fn fig6(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    out.line("Fig 6a: total power (W) — note the paper plots this on a log scale");
    out.line("(paper: desktop ~hundreds of W, Jetsons near the 10 W preset; the ideal");
    out.line(" device budget is 0.1–2 W — a 2–3 order-of-magnitude gap)\n");
    out.line(app_header("platform", 12, 11));
    out.rule(12 + 12 * 4);
    let mut results = Vec::new();
    for platform in Platform::ALL {
        let row = Application::ALL.map(|app| cx.matrix.cell(app, platform));
        let watts = row.each_ref().map(|r| format!("{:.1}W", r.power.total()));
        out.line(format_row(platform.label(), &watts, 12, 11));
        results.extend(row);
    }

    out.line("\nFig 6b: power breakdown by hardware unit (%)");
    out.line("(paper: GPU dominates the desktop; on Jetson-LP the SoC+Sys rails exceed 50 %)\n");
    out.line(format_row("platform/app", &Rail::ALL.map(|rail| rail.label().to_owned()), 22, 7));
    out.rule(22 + 8 * 5);
    for r in &results {
        let label = format!("{}/{}", r.platform.label(), r.app.label());
        let shares = Rail::ALL.map(|rail| format!("{:.1}%", r.power.share(rail) * 100.0));
        out.line(format_row(&label, &shares, 22, 7));
    }

    let on = |platform| results.iter().filter(move |r| r.platform == platform).map(|r| r.power);
    // Per platform, heaviest application first: Sponza … AR Demo.
    let watts = |platform| on(platform).map(|p| p.total()).collect::<Vec<f64>>();
    let gpu_leads =
        |p: PowerBreakdown| Rail::ALL.iter().all(|&rail| p.share(rail) <= p.share(Rail::Gpu));
    out.claim(&[
        ("desktop_gpu_largest_rail", on(Platform::Desktop).all(gpu_leads)),
        (
            "jetson_lp_soc_sys_over_half",
            on(Platform::JetsonLP).all(|p| p.share(Rail::Soc) + p.share(Rail::Sys) > 0.5),
        ),
        (
            "power_falls_with_lighter_apps",
            Platform::ALL.iter().all(|&p| watts(p).windows(2).all(|w| w[0] >= w[1])),
        ),
    ]);
    Ok(())
}

/// Fig 7: per-frame motion-to-photon latency, Platformer, all three
/// platforms.
pub fn fig7(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    out.line("Fig 7: motion-to-photon latency per frame (ms), Platformer");
    out.line("(paper: desktop ≈ 3 ms flat; Jetson-HP ≈ 6 ms; Jetson-LP ≈ 11 ms and spiky)\n");
    let rows = Platform::ALL.map(|platform| {
        let r = cx.matrix.cell(Application::Platformer, platform);
        let series: Vec<f64> = r.mtp.iter().map(|s| s.total().as_secs_f64() * 1e3).collect();
        let n = series.len();
        let stats = MeanStd::of(&series).expect("mtp samples");
        out.line(format_args!("{:<10} n={n:<5} mean±std = {stats:.1} ms", platform.label()));
        out.line(series_line(&series, 80) + "\n");
        (n, stats)
    });
    let [(desktop_n, desktop), (_, hp), (lp_n, lp)] = rows;
    out.claim(&[
        ("mtp_ordered_desktop_hp_lp", rising([desktop.mean, hp.mean, lp.mean])),
        ("desktop_mtp_least_variable", desktop.std < hp.std.min(lp.std)),
        // The Jetson-LP compositor itself falls to about half rate.
        ("jetson_lp_displays_fewer_frames", (lp_n as f64) < 0.75 * desktop_n as f64),
    ]);
    Ok(())
}

/// Table IV: motion-to-photon latency (mean ± std, ms) for every
/// application and platform.
pub fn table4(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    out.line("Table IV: motion-to-photon latency in ms (mean±std), without t_display");
    out.line("(paper: Desktop 3.1±1.1 … 3.0±0.9; Jetson-HP 13.5±10.7 … 5.6±1.4;");
    out.line(" Jetson-LP 19.3±14.5 … 12.0±3.4; targets: VR < 20 ms, AR < 5 ms)\n");
    out.line(app_header("Platform", 12, 12));
    out.rule(12 + 13 * 4);
    // Mean MTP per application, heaviest first: Sponza … AR Demo.
    let [desktop, hp, lp] = Platform::ALL.map(|platform| {
        let mtp = Application::ALL.map(|app| cx.matrix.cell(app, platform).mtp_ms());
        let cells = mtp.map(|m| m.map_or("-".into(), |m| format!("{m:.1}")));
        out.line(format_row(platform.label(), &cells, 12, 12));
        mtp.map(|m| m.map_or(f64::NAN, |m| m.mean))
    });
    let apps = 0..Application::ALL.len();
    let ar_target = TableIRequirements::ideal_ar().mtp_ms;
    out.claim(&[
        ("mtp_ordered_for_every_app", apps.clone().all(|a| rising([desktop[a], hp[a], lp[a]]))),
        (
            "ar_target_met_only_on_desktop",
            apps.clone().all(|a| desktop[a] < ar_target && hp[a].min(lp[a]) > ar_target),
        ),
        ("sponza_mtp_not_below_ar_demo", [desktop, hp, lp].iter().all(|m| m[0] >= m[3])),
    ]);
    Ok(())
}

/// Extended-configuration ablation (§V-A): the base system against the
/// one that also integrates eye tracking and scene reconstruction. The
/// paper warns that future systems "will integrate more components,
/// further stressing the entire system."
pub fn ablation_extended(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    out.line("Extended-configuration ablation: + eye tracking + scene reconstruction");
    out.line("(Platformer; base = the paper's integrated configuration §III-B)\n");
    out.line(format_args!(
        "{:<11} {:<9} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "platform", "config", "app Hz", "warp Hz", "eye Hz", "MTP (ms)", "GPU util"
    ));
    out.rule(74);
    let mut lowers_app = true;
    let mut warp_holds = true;
    for platform in [Platform::Desktop, Platform::JetsonHP] {
        let base = cx.matrix.cell(Application::Platformer, platform);
        let extended = cx.matrix.extended(platform);
        for (config, r) in [("base", &base), ("extended", &extended)] {
            out.line(format_args!(
                "{:<11} {config:<9} {:>9.1} {:>9.1} {:>9.1} {:>10} {:>8.0}%",
                platform.label(),
                hz(r, "application"),
                hz(r, "timewarp"),
                hz(r, "eye_tracking"),
                r.mtp_ms().map_or("-".into(), |m| format!("{m:.1}")),
                r.gpu_util * 100.0,
            ));
        }
        lowers_app &= hz(&extended, "application") < hz(&base, "application");
        warp_holds &= hz(&extended, "timewarp") >= 0.95 * hz(&base, "timewarp");
    }
    out.line("\nAdding components the GPU must share pushes the application (and on");
    out.line("embedded platforms the whole visual pipeline) further from its targets —");
    out.line("the paper's motivation for system-level accelerator sharing (§V-B).");
    out.claim(&[("extended_lowers_app_rate", lowers_app), ("compositor_holds_rate", warp_holds)]);
    Ok(())
}

/// Raw per-frame telemetry CSVs for every app × platform — the
/// artifact's `metrics-${hardware}-${app}` workflow — each with a
/// `streams-<platform>-<app>.csv` of per-stream switchboard counters:
/// publishes, back-pressure drops, subscriptions.
pub fn metrics_dump(cx: &mut Context, out: &mut Report) -> io::Result<()> {
    let dir = std::path::Path::new("results/metrics");
    std::fs::create_dir_all(dir).expect("create results/metrics");
    for platform in Platform::ALL {
        for app in Application::ALL {
            let r = cx.matrix.cell(app, platform);
            let name = format!(
                "metrics-{}-{}.csv",
                platform.label().to_lowercase().replace('-', ""),
                app.label().to_lowercase().replace(' ', "_")
            );
            let path = dir.join(&name);
            r.telemetry.save_csv(&path).expect("write telemetry csv");
            let mut streams_csv = String::from("stream,published,dropped,subscribers\n");
            for s in &r.stream_stats {
                writeln!(streams_csv, "{},{},{},{}", s.name, s.seq, s.dropped, s.subscribers)
                    .unwrap();
            }
            std::fs::write(dir.join(name.replace("metrics-", "streams-")), streams_csv)
                .expect("write streams csv");
            let records: usize =
                r.telemetry.component_names().iter().map(|n| r.telemetry.records(n).len()).sum();
            out.line(format_args!(
                "{:<40} {records:>8} records, {:>7.1} J",
                path.display(),
                r.energy_joules
            ));
        }
    }
    out.line("\nEach CSV row: component,release_ns,start_ns,end_ns,cpu_ns,work_factor,missed");
    Ok(())
}
