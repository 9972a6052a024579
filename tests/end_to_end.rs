//! Cross-crate integration tests of the full system: the complete plugin
//! graph running in simulated mode, checked against the paper's headline
//! observations.

use std::time::Duration;

use illixr_testbed::core::boundary::fnv1a;
use illixr_testbed::platform::spec::Platform;
use illixr_testbed::render::apps::Application;
use illixr_testbed::system::experiment::{
    ExperimentConfig, ExperimentResult, IntegratedExperiment, COMPONENTS,
};

fn quick(app: Application, platform: Platform) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(app, platform);
    cfg.duration = Duration::from_secs(2);
    cfg
}

#[test]
fn all_components_run_in_the_integrated_system() {
    let r = IntegratedExperiment::run(&quick(Application::Platformer, Platform::Desktop));
    for name in COMPONENTS {
        let stats = r.stats(name).unwrap_or_else(|| panic!("component '{name}' never ran"));
        assert!(stats.invocations > 0, "component '{name}' has no invocations");
    }
}

#[test]
fn desktop_meets_paper_targets_for_platformer() {
    let r = IntegratedExperiment::run(&quick(Application::Platformer, Platform::Desktop));
    // Fig 3a: essentially all targets met on the desktop for Platformer.
    assert!(r.stats("vio").unwrap().achieved_hz > 13.5);
    assert!(r.stats("timewarp").unwrap().achieved_hz > 110.0);
    assert!(r.stats("application").unwrap().achieved_hz > 100.0);
    assert!(r.stats("audio_playback").unwrap().achieved_hz > 45.0);
    assert!(r.stats("imu_integrator").unwrap().achieved_hz > 420.0);
    // Table IV: desktop MTP ≈ 3 ms, well under the 20 ms VR target.
    let mtp = r.mtp_ms().unwrap();
    assert!(mtp.mean < 6.0, "desktop MTP {mtp}");
}

#[test]
fn sponza_on_desktop_misses_application_deadline_like_the_paper() {
    // Fig 3a: "the application component for Sponza and Materials are the
    // only exceptions" to the desktop meeting its targets.
    let sponza = IntegratedExperiment::run(&quick(Application::Sponza, Platform::Desktop));
    let ar = IntegratedExperiment::run(&quick(Application::ArDemo, Platform::Desktop));
    let sponza_app = sponza.stats("application").unwrap();
    let ar_app = ar.stats("application").unwrap();
    assert!(
        sponza_app.achieved_hz < 80.0,
        "Sponza app should miss 120 Hz: {}",
        sponza_app.achieved_hz
    );
    assert!(ar_app.achieved_hz > 110.0, "AR Demo app should meet 120 Hz: {}", ar_app.achieved_hz);
    // But reprojection compensates: timewarp still hits the target.
    assert!(sponza.stats("timewarp").unwrap().achieved_hz > 110.0);
}

#[test]
fn platform_ordering_holds_across_metrics() {
    let apps = [Application::Platformer];
    for app in apps {
        let d = IntegratedExperiment::run(&quick(app, Platform::Desktop));
        let hp = IntegratedExperiment::run(&quick(app, Platform::JetsonHP));
        let lp = IntegratedExperiment::run(&quick(app, Platform::JetsonLP));
        // MTP: desktop < HP < LP (Table IV rows).
        let (md, mh, ml) =
            (d.mtp_ms().unwrap().mean, hp.mtp_ms().unwrap().mean, lp.mtp_ms().unwrap().mean);
        assert!(md < mh && mh < ml, "MTP ordering {md} {mh} {ml}");
        // Power: desktop ≫ HP > LP (Fig 6a).
        assert!(d.power.total() > hp.power.total());
        assert!(hp.power.total() > lp.power.total());
        // Audio never degrades (Fig 3: audio meets target everywhere).
        for r in [&d, &hp, &lp] {
            assert!(r.stats("audio_playback").unwrap().achieved_hz > 44.0);
        }
    }
}

#[test]
fn per_frame_variability_exists_in_all_components() {
    // §IV-A1: "the standard deviations for execution time are surprisingly
    // significant in many cases" — every component must show nonzero
    // per-frame variance.
    let r = IntegratedExperiment::run(&quick(Application::Platformer, Platform::Desktop));
    for name in COMPONENTS {
        let s = r.stats(name).unwrap();
        assert!(
            s.std_execution > Duration::ZERO,
            "component '{name}' shows no execution-time variability"
        );
    }
}

#[test]
fn vio_work_factor_is_input_dependent() {
    let r = IntegratedExperiment::run(&quick(Application::Platformer, Platform::Desktop));
    let records = r.telemetry.records("vio");
    let min = records.iter().map(|x| x.work_factor).fold(f64::INFINITY, f64::min);
    let max = records.iter().map(|x| x.work_factor).fold(0.0, f64::max);
    assert!(max > min, "VIO work factor never varied: {min}..{max}");
}

#[test]
fn mtp_decomposition_is_consistent() {
    let r = IntegratedExperiment::run(&quick(Application::ArDemo, Platform::Desktop));
    assert!(!r.mtp.is_empty());
    for s in &r.mtp {
        assert_eq!(s.total(), s.imu_age + s.reprojection + s.swap);
        // With a 120 Hz display the swap wait is below one period plus
        // scheduling slack.
        assert!(s.swap < Duration::from_millis(10), "swap {:?}", s.swap);
    }
}

/// FNV-1a over everything an integrated run reports that a schedule,
/// supervision or placement change could move: the full telemetry CSV,
/// every MTP sample, the switchboard counters, every chain outcome, the
/// policy's shed/level, the supervisor report, the placement decisions
/// and the encoded boundary trace.
fn fingerprint(cfg: &ExperimentConfig) -> u64 {
    fingerprint_of(IntegratedExperiment::run(cfg))
}

fn fingerprint_of(r: ExperimentResult) -> u64 {
    use std::fmt::Write;

    let mut repr = r.telemetry.to_csv();
    for s in &r.mtp {
        let ns = [s.imu_age, s.reprojection, s.swap].map(|d| d.as_nanos());
        writeln!(repr, "mtp,{},{},{},{}", s.display_vsync.as_nanos(), ns[0], ns[1], ns[2]).unwrap();
    }
    writeln!(repr, "{:?}", r.stream_stats).unwrap();
    writeln!(repr, "{:?}", r.chain_outcomes).unwrap();
    writeln!(repr, "shed={} level={}", r.shed_jobs, r.degradation_level).unwrap();
    writeln!(repr, "{:?}", r.supervisor.report()).unwrap();
    writeln!(repr, "{:?} {:?}", r.vio_final_side, r.migrations).unwrap();
    let trace = r.boundary_trace.map(|t| t.encode()).unwrap_or_default();
    fnv1a(repr.bytes().chain(trace))
}

/// The device goldens compare run against run inside one build; this
/// pins the pipeline's bytes across commits, for the four shapes of run
/// the schedule table, the supervised invocation and the placed `vio`
/// split each change: default, extended + EDF, faulted + supervised +
/// recorded on one core, and adaptive placement through an outage.
#[test]
fn device_pipeline_digests_are_pinned() {
    use illixr_testbed::core::fault::{FaultKind, FaultPlan, FaultWindow};
    use illixr_testbed::core::link::{Direction, LinkProfile};
    use illixr_testbed::core::sched::{PlacementPlan, PolicyKind, Side};

    let base = |app, platform| {
        let mut cfg = ExperimentConfig::paper(app, platform);
        cfg.duration = Duration::from_secs(1);
        cfg
    };
    let outage = FaultWindow::new(
        FaultKind::LinkOutage,
        Direction::Uplink.label(),
        300_000_000,
        600_000_000,
        1.0,
    );
    let cases = [
        (
            "paper default",
            base(Application::Platformer, Platform::Desktop),
            0xf757_dc7c_68a2_e9eau64,
        ),
        (
            "extended + edf",
            base(Application::Sponza, Platform::JetsonHP)
                .with_extended_components()
                .with_policy(PolicyKind::Edf),
            0x4a17_3e47_a879_81e4,
        ),
        (
            "faulted + supervised + recorded, 1 core",
            base(Application::ArDemo, Platform::Desktop)
                .with_fault_plan(FaultPlan::scheduled(42, 1.0, 1_000_000_000))
                .with_supervision()
                .with_boundary_record()
                .with_cpu_cores(1),
            0xc251_603e_5ebc_b9dc,
        ),
        (
            "adaptive vio over wifi with an uplink outage",
            base(Application::Platformer, Platform::Desktop)
                .with_fault_plan(FaultPlan::new(9).with_window(outage))
                .with_link_profile(LinkProfile::wifi())
                .with_placement(PlacementPlan::adaptive("vio", Side::Edge)),
            0xa284_cee7_29c3_db20,
        ),
    ];
    for (what, cfg, pinned) in cases {
        assert_eq!(fingerprint(&cfg), pinned, "{what}: device pipeline bytes moved");
    }
}

/// Span/flow tracing moves no sim-time output of the device pipeline:
/// a traced run reports what the untraced run of the same config
/// reports, in everything [`fingerprint`] covers and in utilisation,
/// power and energy, which it does not. A harness may therefore trace
/// one run and read both its figures and its spans off it.
#[test]
fn tracing_is_inert_to_sim_time_outputs() {
    use illixr_testbed::core::sched::PolicyKind;

    let base = |app, platform| {
        let mut cfg = ExperimentConfig::paper(app, platform);
        cfg.duration = Duration::from_secs(1);
        cfg
    };
    let cases = [
        ("paper default", base(Application::Platformer, Platform::Desktop)),
        (
            "extended + edf",
            base(Application::Sponza, Platform::JetsonHP)
                .with_extended_components()
                .with_policy(PolicyKind::Edf),
        ),
    ];
    for (what, cfg) in cases {
        let plain = IntegratedExperiment::run(&cfg);
        let traced = IntegratedExperiment::run(&cfg.with_trace());
        assert!(!plain.tracer.is_enabled() && !traced.tracer.spans().is_empty(), "{what}");
        assert_eq!(
            (traced.cpu_util, traced.gpu_util, traced.power, traced.energy_joules),
            (plain.cpu_util, plain.gpu_util, plain.power, plain.energy_joules),
            "{what}: tracing moved utilisation, power or energy"
        );
        assert_eq!(fingerprint_of(traced), fingerprint_of(plain), "{what}: tracing moved bytes");
    }
}
