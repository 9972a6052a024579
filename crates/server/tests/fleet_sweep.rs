//! The differential sweep: seeded fleets over the engine's event orders,
//! each reduced to one digest.
//!
//! [`FleetCase::from_seed`] draws a fleet over the dimensions the
//! engine's orders depend on: 1–43 sessions joining on and off their IMU
//! step grid, disconnects before and after connects, 250–1000 Hz IMUs,
//! 1–8 shards and one or two workers, jittered links with outages and
//! jitter spikes (so a lane's deliveries arrive out of push order), and
//! up to three `WorkerCrash` windows under every failover policy and
//! checkpoint period, with or without a whole-run `CheckpointCorrupt`
//! window. [`case_digest`] runs it and hashes what the run produced.
//!
//! [`FleetCase::tied`] overlays a seed's fleet with an exact uplink, one
//! uplink outage and deadline-aware placement, so that VIO jobs arrive on
//! `ServerBatch` instants and several sessions' jobs arrive on one
//! instant out of session order: the two orders the pool's arrival queue
//! keeps, which the jittered links of [`FleetCase::from_seed`] almost
//! never reach.
//!
//! Fixed slices of seeds run against committed digests. To compare two
//! commits over the wide sweep, run in each tree
//!
//! ```text
//! cargo test --release -p illixr-server --test fleet_sweep print_sweep_digests \
//!     -- --ignored --nocapture > digests.txt
//! ```
//!
//! and `diff` the two files: it prints one `seed digest` line for each
//! seed in 0..10 000, then one `tied seed digest` line for each seed of
//! the tied slice.

use std::time::Duration;

use illixr_core::boundary::{fnv1a, Xoshiro256pp};
use illixr_core::fault::{FaultKind, FaultPlan, FaultWindow};
use illixr_core::Time;
use illixr_server::{
    FailoverConfig, FailoverPolicy, LinkConfig, PlacementPolicy, SchedulerConfig, ServerBuilder,
    ServerReport, SessionConfig,
};

/// One session's drawn timing.
#[derive(Debug, Clone, Copy)]
struct SessionDraw {
    imu_hz: f64,
    connect_ns: u64,
    disconnect_ns: Option<u64>,
}

/// One seeded fleet.
#[derive(Debug, Clone)]
struct FleetCase {
    seed: u64,
    duration: Duration,
    shards: usize,
    workers: usize,
    link: LinkConfig,
    sessions: Vec<SessionDraw>,
    /// Link outage and jitter-spike windows: `(kind, target, start, end)`.
    link_faults: Vec<(FaultKind, &'static str, u64, u64)>,
    /// `WorkerCrash` windows: `(target, start)`, each 1 ns long.
    crashes: Vec<(String, u64)>,
    /// `None`: failover left at its default.
    failover: Option<FailoverConfig>,
    /// Whether a whole-run `CheckpointCorrupt` window covers every shard.
    checkpoint_corrupt: bool,
    scheduler: SchedulerConfig,
}

impl FleetCase {
    fn from_seed(seed: u64) -> Self {
        let mut rng = Xoshiro256pp::new(seed);
        let duration_ns = 400_000_000 + rng.below(600_000_000);
        let shards = 1 + rng.below(8) as usize;
        let workers = 1 + rng.below(2) as usize;
        let wide = rng.chance(0.5);
        let link = LinkConfig {
            uplink_bps: if wide { 30e9 } else { 150e6 },
            downlink_bps: if wide { 100e9 } else { 300e6 },
            base_latency: Duration::from_micros(500 + rng.below(4_500)),
            jitter_sigma: [0.0, 0.3, 0.8][rng.below(3) as usize],
            seed: rng.next_u64(),
        };
        let n = 1 + rng.below(43) as usize;
        let sessions = (0..n)
            .map(|_| {
                let imu_hz = if rng.chance(0.4) {
                    [250.0, 400.0, 500.0, 800.0, 1000.0][rng.below(5) as usize]
                } else {
                    rng.uniform(250.0..1000.0)
                };
                let connect_ns = match rng.below(3) {
                    0 => 0,
                    // On the session's own IMU step grid.
                    1 => {
                        let step = rng.below((duration_ns as f64 * imu_hz / 3e9) as u64 + 1);
                        Time::from_secs_f64(step as f64 / imu_hz).as_nanos()
                    }
                    _ => rng.below(duration_ns / 3),
                };
                let disconnect_ns = match rng.below(4) {
                    0 => Some(rng.below(connect_ns + 1)),
                    1 => Some(connect_ns + rng.below(duration_ns)),
                    _ => None,
                };
                SessionDraw { imu_hz, connect_ns, disconnect_ns }
            })
            .collect();
        let link_faults = (0..rng.below(3))
            .map(|_| {
                let kind = if rng.chance(0.5) {
                    FaultKind::LinkOutage
                } else {
                    FaultKind::LinkJitterSpike
                };
                let target = ["", "uplink", "downlink"][rng.below(3) as usize];
                let start = rng.below(duration_ns);
                (kind, target, start, start + 1_000_000 + rng.below(40_000_000))
            })
            .collect();
        let armed = rng.chance(0.7);
        let crashes = if armed {
            (0..rng.below(4))
                .map(|_| {
                    let target = if rng.chance(0.15) {
                        String::new()
                    } else {
                        format!("shard/{}", rng.below(shards as u64))
                    };
                    (target, rng.below(duration_ns))
                })
                .collect()
        } else {
            Vec::new()
        };
        let failover = armed.then(|| FailoverConfig {
            policy: [
                FailoverPolicy::Disabled,
                FailoverPolicy::RestartOnly,
                FailoverPolicy::CheckpointCatchup,
            ][rng.below(3) as usize],
            checkpoint_every: rng.chance(0.75).then(|| Duration::from_millis(20 + rng.below(300))),
        });
        let checkpoint_corrupt = armed && rng.chance(0.2);
        Self {
            seed,
            duration: Duration::from_nanos(duration_ns),
            shards,
            workers,
            link,
            sessions,
            link_faults,
            crashes,
            failover,
            checkpoint_corrupt,
            scheduler: SchedulerConfig::default(),
        }
    }

    /// `from_seed(seed)` with, drawn from a second generator seeded with
    /// `!seed`: an uplink of infinite bandwidth and a fixed 1, 2 or 4 ms
    /// latency without jitter (the downlink keeps its bandwidth), one
    /// 20–100 ms uplink outage as the only link fault, and
    /// `DeadlineAware` placement with a 12–41 ms deadline.
    fn tied(seed: u64) -> Self {
        let mut case = Self::from_seed(seed);
        let mut rng = Xoshiro256pp::new(!seed);
        case.link.uplink_bps = f64::INFINITY;
        case.link.base_latency = Duration::from_millis([1, 2, 4][rng.below(3) as usize]);
        case.link.jitter_sigma = 0.0;
        let start = rng.below(case.duration.as_nanos() as u64);
        let end = start + 20_000_000 + rng.below(80_000_001);
        case.link_faults = vec![(FaultKind::LinkOutage, "uplink", start, end)];
        let deadline = Duration::from_millis(12 + rng.below(30));
        case.scheduler.placement = PlacementPolicy::DeadlineAware { deadline };
        case
    }

    fn builder(&self) -> ServerBuilder {
        let mut plan = FaultPlan::new(self.seed);
        for &(kind, target, start, end) in &self.link_faults {
            plan = plan.with_window(FaultWindow::new(kind, target, start, end, 8.0));
        }
        for (target, start) in &self.crashes {
            plan = plan.with_window(FaultWindow::new(
                FaultKind::WorkerCrash,
                target,
                *start,
                start + 1,
                1.0,
            ));
        }
        if self.checkpoint_corrupt {
            plan = plan.with_window(FaultWindow::new(
                FaultKind::CheckpointCorrupt,
                "",
                0,
                u64::MAX,
                1.0,
            ));
        }
        let sessions = self.sessions.clone();
        let seed = self.seed;
        let mut builder = ServerBuilder::new()
            .sessions(sessions.len())
            .duration(self.duration)
            .shards(self.shards)
            .workers(self.workers)
            .link(self.link)
            .scheduler(self.scheduler)
            .fault_plan(plan)
            .tune(move |c| {
                for (i, (s, d)) in c.sessions.iter_mut().zip(&sessions).enumerate() {
                    *s = SessionConfig {
                        imu_hz: d.imu_hz,
                        connect_at: Time::from_nanos(d.connect_ns),
                        disconnect_at: d.disconnect_ns.map(Time::from_nanos),
                        ..SessionConfig::new(fnv1a(seed.to_le_bytes().into_iter().chain([i as u8])))
                    };
                }
            });
        if let Some(failover) = self.failover {
            builder = builder.failover(failover);
        }
        builder
    }
}

/// FNV-1a over the summary text, every session's telemetry and stream
/// counters, and every failover incident's exact instants.
fn report_digest(report: &ServerReport) -> u64 {
    let mut text = report.summary_text();
    for s in report.sessions() {
        text.push_str(&format!("{:?}\n{:?}\n", s.telemetry(), s.stream_stats()));
    }
    for i in &report.failover_incidents {
        text.push_str(&format!(
            "incident session={} crashed_at={} recovered_at={:?} mode={} lost={}\n",
            i.session,
            i.crashed_at.as_nanos(),
            i.recovered_at.map(Time::as_nanos),
            i.mode,
            i.lost_frames,
        ));
    }
    fnv1a(text.bytes())
}

fn case_digest(seed: u64) -> u64 {
    report_digest(&FleetCase::from_seed(seed).builder().build().run())
}

fn tied_digest(seed: u64) -> u64 {
    report_digest(&FleetCase::tied(seed).builder().build().run())
}

/// Digests of seeds 0..64.
const SLICE: [u64; 64] = [
    0xa9ce_d4ab_f24a_0919,
    0x0ff4_d760_4212_1584,
    0xcaec_4e33_f06c_1dff,
    0x4391_1a2c_f3b7_0129,
    0xefaa_7fa4_9be8_2e58,
    0xa83d_c54c_9a8b_9a1b,
    0x1feb_a6eb_3b95_7aa8,
    0x41ff_3b49_a9e5_b106,
    0x226b_ea85_9d9d_0d1e,
    0x7e0b_9231_c12f_3d6f,
    0xd086_740f_09f7_4015,
    0xbacd_3f8b_278b_0bb1,
    0xd254_69c3_a6e6_8791,
    0x7e59_f4f6_490b_82f4,
    0xb6b7_a665_6a09_b25c,
    0x3ccc_9500_950b_fda2,
    0xe78e_2db4_40f2_0601,
    0x01f1_76c7_9b5a_2388,
    0x63c7_062a_9a3a_b27a,
    0xaa65_1942_69d9_bf55,
    0x387a_62b4_9e62_35ee,
    0x3789_02aa_d24e_b6cb,
    0x2a6f_636b_ab19_efd8,
    0x1c15_24d0_3d92_02d8,
    0x449a_5673_cc91_b49c,
    0xc5fd_c3de_dd53_7a0c,
    0x0359_17e7_60e7_30d9,
    0x0922_9e3e_780a_712e,
    0x7cd1_3e7f_0b84_ac34,
    0x6326_b4c3_b305_2073,
    0x8183_9c6e_adc0_26f4,
    0x2bfa_a79a_0ea5_6f89,
    0x59b6_a584_0e2b_8963,
    0xf635_a29e_d7b9_19ed,
    0xe7ab_b8e7_70c1_c0be,
    0xe034_1de8_39b4_932a,
    0x2f1e_8555_f8ed_3067,
    0xdf20_f7fc_a1c5_6ae3,
    0xc1fe_19e9_707a_8cb5,
    0xce1a_1530_9f2c_588f,
    0xaf44_d3ae_8a4b_e54c,
    0xefb0_edea_a765_0607,
    0x515b_ce3d_6161_3534,
    0x59c8_259e_d343_57ab,
    0x8d94_7719_70d5_5ff2,
    0xf838_28e1_e477_d959,
    0xf565_e95f_1d4f_f051,
    0xe2a9_4181_b22c_6167,
    0x3e6f_ec85_1a56_d5e9,
    0x2a4a_c5bc_bddd_60a0,
    0xef32_47fe_8d02_d048,
    0x276f_63c4_a9d7_50ed,
    0xc1a9_83d3_f395_c57d,
    0xfd64_0097_7a78_79dd,
    0x2c2f_4a94_22ec_057a,
    0x3d9b_b692_4d0c_fcbb,
    0x5728_cdef_c527_9d05,
    0x467c_d99d_8ab7_5deb,
    0x4ff6_ccbf_1d26_9e4a,
    0x0e26_6cfa_74bf_b8f0,
    0xbd10_f1f3_79d4_a601,
    0xb320_1dad_e69f_ea7a,
    0x4fa6_dbb5_a59d_80aa,
    0x49cb_be7f_c042_4d31,
];

/// Digests of [`FleetCase::tied`] over seeds 0..32.
const TIED_SLICE: [u64; 32] = [
    0x3149_f106_d190_0e10,
    0x884c_6aef_0301_9a98,
    0xe274_761b_de34_421e,
    0x3e54_6f65_e72e_6439,
    0x9886_b0df_8300_f073,
    0x26d7_76ca_fe27_6e42,
    0xe335_d725_685a_82c2,
    0xad31_5e61_20ad_a688,
    0x0b77_3a06_c082_539a,
    0xb464_2af5_09b4_02db,
    0xffe0_0cb4_da03_dd40,
    0x03e2_6122_3cf2_bf28,
    0x6730_d141_6d77_b923,
    0x61d3_3792_404c_8d25,
    0xa4b3_a7b1_927a_a08f,
    0x9694_e39e_e892_e8fc,
    0x06d5_83d8_20b2_3f0a,
    0x49f6_6cce_1ad8_5cfc,
    0xb9fc_4eb1_a7b3_aac6,
    0x39b2_3721_693b_f580,
    0x48db_412e_36c4_6a9e,
    0x4b59_0b2c_e45a_9b79,
    0xfa4b_9b78_89a5_e966,
    0x47a1_1ea9_9e71_436a,
    0x4ceb_c260_7152_0c24,
    0x50d1_04c2_12b7_9cf2,
    0x1e5e_9844_d402_c9d5,
    0xcffd_f9f3_473b_36a4,
    0x41da_6de3_1b76_9ef7,
    0x3cb7_a14b_7e97_47f0,
    0x8dd5_790e_944e_3740,
    0x7523_c14d_2c54_02d4,
];

/// The seeds of `slice` whose digest changed, one `seed digest` line each.
fn changed(slice: &[u64], digest: fn(u64) -> u64) -> Vec<String> {
    (0..slice.len() as u64)
        .filter_map(|seed| {
            let d = digest(seed);
            (d != slice[seed as usize]).then(|| format!("{seed} {d:#018x}"))
        })
        .collect()
}

/// The committed slice: every digest still holds.
#[test]
fn sweep_slice_matches_committed_digests() {
    let changed = changed(&SLICE, case_digest);
    assert!(changed.is_empty(), "sweep digests changed:\n{}", changed.join("\n"));
}

/// The committed tied slice: every digest still holds.
#[test]
fn tied_slice_matches_committed_digests() {
    let changed = changed(&TIED_SLICE, tied_digest);
    assert!(changed.is_empty(), "tied digests changed:\n{}", changed.join("\n"));
}

/// One `seed digest` line for each seed in 0..10 000, then one `tied seed
/// digest` line for each seed of the tied slice (see the module doc).
#[test]
#[ignore]
fn print_sweep_digests() {
    for seed in 0..10_000 {
        println!("{seed} {:016x}", case_digest(seed));
    }
    for seed in 0..TIED_SLICE.len() as u64 {
        println!("tied {seed} {:016x}", tied_digest(seed));
    }
}
