//! The fault plan: *what* goes wrong, *where*, and *when*.
//!
//! A [`FaultPlan`] combines two deterministic fault sources:
//!
//! * **Scheduled windows** — explicit `[start, end)` intervals during
//!   which one [`FaultKind`] afflicts one target (a plugin, stream or
//!   link name). Windows model macro events: a Wi-Fi outage, a camera
//!   freezing, a component crashing at a known instant.
//! * **Stochastic faults** — per-event Bernoulli trials whose
//!   probabilities scale with the plan's `intensity`. Trials are
//!   stateless hashes of `(seed, kind, target, event index)` (see
//!   [`crate::rng`]), so the same plan produces the same faults
//!   regardless of query order or count.
//!
//! A plan with zero intensity and no windows is a guaranteed no-op:
//! every query returns the no-fault answer, which is what keeps the
//! default runtime path bit-identical to a build without fault
//! injection at all.

use illixr_trace::{fnv1a, splitmix64};

use crate::rng;

/// One second in the plan's raw-nanosecond time base.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// The kinds of fault the plan can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A camera frame is dropped (never published).
    CameraDrop,
    /// The camera repeats its last frame instead of a fresh one.
    CameraFreeze,
    /// An IMU sample is swallowed (sensor gap).
    ImuGap,
    /// A constant accelerometer bias is added (magnitude = m/s²).
    ImuBiasJump,
    /// Sensor noise is amplified (magnitude = extra deviation scale).
    ImuNoiseBurst,
    /// A link delivers nothing until the window closes.
    LinkOutage,
    /// Link jitter/latency is multiplied by the magnitude.
    LinkJitterSpike,
    /// A link message is delivered twice.
    LinkDuplicate,
    /// A link message is delivered after its successor.
    LinkReorder,
    /// A plugin panics at its next iteration inside the window.
    PluginCrash,
    /// An engine shard dies at its next batch inside the window
    /// (target `shard/{N}`, or empty for every shard). The sessions on
    /// that shard are quarantined until failover recovers them.
    WorkerCrash,
    /// A checkpoint restored inside the window is corrupt (target as
    /// for `WorkerCrash`).
    CheckpointCorrupt,
}

impl FaultKind {
    /// Stable label for telemetry tracks and artifacts.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FaultKind::CameraDrop => "camera_drop",
            FaultKind::CameraFreeze => "camera_freeze",
            FaultKind::ImuGap => "imu_gap",
            FaultKind::ImuBiasJump => "imu_bias_jump",
            FaultKind::ImuNoiseBurst => "imu_noise_burst",
            FaultKind::LinkOutage => "link_outage",
            FaultKind::LinkJitterSpike => "link_jitter_spike",
            FaultKind::LinkDuplicate => "link_duplicate",
            FaultKind::LinkReorder => "link_reorder",
            FaultKind::PluginCrash => "plugin_crash",
            FaultKind::WorkerCrash => "worker_crash",
            FaultKind::CheckpointCorrupt => "checkpoint_corrupt",
        }
    }

    /// True for the kinds the sensor plugins inject (the
    /// [`crate::SensorFaults`] queries).
    fn is_sensor(self) -> bool {
        matches!(
            self,
            FaultKind::CameraDrop
                | FaultKind::CameraFreeze
                | FaultKind::ImuGap
                | FaultKind::ImuBiasJump
                | FaultKind::ImuNoiseBurst
        )
    }

    fn salt(self) -> u64 {
        // Distinct fixed salts keep the per-kind hash streams disjoint.
        match self {
            FaultKind::CameraDrop => 0xCAD0,
            FaultKind::CameraFreeze => 0xCAF1,
            FaultKind::ImuGap => 0x16A2,
            FaultKind::ImuBiasJump => 0x16B3,
            FaultKind::ImuNoiseBurst => 0x16C4,
            FaultKind::LinkOutage => 0x7105,
            FaultKind::LinkJitterSpike => 0x7116,
            FaultKind::LinkDuplicate => 0x7127,
            FaultKind::LinkReorder => 0x7138,
            FaultKind::PluginCrash => 0xC0A9,
            FaultKind::WorkerCrash => 0x3CAF,
            FaultKind::CheckpointCorrupt => 0x3CB0,
        }
    }
}

/// A scheduled fault: `kind` afflicts `target` during `[start, end)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultWindow {
    /// What goes wrong.
    pub kind: FaultKind,
    /// The afflicted plugin/stream/link name; empty matches any target.
    pub target: String,
    /// Window start, inclusive, nanoseconds.
    pub start_ns: u64,
    /// Window end, exclusive, nanoseconds.
    pub end_ns: u64,
    /// Kind-specific strength (bias in m/s², jitter multiplier,
    /// per-event probability, …). Windows with no natural strength
    /// use 1.0.
    pub magnitude: f64,
}

impl FaultWindow {
    /// Builds a window.
    pub fn new(kind: FaultKind, target: &str, start_ns: u64, end_ns: u64, magnitude: f64) -> Self {
        Self { kind, target: target.to_owned(), start_ns, end_ns, magnitude }
    }

    /// True while `now_ns` is inside the window.
    pub(crate) fn active(&self, now_ns: u64) -> bool {
        self.start_ns <= now_ns && now_ns < self.end_ns
    }

    /// True when the window applies to `target` (empty = wildcard).
    pub(crate) fn applies_to(&self, target: &str) -> bool {
        self.target.is_empty() || self.target == target
    }
}

/// Per-event fault probabilities, all scaled by the plan intensity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StochasticRates {
    /// Probability a camera frame is dropped.
    pub camera_drop: f64,
    /// Probability an IMU sample is swallowed.
    pub imu_gap: f64,
    /// Probability a link message is duplicated.
    pub link_duplicate: f64,
    /// Probability a link message is reordered past its successor.
    pub link_reorder: f64,
}

impl StochasticRates {
    /// All-zero rates: no stochastic faults.
    pub const ZERO: Self =
        Self { camera_drop: 0.0, imu_gap: 0.0, link_duplicate: 0.0, link_reorder: 0.0 };

    /// The canonical rates at intensity 1.0, used by
    /// [`FaultPlan::scheduled`].
    pub(crate) fn nominal(intensity: f64) -> Self {
        Self {
            camera_drop: 0.15 * intensity,
            imu_gap: 0.05 * intensity,
            link_duplicate: 0.04 * intensity,
            link_reorder: 0.04 * intensity,
        }
    }
}

/// A complete, deterministic fault schedule for one run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    intensity: f64,
    rates: StochasticRates,
    windows: Vec<FaultWindow>,
    /// No sensor fault can fire: no sensor window and no sensor rate
    /// that a trial could draw. Settled whenever the plan changes, so
    /// the sensor plugins' per-tick check reads one flag.
    sensors_quiet: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::quiet()
    }
}

impl FaultPlan {
    /// The no-op plan: zero intensity, no windows. Every query returns
    /// the no-fault answer.
    pub fn quiet() -> Self {
        Self { intensity: 0.0, ..Self::new(0) }
    }

    /// An empty plan seeded for stochastic faults; add windows and
    /// rates with the builder methods.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            intensity: 1.0,
            rates: StochasticRates::ZERO,
            windows: Vec::new(),
            sensors_quiet: true,
        }
    }

    /// Adds a scheduled window.
    pub fn with_window(mut self, window: FaultWindow) -> Self {
        self.windows.push(window);
        self.settled()
    }

    /// Sets the per-event stochastic rates.
    pub fn with_rates(mut self, rates: StochasticRates) -> Self {
        self.rates = rates;
        self.settled()
    }

    /// Recomputes [`FaultPlan::sensors_quiet`] after a change.
    fn settled(mut self) -> Self {
        self.sensors_quiet = !self.windows.iter().any(|w| w.kind.is_sensor())
            && self.stochastic_off(self.rates.camera_drop)
            && self.stochastic_off(self.rates.imu_gap);
        self
    }

    /// The canonical stress plan for a run of `duration_ns`: nominal
    /// stochastic rates scaled by `intensity`, a mid-run link outage, a
    /// camera freeze, an IMU bias jump with a noise burst, a link
    /// jitter spike, a `vio` crash and an `imu_integrator` crash — every
    /// window placed at a fixed fraction of the run so plans for equal
    /// `(seed, intensity, duration)` are identical. Intensity ≤ 0
    /// returns the quiet plan.
    ///
    /// The two crash targets probe different failure surfaces: `vio` is
    /// the heavyweight plugin (its death degrades pose *accuracy*),
    /// while `imu_integrator` sits mid-chain in the motion-to-photon
    /// path (its death freezes the chain's published origin, so an
    /// unsupervised runtime misses every subsequent chain deadline).
    pub fn scheduled(seed: u64, intensity: f64, duration_ns: u64) -> Self {
        if intensity <= 0.0 {
            return Self::quiet();
        }
        let at = |frac: f64| (duration_ns as f64 * frac) as u64;
        let span = |from: f64, width: f64| (at(from), at(from) + (at(width).max(1)));
        let (o_start, o_end) = span(0.30, 0.04 * intensity.min(2.0));
        let (f_start, f_end) = span(0.50, 0.03 * intensity.min(2.0));
        let (b_start, b_end) = span(0.60, 0.10);
        let (n_start, n_end) = span(0.40, 0.05);
        let (j_start, j_end) = span(0.20, 0.08);
        let crash_at = at(0.35);
        let integ_crash_at = at(0.45);
        Self {
            seed,
            intensity,
            rates: StochasticRates::nominal(intensity),
            sensors_quiet: false,
            windows: vec![
                FaultWindow::new(FaultKind::LinkOutage, "", o_start, o_end, 1.0),
                FaultWindow::new(FaultKind::CameraFreeze, "camera", f_start, f_end, 1.0),
                FaultWindow::new(FaultKind::ImuBiasJump, "imu", b_start, b_end, 0.25 * intensity),
                FaultWindow::new(
                    FaultKind::ImuNoiseBurst,
                    "imu",
                    n_start,
                    n_end,
                    1.0 + 3.0 * intensity,
                ),
                FaultWindow::new(
                    FaultKind::LinkJitterSpike,
                    "",
                    j_start,
                    j_end,
                    1.0 + 5.0 * intensity,
                ),
                FaultWindow::new(FaultKind::PluginCrash, "vio", crash_at, crash_at + 1, 1.0),
                FaultWindow::new(
                    FaultKind::PluginCrash,
                    "imu_integrator",
                    integ_crash_at,
                    integ_crash_at + 1,
                    1.0,
                ),
            ],
        }
        .settled()
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled windows.
    #[cfg(test)]
    pub(crate) fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The effective stochastic rates (already intensity-independent:
    /// scaling happens at trial time).
    pub(crate) fn rates(&self) -> &StochasticRates {
        &self.rates
    }

    /// True when the plan can never inject anything — the fast path the
    /// runtime checks before consulting any fault logic.
    pub fn is_quiet(&self) -> bool {
        self.windows.is_empty() && (self.intensity == 0.0 || self.rates == StochasticRates::ZERO)
    }

    /// True when no sensor fault can fire for any target: every
    /// [`crate::SensorFaults`] query returns the no-fault answer. A plan
    /// of engine-side windows only (`WorkerCrash`, `CheckpointCorrupt`)
    /// or link faults only is sensor-quiet, though not quiet.
    pub fn sensors_quiet(&self) -> bool {
        self.sensors_quiet
    }

    /// True when a trial at probability `p` can never fire.
    fn stochastic_off(&self, p: f64) -> bool {
        self.intensity <= 0.0 || p <= 0.0
    }

    /// The first active window of `kind` for `target` at `now_ns`.
    pub(crate) fn active_window(
        &self,
        kind: FaultKind,
        target: &str,
        now_ns: u64,
    ) -> Option<&FaultWindow> {
        self.windows.iter().find(|w| w.kind == kind && w.applies_to(target) && w.active(now_ns))
    }

    /// A deterministic Bernoulli trial for event `seq` of `kind` at
    /// `target`, with probability `p · intensity` clamped to `[0, 1]`.
    pub(crate) fn trial(&self, kind: FaultKind, target: &str, seq: u64, p: f64) -> bool {
        if self.stochastic_off(p) {
            return false;
        }
        let key = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ kind.salt().rotate_left(17)
            ^ fnv1a(target.bytes())
            ^ splitmix64(seq);
        rng::chance(key, (p * self.intensity).min(1.0))
    }

    /// A deterministic bounded perturbation in `[-1, 1]` for event
    /// `seq` of `kind` at `target` (noise bursts use it).
    pub(crate) fn perturb(&self, kind: FaultKind, target: &str, seq: u64) -> f64 {
        let key = self.seed ^ kind.salt().rotate_left(29) ^ fnv1a(target.bytes()) ^ splitmix64(seq);
        rng::signed_unit(key)
    }

    /// How many [`FaultKind::PluginCrash`] windows for `plugin` have
    /// opened by `now_ns`. This is the counting primitive behind
    /// [`FaultPlan::crash_due`]; use that for the fire/don't-fire
    /// decision.
    pub fn crash_count_through(&self, plugin: &str, now_ns: u64) -> u32 {
        self.windows
            .iter()
            .filter(|w| {
                w.kind == FaultKind::PluginCrash && w.applies_to(plugin) && w.start_ns <= now_ns
            })
            .count() as u32
    }

    /// True when `plugin` owes a panic at `release_ns`: the number of
    /// crash windows opened so far exceeds `fired`, the caller's count
    /// of panics already delivered. One panic per opened window — the
    /// same contract `Boundary::crash_due` records and replays (see the
    /// `illixr-trace` crate docs for the crash-record replay contract).
    pub fn crash_due(&self, plugin: &str, release_ns: u64, fired: u32) -> bool {
        self.crash_count_through(plugin, release_ns) > fired
    }

    /// How many [`FaultKind::WorkerCrash`] windows for `target` (an
    /// engine shard, named `shard/{N}`; empty window targets match
    /// every shard) have opened by `now_ns`. The engine kills the
    /// worker once per opened window, mirroring the plugin-crash
    /// fired-count discipline.
    pub fn worker_crashes_due(&self, target: &str, now_ns: u64) -> u32 {
        self.windows
            .iter()
            .filter(|w| {
                w.kind == FaultKind::WorkerCrash && w.applies_to(target) && w.start_ns <= now_ns
            })
            .count() as u32
    }

    /// The instant [`FaultPlan::worker_crashes_due`] for `target` first
    /// exceeds `fired`: the start of the next window to fire once `fired`
    /// have. `None` when no window is left.
    pub fn next_worker_crash(&self, target: &str, fired: u32) -> Option<u64> {
        let mut starts: Vec<u64> = self
            .windows
            .iter()
            .filter(|w| w.kind == FaultKind::WorkerCrash && w.applies_to(target))
            .map(|w| w.start_ns)
            .collect();
        starts.sort_unstable();
        starts.get(fired as usize).copied()
    }

    /// Whether a checkpoint that `target` (an engine shard, `shard/{N}`)
    /// restores at `now_ns` is corrupt: a
    /// [`FaultKind::CheckpointCorrupt`] window for it is open.
    pub fn checkpoint_corrupt(&self, target: &str, now_ns: u64) -> bool {
        self.active_window(FaultKind::CheckpointCorrupt, target, now_ns).is_some()
    }

    /// Whether any [`FaultKind::WorkerCrash`] window exists at all —
    /// the engine only arms its failover machinery when one does (or
    /// when failover was configured explicitly).
    pub fn has_worker_crashes(&self) -> bool {
        self.windows.iter().any(|w| w.kind == FaultKind::WorkerCrash)
    }

    /// One deterministic line per window plus the stochastic rates —
    /// the artifact header fault_sweep embeds so same-seed reruns can
    /// be compared bit for bit.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "fault_plan seed={} intensity={:.3} windows={}",
            self.seed,
            self.intensity,
            self.windows.len()
        )
        .expect("write to String cannot fail");
        for w in &self.windows {
            writeln!(
                out,
                "  {} target={} start_ms={:.3} end_ms={:.3} magnitude={:.3}",
                w.kind.label(),
                if w.target.is_empty() { "*" } else { &w.target },
                w.start_ns as f64 / 1e6,
                w.end_ns as f64 / 1e6,
                w.magnitude,
            )
            .expect("write to String cannot fail");
        }
        writeln!(
            out,
            "  rates camera_drop={:.4} imu_gap={:.4} link_duplicate={:.4} link_reorder={:.4}",
            self.rates.camera_drop,
            self.rates.imu_gap,
            self.rates.link_duplicate,
            self.rates.link_reorder,
        )
        .expect("write to String cannot fail");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_answers_no_to_everything() {
        let p = FaultPlan::quiet();
        assert!(p.is_quiet());
        assert!(!p.trial(FaultKind::CameraDrop, "camera", 7, 1.0));
        assert!(p.active_window(FaultKind::LinkOutage, "link", 0).is_none());
        assert_eq!(p.crash_count_through("vio", u64::MAX), 0);
        assert!(!p.crash_due("vio", u64::MAX, 0));
        assert_eq!(p.worker_crashes_due("shard/0", u64::MAX), 0);
        assert!(!p.checkpoint_corrupt("shard/0", 0));
    }

    #[test]
    fn only_sensor_faults_break_sensor_quiet() {
        assert!(FaultPlan::quiet().sensors_quiet());
        let engine_only = FaultPlan::new(3)
            .with_window(FaultWindow::new(FaultKind::WorkerCrash, "shard/0", 10, 20, 1.0))
            .with_window(FaultWindow::new(FaultKind::CheckpointCorrupt, "", 30, 40, 1.0));
        assert!(!engine_only.is_quiet());
        assert!(engine_only.sensors_quiet(), "engine-side windows never reach a sensor");
        let camera_drop =
            engine_only.with_window(FaultWindow::new(FaultKind::CameraDrop, "camera", 0, 5, 1.0));
        assert!(!camera_drop.sensors_quiet());
        let link_rates = StochasticRates { link_duplicate: 0.5, ..StochasticRates::ZERO };
        assert!(FaultPlan::new(3).with_rates(link_rates).sensors_quiet());
        let imu_rates = StochasticRates { imu_gap: 0.5, ..StochasticRates::ZERO };
        assert!(!FaultPlan::new(3).with_rates(imu_rates).sensors_quiet());
        assert!(!FaultPlan::scheduled(3, 1.0, NS_PER_SEC).sensors_quiet());
    }

    #[test]
    fn zero_intensity_scheduled_plan_is_quiet() {
        let p = FaultPlan::scheduled(99, 0.0, 30 * NS_PER_SEC);
        assert!(p.is_quiet());
        assert_eq!(p, FaultPlan::quiet());
    }

    #[test]
    fn scheduled_plans_are_reproducible() {
        let a = FaultPlan::scheduled(7, 0.5, 10 * NS_PER_SEC);
        let b = FaultPlan::scheduled(7, 0.5, 10 * NS_PER_SEC);
        assert_eq!(a, b);
        assert_eq!(a.summary(), b.summary());
        let c = FaultPlan::scheduled(8, 0.5, 10 * NS_PER_SEC);
        // Same windows (placement is fraction-based) but different
        // stochastic stream.
        let fired = |p: &FaultPlan| {
            (0..1000).filter(|&s| p.trial(FaultKind::CameraDrop, "camera", s, 0.5)).count()
        };
        assert_ne!(fired(&a), 0);
        let seqs_a: Vec<u64> =
            (0..1000).filter(|&s| a.trial(FaultKind::CameraDrop, "camera", s, 0.5)).collect();
        let seqs_c: Vec<u64> =
            (0..1000).filter(|&s| c.trial(FaultKind::CameraDrop, "camera", s, 0.5)).collect();
        assert_ne!(seqs_a, seqs_c, "different seeds must fire different events");
        // Pinned across commits: which events fire, and how far a noise
        // burst pushes each sample.
        assert_eq!(seqs_a[..8], [1, 2, 4, 5, 8, 11, 15, 21]);
        let pushes: Vec<u64> =
            (0..4).map(|s| a.perturb(FaultKind::ImuNoiseBurst, "imu", s).to_bits()).collect();
        let want = [
            0xbfe7_9896_aab7_856a,
            0x3fe7_7b8a_c567_9246,
            0x3fee_3b07_6da3_d31c,
            0xbfdb_f0f4_e03a_e17c,
        ];
        assert_eq!(pushes, want, "got {pushes:#018x?}");
    }

    #[test]
    fn windows_respect_target_and_interval() {
        let p = FaultPlan::new(1).with_window(FaultWindow::new(
            FaultKind::LinkOutage,
            "uplink",
            100,
            200,
            1.0,
        ));
        assert!(p.active_window(FaultKind::LinkOutage, "uplink", 150).is_some());
        assert!(p.active_window(FaultKind::LinkOutage, "uplink", 200).is_none());
        assert!(p.active_window(FaultKind::LinkOutage, "downlink", 150).is_none());
        let any = FaultPlan::new(1).with_window(FaultWindow::new(
            FaultKind::LinkOutage,
            "",
            100,
            200,
            1.0,
        ));
        assert!(any.active_window(FaultKind::LinkOutage, "downlink", 150).is_some());
    }

    #[test]
    fn crash_count_is_monotone_in_time() {
        let p = FaultPlan::new(3)
            .with_window(FaultWindow::new(FaultKind::PluginCrash, "vio", 100, 101, 1.0))
            .with_window(FaultWindow::new(FaultKind::PluginCrash, "vio", 500, 501, 1.0));
        assert_eq!(p.crash_count_through("vio", 0), 0);
        assert_eq!(p.crash_count_through("vio", 100), 1);
        assert_eq!(p.crash_count_through("vio", 499), 1);
        assert_eq!(p.crash_count_through("vio", 500), 2);
        assert_eq!(p.crash_count_through("timewarp", 500), 0);
        // The predicate fires exactly once per opened window.
        assert!(p.crash_due("vio", 100, 0));
        assert!(!p.crash_due("vio", 100, 1));
        assert!(p.crash_due("vio", 500, 1));
        assert!(!p.crash_due("vio", 500, 2));
    }

    #[test]
    fn worker_crash_windows_count_per_shard() {
        let p = FaultPlan::new(4)
            .with_window(FaultWindow::new(FaultKind::WorkerCrash, "shard/3", 100, 101, 1.0))
            .with_window(FaultWindow::new(FaultKind::WorkerCrash, "", 500, 501, 1.0));
        assert_eq!(p.worker_crashes_due("shard/3", 0), 0);
        assert_eq!(p.worker_crashes_due("shard/3", 100), 1);
        assert_eq!(p.worker_crashes_due("shard/0", 100), 0);
        // The wildcard window hits every shard.
        assert_eq!(p.worker_crashes_due("shard/3", 500), 2);
        assert_eq!(p.worker_crashes_due("shard/0", 500), 1);
        // Worker crashes never count as plugin crashes, or vice versa.
        assert_eq!(p.crash_count_through("shard/3", u64::MAX), 0);
        // The next window to fire, whatever order the windows were added in.
        assert_eq!(p.next_worker_crash("shard/3", 0), Some(100));
        assert_eq!(p.next_worker_crash("shard/3", 1), Some(500));
        assert_eq!(p.next_worker_crash("shard/3", 2), None);
        assert_eq!(p.next_worker_crash("shard/0", 0), Some(500));
        let reversed = FaultPlan::new(4)
            .with_window(FaultWindow::new(FaultKind::WorkerCrash, "", 500, 501, 1.0))
            .with_window(FaultWindow::new(FaultKind::WorkerCrash, "shard/3", 100, 101, 1.0));
        assert_eq!(reversed.next_worker_crash("shard/3", 0), Some(100));
    }

    #[test]
    fn checkpoint_corruption_is_per_shard_and_windowed() {
        let p = FaultPlan::new(4)
            .with_window(FaultWindow::new(FaultKind::CheckpointCorrupt, "shard/1", 100, 200, 1.0))
            .with_window(FaultWindow::new(FaultKind::WorkerCrash, "", 0, u64::MAX, 1.0));
        assert!(p.checkpoint_corrupt("shard/1", 100));
        assert!(!p.checkpoint_corrupt("shard/1", 200), "the window is half-open");
        assert!(!p.checkpoint_corrupt("shard/0", 150), "another shard's checkpoints are sound");
        // Corruption never counts as a crash.
        assert_eq!(p.worker_crashes_due("shard/1", 150), 1);
    }

    #[test]
    fn trials_scale_with_intensity() {
        let lo = FaultPlan::scheduled(5, 0.2, NS_PER_SEC);
        let hi = FaultPlan::scheduled(5, 1.0, NS_PER_SEC);
        let count = |p: &FaultPlan| {
            (0..5000).filter(|&s| p.trial(FaultKind::CameraDrop, "camera", s, 0.15)).count()
        };
        assert!(count(&hi) > 2 * count(&lo), "hi {} vs lo {}", count(&hi), count(&lo));
    }

    #[test]
    fn summary_mentions_every_window() {
        let p = FaultPlan::scheduled(11, 0.7, 20 * NS_PER_SEC);
        let s = p.summary();
        for w in p.windows() {
            assert!(s.contains(w.kind.label()), "summary missing {}", w.kind.label());
        }
    }
}
