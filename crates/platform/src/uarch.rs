//! Analytical microarchitecture model (paper Fig 8).
//!
//! The paper derives per-component IPC and top-down cycle breakdowns
//! (retiring / bad-speculation / frontend-bound / backend-bound) from
//! VTune's microarchitectural exploration. Without hardware counters,
//! ILLIXR-rs computes the same quantities from a documented analytical
//! pipeline model: each component supplies an [`OpMix`] describing its
//! instruction mix, vectorization, working set, instruction footprint and
//! branch behaviour (hand-derived from the actual algorithm
//! implementations in this workspace), and the model maps it onto a
//! 4-wide out-of-order core.
//!
//! The top-down identity `retiring = IPC / issue_width` holds by
//! construction, matching the paper's data (e.g. audio playback:
//! IPC 3.5 ↔ 86 % retiring; audio encoding: IPC 2.5 ↔ 69 % retiring).

/// Issue width of the modeled core.
pub(crate) const ISSUE_WIDTH: f64 = 4.0;

/// An instruction-mix profile for one component or task.
///
/// Fractions should sum to approximately 1; `OpMix::normalized` fixes
/// up small deviations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Simple ALU / address arithmetic.
    pub int_ops: f64,
    /// Floating-point multiply-add work.
    pub fp_ops: f64,
    /// Divisions and modulo (single hardware divider — the audio
    /// encoding bottleneck).
    pub div_ops: f64,
    /// Transcendentals (sin/cos/exp — hologram).
    pub transcendental_ops: f64,
    /// Loads.
    pub loads: f64,
    /// Stores.
    pub stores: f64,
    /// Branches.
    pub branches: f64,
    /// Fraction of FP work that is vectorized (0 = scalar, 1 = full SIMD).
    pub vectorization: f64,
    /// Data working-set size in KiB (drives backend memory stalls).
    pub working_set_kib: f64,
    /// Instruction footprint in KiB (drives frontend stalls — the GPU
    /// driver's huge footprint is what tanks reprojection's IPC).
    pub instruction_kib: f64,
    /// Branch misprediction rate in mispredicts per branch.
    pub branch_miss_rate: f64,
    /// Fraction of loads covered by the demand prefetcher (the paper
    /// observes prefetchers are very effective for VIO).
    pub prefetch_coverage: f64,
}

impl OpMix {
    /// Returns the mix with instruction-class fractions normalized to
    /// sum to 1.
    pub(crate) fn normalized(mut self) -> Self {
        let sum = self.int_ops
            + self.fp_ops
            + self.div_ops
            + self.transcendental_ops
            + self.loads
            + self.stores
            + self.branches;
        if sum > 0.0 {
            self.int_ops /= sum;
            self.fp_ops /= sum;
            self.div_ops /= sum;
            self.transcendental_ops /= sum;
            self.loads /= sum;
            self.stores /= sum;
            self.branches /= sum;
        }
        self
    }
}

/// Top-down cycle accounting, fractions summing to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleBreakdown {
    /// Useful work.
    pub retiring: f64,
    /// Wasted by branch mispredictions.
    pub bad_speculation: f64,
    /// Instruction-supply stalls.
    pub frontend_bound: f64,
    /// Execution/memory stalls.
    pub backend_bound: f64,
    /// Instructions per cycle.
    pub ipc: f64,
}

/// The analytical pipeline model.
#[derive(Debug, Clone, Copy, Default)]
pub struct UarchModel;

impl UarchModel {
    /// Creates the model.
    pub fn new() -> Self {
        Self
    }

    /// Evaluates a profile.
    pub fn evaluate(&self, mix: &OpMix) -> CycleBreakdown {
        let m = mix.normalized();

        // Execution throughput in ops/cycle per class. Vectorized FP
        // retires multiple elements per µop, modeled as higher throughput.
        let fp_throughput = 2.0 * (1.0 + 3.0 * m.vectorization.clamp(0.0, 1.0));
        let cpi_compute = m.int_ops / 4.0
            + m.fp_ops / fp_throughput
            + m.div_ops / (1.0 / 12.0)
            + m.transcendental_ops / (1.0 / 9.0)
            + m.loads / 2.5
            + m.stores / 1.5
            + m.branches / 2.0;

        // Memory hierarchy: miss rate and latency from the working set.
        let (miss_rate, latency) = memory_tier(m.working_set_kib);
        let effective_misses = miss_rate * (1.0 - m.prefetch_coverage.clamp(0.0, 1.0));
        let cpi_memory = m.loads * effective_misses * latency
            // OoO cores hide a large part of the latency; keep ~25 %.
            * 0.25;

        // Frontend: an instruction footprint beyond the 32 KiB L1i incurs
        // fetch stalls roughly proportional to the overflow.
        let icache_kib = 32.0;
        let cpi_frontend = if m.instruction_kib > icache_kib {
            0.6 * ((m.instruction_kib / icache_kib).ln())
        } else {
            0.0
        };

        // Bad speculation: ~16-cycle flush per mispredicted branch.
        let cpi_badspec = m.branches * m.branch_miss_rate.clamp(0.0, 1.0) * 16.0;

        let cpi_base = (1.0 / ISSUE_WIDTH).max(cpi_compute);
        let cpi_total = cpi_base + cpi_memory + cpi_frontend + cpi_badspec;
        let ipc = (1.0 / cpi_total).min(ISSUE_WIDTH);

        // Top-down attribution: retiring is the fraction of issue slots
        // doing useful work; the remainder splits proportionally to the
        // stall CPIs.
        let retiring = ipc / ISSUE_WIDTH;
        let stall_total = (cpi_base - 1.0 / ISSUE_WIDTH) + cpi_memory + cpi_frontend + cpi_badspec;
        let lost = (1.0 - retiring).max(0.0);
        let (bad, front, back) = if stall_total > 1e-12 {
            let backend_cpi = (cpi_base - 1.0 / ISSUE_WIDTH) + cpi_memory;
            (
                lost * cpi_badspec / stall_total,
                lost * cpi_frontend / stall_total,
                lost * backend_cpi / stall_total,
            )
        } else {
            (0.0, 0.0, lost)
        };
        CycleBreakdown {
            retiring,
            bad_speculation: bad,
            frontend_bound: front,
            backend_bound: back,
            ipc,
        }
    }
}

/// Returns `(miss_rate_per_load, miss_latency_cycles)` for a working set.
fn memory_tier(working_set_kib: f64) -> (f64, f64) {
    if working_set_kib <= 32.0 {
        (0.01, 4.0) // L1-resident
    } else if working_set_kib <= 256.0 {
        (0.05, 14.0) // L2-resident
    } else if working_set_kib <= 12_288.0 {
        (0.10, 44.0) // LLC-resident
    } else {
        (0.25, 220.0) // DRAM-bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A balanced default mix (compute-light scalar code).
    fn balanced() -> OpMix {
        OpMix {
            int_ops: 0.30,
            fp_ops: 0.20,
            div_ops: 0.0,
            transcendental_ops: 0.0,
            loads: 0.25,
            stores: 0.10,
            branches: 0.15,
            vectorization: 0.0,
            working_set_kib: 64.0,
            instruction_kib: 16.0,
            branch_miss_rate: 0.02,
            prefetch_coverage: 0.5,
        }
    }

    fn vectorized_compute() -> OpMix {
        OpMix {
            int_ops: 0.15,
            fp_ops: 0.45,
            div_ops: 0.0,
            transcendental_ops: 0.0,
            loads: 0.20,
            stores: 0.08,
            branches: 0.12,
            vectorization: 0.9,
            working_set_kib: 64.0,
            instruction_kib: 12.0,
            branch_miss_rate: 0.005,
            prefetch_coverage: 0.8,
        }
    }

    fn driver_bound() -> OpMix {
        OpMix {
            int_ops: 0.35,
            fp_ops: 0.05,
            div_ops: 0.0,
            transcendental_ops: 0.0,
            loads: 0.30,
            stores: 0.10,
            branches: 0.20,
            vectorization: 0.0,
            working_set_kib: 4096.0,
            instruction_kib: 512.0,
            branch_miss_rate: 0.05,
            prefetch_coverage: 0.2,
        }
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let model = UarchModel::new();
        for mix in [balanced(), vectorized_compute(), driver_bound()] {
            let b = model.evaluate(&mix);
            let sum = b.retiring + b.bad_speculation + b.frontend_bound + b.backend_bound;
            assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        }
    }

    #[test]
    fn topdown_identity_holds() {
        let model = UarchModel::new();
        let b = model.evaluate(&vectorized_compute());
        assert!((b.retiring - b.ipc / ISSUE_WIDTH).abs() < 1e-12);
    }

    #[test]
    fn vectorized_compute_achieves_high_ipc() {
        let b = UarchModel::new().evaluate(&vectorized_compute());
        assert!(b.ipc > 2.5, "ipc {}", b.ipc);
        assert!(b.retiring > 0.6);
    }

    #[test]
    fn driver_bound_code_has_low_ipc_and_frontend_stalls() {
        let b = UarchModel::new().evaluate(&driver_bound());
        assert!(b.ipc < 1.0, "ipc {}", b.ipc);
        assert!(b.frontend_bound > 0.15, "frontend {}", b.frontend_bound);
    }

    #[test]
    fn divider_limits_ipc() {
        let mut mix = vectorized_compute();
        mix.div_ops = 0.10;
        mix.fp_ops -= 0.10;
        let with_div = UarchModel::new().evaluate(&mix);
        let without = UarchModel::new().evaluate(&vectorized_compute());
        assert!(with_div.ipc < without.ipc);
    }

    #[test]
    fn larger_working_set_increases_backend_stalls() {
        let model = UarchModel::new();
        let mut small = balanced();
        small.working_set_kib = 16.0;
        let mut large = balanced();
        large.working_set_kib = 100_000.0;
        let bs = model.evaluate(&small);
        let bl = model.evaluate(&large);
        assert!(bl.backend_bound > bs.backend_bound);
        assert!(bl.ipc < bs.ipc);
    }

    #[test]
    fn branch_misses_create_bad_speculation() {
        let model = UarchModel::new();
        let mut missy = balanced();
        missy.branch_miss_rate = 0.15;
        let b = model.evaluate(&missy);
        assert!(b.bad_speculation > 0.1, "bad spec {}", b.bad_speculation);
    }

    #[test]
    fn ipc_bounded_by_issue_width() {
        let mut mix = vectorized_compute();
        mix.vectorization = 1.0;
        mix.int_ops = 1.0;
        let b = UarchModel::new().evaluate(&mix.normalized());
        assert!(b.ipc <= ISSUE_WIDTH + 1e-12);
    }
}
