//! Paired repetitions: the same configuration run with one switch
//! flipped through the public builder, alternating which side goes
//! first, so the ratio isolates what the switch costs on the host.

use std::sync::Arc;
use std::time::Instant;

use illixr_server::{ServerBuilder, ServerReport};
use illixr_trace::Trace;

use crate::stats::median;
use crate::workloads::{
    edge_thin_builder, failover_builder, fan_out_builder, record_builder, server_rep, Rep,
};

/// Pairs per switch; the reported ratio is the median pair's.
const PAIRS: usize = 3;

fn timed(builder: &ServerBuilder) -> (ServerReport, f64) {
    let t = Instant::now();
    let report = builder.clone().build().run();
    (report, t.elapsed().as_secs_f64())
}

/// Median over [`PAIRS`] of `wall(on) / wall(off)`, alternating order.
fn on_over_off(on: &ServerBuilder, off: &ServerBuilder) -> f64 {
    let ratios: Vec<f64> = (0..PAIRS)
        .map(|k| {
            let (a, b) = if k % 2 == 0 {
                let a = timed(on).1;
                (a, timed(off).1)
            } else {
                let b = timed(off).1;
                (timed(on).1, b)
            };
            a / b
        })
        .collect();
    median(&ratios)
}

/// What the paired part measured.
pub struct Paired {
    /// `(wall(trace on) − wall(off)) / wall(off)` on `fault_replay`'s
    /// fan-out phase.
    pub obs_trace_overhead_share: f64,
    /// `wall(failover armed) / wall(same fleet, quiet plan)`.
    pub failover_overhead_ratio: f64,
    /// `wall(workers(1)) / wall(workers(2))` on `edge_thin`, one pair.
    /// Two workers plus the yield-spinning coordinator are three
    /// runnable threads; on two cores this is informational.
    pub par_speedup_w2: f64,
    /// One `edge_thin` repetition at `workers(1)` with its wall time,
    /// for the residual estimate.
    pub thin_rep: (Rep, f64),
}

pub fn run(seed: u64) -> Paired {
    let recording: Arc<Trace> = Arc::new(
        record_builder(seed, None)
            .build()
            .run()
            .boundary_trace
            .expect("record_boundary(true) yields a trace"),
    );
    let obs_ratio = on_over_off(
        &fan_out_builder(seed, recording.clone(), true),
        &fan_out_builder(seed, recording, false),
    );

    let (armed, quiet) = (failover_builder(seed, true), failover_builder(seed, false));
    let failover_overhead_ratio = on_over_off(&armed, &quiet);

    // One pair only: a thin repetition costs seconds, and the figure is
    // informational. Its `workers(1)` side doubles as the priced rep.
    let thin = edge_thin_builder(seed);
    let (report, wall) = timed(&thin);
    let par_speedup_w2 = wall / timed(&thin.workers(2)).1;

    Paired {
        obs_trace_overhead_share: obs_ratio - 1.0,
        failover_overhead_ratio,
        par_speedup_w2,
        thin_rep: (server_rep(&report), wall),
    }
}
