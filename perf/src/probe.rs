//! Memory probes. Peak resident memory is a property of a process, and
//! an allocator that has already grown hides what a later run needs,
//! so each figure is taken in a child process that does one thing and
//! prints its own `VmHWM`.

use std::hint::black_box;
use std::process::{Command, Stdio};
use std::sync::Arc;

use illixr_core::{Clock, SimClock, Time};
use illixr_server::{ClientSession, SessionConfig};

use crate::host;
use crate::stats::splitmix;
use crate::workloads::failover_builder;

/// Child side: does what `what` names and returns this process's peak
/// resident set, MiB.
pub fn run(what: &str, seed: u64) -> Result<f64, String> {
    match what.split_once('=') {
        Some(("sessions", n)) => {
            let n: usize = n.parse().map_err(|e| format!("sessions={n}: {e}"))?;
            let sessions: Vec<ClientSession> = (0..n)
                .map(|i| {
                    let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
                    let config = SessionConfig::new(splitmix(seed, i as u64));
                    let mut s = ClientSession::new(i as u32, config, clock);
                    s.connect(Time::ZERO, false);
                    s
                })
                .collect();
            black_box(&sessions);
        }
        Some(("failover", mode @ ("armed" | "quiet"))) => {
            black_box(failover_builder(seed, mode == "armed").build().run());
        }
        _ => return Err(format!("unknown probe {what}")),
    }
    Ok(host::peak_rss_mib())
}

/// Parent side: runs probe `what` in a child of this executable and
/// waits for it.
pub fn peak_rss_mib(what: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(&exe)
        .args(["probe", what, "--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("probe {what} exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("probe {what} printed no number: {e}"))
}
