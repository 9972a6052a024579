//! Quickstart: the smallest end-to-end ILLIXR-rs session.
//!
//! Starts the full live testbed (camera → VIO → integrator → application
//! → timewarp, plus the audio pipeline) on real threads for two seconds,
//! then prints what each component achieved — the "hello world" of the
//! testbed.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use std::time::Duration;

use illixr_testbed::render::apps::Application;
use illixr_testbed::system::config::SystemConfig;
use illixr_testbed::system::experiment::COMPONENTS;
use illixr_testbed::system::testbed::LiveTestbed;

fn main() {
    println!("ILLIXR-rs quickstart: live testbed, AR Demo, 2 seconds\n");
    let config = SystemConfig { eye_width: 64, eye_height: 64, ..Default::default() };
    // Rates derated to 25% so the demo runs comfortably anywhere.
    let testbed = LiveTestbed::start(Application::ArDemo, config, 42, 0.25);
    testbed.run_for(Duration::from_secs(2));

    let telemetry = testbed.context().telemetry.clone();
    println!("{:<16} {:>8} {:>8} {:>12} {:>8}", "component", "runs", "drops", "mean exec", "rate");
    println!("{}", "-".repeat(58));
    for name in COMPONENTS {
        if let Some(s) = telemetry.stats(name) {
            println!(
                "{:<16} {:>8} {:>8} {:>9.2} ms {:>6.1}Hz",
                name,
                s.invocations,
                s.drops,
                s.mean_execution.as_secs_f64() * 1e3,
                s.achieved_hz
            );
        }
    }
    testbed.shutdown();
    println!("\nDone. Try `cargo run -p illixr-bench --release --bin paper -- --only fig3` next.");
}
