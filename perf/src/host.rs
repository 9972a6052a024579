//! What the host says about this process: CPU time, resident memory,
//! core count and toolchain. Everything is read from `/proc`; nothing
//! here touches the program under test.

use std::time::Duration;

/// Kernel clock ticks per second (`USER_HZ`). Fixed at 100 on every
/// Linux ABI this benchmark runs on; there is no libc here to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU time out of one `/proc/<pid>/stat` line.
///
/// The second field is the command name in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the
/// *last* closing parenthesis: `utime` and `stime` are the 14th and
/// 15th fields of the line, the 12th and 13th after the name.
pub fn parse_stat_cpu(stat: &str) -> Option<Duration> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_name.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) as f64 / TICKS_PER_SECOND))
}

/// One `kB` field (`VmHWM`) out of `/proc/<pid>/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.strip_prefix(key).is_some_and(|r| r.starts_with(':')))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

fn proc_self(file: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{file}"))
        .unwrap_or_else(|e| panic!("/proc/self/{file} unreadable: {e}"))
}

/// CPU time this process (all threads) has used so far.
pub fn cpu_time() -> Duration {
    parse_stat_cpu(&proc_self("stat")).expect("/proc/self/stat has utime and stime")
}

/// Peak resident set so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    parse_status_kib(&proc_self("status"), "VmHWM").expect("VmHWM present") as f64 / 1024.0
}

/// Cores the scheduler may place this process on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of `<tool> --version`, or `unknown`.
pub fn tool_version(tool: &str) -> String {
    std::process::Command::new(tool)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let plain = "1234 (illixr-perf) R 1 1234 1234 0 -1 4194304 900 0 0 0 \
                     150 25 0 0 20 0 1 0 1000 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu(plain), Some(Duration::from_millis(1750)));
        // A name with spaces and a closing parenthesis must not shift
        // the field count.
        let hostile = "1234 (a b) c) S 1 1234 1234 0 -1 4194304 900 0 0 0 \
                       7 3 0 0 20 0 1 0 1000 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu(hostile), Some(Duration::from_millis(100)));
        assert_eq!(parse_stat_cpu("1234 (short) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu("no parenthesis at all"), None);
    }

    #[test]
    fn status_fields_match_whole_keys_only() {
        let status =
            "Name:\tillixr-perf\nVmPeak:\t  999 kB\nVmHWM:\t  4096 kB\nVmRSS:\t  2048 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(4096));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(2048));
        assert_eq!(parse_status_kib(status, "Vm"), None);
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time() >= before);
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}
