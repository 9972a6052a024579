//! The command line of `paper`, the one bench runner.
//!
//! Four flags: `--quick` (CI-sized runs), `--only <rows>` (the rows to
//! run), `--trace <path>` (drive `scaling_sessions`' Wi-Fi sessions
//! from a recorded boundary trace) and `--write-fixture <path>` (save
//! `trace_replay`'s recorded trace). Any other argument is an error
//! that lists them, so a misspelt `--quick` cannot start a full-length
//! regeneration.

use std::sync::Arc;

use illixr_core::boundary::Trace;

/// The valid flags, for error messages.
const FLAGS: &str = "flags are --quick, --only <rows>, --trace <path>, --write-fixture <path>";

/// Parsed bench-runner arguments. Construct with [`BenchArgs::parse`]
/// (reads the process arguments) or `BenchArgs::from_vec` (tests).
#[derive(Debug, Default, PartialEq)]
pub struct BenchArgs {
    /// `--quick`: CI-sized runs (each row documents its own cap).
    pub quick: bool,
    /// `--only <rows>`: comma-separated row names.
    pub only: Option<String>,
    /// `--trace <path>`: a recorded boundary trace; see [`Self::load_trace`].
    pub trace: Option<String>,
    /// `--write-fixture <path>`: where to save a recorded trace.
    pub write_fixture: Option<String>,
}

impl BenchArgs {
    /// Parses the process command line (program name skipped); a bad
    /// argument exits 2 with a message listing the valid flags.
    pub fn parse() -> Self {
        Self::from_vec(std::env::args().skip(1).collect()).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument vector: an unknown argument or a
    /// flag without its value is an error.
    pub(crate) fn from_vec(args: Vec<String>) -> Result<Self, String> {
        let mut parsed = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let slot = match arg.as_str() {
                "--quick" => {
                    parsed.quick = true;
                    continue;
                }
                "--only" => &mut parsed.only,
                "--trace" => &mut parsed.trace,
                "--write-fixture" => &mut parsed.write_fixture,
                _ => return Err(format!("unknown argument '{arg}'; {FLAGS}")),
            };
            *slot = Some(args.next().ok_or_else(|| format!("{arg} requires a value; {FLAGS}"))?);
        }
        Ok(parsed)
    }

    /// Reads and decodes the `--trace` file, panicking with the
    /// offending path on I/O or decode errors (a bench with a bad
    /// fixture should fail loudly).
    pub fn load_trace(&self) -> Option<Arc<Trace>> {
        let path = self.trace.as_deref()?;
        let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let trace = Trace::decode(&bytes).unwrap_or_else(|e| panic!("decoding {path}: {e}"));
        Some(Arc::new(trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::from_vec(v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_and_values_parse() {
        let a = args(&["--quick", "--only", "fig3", "--write-fixture", "f.ilxt"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.only.as_deref(), Some("fig3"));
        assert_eq!(a.write_fixture.as_deref(), Some("f.ilxt"));
        assert_eq!(a.trace, None);
    }

    #[test]
    fn absent_flags_are_none() {
        let a = args(&[]).unwrap();
        assert_eq!(a, BenchArgs::default());
        assert!(a.load_trace().is_none());
    }

    #[test]
    fn missing_value_is_an_error() {
        let message = args(&["--quick", "--only"]).unwrap_err();
        assert!(message.starts_with("--only requires a value") && message.ends_with(FLAGS));
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        for bad in ["--quik", "--Quick", "--only=fig3", "fig3", "-q", ""] {
            let message = args(&["--quick", bad, "256"]).unwrap_err();
            assert_eq!(message, format!("unknown argument '{bad}'; {FLAGS}"));
        }
    }
}
