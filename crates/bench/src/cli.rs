//! Shared command-line parsing for `paper` and the sweeps.
//!
//! One small flag vocabulary — `--quick` (CI-sized runs), `--only <rows>`
//! (`paper`'s row selector), `--trace <path>` (drive server sessions
//! from a recorded boundary trace), `--seed <n>`, `--sessions <n>`,
//! `--shards <n>`, `--write-fixture <path>` — parsed here once so the
//! binaries agree on spelling and error messages. A binary reads the
//! flags it documents and ignores the rest.

use std::sync::Arc;

use illixr_core::boundary::Trace;

/// Parsed bench-harness arguments. Construct with [`BenchArgs::parse`]
/// (reads the process arguments) or `BenchArgs::from_vec` (tests).
pub struct BenchArgs {
    args: Vec<String>,
}

impl BenchArgs {
    /// Parses the process command line (program name skipped).
    pub fn parse() -> Self {
        Self::from_vec(std::env::args().skip(1).collect())
    }

    /// Builds from an explicit argument vector.
    pub(crate) fn from_vec(args: Vec<String>) -> Self {
        Self { args }
    }

    /// True when the bare flag `name` (e.g. `"--quick"`) is present.
    pub(crate) fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The operand following `name`, if the flag is present. Panics
    /// with a usage message when the flag is given without a value.
    pub fn value(&self, name: &str) -> Option<&str> {
        let i = self.args.iter().position(|a| a == name)?;
        match self.args.get(i + 1) {
            Some(v) => Some(v.as_str()),
            None => panic!("{name} requires a value"),
        }
    }

    /// Parsed numeric operand of `name`.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value(name)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("{name} {v}: not a valid number")))
    }

    /// `--quick`: CI-sized run (each binary documents its own cap).
    pub fn quick(&self) -> bool {
        self.flag("--quick")
    }

    /// `--seed <n>`: RNG seed override for replay transforms.
    pub fn seed(&self) -> Option<u64> {
        self.parsed("--seed")
    }

    /// `--sessions <n>`: session-count override for the server sweeps.
    pub fn sessions(&self) -> Option<usize> {
        self.parsed("--sessions")
    }

    /// `--shards <n>`: engine shard-count override (results are
    /// invariant to it; useful for perf experiments).
    pub fn shards(&self) -> Option<usize> {
        self.parsed("--shards")
    }

    /// `--write-fixture <path>`: where to save a recorded trace.
    pub fn write_fixture(&self) -> Option<&str> {
        self.value("--write-fixture")
    }

    /// `--trace <path>`: reads and decodes the boundary trace at
    /// `path`, panicking with the offending path on I/O or decode
    /// errors (a bench with a bad fixture should fail loudly).
    pub fn trace(&self) -> Option<Arc<Trace>> {
        let path = self.value("--trace")?;
        let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let trace = Trace::decode(&bytes).unwrap_or_else(|e| panic!("decoding {path}: {e}"));
        Some(Arc::new(trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> BenchArgs {
        BenchArgs::from_vec(v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_and_values_parse() {
        let a = args(&["--quick", "--sessions", "256", "--seed", "42", "--shards", "7"]);
        assert!(a.quick());
        assert_eq!(a.sessions(), Some(256));
        assert_eq!(a.seed(), Some(42));
        assert_eq!(a.shards(), Some(7));
        assert_eq!(a.value("--trace"), None);
    }

    #[test]
    fn absent_flags_are_none() {
        let a = args(&[]);
        assert!(!a.quick());
        assert_eq!(a.sessions(), None);
        assert_eq!(a.seed(), None);
        assert!(a.trace().is_none());
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn missing_value_panics() {
        args(&["--sessions"]).sessions();
    }

    #[test]
    #[should_panic(expected = "not a valid number")]
    fn bad_number_panics() {
        args(&["--sessions", "many"]).sessions();
    }
}
