#!/usr/bin/env bash
# The benchmark's one command: builds `illixr-perf` from source (offline,
# release) and runs it. Called from the repository root or from here.
#
#   perf/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#   perf/run.sh trace | compare A.json B.json | manifest
#
# With --workload the last line of standard output is the result object;
# without it every workload runs and the set goes to perf/out/run.json.
set -euo pipefail

perf_dir="$(dirname "${BASH_SOURCE[0]}")"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for this script alike.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$perf_dir/target}"

# Build output goes to standard error; standard output is the result's.
cargo build --release --offline --quiet --manifest-path "$perf_dir/Cargo.toml" >&2

case "${1:-}" in
    run | trace | compare | manifest) ;;
    *) set -- run "$@" ;;
esac
exec "$CARGO_TARGET_DIR/release/illixr-perf" "$@"
