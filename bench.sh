#!/usr/bin/env sh
# Perf trajectory for the radius engine: runs every block of the bench_e1
# registry (the BLOCKS table in crates/bench/src/bin/bench_e1.rs, one entry
# per BENCH_e1.json block with its description, columns and gates) and
# refreshes BENCH_e1.json.
#
# Pin the pool for reproducible timings: AVG_LOCAL_THREADS=4 ./bench.sh
#
# Usage: ./bench.sh [--quick] [--check]
#
# --check evaluates the regression-gate table (every block but experiments
# is gated) and exits non-zero if any gate regressed — the step CI
# runs on every push (`AVG_LOCAL_THREADS=4 ./bench.sh --quick --check`).
# Any other argument is rejected with a usage line and exit code 2.
set -eu
cd "$(dirname "$0")"
cargo run --release -p avglocal-bench --bin bench_e1 -- "$@"
