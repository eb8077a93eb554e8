#!/usr/bin/env sh
# Perf trajectory for the radius engine: runs the E1 wall-time benchmark
# (incremental vs from-scratch baseline, the run_node probe loop —
# FrozenExecutor session reuse vs per-call freezing — the skewed scheduling
# block — work-stealing vs static chunks on the clustered adversarial
# assignment — the pool block — persistent pool vs spawn-per-call — and the
# freeze block — Graph::freeze wall time per arc, recorded without a gate —
# and the snapshot block —
# CsrGraph::to_bytes vs the validating from_bytes, with bytes/edge density —
# and the service block — sustained query load through the resilient
# radius-query service vs raw probes, qps + p99 with a 3x overhead gate —
# and the service_batch block — the batched, sharded query_batch path vs a
# single-query loop, gated at >= 2x batched throughput wherever the
# machine has real parallelism — and the sampling block — the 10% uniform
# sample estimate vs the exact sweep, relative error gated at a 25% budget
# and the sampled path gated at 5x the exact wall time with real cores,
# with frontier rows an order of magnitude past the exact sweep) and
# refreshes BENCH_e1.json. The dedicated service harness is
# `cargo run --release -p avglocal-bench --bin service_load`.
#
# Pin the pool for reproducible timings: AVG_LOCAL_THREADS=4 ./bench.sh
#
# Usage: ./bench.sh [--quick] [--check]
#
# --check evaluates the regression-gate table (one speedup gate per recorded
# block but freeze) and exits non-zero if any applicable gate regressed — the step CI
# runs on every push (`AVG_LOCAL_THREADS=4 ./bench.sh --quick --check`).
set -eu
cd "$(dirname "$0")"
cargo run --release -p avglocal-bench --bin bench_e1 -- "$@"
