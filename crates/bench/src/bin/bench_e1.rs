//! The perf trajectory of the radius engine: times every layer the
//! experiments E1–E9 run on and writes `BENCH_e1.json` (next to the current
//! working directory), so the repository keeps one trajectory across
//! changes.
//!
//! The binary is a registry of blocks ([`BLOCKS`], each an
//! [`avglocal_bench::block::Block`]): a JSON key, a description, the columns
//! of its row lists and one run function that measures it and returns its
//! rows and regression gates. One printer and one JSON emitter serve every
//! block. A block asserts that every pair of engines or schedules it
//! compares agrees on every radius and output, so the binary exits non-zero
//! on any divergence. The slower engines and schedules compared against live
//! in [`avglocal_bench::baselines`].
//!
//! ```text
//! cargo run --release -p avglocal-bench --bin bench_e1                # full sizes
//! cargo run --release -p avglocal-bench --bin bench_e1 -- --quick     # smoke run
//! cargo run --release -p avglocal-bench --bin bench_e1 -- --quick --check  # CI gate
//! AVG_LOCAL_THREADS=4 ./bench.sh                                      # pinned pool
//! ```
//!
//! Any other argument is rejected with a usage line and exit code 2.
//!
//! `--check` evaluates the regression-gate table and exits non-zero if any
//! gate regresses below its threshold — this is the step CI runs on every
//! push. Every block but `experiments` is gated on every run.
//!
//! The worker-pool size is recorded in every block: scheduling comparisons
//! only show wall-clock separation when the pool has real cores underneath
//! (`available_parallelism` is recorded too, so a 1-core container's ~1×
//! ratios are self-explanatory).

use std::env;
use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use avglocal::algorithms::LargestId;
use avglocal::analysis::recurrence::clustered_adversarial_arrangement;
use avglocal::graph::CsrGraph;
use avglocal::prelude::*;
use avglocal::runtime::{FrozenExecutor, Knowledge, ProbeOptions};
use avglocal_bench::block::{print_block, print_gates, render_json, Block, Gate, Recorded, Row};
use avglocal_bench::load::{raw_probe_load, service_batch_load, service_load};
use avglocal_bench::load::{LoadConfig, LoadReport};
use avglocal_bench::{baselines, check_flags, TABLES};

/// Repetitions per measurement; the minimum is reported.
const REPS: usize = 3;

/// The registry: every block, in the order `BENCH_e1.json` records them.
const BLOCKS: &[Block] = &[
    Block {
        name: "rows",
        description: None,
        lists: &[(
            "rows",
            &[
                ("n", 0),
                ("total_radius", 0),
                ("incremental_ms", 3),
                ("baseline_ms", 3),
                ("speedup", 1),
            ],
        )],
        run: rows,
    },
    Block {
        name: "run_node",
        description: Some(
            "per-node probes: FrozenExecutor session reuse vs a snapshot frozen per call",
        ),
        lists: &[("rows", &[("n", 0), ("session_ms", 3), ("refreeze_ms", 3), ("speedup", 1)])],
        run: run_node,
    },
    Block {
        name: "skewed",
        description: Some(
            "clustered adversarial largest-ID assignment (worst-case a(p) block on a quarter of \
             the ring): dynamic work-stealing chunks vs the static contiguous partition vs the \
             sequential reference; outputs bit-identical across all three",
        ),
        lists: &[(
            "rows",
            &[
                ("n", 0),
                ("total_radius", 0),
                ("sequential_ms", 3),
                ("static_ms", 3),
                ("stealing_ms", 3),
                ("static_over_stealing", 2),
            ],
        )],
        run: skewed,
    },
    Block {
        name: "pool",
        description: Some(
            "many small full runs: persistent worker pool (reused across calls) vs the \
             spawn-per-call static baseline of the old shim",
        ),
        lists: &[(
            "rows",
            &[("n", 0), ("trials", 0), ("pool_ms", 3), ("spawn_ms", 3), ("speedup", 1)],
        )],
        run: pool,
    },
    Block {
        name: "snapshot",
        description: Some(
            "versioned binary CsrGraph snapshots: to_bytes vs the validating from_bytes \
             (checksum, offsets, endpoint bounds, symmetry, canonical component relabelling \
             re-established from untrusted bytes); round trips bit-identical by assertion",
        ),
        lists: &[(
            "rows",
            &[
                ("n", 0),
                ("edges", 0),
                ("bytes", 0),
                ("bytes_per_edge", 1),
                ("encode_ms", 3),
                ("decode_ms", 3),
                ("decode_mb_s", 1),
            ],
        )],
        run: snapshot,
    },
    Block {
        name: "hub",
        description: Some(
            "E9 hub detachment: the hub adversary on the committed preferential-attachment tree \
             (m=1, seed=13) through the sweep harness; edge_node_ratio is the \
             edge-averaged/node-averaged detachment of the connected instance and is gated at \
             >= 2 (the regular-family sandwich bound)",
        ),
        lists: &[(
            "rows",
            &[
                ("n", 0),
                ("edges", 0),
                ("hub_degree", 0),
                ("edge_node_ratio", 2),
                ("assignment_ms", 3),
                ("sweep_ms", 3),
            ],
        )],
        run: hub,
    },
    Block {
        name: "service",
        description: Some(
            "sustained query load through the resilient radius-query service (admission, \
             deadlines, epoch pinning) vs the same reader scripts on the bare frozen session; \
             total radii bit-identical by assertion, overhead gated at a 3x per-query budget",
        ),
        lists: &[(
            "rows",
            &[
                ("nodes", 0),
                ("readers", 0),
                ("queries", 0),
                ("service_qps", 0),
                ("raw_qps", 0),
                ("p50_us", 0),
                ("p99_us", 0),
                ("max_us", 0),
                ("overhead", 2),
            ],
        )],
        run: service,
    },
    Block {
        name: "service_batch",
        description: Some(
            "batched query path: one reader's whole population through query_batch (one \
             admission slot and one generation pin per batch, node set sharded across the \
             persistent pool) vs the same population as sequential single queries; total radii \
             bit-identical by assertion, batched qps gated at 2x the single-query qps on \
             machines with real parallelism",
        ),
        lists: &[(
            "rows",
            &[
                ("nodes", 0),
                ("batch_size", 0),
                ("entries", 0),
                ("batch_qps", 0),
                ("single_qps", 0),
                ("batch_p99_us", 0),
                ("single_p99_us", 0),
                ("speedup", 2),
            ],
        )],
        run: service_batch,
    },
    Block {
        name: "sampling",
        description: Some(
            "sampled estimation: the node-averaged know-the-leader measure from a 10% uniform \
             sample (seeded draw, one sharded probe pass) vs the exact full sweep on the \
             shuffled grid, both run end to end as one-trial Sweeps; rel_error is gated at a \
             25% budget and the sampled sweep must beat the exact sweep 5x wherever the pool \
             has real cores underneath; frontier rows extend the curve an order of magnitude \
             past the largest exact sweep",
        ),
        lists: &[
            (
                "rows",
                &[
                    ("n", 0),
                    ("budget", 0),
                    ("exact", 6),
                    ("estimate", 6),
                    ("half_width_95", 6),
                    ("rel_error", 6),
                    ("exact_ms", 3),
                    ("sampled_ms", 3),
                    ("speedup", 1),
                ],
            ),
            (
                "frontier",
                &[
                    ("n", 0),
                    ("budget", 0),
                    ("estimate", 6),
                    ("half_width_95", 6),
                    ("sampled_ms", 3),
                ],
            ),
        ],
        run: sampling,
    },
    Block {
        name: "experiments",
        description: Some(
            "wall time of each experiment table E1-E9 at its quick sizes (table_ek(true)), the \
             end-to-end cost of reproducing each claim of the paper; no gate",
        ),
        lists: &[("rows", &[("experiment", 0), ("quick_ms", 3)])],
        run: experiments,
    },
];

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Whether the pool has at least 4 real cores underneath, where the timed
/// parallel gates hold at full strength.
fn machine_parallel(threads: usize) -> bool {
    threads >= 4 && cores() >= 4
}

fn last(rows: &[Row], column: usize) -> f64 {
    rows.last().expect("every block records at least one row")[column]
}

fn identity_cycle(n: usize) -> Graph {
    topology_with_assignment(&Topology::Cycle, n, &IdAssignment::Identity)
        .expect("cycles of the benchmarked sizes are valid")
}

/// The ring sizes of the `rows` and `run_node` blocks.
fn ring_sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[256, 1024]
    } else {
        &[256, 1024, 4096]
    }
}

/// Times `body` [`REPS`] times and returns `(last result, best ms)`.
fn measure_ms<T>(mut body: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..REPS {
        let start = Instant::now();
        result = Some(body());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (result.expect("REPS >= 1"), best)
}

/// E1 largest-ID on the identity cycle: the incremental engine vs the
/// from-scratch baseline. The incremental side freezes inside the timed
/// region, like the baseline extracts from the unfrozen graph.
fn rows(quick: bool, _threads: usize) -> Recorded {
    let mut rows = Vec::new();
    for &n in ring_sizes(quick) {
        let graph = identity_cycle(n);
        let (fast, incremental_ms) = measure_ms(|| {
            FrozenExecutor::new(&graph)
                .run(&LargestId, Knowledge::none())
                .expect("largest-ID terminates on every cycle")
        });
        let ((slow_outputs, slow_radii), baseline_ms) = measure_ms(|| {
            baselines::from_scratch_run(&graph, &LargestId, Knowledge::none())
                .expect("largest-ID terminates on every cycle")
        });
        assert_eq!(fast.radii(), slow_radii, "engines disagree on radii at n={n}");
        assert_eq!(fast.outputs(), slow_outputs, "engines disagree on outputs at n={n}");
        let total = fast.total_radius() as f64;
        rows.push(vec![n as f64, total, incremental_ms, baseline_ms, baseline_ms / incremental_ms]);
    }
    let gate =
        Gate::full("rows: incremental engine vs from-scratch baseline", last(&rows, 4), 10.0);
    (vec![rows], vec![gate])
}

/// Probes every node individually, reusing one frozen session vs freezing
/// a fresh snapshot per call.
fn run_node(quick: bool, _threads: usize) -> Recorded {
    let probe_loop = |graph: &Graph, probe: &dyn Fn(NodeId) -> usize| {
        measure_ms(|| graph.nodes().map(probe).sum::<usize>())
    };
    let mut rows = Vec::new();
    for &n in ring_sizes(quick) {
        let graph = identity_cycle(n);
        let session = FrozenExecutor::new(&graph);
        let (session_total, session_ms) = probe_loop(&graph, &|v| {
            session
                .run_node_with(v, &LargestId, Knowledge::none(), ProbeOptions::new())
                .expect("largest-ID terminates")
                .1
        });
        let (refreeze_total, refreeze_ms) = probe_loop(&graph, &|v| {
            baselines::refreeze_run_node(&graph, v, &LargestId, Knowledge::none())
                .expect("largest-ID terminates")
                .1
        });
        assert_eq!(session_total, refreeze_total, "probe engines disagree at n={n}");
        rows.push(vec![n as f64, session_ms, refreeze_ms, refreeze_ms / session_ms]);
    }
    let gate = Gate::full("run_node: frozen session vs per-call refreeze", last(&rows, 3), 5.0);
    (vec![rows], vec![gate])
}

/// The scheduler-adversarial identifier assignment (see
/// [`clustered_adversarial_arrangement`]): a worst-case `a(p)` block on one
/// quarter of the ring, so a static contiguous partition hands one thread
/// `Θ(n log n)` work while the others get `Θ(n)`. Dynamic work-stealing
/// chunks vs the static contiguous partition vs the sequential reference —
/// all three must agree bit for bit.
///
/// The separation only develops its full ratio with >= 4 real cores
/// underneath the pool and full-size inputs, so elsewhere the gate relaxes
/// to a sanity threshold — enough to catch a pathological regression
/// without flaking on shared CI runners.
fn skewed(quick: bool, threads: usize) -> Recorded {
    let sizes: &[usize] = if quick { &[256, 1024] } else { &[1024, 4096, 16384] };
    let mut rows = Vec::new();
    for &n in sizes {
        let ids = clustered_adversarial_arrangement(n).iter().map(|&id| id as usize).collect();
        let ids =
            IdAssignment::from_vec(ids).expect("clustered adversarial ids form a permutation");
        let graph = topology_with_assignment(&Topology::Cycle, n, &ids)
            .expect("cycles of the benchmarked sizes are valid");
        let session = FrozenExecutor::new(&graph);
        let (sequential, sequential_ms) = measure_ms(|| {
            session.run_sequential(&LargestId, Knowledge::none()).expect("largest-ID terminates")
        });
        let ((static_outputs, static_radii), static_ms) = measure_ms(|| {
            baselines::static_chunks_run(session.csr(), &LargestId, Knowledge::none())
                .expect("terminates")
        });
        let (stealing_run, stealing_ms) =
            measure_ms(|| session.run(&LargestId, Knowledge::none()).expect("terminates"));
        assert_eq!(stealing_run.radii(), sequential.radii(), "stealing diverged at n={n}");
        assert_eq!(stealing_run.outputs(), sequential.outputs(), "stealing diverged at n={n}");
        assert_eq!(static_radii, sequential.radii(), "static diverged at n={n}");
        assert_eq!(static_outputs, sequential.outputs(), "static diverged at n={n}");
        let (total, ratio) = (sequential.total_radius() as f64, static_ms / stealing_ms);
        rows.push(vec![n as f64, total, sequential_ms, static_ms, stealing_ms, ratio]);
    }
    let strong = !quick && machine_parallel(threads);
    let gate =
        Gate::scaled("skewed: work-stealing vs static chunks", last(&rows, 5), strong, 1.5, 0.33);
    (vec![rows], vec![gate])
}

/// Many small full runs: the persistent pool reuses its workers across
/// calls, the baseline spawns scoped threads per call. The gate relaxes
/// only on a 1-participant pool, where both paths run inline and there is
/// no spawn overhead to save.
fn pool(quick: bool, threads: usize) -> Recorded {
    let (n, trials) = if quick { (128, 64) } else { (256, 512) };
    let graph = identity_cycle(n);
    let session = FrozenExecutor::new(&graph);
    let (pool_total, pool_ms) = measure_ms(|| {
        (0..trials)
            .map(|_| session.run(&LargestId, Knowledge::none()).expect("terminates").total_radius())
            .sum::<usize>()
    });
    let (spawn_total, spawn_ms) = measure_ms(|| {
        (0..trials)
            .map(|_| {
                let (_, radii) =
                    baselines::static_chunks_run(session.csr(), &LargestId, Knowledge::none())
                        .expect("terminates");
                radii.iter().sum::<usize>()
            })
            .sum::<usize>()
    });
    assert_eq!(pool_total, spawn_total, "pool and spawn paths disagree on total radius");
    let speedup = spawn_ms / pool_ms;
    let row = vec![n as f64, trials as f64, pool_ms, spawn_ms, speedup];
    let gate =
        Gate::scaled("pool: persistent pool vs spawn-per-call", speedup, threads >= 2, 1.5, 0.5);
    (vec![vec![row]], vec![gate])
}

/// The cycle sizes of the `snapshot` block.
fn freeze_sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[1 << 14, 1 << 16]
    } else {
        &[1 << 16, 1 << 18]
    }
}

/// The versioned binary codec around `CsrGraph` (`to_bytes` / validating
/// `from_bytes`). Decoding re-establishes every structural invariant from
/// untrusted bytes, so its throughput is the price of the trust boundary.
///
/// Format density is a deterministic property of the byte layout (a cycle
/// costs ~24 bytes/edge in version 1), so it gates exactly everywhere; the
/// validating-decode throughput is machine time and gates at a relaxed
/// bound that still catches an accidental quadratic slip in the validators.
fn snapshot(quick: bool, _threads: usize) -> Recorded {
    let mut rows = Vec::new();
    for &n in freeze_sizes(quick) {
        let csr = identity_cycle(n).freeze();
        let (bytes, encode_ms) = measure_ms(|| csr.to_bytes());
        let (decoded, decode_ms) =
            measure_ms(|| CsrGraph::from_bytes(&bytes).expect("own snapshots decode cleanly"));
        assert_eq!(decoded, csr, "snapshot round trip diverged at n={n}");
        assert_eq!(decoded.components(), csr.components(), "labels diverged at n={n}");
        let (edges, len) = (csr.edge_count() as f64, bytes.len() as f64);
        let decode_mb_s = len / decode_ms / 1e3;
        rows.push(vec![n as f64, edges, len, len / edges, encode_ms, decode_ms, decode_mb_s]);
    }
    let gates = vec![
        Gate::full("snapshot: format density (40 bytes/edge budget)", 40.0 / last(&rows, 3), 1.0),
        Gate::full(
            "snapshot: validating decode vs encode (50x budget)",
            50.0 * last(&rows, 4) / last(&rows, 5),
            1.0,
        ),
    ];
    (vec![rows], gates)
}

/// The E9 acceptance configuration — the hub adversary on the committed
/// preferential-attachment tree — timed through the sweep harness. The
/// family seed and the assignment are fixed, so the edge/node ratio gate
/// is exact and applies at full strength everywhere: a connected family
/// must escape the regular-family sandwich bound of 2.
fn hub(quick: bool, _threads: usize) -> Recorded {
    let sizes: &[usize] = if quick { &[64] } else { &[64, 128, 256] };
    let topology = Topology::PreferentialAttachment { m: 1, seed: 13 };
    let mut rows = Vec::new();
    for &n in sizes {
        let base = topology.build(n).expect("the committed hub family stays connected");
        let (assignment, assignment_ms) = measure_ms(|| {
            hub_adversarial_assignment(&base).expect("the hub adversary works on non-empty graphs")
        });
        let (row, sweep_ms) = measure_ms(|| {
            Sweep::on(Problem::LargestId, topology.clone(), vec![n])
                .with_policy(AssignmentPolicy::Fixed(assignment.clone()))
                .run()
                .expect("largest-ID sweeps run on connected hub families")
                .rows
                .remove(0)
        });
        let hub_degree = base.max_degree().expect("hub instances are non-empty");
        rows.push(vec![
            n as f64,
            base.edge_count() as f64,
            hub_degree as f64,
            row.edge_averaged / row.average,
            assignment_ms,
            sweep_ms,
        ]);
    }
    let min_ratio = rows.iter().map(|r| r[3]).fold(f64::INFINITY, f64::min);
    let gate = Gate::full("hub: edge/node detachment on the connected pa tree", min_ratio, 2.0);
    (vec![rows], vec![gate])
}

/// Runs the loads `a` and `b` alternately, [`REPS`] times each, and keeps
/// each one's highest-qps run.
fn best_pair(a: impl Fn() -> LoadReport, b: impl Fn() -> LoadReport) -> (LoadReport, LoadReport) {
    let best = |kept: LoadReport, run: LoadReport| if run.qps > kept.qps { run } else { kept };
    (1..REPS).fold((a(), b()), |(best_a, best_b), _| (best(best_a, a()), best(best_b, b())))
}

/// The same reader scripts driven once through the resilient radius-query
/// service (admission, deadline bookkeeping, epoch pinning on every query)
/// and once straight on the shared frozen session. Total radii must agree
/// bit for bit; the qps ratio is the service layer's per-query overhead.
/// It compares two runs of the same process on the same machine, so the 3x
/// budget holds at full strength on every leg.
fn service(quick: bool, _threads: usize) -> Recorded {
    let config = if quick {
        LoadConfig { nodes: 256, readers: 2, queries_per_reader: 256 }
    } else {
        LoadConfig { nodes: 1024, readers: 4, queries_per_reader: 1024 }
    };
    let (service, raw) = best_pair(|| service_load(&config), || raw_probe_load(&config));
    assert_eq!(service.total_radius, raw.total_radius, "service answers diverged from raw probes");
    let overhead = raw.qps / service.qps;
    let row = vec![
        config.nodes as f64,
        config.readers as f64,
        service.completed as f64,
        service.qps,
        raw.qps,
        service.p50_us as f64,
        service.p99_us as f64,
        service.max_us as f64,
        overhead,
    ];
    let gate =
        Gate::full("service: per-query overhead vs raw probes (3x budget)", 3.0 / overhead, 1.0);
    (vec![vec![row]], vec![gate])
}

/// One reader's whole population issued as `query_batch` requests (one
/// admission slot and one generation pin per batch, the node set sharded
/// across the persistent pool) against the same population as sequential
/// single queries. Total radii must agree bit for bit. The batching win is
/// pool fan-out plus amortised admission, present in quick mode too, so the
/// 2x gate holds wherever the pool has >= 4 real cores; on a 1-core
/// container the batch runs inline and only the amortisation remains, so
/// the gate relaxes to a 0.5x sanity bound.
fn service_batch(quick: bool, threads: usize) -> Recorded {
    let nodes = if quick { 256 } else { 4096 };
    let config = LoadConfig { nodes, readers: 1, queries_per_reader: nodes };
    let (batch, single) =
        best_pair(|| service_batch_load(&config, nodes), || service_load(&config));
    assert_eq!(batch.total_radius, single.total_radius, "batched answers diverged from singles");
    let speedup = batch.qps / single.qps;
    let row = vec![
        nodes as f64,
        nodes as f64,
        batch.completed as f64,
        batch.qps,
        single.qps,
        batch.p99_us as f64,
        single.p99_us as f64,
        speedup,
    ];
    let strong = machine_parallel(threads);
    let gate =
        Gate::scaled("service_batch: batched vs single-query qps", speedup, strong, 2.0, 0.5);
    (vec![vec![row]], vec![gate])
}

/// The node-averaged measure estimated from a 10% uniform sample (one drawn
/// set, one sharded probe pass) against the exact full sweep on the same
/// instance, both as one-trial [`Sweep`]s: the sampled side is the exact
/// sweep plus [`Sweep::with_sample_plan`], read from its one trial's
/// [`SampledRow::per_trial`] entry. Past the exact frontier only the
/// sampled sweep runs, extending the E7-style curve an order of magnitude
/// beyond the largest exact sweep. The family is the shuffled grid under
/// `KnowTheLeader`: leader distances spread over many values, so a 10%
/// sample is genuinely informative (ring `LargestId` radii hide half the
/// mean in one extreme node, which no 10% sample can estimate — that regime
/// belongs to the stratified MSE test, not a relative-error gate).
///
/// The draws are seeded, so the relative error is a deterministic property
/// of (family seed, plan seed) and gates exactly at a 25% budget — generous
/// against the measured few percent but tight enough to catch a broken
/// estimator or a silently re-seeded stream. Both sides are timed end to
/// end (build, freeze, trial); the wall-time speedup comes from probing a
/// tenth of the population through the same pool, so it holds near 10x
/// with real cores and still well above 1.5x inline.
fn sampling(quick: bool, threads: usize) -> Recorded {
    let sizes: &[usize] = if quick { &[256, 1024] } else { &[256, 1024, 4096] };
    let frontier_sizes: &[usize] = if quick { &[4096, 16384] } else { &[16384, 65536] };
    let exact_sweep = |n: usize| {
        Sweep::on(Problem::KnowTheLeader, Topology::Grid, vec![n])
            .with_policy(AssignmentPolicy::Fixed(IdAssignment::Shuffled { seed: 5 }))
    };
    let run = |sweep: &Sweep| {
        measure_ms(|| sweep.run().expect("know-the-leader terminates on every grid node"))
    };
    let sampled = |n: usize| {
        let plan = SamplePlan::Uniform { budget: n / 10 };
        let (result, sampled_ms) = run(&exact_sweep(n).with_sample_plan(plan).with_sample_seed(42));
        let record = result.rows[0].sampled.as_ref().expect("sampled sweeps record estimates");
        let estimate =
            record.per_trial[0].node_averaged.expect("uniform plans estimate the node average");
        (plan.budget() as f64, estimate, sampled_ms)
    };
    let mut rows = Vec::new();
    for &n in sizes {
        let (exact, exact_ms) = run(&exact_sweep(n));
        let exact = exact.rows[0].average;
        let (budget, estimate, sampled_ms) = sampled(n);
        rows.push(vec![
            n as f64,
            budget,
            exact,
            estimate.value,
            estimate.half_width_95,
            (estimate.value - exact).abs() / exact,
            exact_ms,
            sampled_ms,
            exact_ms / sampled_ms,
        ]);
    }
    let mut frontier = Vec::new();
    for &n in frontier_sizes {
        let (budget, estimate, sampled_ms) = sampled(n);
        frontier.push(vec![n as f64, budget, estimate.value, estimate.half_width_95, sampled_ms]);
    }
    let max_rel_error = rows.iter().map(|r| r[5]).fold(0.0f64, f64::max);
    let gates = vec![
        Gate::full(
            "sampling: node-average relative error (25% budget)",
            if max_rel_error == 0.0 { f64::INFINITY } else { 0.25 / max_rel_error },
            1.0,
        ),
        Gate::scaled(
            "sampling: sampled vs exact sweep wall time",
            last(&rows, 6) / last(&rows, 7),
            machine_parallel(threads),
            5.0,
            1.5,
        ),
    ];
    (vec![rows, frontier], gates)
}

/// Each experiment table at its quick sizes, whatever the mode: the full
/// sizes take tens of seconds (E4 alone), the quick ones tens of ms.
fn experiments(_quick: bool, _threads: usize) -> Recorded {
    let rows = (1..).zip(TABLES).map(|(k, build)| vec![k as f64, measure_ms(|| build(true)).1]);
    (vec![rows.collect()], Vec::new())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if let Err(message) = check_flags("bench_e1", &args, &["--quick", "--check"]) {
        eprintln!("{message}");
        return ExitCode::from(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let threads = rayon::current_num_threads();
    let cores = cores();
    println!("pool: {threads} thread(s), machine: {cores} core(s)");

    let mut recorded = Vec::new();
    let mut gates = Vec::new();
    for block in BLOCKS {
        let (lists, block_gates) = (block.run)(quick, threads);
        print_block(block, &lists);
        gates.extend(block_gates);
        recorded.push((block, lists));
    }
    fs::write("BENCH_e1.json", render_json(threads, cores, &recorded))
        .expect("BENCH_e1.json must be writable");
    println!("\nwrote BENCH_e1.json");

    if !print_gates(&gates, threads, cores) {
        eprintln!("a recorded speedup block regressed below its gate");
        if check {
            return ExitCode::FAILURE;
        }
        panic!("regression gates failed (run with --check for a non-panicking exit)");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key path of the committed `BENCH_e1.json` from before the
    /// registry existed, with its decimal places, plus the `experiments`
    /// block: the trajectory stays continuous only if every key survives in
    /// place. A top-level row list has no block prefix.
    #[test]
    fn the_registry_keeps_every_recorded_key() {
        let expected = "
            rows.n:0 rows.total_radius:0 rows.incremental_ms:3 rows.baseline_ms:3 rows.speedup:1
            run_node.rows.n:0 run_node.rows.session_ms:3 run_node.rows.refreeze_ms:3
            run_node.rows.speedup:1
            skewed.rows.n:0 skewed.rows.total_radius:0 skewed.rows.sequential_ms:3
            skewed.rows.static_ms:3 skewed.rows.stealing_ms:3 skewed.rows.static_over_stealing:2
            pool.rows.n:0 pool.rows.trials:0 pool.rows.pool_ms:3 pool.rows.spawn_ms:3
            pool.rows.speedup:1
            snapshot.rows.n:0 snapshot.rows.edges:0 snapshot.rows.bytes:0
            snapshot.rows.bytes_per_edge:1 snapshot.rows.encode_ms:3 snapshot.rows.decode_ms:3
            snapshot.rows.decode_mb_s:1
            hub.rows.n:0 hub.rows.edges:0 hub.rows.hub_degree:0 hub.rows.edge_node_ratio:2
            hub.rows.assignment_ms:3 hub.rows.sweep_ms:3
            service.rows.nodes:0 service.rows.readers:0 service.rows.queries:0
            service.rows.service_qps:0 service.rows.raw_qps:0 service.rows.p50_us:0
            service.rows.p99_us:0 service.rows.max_us:0 service.rows.overhead:2
            service_batch.rows.nodes:0 service_batch.rows.batch_size:0 service_batch.rows.entries:0
            service_batch.rows.batch_qps:0 service_batch.rows.single_qps:0
            service_batch.rows.batch_p99_us:0 service_batch.rows.single_p99_us:0
            service_batch.rows.speedup:2
            sampling.rows.n:0 sampling.rows.budget:0 sampling.rows.exact:6 sampling.rows.estimate:6
            sampling.rows.half_width_95:6 sampling.rows.rel_error:6 sampling.rows.exact_ms:3
            sampling.rows.sampled_ms:3 sampling.rows.speedup:1
            sampling.frontier.n:0 sampling.frontier.budget:0 sampling.frontier.estimate:6
            sampling.frontier.half_width_95:6 sampling.frontier.sampled_ms:3
            experiments.rows.experiment:0 experiments.rows.quick_ms:3";
        let mut paths = Vec::new();
        for block in BLOCKS {
            let prefix = block.description.map_or(String::new(), |_| format!("{}.", block.name));
            for &(key, columns) in block.lists {
                paths.extend(columns.iter().map(|(name, d)| format!("{prefix}{key}.{name}:{d}")));
            }
        }
        assert_eq!(paths, expected.split_whitespace().collect::<Vec<_>>());
    }
}
