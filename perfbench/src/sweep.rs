//! `sweep`: the paper's E1 setting. Closed loop on one load thread, each
//! operation one exact `Sweep::run` row of the largest-ID problem on a
//! ring, with trials on the pool.

use std::collections::BTreeMap;
use std::time::Instant;

use avglocal::analysis::Summary;
use std::sync::Arc;

use avglocal::graph::{derive_seed, ComponentMode, IdAssignment, NodeId, Topology};
use avglocal::runtime::{FrozenExecutor, Knowledge};
use avglocal::service::{RadiusQueryService, ServiceConfig, WallClock};
use avglocal::{theory, AssignmentPolicy, MeasureSet, Problem, RadiusCdf, Sweep, SweepRow};

use crate::common::{end_to_end, ns_since, respawns, Args, Report, WorkDir};
use crate::count::{population_work, Counting, Work};
use crate::layers::{self, PassInputs, TraceSummary};
use crate::trace::{self, span};

/// Ring size of every row.
pub const N: usize = 1 << 14;
/// Trials per row.
pub const TRIALS: usize = 16;
/// Row seeds the loop cycles through.
pub const SEEDS: u64 = 4;
/// Set-ups per run (the reported set-up time is their median).
const SETUPS: usize = 9;

fn row_seed(seed: u64, k: u64) -> u64 {
    derive_seed(seed, k % SEEDS)
}

/// One row through the public sweep API.
fn row(base_seed: u64) -> Result<SweepRow, String> {
    Sweep::on(Problem::LargestId, Topology::Cycle, vec![N])
        .with_policy(AssignmentPolicy::Random { base_seed })
        .with_trials(TRIALS)
        .run()
        .map_err(|e| e.to_string())
        .and_then(|mut result| result.rows.pop().ok_or_else(|| "sweep returned no row".to_string()))
}

/// Checks a row: within the paper's worst-case total, and bit-identical to
/// every earlier row with the same seed (compared through the shortest
/// round-trip rendering of every field, which is exact for floats).
fn check(row: &SweepRow, base_seed: u64, seen: &mut BTreeMap<u64, String>) -> Result<(), String> {
    let bound = theory::largest_id_worst_total(N) as f64;
    if row.total > bound {
        return Err(format!("row total {} exceeds the worst-case bound {bound}", row.total));
    }
    let rendered = format!("{row:?}");
    match seen.get(&base_seed) {
        Some(first) if *first != rendered => {
            Err(format!("row for seed {base_seed} changed between runs"))
        }
        Some(_) => Ok(()),
        None => {
            seen.insert(base_seed, rendered);
            Ok(())
        }
    }
}

/// Closed loop of rows until `duration` has passed; returns per-row
/// latencies and rows completed.
fn load(
    args: &Args,
    duration: std::time::Duration,
    seen: &mut BTreeMap<u64, String>,
    report: &mut Report,
    mut one: impl FnMut(u64) -> Result<SweepRow, String>,
) -> (Vec<u64>, u64, f64) {
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut k = 0;
    while start.elapsed() < duration {
        let seed = row_seed(args.seed, k);
        let t = Instant::now();
        let result = one(seed);
        latencies.push(ns_since(t));
        let ok = result.and_then(|r| check(&r, seed, seen));
        report.tally(ok);
        k += 1;
    }
    (latencies, k, start.elapsed().as_secs_f64())
}

/// The untraced run: set-up time, then the closed loop.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut seen = BTreeMap::new();
    let respawns_before = respawns();
    let mut setup = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t = Instant::now();
        let first = row(row_seed(args.seed, 0));
        setup.push(t.elapsed().as_secs_f64());
        report.tally(first.and_then(|r| check(&r, row_seed(args.seed, 0), &mut seen)));
    }
    let (mut latencies, rows, secs) = load(args, args.duration(), &mut seen, report, row);
    let probes = (rows as usize * N * TRIALS) as f64;
    report.note(format!("sweep: {rows} rows of n={N} x {TRIALS} trials in {secs:.3} s"));
    end_to_end(report, &setup, probes / secs, &mut latencies)?;
    report.check(respawns() == respawns_before, || "pool workers respawned".to_string());
    Ok(())
}

/// A sweep row decomposed into the public calls `Sweep::run` makes, its
/// trials in order, aggregated exactly as the sweep aggregates them.
fn decomposed_row(base_seed: u64, algorithm: &Counting) -> Result<SweepRow, String> {
    span("root.row", 1, || {
        let policy = AssignmentPolicy::Random { base_seed };
        let base = span("graph.build", N as u64, || {
            Topology::Cycle.build_for(N, ComponentMode::RequireConnected)
        })
        .map_err(|e| e.to_string())?;
        let csr = span("graph.freeze", 2 * base.edge_count() as u64, || base.freeze());
        let mut session =
            span("runtime.session", N as u64, || FrozenExecutor::from_csr(csr.clone()));
        let mut sets: Vec<MeasureSet> = Vec::with_capacity(TRIALS);
        for t in 0..TRIALS {
            let assignment = policy.assignment_for_trial(t);
            sets.push(layers::trial(&base, &csr, &mut session, &assignment, algorithm)?);
        }
        let mean = |f: fn(&MeasureSet) -> f64| sets.iter().map(f).sum::<f64>() / sets.len() as f64;
        let averages: Vec<f64> = sets.iter().map(|s| s.node_averaged).collect();
        let average_summary = Summary::from_values(&averages);
        let mut cdf = RadiusCdf::empty();
        for set in &sets {
            cdf.merge(&set.cdf);
        }
        Ok(SweepRow {
            topology: Topology::Cycle,
            n: N,
            trials: TRIALS,
            components: 1,
            worst_case: mean(|s| s.worst_case),
            average: average_summary.mean,
            average_summary,
            total: mean(|s| s.total),
            edge_averaged: mean(|s| s.edge_averaged),
            edge_averaged_mean: mean(|s| s.edge_averaged_mean),
            median: mean(|s| s.median),
            cdf,
            sampled: None,
        })
    })
}

/// Exact work of one row (the first seed's): every trial run with the
/// counting wrapper and replayed.
fn count_row(seed: u64) -> Result<Work, String> {
    let policy = AssignmentPolicy::Random { base_seed: row_seed(seed, 0) };
    let mut csr = Topology::Cycle
        .build_for(N, ComponentMode::RequireConnected)
        .map_err(|e| e.to_string())?
        .freeze();
    let mut total = Work::default();
    for t in 0..TRIALS {
        csr.set_identifiers(&policy.assignment_for_trial(t).identifiers(N, 0));
        for w in population_work(&csr)? {
            total.add(w);
        }
    }
    Ok(total)
}

/// The traced run: exact counts, an untraced and a traced half of the
/// loop, then the fill-in pass and the per-layer metrics.
pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let respawns_before = respawns();
    let mut dir = WorkDir::create("sweep")?;
    let work = count_row(args.seed)?;
    let mut seen = BTreeMap::new();
    let (_, plain_rows, plain_secs) = load(args, args.half(), &mut seen, report, row);
    // Every decomposed row is compared with the `Sweep::run` row of its
    // seed, so make sure each seed has one.
    for k in 0..SEEDS {
        let seed = row_seed(args.seed, k);
        if !seen.contains_key(&seed) {
            report.tally(row(seed).and_then(|r| check(&r, seed, &mut seen)));
        }
    }

    let algorithm = Counting::new();
    trace::install(0);
    let (_, traced_rows, traced_secs) =
        load(args, args.half(), &mut seen, report, |seed| decomposed_row(seed, &algorithm));
    let all = trace::take().ok_or("load recorder lost")?;
    report.note(format!(
        "sweep traced: {plain_rows} rows untraced in {plain_secs:.3} s, {traced_rows} decomposed in {traced_secs:.3} s"
    ));

    // The service, sample and codec layers, on the workload's own ring.
    let mut graph = Topology::Cycle.build(N).map_err(|e| e.to_string())?;
    IdAssignment::Shuffled { seed: row_seed(args.seed, 0) }
        .apply(&mut graph)
        .map_err(|e| e.to_string())?;
    let csr = graph.freeze();
    let service = RadiusQueryService::new(
        algorithm.clone(),
        Knowledge::none(),
        csr.clone(),
        Arc::new(WallClock::new()),
        ServiceConfig::default(),
    );
    let nodes: Vec<NodeId> = (0..N as u64)
        .map(|i| NodeId::new((derive_seed(args.seed, i) % N as u64) as usize))
        .collect();
    let inputs = PassInputs {
        graph: &graph,
        csr: &csr,
        service: &service,
        algorithm: &algorithm,
        nodes: &nodes,
        seed: args.seed,
    };
    let summary = TraceSummary {
        partition: all.layer_self_times(all.decide_ns(trace::timer_ns())),
        all,
        work,
        work_units: 1,
        service: Vec::new(),
        completed: 0,
        respawns: respawns() - respawns_before,
        rates: (plain_rows as f64 / plain_secs, traced_rows as f64 / traced_secs),
    };
    layers::finish(report, summary, &inputs, &mut dir, &format!("trace-sweep-{}.tsv", args.seed))
}
