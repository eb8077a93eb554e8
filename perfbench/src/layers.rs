//! The traced decompositions of the public calls the workloads make, the
//! fill-in pass that reaches layers a workload's own loop does not call,
//! and the per-layer metrics computed from the recorded spans.

use std::collections::BTreeMap;
use std::sync::Arc;

use avglocal::algorithms::{verify, LargestId};
use avglocal::graph::{CsrGraph, Graph, IdAssignment, NodeId};
use avglocal::runtime::{BallAlgorithm, FrozenExecutor, Knowledge, NodeBatchOptions, ProbeOptions};
use avglocal::service::{
    Generation, QueryOptions, QueryReply, QueryRequest, RadiusQueryService, ServiceConfig,
};
use avglocal::{MeasureSet, RadiusProfile, SamplePlan, SampledMeasureSet};

use crate::common::{stats_delta, Metric, Report, WorkDir};
use crate::count::Work;
use crate::stats::per_unit;
use crate::trace::{self, add_units, span, Recorder};

/// One decomposed identifier-assignment trial on a frozen session, exactly
/// as a sweep runs it: clone the base graph and assign identifiers, swap
/// the session's identifier table, run every node, verify, fold measures.
///
/// # Errors
///
/// A failing step or a wrong output.
pub fn trial<A>(
    base: &Graph,
    csr: &CsrGraph,
    session: &mut FrozenExecutor,
    assignment: &IdAssignment,
    algorithm: &A,
) -> Result<MeasureSet, String>
where
    A: BallAlgorithm<Output = bool> + Sync,
{
    let n = base.node_count() as u64;
    let (graph, ids) = span("graph.trial_ids", n, || {
        let mut graph = base.clone();
        assignment.apply(&mut graph).map(|()| {
            let ids: Vec<_> = graph.identifiers().collect();
            (graph, ids)
        })
    })
    .map_err(|e| format!("assign: {e}"))?;
    span("runtime.set_ids", n, || session.set_identifiers(&ids));
    let run = span("runtime.run", n, || session.run(algorithm, Knowledge::none()))
        .map_err(|e| e.to_string())?;
    if !span("algorithms.verify", n, || verify::is_correct_largest_id(&graph, run.outputs())) {
        return Err("largest-id outputs failed verification".to_string());
    }
    Ok(span("core.measure_fold", n, || {
        MeasureSet::of_csr(&RadiusProfile::from_ball_execution(&run), csr)
    }))
}

/// Every node's output and radius from one verified full-population run,
/// with its measures folded and cross-checked against the radii.
///
/// # Errors
///
/// A failing run, a wrong output, or measures that disagree.
pub fn reference_run(graph: &Graph, csr: &CsrGraph) -> Result<(Vec<bool>, Vec<usize>), String> {
    let n = csr.node_count() as u64;
    let session = FrozenExecutor::from_csr(csr.clone());
    let run = span("runtime.run", n, || session.run(&LargestId, Knowledge::none()))
        .map_err(|e| e.to_string())?;
    if !span("algorithms.verify", n, || verify::is_correct_largest_id(graph, run.outputs())) {
        return Err("reference outputs failed verification".to_string());
    }
    let measures = span("core.measure_fold", n, || {
        MeasureSet::of_csr(&RadiusProfile::from_ball_execution(&run), csr)
    });
    let (outputs, radii) = run.into_parts();
    if measures.total == radii.iter().sum::<usize>() as f64 {
        Ok((outputs, radii))
    } else {
        Err("reference measures disagree with the radii".to_string())
    }
}

/// One traced single-node query: the service call itself.
///
/// # Errors
///
/// The service's error, described.
pub fn point_query<A: BallAlgorithm>(
    service: &RadiusQueryService<A>,
    node: NodeId,
) -> Result<QueryReply<A::Output>, String> {
    span("root.request", 1, || {
        span("service.query", 1, || service.query_with(node, QueryOptions::new()))
    })
    .map_err(|e| e.to_string())
}

/// The decomposition paired with [`point_query`]: pin the generation and
/// probe the same node on its session.
///
/// # Errors
///
/// The probe's error, described.
pub fn point_pair<A: BallAlgorithm>(
    service: &RadiusQueryService<A>,
    algorithm: &A,
    node: NodeId,
) -> Result<(A::Output, usize, u64), String> {
    span("root.pair", 1, || {
        let generation = span("service.pin", 1, || service.pin());
        span("runtime.probe", 1, || {
            generation.session().run_node_with(
                node,
                algorithm,
                Knowledge::none(),
                ProbeOptions::new(),
            )
        })
        .map(|(output, radius)| (output, radius, generation.epoch()))
    })
    .map_err(|e| e.to_string())
}

/// A decomposed sample request and what its pairing needs.
#[derive(Debug)]
pub struct SampleOutcome {
    /// Epoch the estimate describes.
    pub epoch: u64,
    /// The estimate.
    pub measures: SampledMeasureSet,
    /// Batch entries that completed.
    pub completed: u64,
    /// The probed radii, aligned with `nodes`.
    pub radii: Vec<usize>,
    /// The pinned generation and the drawn nodes, for [`batch_pair`].
    pub generation: Arc<Generation>,
    /// The drawn nodes.
    pub nodes: Vec<NodeId>,
}

/// `query_sample` broken into its public calls: pin, draw, batch on the
/// pinned generation, estimate.
///
/// # Errors
///
/// The service's error, described.
pub fn sample_request<A>(
    service: &RadiusQueryService<A>,
    plan: SamplePlan,
    seed: u64,
) -> Result<SampleOutcome, String>
where
    A: BallAlgorithm + Sync,
    A::Output: Send,
{
    span("root.request", 1, || {
        let generation = span("service.pin", 1, || service.pin());
        let sample = span("core.sample_draw", 1, || plan.draw(generation.session().csr(), seed));
        let probes = sample.probes() as u64;
        let request = QueryRequest::nodes(sample.nodes().to_vec(), QueryOptions::new());
        let reply = span("service.batch", probes, || service.query_batch_on(&generation, &request))
            .map_err(|e| e.to_string())?;
        let radii = reply.radii().map_err(|e| e.to_string())?;
        let measures = span("core.estimate", probes, || sample.estimate(&radii));

        Ok(SampleOutcome {
            epoch: reply.epoch(),
            measures,
            completed: reply.completed() as u64,
            radii,
            generation,
            nodes: sample.nodes().to_vec(),
        })
    })
}

/// The pairing of [`sample_request`]: the same nodes probed directly on the
/// pinned session with the service's batch shard size, so the batch
/// path's own overhead is the difference.
pub fn batch_pair<A>(outcome: &SampleOutcome, algorithm: &A) -> Vec<usize>
where
    A: BallAlgorithm + Sync,
    A::Output: Send,
{
    span("root.pair", 1, || {
        let options = NodeBatchOptions::new().with_shard(ServiceConfig::default().batch_shard);
        span("runtime.batch", outcome.nodes.len() as u64, || {
            outcome.generation.session().run_nodes_with(
                &outcome.nodes,
                algorithm,
                Knowledge::none(),
                &options,
            )
        })
        .into_iter()
        .map(|r| r.map_or(usize::MAX, |(_, radius)| radius))
        .collect()
    })
}

/// One traced publish: publish the bytes, then decode them again (the
/// pairing). The pairing runs second so both decodes find the allocator
/// equally warm: the publish frees the generation it replaces.
///
/// # Errors
///
/// A decode or publish error, described.
pub fn publish<A: BallAlgorithm>(
    service: &RadiusQueryService<A>,
    bytes: &[u8],
) -> Result<u64, String> {
    span("root.publish", 1, || {
        let len = bytes.len() as u64;
        let epoch = span("service.publish", len, || service.publish_bytes(bytes))
            .map_err(|e| e.to_string())?;
        span("graph.decode", len, || CsrGraph::from_bytes(bytes)).map_err(|e| e.to_string())?;
        Ok(epoch)
    })
}

/// The inputs the fill-in pass runs on: the workload's own graph and
/// service.
#[derive(Debug)]
pub struct PassInputs<'a, A: BallAlgorithm> {
    /// The workload's graph, with its identifiers.
    pub graph: &'a Graph,
    /// Its frozen snapshot.
    pub csr: &'a CsrGraph,
    /// A service over the snapshot.
    pub service: &'a RadiusQueryService<A>,
    /// The algorithm the service runs, for the pairings.
    pub algorithm: &'a A,
    /// Nodes to query, from the workload's seed.
    pub nodes: &'a [NodeId],
    /// Seed for the pass's sample draws and identifier trial.
    pub seed: u64,
}

/// Repetitions of each fill-in operation.
const PASS_REPS: usize = 3;
/// Single-node queries in the fill-in pass.
const PASS_QUERIES: usize = 2_000;

/// Measures, on the workload's own graph, every layer call that `seen`
/// (the spans of the set-up and the load loop) does not contain yet, so
/// every per-layer metric is measured on every workload. Each call runs a
/// fixed number of times under a `root.pass` span.
///
/// # Errors
///
/// A failing call or a wrong answer.
fn fill_in<A>(seen: &Recorder, input: &PassInputs<'_, A>, dir: &mut WorkDir) -> Result<u64, String>
where
    A: BallAlgorithm<Output = bool> + Sync,
{
    let mut completed = 0;
    let missing = |names: &[&str]| names.iter().any(|n| !seen.has(n));
    if missing(&["graph.encode", "graph.decode"]) {
        for _ in 0..PASS_REPS {
            span("root.pass", 1, || {
                let encoded = span("graph.encode", 0, || {
                    let b = input.csr.to_bytes();
                    add_units(b.len() as u64);
                    b
                });
                let decoded =
                    span("graph.decode", encoded.len() as u64, || CsrGraph::from_bytes(&encoded))
                        .map_err(|e| e.to_string())?;
                if decoded == *input.csr {
                    Ok(())
                } else {
                    Err("snapshot codec round trip changed the snapshot".to_string())
                }
            })?;
        }
    }
    if missing(&["service.persist", "service.recover"]) {
        for _ in 0..PASS_REPS {
            let store =
                avglocal::service::SnapshotStore::open(dir.store()).map_err(|e| e.to_string())?;
            span("root.pass", 1, || {
                span("service.persist", 1, || store.persist(1, input.csr))
                    .map_err(|e| e.to_string())?;
                let recovered = span("service.recover", 1, || store.recover());
                match recovered.durable {
                    Some((1, csr)) if csr == *input.csr => Ok(()),
                    _ => Err("store did not recover the persisted snapshot".to_string()),
                }
            })?;
        }
    }
    let trial_spans = [
        "graph.trial_ids",
        "runtime.set_ids",
        "runtime.run",
        "algorithms.verify",
        "core.measure_fold",
    ];
    if missing(&trial_spans) {
        let mut session = FrozenExecutor::from_csr(input.csr.clone());
        for k in 0..PASS_REPS {
            let assignment =
                IdAssignment::Shuffled { seed: avglocal::graph::derive_seed(input.seed, k as u64) };
            span("root.pass", 1, || {
                trial(input.graph, input.csr, &mut session, &assignment, input.algorithm)
            })?;
        }
    }
    if missing(&["service.pin", "runtime.probe", "service.query"]) {
        for &node in input.nodes.iter().cycle().take(PASS_QUERIES) {
            let reply = point_query(input.service, node)?;
            let (output, radius, _) = point_pair(input.service, input.algorithm, node)?;
            if (reply.output, reply.radius) != (output, radius) {
                return Err(format!("query of {node:?} disagrees with a direct probe"));
            }
        }
    }
    if missing(&["core.sample_draw", "service.batch", "runtime.batch", "core.estimate"]) {
        let plan = SamplePlan::Uniform { budget: input.csr.node_count().div_ceil(10) };
        for k in 0..PASS_REPS {
            let outcome = sample_request(input.service, plan, plan.seed_for(input.seed, k))?;
            completed += outcome.completed;
            if batch_pair(&outcome, input.algorithm) != outcome.radii {
                return Err("batch reply disagrees with a direct batch probe".to_string());
            }
        }
    }
    if missing(&["service.publish"]) {
        let bytes = input.csr.to_bytes();
        for _ in 0..PASS_REPS {
            publish(input.service, &bytes)?;
        }
    }
    Ok(completed)
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug)]
pub struct TraceSummary {
    /// Spans of the whole traced run: set-up, load loop and fill-in.
    pub all: Recorder,
    /// Self time by layer over the traced load loop, and the loop's wall
    /// time they partition.
    pub partition: (BTreeMap<&'static str, u64>, u64),
    /// Exact work of the workload's count pass.
    pub work: Work,
    /// Units of work (rows, queries, sample requests) the count pass
    /// covers.
    pub work_units: u64,
    /// Service counter deltas over the traced half and the fill-in pass.
    pub service: Vec<(&'static str, u64)>,
    /// Completed batch entries seen in replies over the same span.
    pub completed: u64,
    /// Pool worker respawns over the run.
    pub respawns: u64,
    /// Units of work per second without, then with, tracing.
    pub rates: (f64, f64),
}

/// The layers the self-time partition reports, with their share metric.
const LAYERS: [(&str, &str); 6] = [
    ("graph", "share.graph"),
    ("runtime", "share.runtime"),
    ("algorithms", "share.algorithms"),
    ("core", "share.core"),
    ("service", "share.service"),
    ("unattributed", "share.unattributed"),
];

/// The per-layer metrics of a traced run, plus human-readable notes.
#[must_use]
fn per_layer(t: &TraceSummary, notes: &mut Vec<String>) -> Vec<Metric> {
    let s = |name: &str| t.all.get(name);
    let ns_per_unit = |name: &str| {
        let st = s(name);
        per_unit(st.total_ns, st.units)
    };
    let mean_ns = |name: &str| {
        let st = s(name);
        per_unit(st.total_ns, st.count)
    };
    let p50 = |name: &str| trace::p50(&s(name)) as f64;
    let units = t.work_units.max(1) as f64;
    let per_probe_arcs = per_unit(t.work.arcs, t.work.probes);
    let service = |name: &str| t.service.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v);
    let entries = service("service.batch_entries");
    let mut metrics = vec![
        Metric::new("graph.build_ms", mean_ns("graph.build") / 1e6, "ms", s("graph.build").count),
        Metric::new(
            "graph.freeze_ns_per_arc",
            ns_per_unit("graph.freeze"),
            "ns",
            s("graph.freeze").count,
        ),
        Metric::new(
            "graph.trial_ids_ns_per_node",
            ns_per_unit("graph.trial_ids"),
            "ns",
            s("graph.trial_ids").count,
        ),
        Metric::new(
            "graph.encode_ns_per_byte",
            ns_per_unit("graph.encode"),
            "ns",
            s("graph.encode").count,
        ),
        Metric::new(
            "graph.decode_ns_per_byte",
            ns_per_unit("graph.decode"),
            "ns",
            s("graph.decode").count,
        ),
        Metric::new(
            "runtime.set_ids_ns_per_node",
            ns_per_unit("runtime.set_ids"),
            "ns",
            s("runtime.set_ids").count,
        ),
        Metric::new(
            "runtime.run_ns_per_probe",
            ns_per_unit("runtime.run"),
            "ns",
            s("runtime.run").count,
        ),
        Metric::new(
            "runtime.run_ns_per_arc",
            ns_per_unit("runtime.run") / per_probe_arcs.max(1.0),
            "ns",
            s("runtime.run").count,
        ),
        Metric::new("runtime.probe_p50_ns", p50("runtime.probe"), "ns", s("runtime.probe").count),
        Metric::new(
            "runtime.batch_ns_per_entry",
            ns_per_unit("runtime.batch"),
            "ns",
            s("runtime.batch").count,
        ),
        Metric::new("runtime.probes", t.work.probes as f64 / units, "count", t.work_units),
        Metric::new("runtime.ball_volume", t.work.volume as f64 / units, "count", t.work_units),
        Metric::new("runtime.arcs_scanned", t.work.arcs as f64 / units, "count", t.work_units),
        Metric::new("pool.respawns", t.respawns as f64, "count", 1),
        Metric::new(
            "algorithms.decide_calls",
            t.work.decides as f64 / units,
            "count",
            t.work_units,
        ),
        Metric::new(
            "algorithms.decide_ns_per_call",
            t.all.decide_ns(trace::timer_ns()),
            "ns",
            t.all.decide_samples.len() as u64,
        ),
        Metric::new(
            "algorithms.verify_ns_per_node",
            ns_per_unit("algorithms.verify"),
            "ns",
            s("algorithms.verify").count,
        ),
        Metric::new(
            "core.measure_fold_ns_per_node",
            ns_per_unit("core.measure_fold"),
            "ns",
            s("core.measure_fold").count,
        ),
        Metric::new(
            "core.sample_draw_us",
            mean_ns("core.sample_draw") / 1e3,
            "us",
            s("core.sample_draw").count,
        ),
        Metric::new(
            "core.estimate_us",
            mean_ns("core.estimate") / 1e3,
            "us",
            s("core.estimate").count,
        ),
        Metric::new(
            "service.query_overhead_ns",
            p50("service.query") - p50("runtime.probe"),
            "ns",
            s("service.query").count,
        ),
        Metric::new("service.pin_ns", p50("service.pin"), "ns", s("service.pin").count),
        Metric::new(
            "service.batch_overhead_us",
            (mean_ns("service.batch") - mean_ns("runtime.batch")) / 1e3,
            "us",
            s("service.batch").count,
        ),
        Metric::new(
            "service.install_ms",
            (p50("service.publish") - p50("graph.decode")) / 1e6,
            "ms",
            s("service.publish").count,
        ),
        Metric::new(
            "service.persist_ms",
            mean_ns("service.persist") / 1e6,
            "ms",
            s("service.persist").count,
        ),
        Metric::new(
            "service.recover_ms",
            mean_ns("service.recover") / 1e6,
            "ms",
            s("service.recover").count,
        ),
    ];
    for &(name, value) in &t.service {
        metrics.push(Metric::new(name, value as f64, "count", 1));
    }
    metrics.push(Metric::new(
        "service.completed_ratio",
        if entries == 0 { 1.0 } else { t.completed as f64 / entries as f64 },
        "ratio",
        entries,
    ));

    let (by_layer, wall) = &t.partition;
    let wall = *wall;
    let accounted: u64 = by_layer.values().sum();
    notes.push(format!(
        "traced load wall {:.3} ms; layer self times + unattributed = {:.3} ms",
        wall as f64 / 1e6,
        accounted as f64 / 1e6
    ));
    for (layer, name) in LAYERS {
        let own = by_layer.get(layer).copied().unwrap_or(0);
        let share = 100.0 * per_unit(own, wall);
        notes.push(format!("  {layer:<12} self {:>12.3} ms  {share:>6.2} %", own as f64 / 1e6));
        metrics.push(Metric::new(name, share, "%", 1));
    }
    metrics.extend([
        Metric::new("trace.load_wall_ms", wall as f64 / 1e6, "ms", 1),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (t.rates.0 / t.rates.1.max(f64::MIN_POSITIVE) - 1.0),
            "%",
            1,
        ),
    ]);
    metrics
}

/// Ends a traced run: runs the fill-in pass on `inputs`, computes the
/// per-layer metrics from `summary` (whose `service` and `completed` cover
/// the traced half; the pass adds its own), writes the raw spans and
/// records everything in `report`.
///
/// # Errors
///
/// A failing fill-in call, or an unwritable trace file.
pub fn finish<A>(
    report: &mut Report,
    mut summary: TraceSummary,
    inputs: &PassInputs<'_, A>,
    dir: &mut WorkDir,
    trace_name: &str,
) -> Result<(), String>
where
    A: BallAlgorithm<Output = bool> + Sync,
{
    let before = inputs.service.stats();
    trace::install(TRACE_PASS_THREAD);
    let completed = fill_in(&summary.all, inputs, dir);
    let pass = trace::take().ok_or("fill-in recorder lost")?;
    summary.completed += completed?;
    summary.all.merge(pass);
    let pass_delta = stats_delta(&inputs.service.stats(), &before);
    for (name, more) in pass_delta {
        match summary.service.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += more,
            None => summary.service.push((name, more)),
        }
    }
    report.check(summary.respawns == 0, || "pool workers respawned".to_string());
    let path = dir.trace_file(trace_name);
    summary.all.write_raw(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    report.note(format!("spans written to {}", path.display()));
    let metrics = per_layer(&summary, &mut report.notes);
    report.metrics.extend(metrics);
    Ok(())
}

/// Recorder thread tag of the fill-in pass.
const TRACE_PASS_THREAD: u64 = 99;
