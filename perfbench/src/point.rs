//! `point_ring`: closed loop of single-node queries on a large ring with
//! shuffled identifiers and no publishes, two reader threads.

use std::time::Instant;

use avglocal::algorithms::LargestId;
use avglocal::graph::{derive_seed, CsrGraph, Graph, IdAssignment, NodeId, Topology};
use avglocal::runtime::BallAlgorithm;
use avglocal::service::{QueryOptions, QueryReply, RadiusQueryService};

use crate::common::{
    check_conservation, closed_loop, cold_start, end_to_end, ns_since, respawns, stats_delta, Args,
    LoopOut, Report, WorkDir,
};
use crate::count::{population_work, work_of, Counting, Work};
use crate::layers::{self, point_pair, point_query, PassInputs, TraceSummary};
use crate::trace;

/// Ring size.
pub const N: usize = 1 << 18;
/// Reader threads.
pub const READERS: u64 = 2;
/// Set-ups per run (the reported set-up time is their median).
const SETUPS: usize = 5;
/// Every `STRIDE`-th query latency is kept.
const STRIDE: u64 = 64;

fn ids(seed: u64) -> IdAssignment {
    IdAssignment::Shuffled { seed: derive_seed(seed, 1) }
}

/// Reader `r`'s node script: a seeded random order of every node, cycled.
/// Radii on a ring with shuffled identifiers are heavy-tailed (the largest
/// identifier alone needs radius n/2), so a script drawn with replacement
/// changed the mean ball volume per query by 40 % between seeds; covering
/// every node once per cycle makes each cycle's work the population's.
fn script(seed: u64, reader: u64) -> Vec<NodeId> {
    let order = IdAssignment::Shuffled { seed: derive_seed(seed, 10 + reader) }.permutation(N);
    (0..N).map(|i| NodeId::new(order.get(i))).collect()
}

/// Every node's answer, from one full-population run before the load.
struct Reference {
    outputs: Vec<bool>,
    radii: Vec<usize>,
}

impl Reference {
    fn compute(graph: &Graph, csr: &CsrGraph) -> Result<Reference, String> {
        let (outputs, radii) = layers::reference_run(graph, csr)?;
        Ok(Reference { outputs, radii })
    }

    fn check_reply(&self, node: NodeId, reply: &QueryReply<bool>) -> Result<(), String> {
        self.check(node, reply.output, reply.radius, reply.epoch)
    }

    fn check(&self, node: NodeId, output: bool, radius: usize, epoch: u64) -> Result<(), String> {
        let v = node.index();
        if (output, radius, epoch) == (self.outputs[v], self.radii[v], 1) {
            Ok(())
        } else {
            Err(format!(
                "node {v}: got ({output}, r={radius}, epoch {epoch}), expected ({}, r={}, epoch 1)",
                self.outputs[v], self.radii[v]
            ))
        }
    }
}

/// A cold-started service, its graph and its first answer.
struct Started<A: BallAlgorithm> {
    secs: f64,
    graph: Graph,
    service: RadiusQueryService<A>,
    first: QueryReply<bool>,
}

/// Builds the service and answers one query for `first`, timing both.
fn start<A: BallAlgorithm<Output = bool>>(
    args: &Args,
    dir: &mut WorkDir,
    algorithm: A,
    first: NodeId,
) -> Result<Started<A>, String> {
    let t = Instant::now();
    let (graph, service) =
        cold_start(&Topology::Cycle, N, &ids(args.seed), &dir.store(), algorithm)?;
    let first = service.query_with(first, QueryOptions::new()).map_err(|e| e.to_string())?;
    Ok(Started { secs: t.elapsed().as_secs_f64(), graph, service, first })
}

/// The readers' closed loop through the public query call.
fn api_load<A>(
    args: &Args,
    service: &RadiusQueryService<A>,
    reference: &Reference,
    scripts: &[Vec<NodeId>],
) -> LoopOut
where
    A: BallAlgorithm<Output = bool> + Sync + Send,
{
    closed_loop(READERS, args.duration(), STRIDE, false, |r, i| {
        let node = scripts[r as usize][(i % N as u64) as usize];
        let t = Instant::now();
        let reply = service.query_with(node, QueryOptions::new()).map_err(|e| e.to_string())?;
        let ns = ns_since(t);
        reference.check_reply(node, &reply).map(|()| ns)
    })
}

/// The readers' closed loop with each query paired with its
/// decomposition (pin, then a direct probe of the same node).
fn paired_load<A>(
    args: &Args,
    service: &RadiusQueryService<A>,
    algorithm: &A,
    reference: &Reference,
    scripts: &[Vec<NodeId>],
    traced: bool,
) -> LoopOut
where
    A: BallAlgorithm<Output = bool> + Sync + Send,
{
    closed_loop(READERS, args.half(), STRIDE, traced, |r, i| {
        let node = scripts[r as usize][(i % N as u64) as usize];
        let t = Instant::now();
        reference.check_reply(node, &point_query(service, node)?)?;
        let (output, radius, epoch) = point_pair(service, algorithm, node)?;
        reference.check(node, output, radius, epoch).map(|()| ns_since(t))
    })
}

/// The untraced run.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let respawns_before = respawns();
    let mut dir = WorkDir::create("point_ring")?;
    let scripts: Vec<Vec<NodeId>> = (0..READERS).map(|r| script(args.seed, r)).collect();
    let mut setup = Vec::with_capacity(SETUPS);
    let mut reference = None;
    let mut service = None;
    for _ in 0..SETUPS {
        let started = start(args, &mut dir, LargestId, scripts[0][0])?;
        setup.push(started.secs);
        if reference.is_none() {
            let csr = started.service.pin().session().csr().clone();
            reference = Some(Reference::compute(&started.graph, &csr)?);
        }
        let reference = reference.as_ref().expect("computed above");
        report.tally(reference.check_reply(scripts[0][0], &started.first));
        service = Some(started.service);
    }
    let (service, reference) = (service.expect("set up"), reference.expect("computed"));
    let before = service.stats();
    let mut out = api_load(args, &service, &reference, &scripts);
    let delta = stats_delta(&service.stats(), &before);
    check_conservation(report, &delta, out.report.attempted, 0, 0, 0);
    report
        .note(format!("point_ring: {} queries by {READERS} readers in {:.3} s", out.ok, out.secs));
    let qps = out.ok as f64 / out.secs;
    report.absorb(std::mem::take(&mut out.report));
    end_to_end(report, &setup, qps, &mut out.latencies)?;
    report.check(respawns() == respawns_before, || "pool workers respawned".to_string());
    Ok(())
}

/// Exact work per query over the readers' scripts.
fn count(csr: &CsrGraph, scripts: &[Vec<NodeId>]) -> Result<(Work, u64), String> {
    let per_node = population_work(csr)?;
    let mut total = Work::default();
    for s in scripts {
        total.add(work_of(s, &per_node));
    }
    Ok((total, READERS * N as u64))
}

/// The traced run.
pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let respawns_before = respawns();
    let mut dir = WorkDir::create("point_ring")?;
    let scripts: Vec<Vec<NodeId>> = (0..READERS).map(|r| script(args.seed, r)).collect();

    // Untraced half: the same paired loop, plain algorithm, no recorder.
    let plain = start(args, &mut dir, LargestId, scripts[0][0])?;
    let csr = plain.service.pin().session().csr().clone();
    let reference = Reference::compute(&plain.graph, &csr)?;
    report.tally(reference.check_reply(scripts[0][0], &plain.first));
    let (work, work_units) = count(&csr, &scripts)?;
    let mut untraced = paired_load(args, &plain.service, &LargestId, &reference, &scripts, false);
    report.absorb(std::mem::take(&mut untraced.report));
    drop(plain);

    // Traced half: a traced cold start, the reference run, then the loop.
    let algorithm = Counting::new();
    trace::install(READERS);
    let started = start(args, &mut dir, algorithm.clone(), scripts[0][0]).and_then(|started| {
        let csr = started.service.pin().session().csr().clone();
        Reference::compute(&started.graph, &csr).map(|traced| (started, traced))
    });
    let mut all = trace::take().ok_or("set-up recorder lost")?;
    let (Started { graph, service, first, .. }, traced_reference) = started?;
    report.tally(traced_reference.check_reply(scripts[0][0], &first));
    let before = service.stats();
    let mut load = paired_load(args, &service, &algorithm, &reference, &scripts, true);
    let delta = stats_delta(&service.stats(), &before);
    check_conservation(report, &delta, load.report.attempted, 0, 0, 0);
    report.absorb(std::mem::take(&mut load.report));
    let spans = load.spans.take().ok_or("load recorders lost")?;
    let partition = spans.layer_self_times(spans.decide_ns(trace::timer_ns()));
    all.merge(spans);
    report.note(format!(
        "point_ring traced: {} paired queries untraced in {:.3} s, {} traced in {:.3} s",
        untraced.ok, untraced.secs, load.ok, load.secs
    ));
    let inputs = PassInputs {
        graph: &graph,
        csr: &csr,
        service: &service,
        algorithm: &algorithm,
        nodes: &scripts[0],
        seed: args.seed,
    };
    let summary = TraceSummary {
        all,
        partition,
        work,
        work_units,
        service: delta,
        completed: 0,
        respawns: respawns() - respawns_before,
        rates: (untraced.ok as f64 / untraced.secs, load.ok as f64 / load.secs),
    };
    layers::finish(
        report,
        summary,
        &inputs,
        &mut dir,
        &format!("trace-point_ring-{}.tsv", args.seed),
    )
}
