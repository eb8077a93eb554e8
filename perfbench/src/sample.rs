//! `sample_swap`: sampled estimates on a hub-weighted graph while a
//! publisher swaps between two snapshots of it. One reader thread in a
//! closed loop, one publisher on a fixed schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use avglocal::algorithms::LargestId;
use avglocal::graph::{derive_seed, ComponentMode, CsrGraph, Graph, IdAssignment, Topology};
use avglocal::runtime::BallAlgorithm;
use avglocal::service::{QueryOptions, RadiusQueryService};
use avglocal::{SamplePlan, SampleQueries, SampledMeasureSet};

use crate::common::{
    check_conservation, closed_loop, cold_start, end_to_end, ns_since, respawns, stats_delta, Args,
    LoopOut, Report, WorkDir,
};
use crate::count::{population_work, work_of, Counting, Work};
use crate::layers::{self, batch_pair, sample_request, PassInputs, TraceSummary};
use crate::stats;
use crate::trace::{self, add_units, span, Recorder};

/// Nodes of the preferential-attachment graph.
pub const N: usize = 1 << 16;
/// Edges each new node attaches with.
pub const M: usize = 2;
/// Probes per sample request: 10% of the nodes.
pub const BUDGET: usize = N / 10;
/// Sample seeds per plan that the reader cycles through.
pub const SEEDS: u64 = 8;
/// Publisher period.
pub const PERIOD: Duration = Duration::from_millis(250);
/// Set-ups per run (the reported set-up time is their median).
const SETUPS: usize = 7;
/// Recorder tag of the publisher thread.
const PUBLISHER: u64 = 7;

/// Seed of the graph instance. The instance is the same for every
/// workload seed: its hub structure sets most of a request's cost, and a
/// graph redrawn per seed moved the work per request by ±15 %, while the
/// seed-driven identifier assignments and sample streams move it by ±5 %.
const GRAPH_SEED: u64 = 2;

fn topology() -> Topology {
    Topology::PreferentialAttachment { m: M, seed: GRAPH_SEED }
}

fn snapshot_ids(seed: u64, snapshot: u64) -> IdAssignment {
    IdAssignment::Shuffled { seed: derive_seed(seed, 3 + snapshot) }
}

const PLANS: [SamplePlan; 2] =
    [SamplePlan::Uniform { budget: BUDGET }, SamplePlan::StratifiedByDegree { budget: BUDGET }];

/// Request `i` alternates the plans and cycles the seeds; returns its
/// table slot, plan and sample seed.
fn request(seed: u64, i: u64) -> (usize, SamplePlan, u64) {
    let plan = PLANS[(i % 2) as usize];
    let k = (i / 2) % SEEDS;
    ((i % (2 * SEEDS)) as usize, plan, plan.seed_for(seed, k as usize))
}

/// The snapshot an epoch serves: odd epochs (1, 3, …) are snapshot A,
/// even ones snapshot B.
fn snapshot_of(epoch: u64) -> usize {
    usize::from(epoch.is_multiple_of(2))
}

/// The estimate every (snapshot, request slot) pair must produce, computed
/// from full-population runs before the load.
struct Table {
    estimates: [Vec<SampledMeasureSet>; 2],
}

impl Table {
    fn compute(seed: u64, snapshots: &[(Graph, CsrGraph); 2]) -> Result<Table, String> {
        let mut estimates: [Vec<SampledMeasureSet>; 2] = Default::default();
        for (slot, (graph, csr)) in estimates.iter_mut().zip(snapshots) {
            let (_, radii) = layers::reference_run(graph, csr)?;
            *slot = (0..2 * SEEDS)
                .map(|i| {
                    let (_, plan, sample_seed) = request(seed, i);
                    plan.draw(csr, sample_seed).estimate_against(&radii)
                })
                .collect();
        }
        Ok(Table { estimates })
    }

    fn check(&self, i: u64, seed: u64, epoch: u64, got: &SampledMeasureSet) -> Result<(), String> {
        let (slot, _, _) = request(seed, i);
        if *got == self.estimates[snapshot_of(epoch)][slot] {
            Ok(())
        } else {
            Err(format!("request {i} on epoch {epoch}: estimate differs from the reference"))
        }
    }
}

/// Snapshot B (same graph, second identifier assignment) and both
/// snapshots' encoded bytes for the publisher.
fn second_snapshot(seed: u64) -> Result<(Graph, CsrGraph), String> {
    let mut graph =
        topology().build_for(N, ComponentMode::RequireConnected).map_err(|e| e.to_string())?;
    snapshot_ids(seed, 1).apply(&mut graph).map_err(|e| e.to_string())?;
    let csr = graph.freeze();
    Ok((graph, csr))
}

fn encode(csr: &CsrGraph) -> Vec<u8> {
    span("graph.encode", 0, || {
        let bytes = csr.to_bytes();
        add_units(bytes.len() as u64);
        bytes
    })
}

/// The inputs of one load phase.
struct World<A: BallAlgorithm> {
    graph: Graph,
    service: RadiusQueryService<A>,
    first: SampledMeasureSet,
    first_epoch: u64,
}

/// Builds the service on snapshot A and answers one sample request;
/// returns the elapsed seconds.
fn start<A>(args: &Args, dir: &mut WorkDir, algorithm: A) -> Result<(f64, World<A>), String>
where
    A: BallAlgorithm<Output = bool> + Sync,
{
    let t = Instant::now();
    let (graph, service) =
        cold_start(&topology(), N, &snapshot_ids(args.seed, 0), &dir.store(), algorithm)?;
    let (_, plan, sample_seed) = request(args.seed, 0);
    let reply =
        service.query_sample(plan, sample_seed, QueryOptions::new()).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    Ok((secs, World { graph, service, first: reply.measures, first_epoch: reply.epoch }))
}

/// What the publisher did.
#[derive(Debug, Default)]
struct Published {
    calls: u64,
    /// Completion time of each publish, measured from when it was due.
    latencies: Vec<u64>,
    /// How late each publish started against its schedule.
    late: Vec<u64>,
    report: Report,
    spans: Option<Recorder>,
}

/// Publishes B, A, B, … every [`PERIOD`] until `duration` has passed (open
/// loop: each publish is due on the schedule, however long the last took).
fn publisher(
    bytes: &[Vec<u8>; 2],
    duration: Duration,
    traced: bool,
    publish: impl Fn(&[u8]) -> Result<u64, String>,
) -> Published {
    if traced {
        trace::install(PUBLISHER);
    }
    let mut out = Published::default();
    let start = Instant::now();
    for k in 1u64.. {
        let due = start + PERIOD * u32::try_from(k).unwrap_or(u32::MAX);
        if due >= start + duration {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        out.late.push(ns_since(due));
        let snapshot = &bytes[usize::from(k % 2 == 1)];
        let result = publish(snapshot);
        out.latencies.push(ns_since(due));
        out.calls += 1;
        out.report.tally(result.and_then(|epoch| {
            if epoch == 1 + k {
                Ok(())
            } else {
                Err(format!("publish {k} installed epoch {epoch}, expected {}", 1 + k))
            }
        }));
    }
    out.spans = trace::take();
    out
}

/// Runs the reader loop beside the publisher. `op` is one reader request
/// returning its latency and the probes it drew; with `decomposed`, both
/// the reader's requests (through `op`) and the publisher's calls are the
/// traced decompositions.
fn with_publisher<A, F>(
    service: &RadiusQueryService<A>,
    bytes: &[Vec<u8>; 2],
    duration: Duration,
    (decomposed, traced): (bool, bool),
    op: F,
) -> (LoopOut, Published, u64)
where
    A: BallAlgorithm + Sync + Send,
    F: Fn(u64) -> Result<(u64, u64), String> + Sync,
{
    let probes = AtomicU64::new(0);
    let before = service.stats();
    let (reader, published) = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            publisher(bytes, duration, traced, |b| {
                if decomposed {
                    layers::publish(service, b)
                } else {
                    service.publish_bytes(b).map_err(|e| e.to_string())
                }
            })
        });
        let reader = closed_loop(1, duration, 1, traced, |_, i| {
            let (ns, drawn) = op(i)?;
            // ordering: `Relaxed` — a tally read after the loop's threads
            // have been joined.
            probes.fetch_add(drawn, Ordering::Relaxed);
            Ok(ns)
        });
        (reader, publisher.join().expect("publisher panicked"))
    });
    let mut reader = reader;
    let delta = stats_delta(&service.stats(), &before);
    let drawn = probes.load(Ordering::Relaxed);
    let requests = reader.report.attempted;
    check_conservation(&mut reader.report, &delta, requests, requests, drawn, published.calls);
    (reader, published, drawn)
}

/// The untraced run.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let respawns_before = respawns();
    let mut dir = WorkDir::create("sample_swap")?;
    let mut setup = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    let mut world = None;
    for _ in 0..SETUPS {
        let (secs, started) = start(args, &mut dir, LargestId)?;
        setup.push(secs);
        if inputs.is_none() {
            let a = started.service.pin().session().csr().clone();
            let b = second_snapshot(args.seed)?;
            let bytes = [encode(&a), encode(&b.1)];
            let table = Table::compute(args.seed, &[(started.graph.clone(), a), b])?;
            inputs = Some((table, bytes));
        }
        let (table, _) = inputs.as_ref().expect("computed above");
        report.tally(table.check(0, args.seed, started.first_epoch, &started.first));
        world = Some(started);
    }
    let ((table, bytes), world) = (inputs.expect("computed"), world.expect("set up"));
    let (mut reader, published, drawn) =
        with_publisher(&world.service, &bytes, args.duration(), (false, false), |i| {
            let (_, plan, sample_seed) = request(args.seed, i);
            let t = Instant::now();
            let reply = world
                .service
                .query_sample(plan, sample_seed, QueryOptions::new())
                .map_err(|e| e.to_string())?;
            let ns = ns_since(t);
            table.check(i, args.seed, reply.epoch, &reply.measures)?;
            Ok((ns, reply.measures.probes as u64))
        });
    report.note(format!(
        "sample_swap: {} estimates ({drawn} probes) in {:.3} s beside {} publishes",
        reader.ok, reader.secs, published.calls
    ));
    note_publisher(report, &published);
    let rate = reader.ok as f64 / reader.secs;
    report.absorb(std::mem::take(&mut reader.report));
    report.absorb(published.report);
    end_to_end(report, &setup, rate, &mut reader.latencies)?;
    report.check(respawns() == respawns_before, || "pool workers respawned".to_string());
    Ok(())
}

fn note_publisher(report: &mut Report, published: &Published) {
    let ms = |ns: u64| ns as f64 / 1e6;
    report.note(format!(
        "publish: p50 {:.3} ms from due, {} publishes; lateness p50 {:.3} ms, max {:.3} ms",
        ms(stats::percentile(&published.latencies, 500)),
        published.calls,
        ms(stats::percentile(&published.late, 500)),
        ms(published.late.iter().copied().max().unwrap_or(0)),
    ));
}

/// Exact work per sample request, averaged over the reference table's
/// (snapshot, request) pairs.
fn count(seed: u64, csrs: [&CsrGraph; 2]) -> Result<(Work, u64), String> {
    let mut total = Work::default();
    for csr in csrs {
        let per_node = population_work(csr)?;
        for i in 0..2 * SEEDS {
            let (_, plan, sample_seed) = request(seed, i);
            total.add(work_of(plan.draw(csr, sample_seed).nodes(), &per_node));
        }
    }
    Ok((total, 2 * 2 * SEEDS))
}

/// One decomposed sample request, its pairing and its checks.
fn decomposed<A>(
    args: &Args,
    service: &RadiusQueryService<A>,
    algorithm: &A,
    table: &Table,
    completed: &AtomicU64,
    i: u64,
) -> Result<(u64, u64), String>
where
    A: BallAlgorithm<Output = bool> + Sync,
{
    let (_, plan, sample_seed) = request(args.seed, i);
    let t = Instant::now();
    let outcome = sample_request(service, plan, sample_seed)?;
    table.check(i, args.seed, outcome.epoch, &outcome.measures)?;
    if batch_pair(&outcome, algorithm) != outcome.radii {
        return Err(format!("request {i}: batch reply disagrees with a direct batch probe"));
    }
    // ordering: `Relaxed` — a tally read after the threads are joined.
    completed.fetch_add(outcome.completed, Ordering::Relaxed);
    Ok((ns_since(t), outcome.nodes.len() as u64))
}

/// The traced run.
pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let respawns_before = respawns();
    let mut dir = WorkDir::create("sample_swap")?;

    // Untraced half: the decomposed loop, plain algorithm, no recorder.
    let (_, plain) = start(args, &mut dir, LargestId)?;
    let a = plain.service.pin().session().csr().clone();
    let b = second_snapshot(args.seed)?;
    let bytes = [a.to_bytes(), b.1.to_bytes()];
    let (work, work_units) = count(args.seed, [&a, &b.1])?;
    let table = Table::compute(args.seed, &[(plain.graph.clone(), a.clone()), b.clone()])?;
    report.tally(table.check(0, args.seed, plain.first_epoch, &plain.first));
    let unused = AtomicU64::new(0);
    let (mut untraced, plain_published, _) =
        with_publisher(&plain.service, &bytes, args.half(), (true, false), |i| {
            decomposed(args, &plain.service, &LargestId, &table, &unused, i)
        });
    report.absorb(std::mem::take(&mut untraced.report));
    report.absorb(plain_published.report);
    drop(plain);

    // Traced half: traced cold start, encodes and reference runs, then the
    // loop beside the traced publisher.
    let algorithm = Counting::new();
    trace::install(2);
    let started = start(args, &mut dir, algorithm.clone()).and_then(|(_, world)| {
        let bytes = [encode(world.service.pin().session().csr()), encode(&b.1)];
        Table::compute(args.seed, &[(world.graph.clone(), a.clone()), b.clone()])
            .map(|t| (world, bytes, t))
    });
    let mut all = trace::take().ok_or("set-up recorder lost")?;
    let (world, traced_bytes, traced_table) = started?;
    report.check(traced_bytes == bytes, || "snapshot encoding changed between set-ups".to_string());
    report.tally(traced_table.check(0, args.seed, world.first_epoch, &world.first));
    let completed = AtomicU64::new(0);
    let before = world.service.stats();
    let (mut load, published, _) =
        with_publisher(&world.service, &bytes, args.half(), (true, true), |i| {
            decomposed(args, &world.service, &algorithm, &table, &completed, i)
        });
    let delta = stats_delta(&world.service.stats(), &before);
    note_publisher(report, &published);
    report.absorb(std::mem::take(&mut load.report));
    report.absorb(published.report);
    let mut spans = load.spans.take().ok_or("reader recorder lost")?;
    spans.merge(published.spans.ok_or("publisher recorder lost")?);
    let partition = spans.layer_self_times(spans.decide_ns(trace::timer_ns()));
    all.merge(spans);
    report.note(format!(
        "sample_swap traced: {} requests untraced in {:.3} s, {} traced in {:.3} s",
        untraced.ok, untraced.secs, load.ok, load.secs
    ));
    let nodes: Vec<_> = plan_nodes(args.seed, &a);
    let inputs = PassInputs {
        graph: &world.graph,
        csr: &a,
        service: &world.service,
        algorithm: &algorithm,
        nodes: &nodes,
        seed: args.seed,
    };
    let summary = TraceSummary {
        all,
        partition,
        work,
        work_units,
        service: delta,
        completed: completed.load(Ordering::Relaxed),
        respawns: respawns() - respawns_before,
        rates: (untraced.ok as f64 / untraced.secs, load.ok as f64 / load.secs),
    };
    layers::finish(
        report,
        summary,
        &inputs,
        &mut dir,
        &format!("trace-sample_swap-{}.tsv", args.seed),
    )
}

/// The first request's sample: the nodes the fill-in pass queries singly.
fn plan_nodes(seed: u64, csr: &CsrGraph) -> Vec<avglocal::graph::NodeId> {
    let (_, plan, sample_seed) = request(seed, 0);
    plan.draw(csr, sample_seed).nodes().to_vec()
}
