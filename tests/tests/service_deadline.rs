//! Deadline contract of the radius-query service.
//!
//! A request's deadline budget is measured in [`TestClock`] ticks from the
//! start of its probe attempt, and the probe polls the clock once per
//! ball-growth step, before it inspects the radius-`r` view. Under
//! `TestClock::with_autotick(1)` every read ages the clock by one tick, so
//! the radius at which a budget expires is a closed-form function of the
//! reference decision radii; these tests pin it exactly, for single queries
//! and for batches at several shard sizes.
//!
//! A budget of `u64::MAX`, the default, must cost nothing: the probe runs
//! without a cancel hook and never reads the clock. A budget whose absolute
//! deadline would lie past the tick range never fires either.
//!
//! Batch expiry depends on the order in which participants poll the shared
//! clock, so the binary pins the pool to one participant: the batch then
//! probes its nodes in request order on every CI leg.

use std::sync::Arc;

use avglocal::graph::{generators, CsrGraph, IdAssignment, NodeId};
use avglocal::runtime::examples::NaiveLargestId;
use avglocal::runtime::Knowledge;
use avglocal_service::{
    BatchOutcome, Clock, QueryOptions, QueryRequest, RadiusQueryService, ServiceConfig,
    ServiceError, TestClock,
};

/// Pins the global pool to one participant; every test calls this before
/// its first parallel call so whichever test runs first fixes the size.
fn one_participant() {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("every test of this binary pins the same pool size");
}

/// A cycle on `n` nodes with a shuffled identifier table, frozen.
fn shuffled_cycle(n: usize, seed: u64) -> CsrGraph {
    let mut graph = generators::cycle(n).expect("cycles are valid");
    IdAssignment::Shuffled { seed }.apply(&mut graph).expect("shuffles are permutations");
    graph.freeze()
}

fn service_on(
    csr: CsrGraph,
    clock: Arc<TestClock>,
    config: ServiceConfig,
) -> RadiusQueryService<NaiveLargestId> {
    RadiusQueryService::new(NaiveLargestId, Knowledge::none(), csr, clock, config)
}

/// Decision radius of every node, from a service whose clock never moves.
fn reference_radii(csr: &CsrGraph) -> Vec<usize> {
    let service = service_on(csr.clone(), Arc::new(TestClock::new()), ServiceConfig::default());
    (0..csr.node_count())
        .map(|v| service.query_with(NodeId::new(v), QueryOptions::new()).unwrap().radius)
        .collect()
}

/// What a one-participant batch under budget `budget` on an autotick(1)
/// clock returns: the attempt reads the clock once to fix its start, then
/// every growth step of every node, in request order, reads it once more;
/// the `k`-th of those reads sees `start + k`, and the step whose read
/// reaches `start + budget` and every step after it are cancelled.
/// `Ok(r)` is a completion at radius `r`, `Err(r)` an expiry at radius `r`.
fn expected_batch(radii: &[usize], budget: u64) -> Vec<Result<usize, usize>> {
    let mut reads = 0u64;
    radii
        .iter()
        .map(|&decided| {
            for radius in 0..=decided {
                reads += 1;
                if reads >= budget {
                    return Err(radius);
                }
            }
            Ok(decided)
        })
        .collect()
}

#[test]
fn unbounded_queries_never_read_the_clock() {
    one_participant();
    let csr = shuffled_cycle(40, 11);
    let clock = Arc::new(TestClock::with_autotick(1));
    let service = service_on(csr, Arc::clone(&clock), ServiceConfig::default());

    for v in (0..40).step_by(3).map(NodeId::new) {
        service.query_with(v, QueryOptions::new()).unwrap();
        service.query_with(v, QueryOptions::new().with_deadline(u64::MAX)).unwrap();
    }
    let reply = service.query_batch(&QueryRequest::all(QueryOptions::new())).unwrap();
    assert!(reply.is_complete());
    let reply = service
        .query_batch(&QueryRequest::all(QueryOptions::new().with_deadline(u64::MAX)))
        .unwrap();
    assert!(reply.is_complete());

    assert_eq!(clock.now(), 0, "an unbounded request must not read the clock");
}

#[test]
fn bounded_single_queries_expire_one_step_before_the_budget() {
    one_participant();
    for seed in [1u64, 7, 42] {
        let csr = shuffled_cycle(33, seed);
        let radii = reference_radii(&csr);
        let service =
            service_on(csr, Arc::new(TestClock::with_autotick(1)), ServiceConfig::default());
        let mut expired = 0u64;
        for budget in 1..=4u64 {
            for (v, &decided) in radii.iter().enumerate() {
                let result =
                    service.query_with(NodeId::new(v), QueryOptions::new().with_deadline(budget));
                // The start read returns `s`; the check before radius `r`
                // sees `s + r + 1`, so the budget runs out at radius
                // `budget - 1` unless the node decided earlier.
                let expiry = usize::try_from(budget - 1).unwrap();
                if expiry <= decided {
                    expired += 1;
                    match result {
                        Err(ServiceError::DeadlineExceeded { budget: b, radius }) => {
                            assert_eq!((b, radius), (budget, expiry), "seed {seed} node {v}");
                        }
                        other => panic!("seed {seed} node {v} budget {budget}: {other:?}"),
                    }
                } else {
                    assert_eq!(result.unwrap().radius, decided, "seed {seed} node {v}");
                }
            }
        }
        assert_eq!(service.stats().deadline_expired, expired);
    }
}

#[test]
fn bounded_batches_expire_in_request_order() {
    one_participant();
    let csr = shuffled_cycle(29, 5);
    let radii = reference_radii(&csr);
    for shard in [1usize, 7] {
        for budget in (1..=4u64).chain([9, 30, 60]) {
            let config = ServiceConfig::builder().batch_shard(shard).build().unwrap();
            let service = service_on(csr.clone(), Arc::new(TestClock::with_autotick(1)), config);
            let reply = service
                .query_batch(&QueryRequest::all(QueryOptions::new().with_deadline(budget)))
                .unwrap();
            let got: Vec<Result<usize, usize>> = reply
                .outcomes()
                .iter()
                .map(|outcome| match outcome {
                    BatchOutcome::Completed { radius, .. } => Ok(*radius),
                    BatchOutcome::Expired { radius } => Err(*radius),
                    BatchOutcome::Failed(error) => panic!("unexpected failure {error}"),
                })
                .collect();
            assert_eq!(got, expected_batch(&radii, budget), "shard {shard} budget {budget}");
            let expired = got.iter().filter(|r| r.is_err()).count();
            assert_eq!(reply.expired(), expired);
            assert_eq!(service.stats().deadline_expired, expired as u64);
        }
    }
}

#[test]
fn a_deadline_past_the_tick_range_never_fires() {
    one_participant();
    let csr = shuffled_cycle(64, 3);
    let radii = reference_radii(&csr);
    let options = QueryOptions::new().with_deadline(10);
    // Each request starts six ticks below the ceiling, so `start + 10`
    // lies past it: the budget cannot run out however many steps it takes.
    let near_ceiling = || {
        let clock = Arc::new(TestClock::with_autotick(1));
        clock.advance(u64::MAX - 5);
        clock
    };

    for (v, &decided) in radii.iter().enumerate() {
        let service = service_on(csr.clone(), near_ceiling(), ServiceConfig::default());
        let reply = service.query_with(NodeId::new(v), options).unwrap();
        assert_eq!(reply.radius, decided, "node {v}");
    }
    for shard in [1usize, 7] {
        let config = ServiceConfig::builder().batch_shard(shard).build().unwrap();
        let service = service_on(csr.clone(), near_ceiling(), config);
        let reply = service.query_batch(&QueryRequest::all(options)).unwrap();
        assert_eq!(reply.radii().unwrap(), radii, "shard {shard}");
        assert_eq!(service.stats().deadline_expired, 0);
    }
}
