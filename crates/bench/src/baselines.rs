//! Measured baselines: the slower ways of computing the same radii that the
//! `bench_e1` gates compare the library against.
//!
//! They exist only to be compared against, so they live here rather than in
//! the library, and are built from its public calls alone. Each returns the
//! same `(outputs, radii)` the library's [`FrozenExecutor`] computes, so the
//! bench can assert agreement before it compares timings.
//!
//! * [`from_scratch_run`] extracts a fresh ball at every probed radius —
//!   `Θ(r(v)²)` per node instead of the incremental grower's `Θ(ball(v))`
//!   (the `rows` gate).
//! * [`refreeze_run_node`] freezes a new snapshot for every single-node
//!   probe instead of reusing a session (the `run_node` gate).
//! * [`static_chunks_run`] gives each thread one contiguous, statically
//!   chosen batch of nodes on threads spawned for the call, instead of
//!   dynamic chunks on the persistent pool (the `skewed` and `pool` gates).

use avglocal::graph::{extract_ball, BallGrower, CsrGraph, Graph, GrowerScratch, NodeId};
use avglocal::runtime::{
    BallAlgorithm, FrozenExecutor, Knowledge, LocalView, ProbeOptions, Result, RuntimeError,
};

/// Per-node outputs and radii, in node order.
pub type Radii<O> = (Vec<O>, Vec<usize>);

/// Runs `algorithm` on every node of `graph`, left to right, extracting a
/// fresh ball with [`extract_ball`] at every probed radius.
///
/// # Errors
///
/// The first failing node's error, with the same conditions as
/// [`FrozenExecutor::run`].
pub fn from_scratch_run<A: BallAlgorithm>(
    graph: &Graph,
    algorithm: &A,
    knowledge: Knowledge,
) -> Result<Radii<A::Output>> {
    let hard_limit = graph.node_count();
    let mut outputs = Vec::with_capacity(graph.node_count());
    let mut radii = Vec::with_capacity(graph.node_count());
    for node in graph.nodes() {
        let mut radius = 0usize;
        let output = loop {
            let ball = extract_ball(graph, node, radius);
            let view = LocalView::from_ball(&ball);
            if let Some(output) = algorithm.decide(&view, &knowledge) {
                break output;
            }
            check_progress(&view, node, hard_limit)?;
            radius += 1;
        };
        outputs.push(output);
        radii.push(radius);
    }
    Ok((outputs, radii))
}

/// Probes `node` on a snapshot frozen for this call alone.
///
/// # Errors
///
/// Same conditions as [`FrozenExecutor::run_node_with`].
pub fn refreeze_run_node<A: BallAlgorithm>(
    graph: &Graph,
    node: NodeId,
    algorithm: &A,
    knowledge: Knowledge,
) -> Result<(A::Output, usize)> {
    FrozenExecutor::new(graph).run_node_with(node, algorithm, knowledge, ProbeOptions::new())
}

/// Runs `algorithm` on every node of `csr` with one contiguous batch of
/// nodes per pool thread, each batch on a thread spawned for the call
/// ([`rayon::pool::baseline::static_chunked`]). Each batch grows its balls
/// with one grower scratch of its own, taking no lock per probe.
///
/// # Errors
///
/// The first failing node's error in node order, with the same conditions
/// as [`FrozenExecutor::run`].
pub fn static_chunks_run<A>(
    csr: &CsrGraph,
    algorithm: &A,
    knowledge: Knowledge,
) -> Result<Radii<A::Output>>
where
    A: BallAlgorithm + Sync,
    A::Output: Send,
{
    let hard_limit = csr.node_count();
    let per_node = rayon::pool::baseline::static_chunked(
        csr.node_count(),
        rayon::current_num_threads(),
        GrowerScratch::default,
        |scratch, index| {
            let node = NodeId::new(index);
            let mut grower = BallGrower::with_scratch(csr, node, std::mem::take(scratch));
            let result = loop {
                let view = LocalView::from_grower(&grower);
                if let Some(output) = algorithm.decide(&view, &knowledge) {
                    break Ok((output, view.radius()));
                }
                if let Err(e) = check_progress(&view, node, hard_limit) {
                    break Err(e);
                }
                grower.grow();
            };
            *scratch = grower.into_scratch();
            result
        },
    );
    per_node.into_iter().collect::<Result<Vec<_>>>().map(|pairs| pairs.into_iter().unzip())
}

/// The library's stopping rule for an undecided view: a saturated view can
/// never decide, and no probe grows past `hard_limit`.
fn check_progress(view: &LocalView<'_>, node: NodeId, hard_limit: usize) -> Result<()> {
    if view.is_saturated() {
        Err(RuntimeError::NonTerminating { node })
    } else if view.radius() >= hard_limit {
        Err(RuntimeError::RoundLimitExceeded { limit: hard_limit, undecided: 1 })
    } else {
        Ok(())
    }
}
