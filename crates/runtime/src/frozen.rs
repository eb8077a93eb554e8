//! The ball executor: one engine over one frozen graph snapshot.
//!
//! Every node independently grows the radius of the ball it sees until the
//! algorithm commits to an output; the radius of the first decision is the
//! node's cost `r(v)`. This is the view in which the paper states all of its
//! results, and it is the executor used by the experiment harness because the
//! radii it reports are exact by construction.
//!
//! # Performance
//!
//! [`FrozenExecutor`] freezes the graph into a [`CsrGraph`] snapshot once and
//! drives one incremental [`BallGrower`] per probe: probing a node at radii
//! `0, 1, …, r(v)` costs `Θ(ball(v))` edges in total instead of the
//! `Θ(r(v)²)` a from-scratch extraction per probe would cost. The session
//! owns a pool of detached [`GrowerScratch`] buffers, so after the first
//! probe every [`FrozenExecutor::run_node_with`] costs only `Θ(ball(v))` and
//! repeated [`FrozenExecutor::run`] calls hand the same warmed buffers to the
//! worker pool's participants.
//!
//! Full runs schedule nodes **dynamically**: the persistent worker pool hands
//! out fine-grained index chunks from an atomic cursor, so on the paper's
//! skewed workloads — one `Θ(n)` node among `n - 1` cheap ones under an
//! adversarial identifier assignment — the expensive node stalls only its own
//! small chunk while the other participants steal the rest. Each participant
//! reuses one scratch buffer across every chunk it claims (no per-probe
//! allocation in the steady state), results are written into index-addressed
//! slots, and the first error in node order wins — outputs, radii and error
//! selection are bit-identical to the sequential reference
//! ([`FrozenExecutor::run_sequential`]) no matter how chunks are stolen.
//!
//! Experiment trials vary only the identifier assignment, never the
//! adjacency, so the session also supports swapping the identifier table in
//! `O(n)` via [`FrozenExecutor::set_identifiers`] instead of re-freezing.

use std::fmt;

use avglocal_graph::{BallGrower, CsrGraph, Graph, GraphError, GrowerScratch, Identifier, NodeId};
use rayon::prelude::*;

use crate::algorithm::BallAlgorithm;
use crate::error::{Result, RuntimeError};
use crate::knowledge::Knowledge;
use crate::scratch::ScratchPool;
use crate::view::LocalView;

/// The result of a ball-view execution: per-node outputs and radii.
///
/// # Examples
///
/// ```
/// use avglocal_graph::{generators, IdAssignment};
/// use avglocal_runtime::{FrozenExecutor, Knowledge};
/// use avglocal_runtime::examples::NaiveLargestId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ring = generators::cycle(32)?;
/// IdAssignment::Shuffled { seed: 7 }.apply(&mut ring)?;
/// let run = FrozenExecutor::new(&ring).run(&NaiveLargestId, Knowledge::none())?;
/// // Exactly one node answers `true` and the worst radius is n/2.
/// assert_eq!(run.outputs().iter().filter(|&&b| b).count(), 1);
/// assert_eq!(run.max_radius(), 16);
/// assert!(run.average_radius() < 16.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BallExecution<O> {
    outputs: Vec<O>,
    radii: Vec<usize>,
}

impl<O> BallExecution<O> {
    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.outputs.len()
    }

    /// Output committed by `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn output(&self, node: NodeId) -> &O {
        &self.outputs[node.index()]
    }

    /// Radius at which `node` committed (the paper's `r(v)`).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn radius(&self, node: NodeId) -> usize {
        self.radii[node.index()]
    }

    /// All outputs, in node order.
    #[must_use]
    pub fn outputs(&self) -> &[O] {
        &self.outputs
    }

    /// All radii, in node order.
    #[must_use]
    pub fn radii(&self) -> &[usize] {
        &self.radii
    }

    /// The classical (worst-case) running time: `max_v r(v)`.
    #[must_use]
    pub fn max_radius(&self) -> usize {
        self.radii.iter().copied().max().unwrap_or(0)
    }

    /// The total cost `Σ_v r(v)` — the quantity the paper's recurrence
    /// `a(p)` bounds.
    #[must_use]
    pub fn total_radius(&self) -> usize {
        self.radii.iter().sum()
    }

    /// The paper's measure: the average radius `Σ_v r(v) / n`.
    ///
    /// Returns 0.0 for the empty execution.
    #[must_use]
    pub fn average_radius(&self) -> f64 {
        if self.radii.is_empty() {
            0.0
        } else {
            self.total_radius() as f64 / self.radii.len() as f64
        }
    }

    /// Consumes the execution and returns `(outputs, radii)`.
    #[must_use]
    pub fn into_parts(self) -> (Vec<O>, Vec<usize>) {
        (self.outputs, self.radii)
    }
}

/// Options of a single-node probe ([`FrozenExecutor::run_node_with`]).
///
/// The default options probe to completion with no cancellation hook.
#[derive(Default)]
pub struct ProbeOptions<'c> {
    cancel: Option<&'c mut dyn FnMut(usize) -> bool>,
}

impl<'c> ProbeOptions<'c> {
    /// Options that probe to completion (no cancellation).
    #[must_use]
    pub fn new() -> Self {
        ProbeOptions::default()
    }

    /// Polls `cancel` cooperatively once per ball-growth step, with the
    /// radius the probe is about to inspect; a `true` return stops the probe
    /// with [`RuntimeError::Cancelled`]. A hook that never fires leaves the
    /// probe bit-identical to the hook-less options.
    #[must_use]
    pub fn with_cancel(mut self, cancel: &'c mut dyn FnMut(usize) -> bool) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

impl fmt::Debug for ProbeOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbeOptions").field("cancel", &self.cancel.is_some()).finish()
    }
}

/// Options of a sharded multi-node probe ([`FrozenExecutor::run_nodes_with`]):
/// how many requested nodes each dynamically claimed shard covers, and an
/// optional shared cancellation hook polled by every participant.
#[derive(Clone, Copy)]
pub struct NodeBatchOptions<'c> {
    shard: usize,
    cancel: Option<&'c (dyn Fn(usize) -> bool + Sync)>,
}

impl Default for NodeBatchOptions<'_> {
    fn default() -> Self {
        NodeBatchOptions { shard: 1, cancel: None }
    }
}

impl<'c> NodeBatchOptions<'c> {
    /// Per-node dynamic chunks on the work-stealing pool, no cancellation.
    #[must_use]
    pub fn new() -> Self {
        NodeBatchOptions::default()
    }

    /// Nodes per dynamically claimed shard (minimum 1). Shards are
    /// contiguous runs of the requested node list; the pool's chunk cursor
    /// hands them out dynamically, so a shard with one expensive node stalls
    /// only itself. `1` (the default) is pure per-node scheduling.
    #[must_use]
    pub fn with_shard(mut self, shard: usize) -> Self {
        self.shard = shard.max(1);
        self
    }

    /// A shared cancellation hook, polled cooperatively by **every**
    /// participant once per ball-growth step — the batch-wide deadline seam
    /// of the service layer. Cancelled probes report
    /// [`RuntimeError::Cancelled`] in their result slot; completed slots are
    /// unaffected and stay bit-identical to an uncancelled run.
    #[must_use]
    pub fn with_cancel(mut self, cancel: &'c (dyn Fn(usize) -> bool + Sync)) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

impl fmt::Debug for NodeBatchOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeBatchOptions")
            .field("shard", &self.shard)
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

/// The ball executor: a reusable execution session over one frozen graph
/// snapshot.
///
/// # Examples
///
/// ```
/// use avglocal_graph::{generators, IdAssignment};
/// use avglocal_runtime::{FrozenExecutor, Knowledge, ProbeOptions};
/// use avglocal_runtime::examples::NaiveLargestId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ring = generators::cycle(32)?;
/// IdAssignment::Shuffled { seed: 7 }.apply(&mut ring)?;
///
/// // Freeze once; every probe after the first is O(ball).
/// let session = FrozenExecutor::new(&ring);
/// let run = session.run(&NaiveLargestId, Knowledge::none())?;
/// for v in ring.nodes() {
///     let (out, r) =
///         session.run_node_with(v, &NaiveLargestId, Knowledge::none(), ProbeOptions::new())?;
///     assert_eq!((out, r), (*run.output(v), run.radius(v)));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FrozenExecutor {
    csr: CsrGraph,
    max_radius: Option<usize>,
    /// Warmed grower scratch buffers, shared by the single-node probes and
    /// (one per pool participant) the parallel full runs.
    scratch_pool: ScratchPool,
}

impl FrozenExecutor {
    /// Freezes `graph` and creates a session over the snapshot.
    #[must_use]
    pub fn new(graph: &Graph) -> Self {
        Self::from_csr(graph.freeze())
    }

    /// Creates a session over an already-frozen snapshot.
    #[must_use]
    pub fn from_csr(csr: CsrGraph) -> Self {
        FrozenExecutor { csr, max_radius: None, scratch_pool: ScratchPool::new() }
    }

    /// Refuses to grow balls beyond `max_radius`. Without a limit, the node
    /// count applies, which is always enough because views saturate at the
    /// component.
    #[must_use]
    pub fn with_max_radius(mut self, max_radius: usize) -> Self {
        self.max_radius = Some(max_radius);
        self
    }

    /// Number of nodes in the frozen snapshot.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// The frozen snapshot the session runs on.
    #[must_use]
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Replaces the snapshot's identifier table in `O(n)`, keeping the frozen
    /// adjacency — the per-trial operation of an identifier-assignment sweep.
    ///
    /// # Panics
    ///
    /// Panics when `identifiers` does not provide exactly one identifier per
    /// node. Callers handling untrusted table lengths should use
    /// [`FrozenExecutor::try_set_identifiers`] instead.
    pub fn set_identifiers(&mut self, identifiers: &[Identifier]) {
        self.csr.set_identifiers(identifiers);
    }

    /// Fallible counterpart of [`FrozenExecutor::set_identifiers`] for
    /// untrusted table lengths.
    ///
    /// # Errors
    ///
    /// Returns [`avglocal_graph::GraphError::AssignmentLengthMismatch`]
    /// (wrapped in [`crate::RuntimeError::Graph`], leaving the session
    /// unchanged) when `identifiers` does not provide exactly one identifier
    /// per node.
    pub fn try_set_identifiers(&mut self, identifiers: &[Identifier]) -> Result<()> {
        self.csr.try_set_identifiers(identifiers).map_err(crate::RuntimeError::Graph)
    }

    /// The radius no probe may grow past: the configured limit, or the node
    /// count.
    fn hard_limit(&self) -> usize {
        self.max_radius.unwrap_or_else(|| self.csr.node_count())
    }

    /// Runs `algorithm` for a single node under `options` and returns
    /// `(output, radius)` — **the** single-node probe path of the session.
    /// Takes `&self`, so concurrent queries can share one session behind an
    /// `Arc`; the grower buffers are reused across calls, so repeated probes
    /// cost `Θ(ball(v))`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FrozenExecutor::run`], plus
    /// [`crate::RuntimeError::Cancelled`] when the options' cancellation
    /// hook fires.
    pub fn run_node_with<A: BallAlgorithm>(
        &self,
        node: NodeId,
        algorithm: &A,
        knowledge: Knowledge,
        options: ProbeOptions<'_>,
    ) -> Result<(A::Output, usize)> {
        let mut no_cancel = never;
        let cancel = options.cancel.unwrap_or(&mut no_cancel);
        let mut pooled = self.scratch_pool.checkout();
        let (result, scratch) =
            probe(&self.csr, pooled.take(), node, algorithm, &knowledge, self.hard_limit(), cancel);
        pooled.put(scratch);
        result
    }

    /// Probes an arbitrary **set** of nodes on the shared session, sharded
    /// across the persistent worker pool — the batched counterpart of
    /// [`FrozenExecutor::run_node_with`] and the probe engine of the service
    /// layer's `query_batch`.
    ///
    /// The node list is cut into contiguous shards of
    /// [`NodeBatchOptions::with_shard`] nodes; shards are claimed dynamically
    /// from the pool's atomic chunk cursor, and each participant reuses one
    /// warmed [`GrowerScratch`] across every shard it claims — the same
    /// scheduling and zero-steady-state-allocation discipline as the full
    /// runs.
    ///
    /// Returns one result per requested node, **index-addressed** (slot `i`
    /// answers `nodes[i]`), so results are deterministic by position no
    /// matter how shards are stolen: every completed slot is bit-identical
    /// to a sequential [`FrozenExecutor::run_node_with`] on the same
    /// snapshot. A shared cancellation hook
    /// ([`NodeBatchOptions::with_cancel`]) marks slots it interrupts with
    /// [`RuntimeError::Cancelled`]; out-of-bounds nodes report
    /// [`GraphError::NodeOutOfBounds`] in their slot without disturbing the
    /// others.
    #[must_use]
    pub fn run_nodes_with<A>(
        &self,
        nodes: &[NodeId],
        algorithm: &A,
        knowledge: Knowledge,
        options: &NodeBatchOptions<'_>,
    ) -> Vec<Result<(A::Output, usize)>>
    where
        A: BallAlgorithm + Sync,
        A::Output: Send,
    {
        let hard_limit = self.hard_limit();
        let node_count = self.csr.node_count();
        let shard = options.shard.max(1);
        let probe_shard = |pooled: &mut crate::scratch::PooledScratch<'_>, s: usize| {
            let lo = s * shard;
            let hi = (lo + shard).min(nodes.len());
            nodes[lo..hi]
                .iter()
                .map(|&node| {
                    if node.index() >= node_count {
                        return Err(RuntimeError::Graph(GraphError::NodeOutOfBounds {
                            node,
                            node_count,
                        }));
                    }
                    let mut hook = |radius: usize| options.cancel.is_some_and(|c| c(radius));
                    let (result, scratch) = probe(
                        &self.csr,
                        pooled.take(),
                        node,
                        algorithm,
                        &knowledge,
                        hard_limit,
                        &mut hook,
                    );
                    pooled.put(scratch);
                    result
                })
                .collect::<Vec<_>>()
        };
        // Shard `s` covers the contiguous slice `s*shard..`, so flattening
        // in shard order restores the request's node order exactly.
        (0..nodes.len().div_ceil(shard))
            .into_par_iter()
            .map_init(|| self.scratch_pool.checkout(), probe_shard)
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect()
    }

    /// Runs `algorithm` on every node of the snapshot and collects outputs
    /// and radii.
    ///
    /// Nodes are claimed in dynamic chunks from the persistent pool, each
    /// participant reusing one of the session's warmed scratch buffers
    /// (steady-state runs allocate a bounded handful of buffers per call,
    /// never per probe). Outputs, radii and error selection are identical to
    /// [`FrozenExecutor::run_sequential`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NonTerminating`] if a node still refuses to
    /// decide on a saturated view (it has seen its whole component, so no
    /// larger radius can help), and [`RuntimeError::RoundLimitExceeded`] if a
    /// custom radius limit is hit first. When several nodes fail, the first
    /// in node order is reported.
    pub fn run<A>(&self, algorithm: &A, knowledge: Knowledge) -> Result<BallExecution<A::Output>>
    where
        A: BallAlgorithm + Sync,
        A::Output: Send,
    {
        let hard_limit = self.hard_limit();
        // Each participant checks one scratch out of the pool on its first
        // chunk and reuses it for every chunk it claims; results land in
        // index-addressed slots, so outputs are deterministic by position no
        // matter who stole which chunk.
        let per_node: Vec<Result<(A::Output, usize)>> = (0..self.csr.node_count())
            .into_par_iter()
            .map_init(
                || self.scratch_pool.checkout(),
                |pooled, index| {
                    let (result, scratch) = probe(
                        &self.csr,
                        pooled.take(),
                        NodeId::new(index),
                        algorithm,
                        &knowledge,
                        hard_limit,
                        &mut never,
                    );
                    pooled.put(scratch);
                    result
                },
            )
            .collect();
        // Surfacing the first error in node order reports the same error a
        // sequential left-to-right run would, independent of scheduling.
        let mut outputs = Vec::with_capacity(per_node.len());
        let mut radii = Vec::with_capacity(per_node.len());
        for result in per_node {
            let (output, radius) = result?;
            outputs.push(output);
            radii.push(radius);
        }
        Ok(BallExecution { outputs, radii })
    }

    /// The plain sequential reference: one grower, nodes probed left to
    /// right on the calling thread. [`FrozenExecutor::run`] and
    /// [`FrozenExecutor::run_nodes_with`] are tested to be bit-identical
    /// (outputs, radii and error selection) to this.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FrozenExecutor::run`].
    pub fn run_sequential<A: BallAlgorithm>(
        &self,
        algorithm: &A,
        knowledge: Knowledge,
    ) -> Result<BallExecution<A::Output>> {
        let n = self.csr.node_count();
        let mut outputs = Vec::with_capacity(n);
        let mut radii = Vec::with_capacity(n);
        if n > 0 {
            let mut grower = BallGrower::new(&self.csr, NodeId::new(0));
            for index in 0..n {
                grower.reset(NodeId::new(index));
                let (output, radius) = drive_grower(
                    &mut grower,
                    algorithm,
                    &knowledge,
                    self.hard_limit(),
                    &mut never,
                )?;
                outputs.push(output);
                radii.push(radius);
            }
        }
        Ok(BallExecution { outputs, radii })
    }
}

/// The always-false cancellation hook of the uncancellable probe paths.
fn never(_radius: usize) -> bool {
    false
}

/// Probes a single node of a frozen snapshot with a borrowed scratch and
/// hands the (now warmed) scratch back.
fn probe<A: BallAlgorithm>(
    csr: &CsrGraph,
    scratch: GrowerScratch,
    node: NodeId,
    algorithm: &A,
    knowledge: &Knowledge,
    hard_limit: usize,
    cancel: &mut dyn FnMut(usize) -> bool,
) -> (Result<(A::Output, usize)>, GrowerScratch) {
    let mut grower = BallGrower::with_scratch(csr, node, scratch);
    let result = drive_grower(&mut grower, algorithm, knowledge, hard_limit, cancel);
    (result, grower.into_scratch())
}

/// Probes one node with the incremental grower until the algorithm decides,
/// polling `cancel(radius)` once per ball-growth step — before the radius-`r`
/// view is inspected. When the hook returns `true` the probe stops with
/// [`RuntimeError::Cancelled`] without growing further, so an expired
/// deadline costs at most one additional decide call.
fn drive_grower<A: BallAlgorithm>(
    grower: &mut BallGrower<'_>,
    algorithm: &A,
    knowledge: &Knowledge,
    hard_limit: usize,
    cancel: &mut dyn FnMut(usize) -> bool,
) -> Result<(A::Output, usize)> {
    loop {
        if cancel(grower.radius()) {
            return Err(RuntimeError::Cancelled { node: grower.center(), radius: grower.radius() });
        }
        let view = LocalView::from_grower(grower);
        let saturated = view.is_saturated();
        if let Some(out) = algorithm.decide(&view, knowledge) {
            let radius = view.radius();
            return Ok((out, radius));
        }
        if saturated {
            return Err(RuntimeError::NonTerminating { node: grower.center() });
        }
        if grower.radius() >= hard_limit {
            return Err(RuntimeError::RoundLimitExceeded { limit: hard_limit, undecided: 1 });
        }
        grower.grow();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::NaiveLargestId;
    use avglocal_graph::{extract_ball, generators, IdAssignment, Topology};

    struct NeverDecides;
    impl BallAlgorithm for NeverDecides {
        type Output = ();
        fn decide(&self, _view: &LocalView, _knowledge: &Knowledge) -> Option<()> {
            None
        }
    }

    struct DecideAtRadius(usize);
    impl BallAlgorithm for DecideAtRadius {
        type Output = usize;
        fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<usize> {
            (view.radius() >= self.0).then_some(view.radius())
        }
    }

    fn run_node<A: BallAlgorithm>(
        session: &FrozenExecutor,
        v: NodeId,
        a: &A,
    ) -> (A::Output, usize) {
        session.run_node_with(v, a, Knowledge::none(), ProbeOptions::new()).unwrap()
    }

    #[test]
    fn largest_id_radii_on_identity_cycle() {
        // With identifiers laid out in increasing order around the cycle,
        // node i (for i < n-1) sees the larger identifier i+1 at radius 1,
        // while node n-1 must see the whole cycle.
        let g = generators::cycle(10).unwrap();
        let run = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
        assert_eq!(run.node_count(), 10);
        for i in 0..9 {
            assert_eq!(run.radius(NodeId::new(i)), 1);
            assert!(!run.output(NodeId::new(i)));
        }
        assert_eq!(run.radius(NodeId::new(9)), 5);
        assert!(run.output(NodeId::new(9)));
        assert_eq!(run.max_radius(), 5);
        assert_eq!(run.total_radius(), 9 + 5);
        assert!((run.average_radius() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn non_terminating_algorithm_is_detected() {
        let g = generators::cycle(5).unwrap();
        let session = FrozenExecutor::new(&g);
        let err = session.run(&NeverDecides, Knowledge::none()).unwrap_err();
        assert!(matches!(err, RuntimeError::NonTerminating { .. }));
        let err = session.run_sequential(&NeverDecides, Knowledge::none()).unwrap_err();
        assert!(matches!(err, RuntimeError::NonTerminating { .. }));
    }

    #[test]
    fn decide_at_radius_reports_that_radius() {
        let g = generators::cycle(12).unwrap();
        let run = FrozenExecutor::new(&g).run(&DecideAtRadius(4), Knowledge::none()).unwrap();
        assert!(run.radii().iter().all(|&r| r == 4));
        assert_eq!(run.max_radius(), 4);
        assert_eq!(run.average_radius(), 4.0);
    }

    #[test]
    fn error_selection_is_in_node_order_under_stealing() {
        // An algorithm that never decides for a band of node identifiers:
        // the parallel run must surface the *first* failing node in node
        // order, exactly like the sequential run.
        struct FailsOnSmallIds;
        impl BallAlgorithm for FailsOnSmallIds {
            type Output = u64;
            fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<u64> {
                if view.center_identifier().value() % 3 == 1 {
                    None
                } else {
                    Some(view.center_identifier().value())
                }
            }
        }
        let mut g = generators::cycle(200).unwrap();
        IdAssignment::Shuffled { seed: 5 }.apply(&mut g).unwrap();
        let session = FrozenExecutor::new(&g);
        let expected = session.run_sequential(&FailsOnSmallIds, Knowledge::none()).unwrap_err();
        let RuntimeError::NonTerminating { node: expected_node } = expected else {
            panic!("sequential reference must fail with NonTerminating");
        };
        let err = session.run(&FailsOnSmallIds, Knowledge::none()).unwrap_err();
        assert!(
            matches!(err, RuntimeError::NonTerminating { node } if node == expected_node),
            "the parallel run selected a different error node: {err:?}"
        );
    }

    #[test]
    fn into_parts_round_trip() {
        let mut g = generators::cycle(6).unwrap();
        IdAssignment::Reversed.apply(&mut g).unwrap();
        let run = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
        let (outputs, radii) = run.into_parts();
        assert_eq!(outputs.len(), 6);
        assert_eq!(radii.len(), 6);
        assert_eq!(outputs.iter().filter(|&&b| b).count(), 1);
        // Node 0 carries identifier 5 (the maximum) and needs radius 3.
        assert!(outputs[0]);
        assert_eq!(radii[0], 3);
    }

    #[test]
    fn empty_execution_statistics() {
        let exec: BallExecution<u8> = BallExecution { outputs: vec![], radii: vec![] };
        assert_eq!(exec.average_radius(), 0.0);
        assert_eq!(exec.max_radius(), 0);
        assert_eq!(exec.total_radius(), 0);
        assert_eq!(exec.node_count(), 0);
    }

    #[test]
    fn empty_graph_runs_to_empty_execution() {
        let session = FrozenExecutor::new(&Graph::new());
        assert_eq!(session.run(&NaiveLargestId, Knowledge::none()).unwrap().node_count(), 0);
        let sequential = session.run_sequential(&NaiveLargestId, Knowledge::none()).unwrap();
        assert_eq!(sequential.node_count(), 0);
    }

    #[test]
    fn clique_winner_needs_radius_one() {
        let mut g = generators::complete(6).unwrap();
        IdAssignment::Shuffled { seed: 4 }.apply(&mut g).unwrap();
        let run = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
        let winner = g.max_identifier_node().unwrap();
        assert!(*run.output(winner));
        assert_eq!(run.radius(winner), 1);
        assert_eq!(run.max_radius(), 1);
        assert_eq!(g.identifier(winner), Identifier::new(5));
    }

    #[test]
    fn session_matches_per_call_executor_on_all_topologies() {
        // A session reused across probes answers exactly like a fresh
        // session frozen for each call.
        let topologies = [
            Topology::Cycle,
            Topology::Path,
            Topology::CompleteBinaryTree,
            Topology::Grid,
            Topology::Torus,
            Topology::gnp_connected(18, 3),
        ];
        for topology in topologies {
            let mut g = topology.build(18).unwrap();
            IdAssignment::Shuffled { seed: 11 }.apply(&mut g).unwrap();
            let session = FrozenExecutor::new(&g);
            for v in g.nodes() {
                let fresh = run_node(&FrozenExecutor::new(&g), v, &NaiveLargestId);
                let reused = run_node(&session, v, &NaiveLargestId);
                assert_eq!(fresh, reused, "{topology}, node {v:?}");
            }
        }
    }

    #[test]
    fn session_full_run_matches_ball_executor() {
        // A session's full runs, cold and with warmed scratch, answer what
        // a fresh executor's sequential reference answers.
        let mut g = generators::grid(4, 5).unwrap();
        IdAssignment::Shuffled { seed: 2 }.apply(&mut g).unwrap();
        let session = FrozenExecutor::new(&g);
        let reference =
            FrozenExecutor::new(&g).run_sequential(&NaiveLargestId, Knowledge::none()).unwrap();
        for _ in 0..2 {
            let run = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
            assert_eq!(run.outputs(), reference.outputs());
            assert_eq!(run.radii(), reference.radii());
        }
    }

    #[test]
    fn all_schedules_match_the_sequential_reference() {
        // The work-stealing parallel run is bit-identical to the sequential
        // reference however its chunks are stolen, on adversarial (identity)
        // and random assignments.
        for assignment in [IdAssignment::Identity, IdAssignment::Shuffled { seed: 13 }] {
            let mut g = generators::cycle(257).unwrap();
            assignment.apply(&mut g).unwrap();
            let session = FrozenExecutor::new(&g);
            let reference = session.run_sequential(&NaiveLargestId, Knowledge::none()).unwrap();
            let run = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
            assert_eq!(run.outputs(), reference.outputs(), "{assignment:?}");
            assert_eq!(run.radii(), reference.radii(), "{assignment:?}");
        }
    }

    #[test]
    fn set_identifiers_reuses_the_adjacency() {
        let g = generators::cycle(12).unwrap();
        let mut session = FrozenExecutor::new(&g);
        for seed in 0u64..4 {
            let assignment = IdAssignment::Shuffled { seed };
            session.set_identifiers(&assignment.identifiers(12, 0));
            let mut fresh_graph = generators::cycle(12).unwrap();
            assignment.apply(&mut fresh_graph).unwrap();
            let expected = FrozenExecutor::new(&fresh_graph)
                .run_sequential(&NaiveLargestId, Knowledge::none())
                .unwrap();
            let got = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
            assert_eq!(expected.radii(), got.radii(), "seed {seed}");
            for v in fresh_graph.nodes() {
                let (out, r) = run_node(&session, v, &NaiveLargestId);
                assert_eq!(out, *expected.output(v));
                assert_eq!(r, expected.radius(v));
            }
        }
    }

    #[test]
    fn try_set_identifiers_rejects_wrong_length_without_touching_the_session() {
        let g = generators::cycle(6).unwrap();
        let mut session = FrozenExecutor::new(&g);
        let err = session.try_set_identifiers(&IdAssignment::Identity.identifiers(3, 0));
        assert!(matches!(
            err,
            Err(RuntimeError::Graph(GraphError::AssignmentLengthMismatch {
                provided: 3,
                expected: 6,
            }))
        ));
        // The session still runs on its original identifier table.
        let run = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
        assert_eq!(run.outputs().len(), 6);
    }

    #[test]
    fn never_firing_cancel_hook_is_bit_identical_to_run_node() {
        let mut g = generators::grid(4, 4).unwrap();
        IdAssignment::Shuffled { seed: 5 }.apply(&mut g).unwrap();
        let session = FrozenExecutor::new(&g);
        for v in g.nodes() {
            let plain = run_node(&session, v, &NaiveLargestId);
            let mut hook = |_: usize| false;
            let options = ProbeOptions::new().with_cancel(&mut hook);
            let cancellable =
                session.run_node_with(v, &NaiveLargestId, Knowledge::none(), options).unwrap();
            assert_eq!(plain, cancellable, "node {v:?}");
        }
    }

    #[test]
    fn cancel_hook_sees_each_radius_once_and_stops_the_probe() {
        let g = generators::cycle(40).unwrap();
        let session = FrozenExecutor::new(&g);
        let mut seen = Vec::new();
        let mut hook = |r: usize| {
            seen.push(r);
            r >= 3
        };
        let options = ProbeOptions::new().with_cancel(&mut hook);
        let err = session
            .run_node_with(NodeId::new(0), &DecideAtRadius(10), Knowledge::none(), options)
            .unwrap_err();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!(matches!(err, RuntimeError::Cancelled { radius: 3, .. }), "{err}");
    }

    #[test]
    fn immediate_cancellation_costs_no_growth() {
        // A deadline that is already expired on admission cancels at radius 0
        // before any ball is grown.
        let g = generators::cycle(8).unwrap();
        let session = FrozenExecutor::new(&g);
        let mut hook = |_: usize| true;
        let options = ProbeOptions::new().with_cancel(&mut hook);
        let err = session
            .run_node_with(NodeId::new(2), &NaiveLargestId, Knowledge::none(), options)
            .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Cancelled { node, radius: 0 } if node == NodeId::new(2)
        ));
    }

    #[test]
    fn cancellable_probes_share_the_session_across_threads() {
        // &self probing: many threads query one session concurrently and each
        // gets the same answer as the sequential reference.
        let mut g = generators::grid(5, 5).unwrap();
        IdAssignment::Shuffled { seed: 9 }.apply(&mut g).unwrap();
        let session = FrozenExecutor::new(&g);
        let reference = session.run_sequential(&NaiveLargestId, Knowledge::none()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let session = &session;
                let reference = &reference;
                scope.spawn(move || {
                    for v in (t..25).step_by(4).map(NodeId::new) {
                        let mut hook = |_: usize| false;
                        let options = ProbeOptions::new().with_cancel(&mut hook);
                        let (out, r) = session
                            .run_node_with(v, &NaiveLargestId, Knowledge::none(), options)
                            .unwrap();
                        assert_eq!(out, *reference.output(v));
                        assert_eq!(r, reference.radius(v));
                    }
                });
            }
        });
    }

    #[test]
    fn run_nodes_with_matches_single_probes_on_every_scheduling() {
        let mut g = generators::grid(4, 5).unwrap();
        IdAssignment::Shuffled { seed: 3 }.apply(&mut g).unwrap();
        let session = FrozenExecutor::new(&g);
        // An arbitrary, repetitive, out-of-order node set: slots must answer
        // positionally, duplicates included, whatever the shard size.
        let nodes: Vec<NodeId> = [7usize, 0, 19, 3, 3, 12, 8, 1, 19].map(NodeId::new).to_vec();
        for shard in [1usize, 2, 4, 64] {
            let options = NodeBatchOptions::new().with_shard(shard);
            let batch =
                session.run_nodes_with(&nodes, &NaiveLargestId, Knowledge::none(), &options);
            assert_eq!(batch.len(), nodes.len());
            for (slot, &node) in batch.iter().zip(&nodes) {
                let single = run_node(&session, node, &NaiveLargestId);
                assert_eq!(slot.as_ref().unwrap(), &single, "shard={shard} node {node:?}");
            }
        }
    }

    #[test]
    fn run_nodes_with_reports_out_of_bounds_per_slot() {
        let g = generators::cycle(6).unwrap();
        let session = FrozenExecutor::new(&g);
        let nodes = [NodeId::new(2), NodeId::new(6), NodeId::new(5)];
        let batch =
            session.run_nodes_with(&nodes, &NaiveLargestId, Knowledge::none(), &Default::default());
        assert!(batch[0].is_ok());
        assert!(matches!(
            batch[1],
            Err(RuntimeError::Graph(GraphError::NodeOutOfBounds { node_count: 6, .. }))
        ));
        assert!(batch[2].is_ok(), "a bad slot must not disturb its neighbours");
    }

    #[test]
    fn run_nodes_with_shared_cancel_marks_cancelled_slots_only() {
        let g = generators::cycle(40).unwrap();
        let session = FrozenExecutor::new(&g);
        let nodes: Vec<NodeId> = (0..40).map(NodeId::new).collect();
        // Cancel every probe before it can grow past radius 1: the cycle's
        // largest-ID losers decide at radius 1 and complete; deeper probes
        // are cancelled.
        let cancel = |radius: usize| radius >= 2;
        let options = NodeBatchOptions::new().with_cancel(&cancel);
        let batch = session.run_nodes_with(&nodes, &NaiveLargestId, Knowledge::none(), &options);
        let cancelled = batch
            .iter()
            .filter(|r| matches!(r, Err(RuntimeError::Cancelled { radius: 2, .. })))
            .count();
        let completed = batch.iter().filter(|r| r.is_ok()).count();
        assert_eq!(cancelled + completed, 40);
        assert!(cancelled >= 1, "the winner needs radius 20 and must be cancelled");
        // Completed slots are bit-identical to uncancelled single probes.
        for (slot, &node) in batch.iter().zip(&nodes) {
            if let Ok(got) = slot {
                assert_eq!(*got, run_node(&session, node, &NaiveLargestId));
            }
        }
    }

    #[test]
    fn run_nodes_with_empty_request_is_empty() {
        let g = generators::cycle(4).unwrap();
        let session = FrozenExecutor::new(&g);
        let batch: Vec<_> =
            session.run_nodes_with(&[], &NaiveLargestId, Knowledge::none(), &Default::default());
        assert!(batch.is_empty());
    }

    #[test]
    fn run_node_with_is_the_one_probe_path() {
        // Single-node probes answer exactly what the full run reports for
        // every node.
        let mut g = generators::cycle(24).unwrap();
        IdAssignment::Shuffled { seed: 8 }.apply(&mut g).unwrap();
        let session = FrozenExecutor::new(&g);
        let full = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
        for v in g.nodes() {
            let (out, r) = run_node(&session, v, &NaiveLargestId);
            assert_eq!(out, *full.output(v));
            assert_eq!(r, full.radius(v));
        }
    }

    #[test]
    fn max_radius_is_enforced_in_the_session() {
        let g = generators::cycle(30).unwrap();
        let session = FrozenExecutor::new(&g).with_max_radius(3);
        let err = session
            .run_node_with(
                NodeId::new(0),
                &DecideAtRadius(10),
                Knowledge::none(),
                ProbeOptions::new(),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::RoundLimitExceeded { limit: 3, .. }));
        let err = session.run(&DecideAtRadius(10), Knowledge::none()).unwrap_err();
        assert!(matches!(err, RuntimeError::RoundLimitExceeded { limit: 3, .. }));
    }

    #[test]
    fn radius_limit_is_enforced() {
        // Both full-run paths, parallel and sequential, stop at the limit.
        let g = generators::cycle(30).unwrap();
        let exec = FrozenExecutor::new(&g).with_max_radius(3);
        let err = exec.run(&DecideAtRadius(10), Knowledge::none()).unwrap_err();
        assert!(matches!(err, RuntimeError::RoundLimitExceeded { limit: 3, .. }));
        let err = exec.run_sequential(&DecideAtRadius(10), Knowledge::none()).unwrap_err();
        assert!(matches!(err, RuntimeError::RoundLimitExceeded { limit: 3, .. }));
    }

    #[test]
    fn run_node_matches_run() {
        // A probe on a snapshot frozen for that call alone answers what the
        // full run reports for the node.
        let mut g = generators::cycle(9).unwrap();
        IdAssignment::Shuffled { seed: 2 }.apply(&mut g).unwrap();
        let full = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
        for v in g.nodes() {
            let (out, r) = run_node(&FrozenExecutor::new(&g), v, &NaiveLargestId);
            assert_eq!(out, *full.output(v));
            assert_eq!(r, full.radius(v));
        }
    }

    /// Per-node outputs and radii from a fresh [`extract_ball`] at every
    /// probed radius, left to right: the quadratic engine the incremental
    /// grower replaces.
    fn from_scratch<A: BallAlgorithm>(g: &Graph, a: &A) -> (Vec<A::Output>, Vec<usize>) {
        g.nodes()
            .map(|v| {
                (0..=g.node_count())
                    .find_map(|r| {
                        let view = LocalView::from_ball(&extract_ball(g, v, r));
                        a.decide(&view, &Knowledge::none()).map(|out| (out, r))
                    })
                    .expect("decides within n rounds")
            })
            .unzip()
    }

    #[test]
    fn incremental_matches_from_scratch_baseline() {
        for (n, seed) in [(9usize, 0u64), (16, 1), (33, 5), (64, 9)] {
            let mut g = generators::cycle(n).unwrap();
            IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
            let fast = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
            let (outputs, radii) = from_scratch(&g, &NaiveLargestId);
            assert_eq!(fast.outputs(), outputs);
            assert_eq!(fast.radii(), radii);
        }
    }
}
