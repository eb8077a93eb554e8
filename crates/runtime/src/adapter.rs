//! Bridging the two views: running a ball algorithm over message passing.
//!
//! The paper treats the round-based and ball-based descriptions of the LOCAL
//! model as interchangeable. [`GatherAdapter`] makes that concrete: it wraps
//! any [`BallAlgorithm`] into a [`RoundAlgorithm`] that floods neighbourhood
//! records and reconstructs the [`LocalView`] after every round. The
//! integration tests check that the decision *rounds* of the adapter match
//! the decision *radii* of the ball executor exactly — this is the
//! equivalence the paper's "radius" terminology relies on.

use std::collections::BTreeMap;

use avglocal_graph::Identifier;

use crate::algorithm::{BallAlgorithm, NodeContext, RoundAlgorithm};
use crate::message::{broadcast, Envelope};
use crate::view::LocalView;

/// One node's knowledge record: its identifier and the identifiers of its
/// neighbours. Flooding these records is the universal "full information"
/// protocol of the LOCAL model.
pub type Record = (Identifier, Vec<Identifier>);

/// Wraps a [`BallAlgorithm`] into a [`RoundAlgorithm`] by full-information
/// flooding.
///
/// After `r` rounds every node holds the records of exactly the nodes within
/// distance `r`, which determine the radius-`r` ball; the wrapped algorithm
/// is consulted after every round on the reconstructed view.
#[derive(Debug, Clone, Default)]
pub struct GatherAdapter<B> {
    inner: B,
}

impl<B> GatherAdapter<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        GatherAdapter { inner }
    }

    /// Returns the wrapped algorithm.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

/// Per-node state of the gather adapter.
#[derive(Debug, Clone)]
pub struct GatherState {
    /// Records received so far, keyed by identifier.
    records: BTreeMap<Identifier, Vec<Identifier>>,
    /// Whether the node has already committed (it keeps relaying regardless).
    decided: bool,
}

impl<B: BallAlgorithm> RoundAlgorithm for GatherAdapter<B> {
    type Message = Vec<Record>;
    type Output = B::Output;
    type State = GatherState;

    fn name(&self) -> &str {
        "gather-adapter"
    }

    fn init(&self, ctx: &NodeContext) -> Self::State {
        let mut records = BTreeMap::new();
        records.insert(ctx.identifier, ctx.neighbor_identifiers.clone());
        GatherState { records, decided: false }
    }

    fn decide_initial(&self, state: &mut Self::State, ctx: &NodeContext) -> Option<Self::Output> {
        let view = LocalView::from_records(ctx.identifier, &state.records, 0);
        let decision = self.inner.decide(&view, &ctx.knowledge);
        if decision.is_some() {
            state.decided = true;
        }
        decision
    }

    fn send(&self, state: &Self::State, ctx: &NodeContext) -> Vec<Envelope<Self::Message>> {
        // Full-information flooding: relay everything known, even after
        // deciding, as required by the model.
        let payload: Vec<Record> =
            state.records.iter().map(|(id, nbrs)| (*id, nbrs.clone())).collect();
        broadcast(ctx.degree, &payload)
    }

    fn receive(
        &self,
        state: &mut Self::State,
        ctx: &NodeContext,
        inbox: &[Envelope<Self::Message>],
    ) -> Option<Self::Output> {
        for env in inbox {
            for (id, nbrs) in &env.payload {
                state.records.entry(*id).or_insert_with(|| nbrs.clone());
            }
        }
        if state.decided {
            return None;
        }
        let view = LocalView::from_records(ctx.identifier, &state.records, ctx.round);
        let decision = self.inner.decide(&view, &ctx.knowledge);
        if decision.is_some() {
            state.decided = true;
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::NaiveLargestId;
    use crate::executor::SyncExecutor;
    use crate::frozen::FrozenExecutor;
    use crate::knowledge::Knowledge;
    use avglocal_graph::{generators, Graph, IdAssignment};

    fn shuffled_cycle(n: usize, seed: u64) -> Graph {
        let mut g = generators::cycle(n).unwrap();
        IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
        g
    }

    #[test]
    fn adapter_rounds_equal_ball_radii_on_cycles() {
        for seed in 0..5u64 {
            let g = shuffled_cycle(17, seed);
            let ball_run = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
            let round_run = SyncExecutor::new()
                .run(&g, &GatherAdapter::new(NaiveLargestId), Knowledge::none())
                .unwrap();
            assert!(round_run.is_complete());
            for v in g.nodes() {
                assert_eq!(round_run.decision_round(v), Some(ball_run.radius(v)), "node {v}");
                assert_eq!(round_run.output(v), Some(ball_run.output(v)), "node {v}");
            }
        }
    }

    #[test]
    fn adapter_rounds_equal_ball_radii_on_trees_and_grids() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut graphs = vec![
            generators::grid(4, 3).unwrap(),
            generators::star(7).unwrap(),
            generators::balanced_tree(2, 3).unwrap(),
        ];
        graphs.push(
            avglocal_graph::generators::random_tree(12, &mut StdRng::seed_from_u64(3)).unwrap(),
        );
        for mut g in graphs {
            IdAssignment::Shuffled { seed: 11 }.apply(&mut g).unwrap();
            let ball_run = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
            let round_run = SyncExecutor::new()
                .run(&g, &GatherAdapter::new(NaiveLargestId), Knowledge::none())
                .unwrap();
            for v in g.nodes() {
                assert_eq!(round_run.decision_round(v), Some(ball_run.radius(v)));
            }
        }
    }

    #[test]
    fn into_inner_returns_wrapped_algorithm() {
        let adapter = GatherAdapter::new(NaiveLargestId);
        let _inner: NaiveLargestId = adapter.into_inner();
    }

    #[test]
    fn adapter_message_volume_is_positive() {
        let g = shuffled_cycle(9, 1);
        let run = SyncExecutor::new()
            .run(&g, &GatherAdapter::new(NaiveLargestId), Knowledge::none())
            .unwrap();
        assert!(run.messages_sent() > 0);
        assert!(run.rounds_executed() >= 1);
    }
}
