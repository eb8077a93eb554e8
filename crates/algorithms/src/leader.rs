//! Leader election variants built on the largest-ID problem.
//!
//! The paper's Section 2 problem (largest ID) is "a classic way to elect a
//! leader": each node only announces whether *it* is the leader. A strictly
//! harder variant — every node must output *who* the leader is — is also
//! provided, because it is a natural example of a problem where the average
//! radius cannot beat the worst case: no node can name the leader before
//! seeing the entire graph. Together the two variants illustrate the paper's
//! concluding question about which problems admit an average/worst-case gap.

use avglocal_graph::Identifier;
use avglocal_runtime::{BallAlgorithm, Knowledge, LocalView};

/// Every node outputs the identifier of the leader (the global maximum).
///
/// A node can only be certain about the global maximum once it has seen its
/// whole connected component, so every node's radius equals the saturation
/// radius — the average equals the worst case, in sharp contrast with
/// [`LargestId`](crate::LargestId).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnowTheLeader;

impl BallAlgorithm for KnowTheLeader {
    type Output = Identifier;

    fn name(&self) -> &str {
        "know-the-leader"
    }

    fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<Identifier> {
        view.is_saturated().then(|| view.max_identifier())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LargestId;
    use avglocal_graph::{generators, Graph, IdAssignment};
    use avglocal_runtime::FrozenExecutor;

    fn ring(n: usize, seed: u64) -> Graph {
        let mut g = generators::cycle(n).unwrap();
        IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
        g
    }

    #[test]
    fn know_the_leader_agrees_everywhere() {
        let g = ring(12, 8);
        let run = FrozenExecutor::new(&g).run(&KnowTheLeader, Knowledge::none()).unwrap();
        let expected = g.identifier(g.max_identifier_node().unwrap());
        assert!(run.outputs().iter().all(|&id| id == expected));
    }

    #[test]
    fn know_the_leader_has_no_average_gap() {
        let g = ring(20, 5);
        let run = FrozenExecutor::new(&g).run(&KnowTheLeader, Knowledge::none()).unwrap();
        // Every node needs the saturation radius, so average == max.
        assert_eq!(run.average_radius(), run.max_radius() as f64);
        assert_eq!(run.max_radius(), 10);
    }

    #[test]
    fn largest_id_has_an_average_gap_on_the_same_instance() {
        let g = ring(20, 5);
        let largest = FrozenExecutor::new(&g).run(&LargestId, Knowledge::none()).unwrap();
        let naming = FrozenExecutor::new(&g).run(&KnowTheLeader, Knowledge::none()).unwrap();
        assert!(largest.average_radius() < naming.average_radius());
        assert_eq!(largest.max_radius(), naming.max_radius());
    }
}
