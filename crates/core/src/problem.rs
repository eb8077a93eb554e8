//! A uniform interface over the problems studied in the experiments.
//!
//! Each [`Problem`] bundles an algorithm, the executor that drives it, and
//! the verifier that checks its output, so the experiment harness can sweep
//! over problems without caring about their output types.

use std::fmt;

use avglocal_algorithms::{
    run_three_coloring, verify, FullInfoColoring, FullInfoLargestId, KnowTheLeader,
    LandmarkColoring, LargestId,
};
use avglocal_graph::{ComponentLabels, Graph};
use avglocal_runtime::{BallAlgorithm, BallExecution, FrozenExecutor, Knowledge};

use crate::error::{CoreError, Result};
use crate::profile::RadiusProfile;

/// The problems (algorithm + verifier) available to the experiment harness.
///
/// All of them run on cycles; [`Problem::LargestId`], [`Problem::KnowTheLeader`]
/// and the full-information baselines also run on arbitrary connected graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Problem {
    /// The paper's Section 2 problem with its ball-growing algorithm.
    LargestId,
    /// Largest ID solved by the lazy full-information baseline.
    FullInfoLargestId,
    /// Every node must name the leader — no early stopping is possible.
    KnowTheLeader,
    /// 3-colouring of the oriented ring via Cole–Vishkin.
    ThreeColoring,
    /// Variable-radius 4-colouring via landmarks (Lemma 2 style).
    LandmarkColoring,
    /// 3-colouring by the full-information baseline.
    FullInfoColoring,
    /// Maximal independent set on the ring via 3-colouring.
    Mis,
    /// Maximal matching on the ring via 3-colouring and successor-edge claims.
    Matching,
}

impl Problem {
    /// All problems, in display order.
    pub const ALL: [Problem; 8] = [
        Problem::LargestId,
        Problem::FullInfoLargestId,
        Problem::KnowTheLeader,
        Problem::ThreeColoring,
        Problem::LandmarkColoring,
        Problem::FullInfoColoring,
        Problem::Mis,
        Problem::Matching,
    ];

    /// Short machine-friendly name.
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            Problem::LargestId => "largest_id",
            Problem::FullInfoLargestId => "full_info_largest_id",
            Problem::KnowTheLeader => "know_the_leader",
            Problem::ThreeColoring => "three_coloring",
            Problem::LandmarkColoring => "landmark_coloring",
            Problem::FullInfoColoring => "full_info_coloring",
            Problem::Mis => "mis",
            Problem::Matching => "matching",
        }
    }

    /// Returns `true` when the problem's algorithm requires the graph to be a
    /// cycle.
    #[must_use]
    pub fn requires_cycle(&self) -> bool {
        matches!(
            self,
            Problem::ThreeColoring
                | Problem::LandmarkColoring
                | Problem::FullInfoColoring
                | Problem::Mis
                | Problem::Matching
        )
    }

    /// Returns `true` when the problem's algorithm runs through the ball
    /// view ([`FrozenExecutor`]) — these are the problems
    /// whose sweep trials can share one frozen adjacency snapshot.
    ///
    /// The match is deliberately exhaustive (no wildcard) and mirrors which
    /// arms of `Problem::run_with` go through `ball_run`: adding a variant
    /// forces both places to classify it.
    #[must_use]
    pub fn uses_ball_view(&self) -> bool {
        match self {
            Problem::LargestId
            | Problem::FullInfoLargestId
            | Problem::KnowTheLeader
            | Problem::LandmarkColoring
            | Problem::FullInfoColoring => true,
            Problem::ThreeColoring | Problem::Mis | Problem::Matching => false,
        }
    }

    /// Runs the problem's algorithm on `graph`, verifies the output, and
    /// returns the radius profile.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Runtime`] when the execution fails (for example
    /// when a ring-only algorithm is run on another topology) and
    /// [`CoreError::InvalidOutput`] when the verifier rejects the output —
    /// the latter should never happen and indicates a bug.
    pub fn run(&self, graph: &Graph) -> Result<RadiusProfile> {
        self.run_with(graph, None, None)
    }

    /// The general entry point the sweep harness uses: ball-view problems
    /// execute on `session`'s frozen snapshot instead of freezing `graph`
    /// per call, and `components` switches to per-component semantics.
    ///
    /// The session must mirror `graph` (same adjacency and identifiers) —
    /// the sweep harness maintains this by cloning one frozen base per size
    /// and swapping the identifier table per trial; round-based problems
    /// ignore it, and results are identical either way. With `components`
    /// (the labelling of `graph`, usually taken from the frozen snapshot's
    /// [`avglocal_graph::CsrGraph::components`]), `graph` may be
    /// disconnected, every ball saturates at its component boundary, and
    /// outputs are verified **per component** (e.g. largest-ID elects one
    /// winner per component); on a connected graph this equals
    /// [`Problem::run`].
    ///
    /// # Panics
    ///
    /// Panics when `session` or `components` does not cover every node of
    /// `graph`.
    pub(crate) fn run_with(
        &self,
        graph: &Graph,
        session: Option<&FrozenExecutor>,
        components: Option<&ComponentLabels>,
    ) -> Result<RadiusProfile> {
        if let Some(session) = session {
            assert_eq!(
                session.node_count(),
                graph.node_count(),
                "the frozen session must mirror the graph it stands in for"
            );
        }
        if let Some(labels) = components {
            assert_eq!(
                labels.node_count(),
                graph.node_count(),
                "the component labelling must cover every node of the graph"
            );
        }

        /// Runs a ball algorithm on the session when one is available,
        /// freezing the graph per call otherwise.
        fn ball_run<A>(
            graph: &Graph,
            session: Option<&FrozenExecutor>,
            algorithm: &A,
            knowledge: Knowledge,
        ) -> avglocal_runtime::Result<BallExecution<A::Output>>
        where
            A: BallAlgorithm + Sync,
            A::Output: Send,
        {
            match session {
                Some(frozen) => frozen.run(algorithm, knowledge),
                None => FrozenExecutor::new(graph).run(algorithm, knowledge),
            }
        }

        let knowledge = Knowledge::none();
        // Outputs of ball algorithms are scoped to the component the ball
        // saturates in, so the per-component entry points swap in the
        // component-wise verifiers; on a connected graph the two coincide.
        match self {
            Problem::LargestId => {
                let run = ball_run(graph, session, &LargestId, knowledge)?;
                self.check(match components {
                    Some(labels) => {
                        verify::is_correct_largest_id_per_component(graph, labels, run.outputs())
                    }
                    None => verify::is_correct_largest_id(graph, run.outputs()),
                })?;
                Ok(RadiusProfile::from_ball_execution(&run))
            }
            Problem::FullInfoLargestId => {
                let run = ball_run(graph, session, &FullInfoLargestId, knowledge)?;
                self.check(match components {
                    Some(labels) => {
                        verify::is_correct_largest_id_per_component(graph, labels, run.outputs())
                    }
                    None => verify::is_correct_largest_id(graph, run.outputs()),
                })?;
                Ok(RadiusProfile::from_ball_execution(&run))
            }
            Problem::KnowTheLeader => {
                let run = ball_run(graph, session, &KnowTheLeader, knowledge)?;
                match components {
                    Some(labels) => {
                        self.check(verify::is_component_leader_output(
                            graph,
                            labels,
                            run.outputs(),
                        ))?;
                    }
                    None => {
                        let expected = graph
                            .max_identifier_node()
                            .map(|v| graph.identifier(v))
                            .ok_or_else(|| CoreError::InvalidConfiguration {
                                reason: "cannot elect a leader on an empty graph".to_string(),
                            })?;
                        self.check(run.outputs().iter().all(|&id| id == expected))?;
                    }
                }
                Ok(RadiusProfile::from_ball_execution(&run))
            }
            Problem::ThreeColoring => {
                let (colors, rounds) = run_three_coloring(graph)?;
                self.check(verify::is_proper_coloring(graph, &colors, 3))?;
                Ok(RadiusProfile::new(rounds))
            }
            Problem::LandmarkColoring => {
                let run = ball_run(graph, session, &LandmarkColoring, knowledge)?;
                self.check(verify::is_proper_coloring(graph, run.outputs(), 4))?;
                Ok(RadiusProfile::from_ball_execution(&run))
            }
            Problem::FullInfoColoring => {
                let run = ball_run(graph, session, &FullInfoColoring, knowledge)?;
                self.check(verify::is_proper_coloring(graph, run.outputs(), 3))?;
                Ok(RadiusProfile::from_ball_execution(&run))
            }
            Problem::Mis => {
                // One run of the round-based pipeline: its outputs are
                // verified and its decision rounds are the radii.
                let orientation = avglocal_algorithms::RingOrientation::trace(graph)?;
                let algo = avglocal_algorithms::MisRing::new(orientation);
                let run = avglocal_runtime::SyncExecutor::new().run(graph, &algo, knowledge)?;
                self.check(verify::is_maximal_independent_set(graph, &run.outputs()))?;
                RadiusProfile::from_execution(&run)
            }
            Problem::Matching => {
                let orientation = avglocal_algorithms::RingOrientation::trace(graph)?;
                let algo = avglocal_algorithms::MatchingRing::new(orientation);
                let run = avglocal_runtime::SyncExecutor::new().run(graph, &algo, knowledge)?;
                let matched: Vec<Option<usize>> = run
                    .outputs()
                    .into_iter()
                    .map(|partner| {
                        partner.and_then(|id| graph.node_by_identifier(id).map(|v| v.index()))
                    })
                    .collect();
                self.check(verify::is_maximal_matching(graph, &matched))?;
                RadiusProfile::from_execution(&run)
            }
        }
    }

    /// Probes the decision radii of an explicit node subset on a frozen
    /// session — the engine of the sampling estimators.
    ///
    /// Results come back positionally aligned with `nodes` through the
    /// index-addressed batch path
    /// ([`FrozenExecutor::run_nodes_with`]), so they are bit-identical
    /// across schedulings and thread counts. Unlike the full-sweep entry
    /// points this **skips output verification**: global predicates (one
    /// leader, proper colouring) are not checkable on a sampled subset, and
    /// the statistical suite pins sampled radii against verified full
    /// sweeps instead.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfiguration`] for round-based problems (no
    /// per-node ball probes exist; see [`Problem::uses_ball_view`]);
    /// [`CoreError::Runtime`] with the first failing probe in node order
    /// otherwise.
    pub fn probe_radii(
        &self,
        session: &FrozenExecutor,
        nodes: &[avglocal_graph::NodeId],
        options: &avglocal_runtime::NodeBatchOptions<'_>,
    ) -> Result<Vec<usize>> {
        fn probe<A>(
            session: &FrozenExecutor,
            algorithm: &A,
            nodes: &[avglocal_graph::NodeId],
            options: &avglocal_runtime::NodeBatchOptions<'_>,
        ) -> Result<Vec<usize>>
        where
            A: BallAlgorithm + Sync,
            A::Output: Send,
        {
            session
                .run_nodes_with(nodes, algorithm, Knowledge::none(), options)
                .into_iter()
                .map(|r| r.map(|(_, radius)| radius).map_err(CoreError::from))
                .collect()
        }

        match self {
            Problem::LargestId => probe(session, &LargestId, nodes, options),
            Problem::FullInfoLargestId => probe(session, &FullInfoLargestId, nodes, options),
            Problem::KnowTheLeader => probe(session, &KnowTheLeader, nodes, options),
            Problem::LandmarkColoring => probe(session, &LandmarkColoring, nodes, options),
            Problem::FullInfoColoring => probe(session, &FullInfoColoring, nodes, options),
            Problem::ThreeColoring | Problem::Mis | Problem::Matching => {
                Err(CoreError::InvalidConfiguration {
                    reason: format!(
                        "sampled probes need a ball-view problem; '{}' is round-based",
                        self.key()
                    ),
                })
            }
        }
    }

    fn check(&self, valid: bool) -> Result<()> {
        if valid {
            Ok(())
        } else {
            Err(CoreError::InvalidOutput { problem: self.key().to_string() })
        }
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Problem::LargestId => "largest ID (ball-growing)",
            Problem::FullInfoLargestId => "largest ID (full information)",
            Problem::KnowTheLeader => "know the leader",
            Problem::ThreeColoring => "3-colouring (Cole-Vishkin)",
            Problem::LandmarkColoring => "4-colouring (landmarks)",
            Problem::FullInfoColoring => "3-colouring (full information)",
            Problem::Mis => "maximal independent set",
            Problem::Matching => "maximal matching",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal_graph::{generators, IdAssignment};

    fn ring(n: usize, seed: u64) -> Graph {
        let mut g = generators::cycle(n).unwrap();
        IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
        g
    }

    #[test]
    fn every_problem_runs_on_a_ring() {
        let g = ring(24, 7);
        for problem in Problem::ALL {
            let profile = problem.run(&g).expect("problem should run on a ring");
            assert_eq!(profile.len(), 24, "{problem}");
            assert!(profile.max() <= 24, "{problem}");
        }
    }

    #[test]
    fn largest_id_has_smaller_average_than_baseline() {
        let g = ring(40, 3);
        let smart = Problem::LargestId.run(&g).unwrap();
        let lazy = Problem::FullInfoLargestId.run(&g).unwrap();
        assert!(smart.average() < lazy.average());
        assert_eq!(smart.max(), lazy.max());
    }

    #[test]
    fn coloring_beats_know_the_leader_on_average() {
        let g = ring(64, 9);
        let coloring = Problem::ThreeColoring.run(&g).unwrap();
        let leader = Problem::KnowTheLeader.run(&g).unwrap();
        assert!(coloring.average() < leader.average());
        assert!(coloring.max() < leader.max());
    }

    #[test]
    fn ring_only_problems_fail_on_other_topologies() {
        let mut star = generators::star(8).unwrap();
        IdAssignment::Shuffled { seed: 1 }.apply(&mut star).unwrap();
        assert!(Problem::ThreeColoring.run(&star).is_err());
        assert!(Problem::Mis.run(&star).is_err());
        assert!(Problem::Matching.run(&star).is_err());
        // Topology-agnostic problems still work.
        assert!(Problem::LargestId.run(&star).is_ok());
        assert!(Problem::KnowTheLeader.run(&star).is_ok());
    }

    #[test]
    fn per_component_runs_on_disconnected_graphs() {
        // Two disjoint rings: the global run rejects the two winners, the
        // per-component run accepts them and scopes every radius to the
        // component.
        let mut g = Graph::new();
        for i in 0..12 {
            g.add_node(avglocal_graph::Identifier::new(i));
        }
        let v = avglocal_graph::NodeId::new;
        for c in [0usize, 6] {
            for i in 0..6 {
                g.add_edge(v(c + i), v(c + (i + 1) % 6)).unwrap();
            }
        }
        let labels = ComponentLabels::of_graph(&g);
        assert_eq!(labels.count(), 2);
        for problem in [Problem::LargestId, Problem::FullInfoLargestId, Problem::KnowTheLeader] {
            assert!(problem.run(&g).is_err(), "{problem} must reject global verification");
            let profile = problem.run_with(&g, None, Some(&labels)).unwrap();
            assert_eq!(profile.len(), 12, "{problem}");
            // No ball ever needs to leave its 6-node component.
            assert!(profile.max() <= 3, "{problem}");
        }
    }

    #[test]
    fn per_component_equals_global_on_connected_graphs() {
        let g = ring(20, 11);
        let labels = ComponentLabels::of_graph(&g);
        for problem in [Problem::LargestId, Problem::KnowTheLeader] {
            assert_eq!(
                problem.run(&g).unwrap(),
                problem.run_with(&g, None, Some(&labels)).unwrap()
            );
        }
    }

    #[test]
    fn keys_and_names_are_distinct() {
        let mut keys: Vec<&str> = Problem::ALL.iter().map(Problem::key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), Problem::ALL.len());
        let mut names: Vec<String> = Problem::ALL.iter().map(|p| p.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Problem::ALL.len());
    }

    #[test]
    fn requires_cycle_classification() {
        assert!(!Problem::LargestId.requires_cycle());
        assert!(Problem::ThreeColoring.requires_cycle());
        assert!(Problem::Mis.requires_cycle());
        assert!(Problem::Matching.requires_cycle());
        assert!(!Problem::KnowTheLeader.requires_cycle());
    }
}
