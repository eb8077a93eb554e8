//! Baselines: full-information distributed algorithms and centralized
//! references.
//!
//! The paper's point is that clever local algorithms beat the "gather
//! everything, then decide" strategy on the *average* measure. These
//! baselines make the comparison concrete: they are correct but maximally
//! lazy, so their average radius equals their worst-case radius.

use avglocal_graph::{Graph, NodeId};
use avglocal_runtime::{BallAlgorithm, Knowledge, LocalView};

/// Full-information 3-colouring baseline: wait until the whole component is
/// visible, then output a canonical greedy colouring.
///
/// All nodes compute the same colouring (greedy in increasing identifier
/// order over the same saturated view), so the result is proper; but every
/// node pays the saturation radius, `⌊n/2⌋` on the cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullInfoColoring;

impl BallAlgorithm for FullInfoColoring {
    type Output = u64;

    fn name(&self) -> &str {
        "full-info-coloring"
    }

    fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<u64> {
        if !view.is_saturated() {
            return None;
        }
        let colors = greedy_coloring(view.graph());
        Some(colors[view.center().index()])
    }
}

/// Full-information largest-ID baseline: refuse to answer before seeing the
/// whole component, even for nodes that could answer `false` early.
///
/// Contrasting this with [`crate::LargestId`] isolates exactly the effect the
/// paper studies: the outputs are identical, only the stopping rule differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullInfoLargestId;

impl BallAlgorithm for FullInfoLargestId {
    type Output = bool;

    fn name(&self) -> &str {
        "full-info-largest-id"
    }

    fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<bool> {
        view.is_saturated().then(|| view.center_has_max_identifier())
    }
}

/// Centralized greedy colouring: processes nodes in increasing identifier
/// order and gives each the smallest colour unused by its already-coloured
/// neighbours. Uses at most `Δ + 1` colours.
#[must_use]
pub fn greedy_coloring(graph: &Graph) -> Vec<u64> {
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.sort_by_key(|&v| graph.identifier(v));
    let mut colors: Vec<Option<u64>> = vec![None; graph.node_count()];
    for v in order {
        let used: Vec<u64> = graph.neighbors(v).iter().filter_map(|&u| colors[u.index()]).collect();
        let color = (0..).find(|c| !used.contains(c)).expect("an unused colour always exists");
        colors[v.index()] = Some(color);
    }
    colors.into_iter().map(|c| c.expect("every node was coloured")).collect()
}

/// Centralized greedy maximal independent set: processes nodes in increasing
/// identifier order, adding a node whenever none of its neighbours is already
/// in the set.
#[must_use]
pub fn greedy_mis(graph: &Graph) -> Vec<bool> {
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.sort_by_key(|&v| graph.identifier(v));
    let mut in_set = vec![false; graph.node_count()];
    for v in order {
        if graph.neighbors(v).iter().all(|&u| !in_set[u.index()]) {
            in_set[v.index()] = true;
        }
    }
    in_set
}

/// Centralized greedy maximal matching: processes edges in a canonical order
/// and matches both endpoints whenever both are still free. Returns, for each
/// node, the index of its partner (or `None`).
#[must_use]
pub fn greedy_maximal_matching(graph: &Graph) -> Vec<Option<usize>> {
    let mut matched: Vec<Option<usize>> = vec![None; graph.node_count()];
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    edges
        .sort_by_key(|&(u, v)| (graph.identifier(u).min(graph.identifier(v)), graph.identifier(u)));
    for (u, v) in edges {
        if matched[u.index()].is_none() && matched[v.index()].is_none() {
            matched[u.index()] = Some(v.index());
            matched[v.index()] = Some(u.index());
        }
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use crate::LargestId;
    use avglocal_graph::{generators, IdAssignment};
    use avglocal_runtime::FrozenExecutor;

    fn ring(n: usize, seed: u64) -> Graph {
        let mut g = generators::cycle(n).unwrap();
        IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
        g
    }

    #[test]
    fn greedy_coloring_is_proper_and_small() {
        for seed in 0..5u64 {
            let g = ring(31, seed);
            let colors = greedy_coloring(&g);
            assert!(verify::is_proper_coloring(&g, &colors, 3));
        }
        let grid = generators::grid(4, 4).unwrap();
        let colors = greedy_coloring(&grid);
        assert!(verify::is_proper_coloring(&grid, &colors, 5));
    }

    #[test]
    fn greedy_mis_is_maximal() {
        for seed in 0..5u64 {
            let g = ring(27, seed);
            assert!(verify::is_maximal_independent_set(&g, &greedy_mis(&g)));
        }
        let star = generators::star(8).unwrap();
        assert!(verify::is_maximal_independent_set(&star, &greedy_mis(&star)));
    }

    #[test]
    fn greedy_matching_is_maximal() {
        for seed in 0..5u64 {
            let g = ring(26, seed);
            assert!(verify::is_maximal_matching(&g, &greedy_maximal_matching(&g)));
        }
        let p = generators::path(9).unwrap();
        assert!(verify::is_maximal_matching(&p, &greedy_maximal_matching(&p)));
    }

    #[test]
    fn full_info_coloring_pays_the_saturation_radius() {
        let g = ring(18, 2);
        let run = FrozenExecutor::new(&g).run(&FullInfoColoring, Knowledge::none()).unwrap();
        assert!(verify::is_proper_coloring(&g, run.outputs(), 3));
        assert_eq!(run.max_radius(), 9);
        assert_eq!(run.average_radius(), 9.0);
    }

    #[test]
    fn full_info_largest_id_matches_outputs_but_not_radii() {
        let g = ring(22, 6);
        let smart = FrozenExecutor::new(&g).run(&LargestId, Knowledge::none()).unwrap();
        let lazy = FrozenExecutor::new(&g).run(&FullInfoLargestId, Knowledge::none()).unwrap();
        assert_eq!(smart.outputs(), lazy.outputs());
        assert_eq!(lazy.average_radius(), lazy.max_radius() as f64);
        assert!(smart.average_radius() < lazy.average_radius());
    }
}
