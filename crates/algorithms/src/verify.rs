//! Output verifiers: centralized checks that distributed outputs are valid.
//!
//! Every problem the library ships an algorithm for also ships a verifier, so
//! tests and experiments never have to trust an algorithm's own claims.

use avglocal_graph::{ComponentLabels, Graph, Identifier};

/// The largest identifier of each component, indexed by component label, or
/// `None` when `labels` does not cover the graph.
fn component_max_identifiers(graph: &Graph, labels: &ComponentLabels) -> Option<Vec<Identifier>> {
    if labels.node_count() != graph.node_count() {
        return None;
    }
    let mut maxima: Vec<Option<Identifier>> = vec![None; labels.count()];
    for v in graph.nodes() {
        let slot = &mut maxima[labels.label(v) as usize];
        let id = graph.identifier(v);
        if slot.is_none_or(|m| id > m) {
            *slot = Some(id);
        }
    }
    // Every component has at least one node, so every slot is filled.
    maxima.into_iter().collect()
}

/// Checks the component-scoped largest-ID outputs: within every connected
/// component, exactly the node carrying that component's maximum identifier
/// answered `true`.
///
/// On a connected graph this coincides with
/// [`is_correct_largest_id`]; on a disconnected graph it is the natural
/// semantics of the ball-growing algorithm, whose view saturates at the
/// component boundary.
#[must_use]
pub fn is_correct_largest_id_per_component(
    graph: &Graph,
    labels: &ComponentLabels,
    outputs: &[bool],
) -> bool {
    if outputs.len() != graph.node_count() {
        return false;
    }
    let Some(maxima) = component_max_identifiers(graph, labels) else {
        return false;
    };
    graph
        .nodes()
        .all(|v| outputs[v.index()] == (graph.identifier(v) == maxima[labels.label(v) as usize]))
}

/// Checks the component-scoped know-the-leader outputs: every node named the
/// maximum identifier of its own component.
#[must_use]
pub fn is_component_leader_output(
    graph: &Graph,
    labels: &ComponentLabels,
    outputs: &[Identifier],
) -> bool {
    if outputs.len() != graph.node_count() {
        return false;
    }
    let Some(maxima) = component_max_identifiers(graph, labels) else {
        return false;
    };
    graph.nodes().all(|v| outputs[v.index()] == maxima[labels.label(v) as usize])
}

/// Checks that `colors` (indexed by node) is a proper colouring of `graph`
/// with at most `palette_size` colours.
#[must_use]
pub fn is_proper_coloring(graph: &Graph, colors: &[u64], palette_size: u64) -> bool {
    if colors.len() != graph.node_count() {
        return false;
    }
    if colors.iter().any(|&c| c >= palette_size) {
        return false;
    }
    graph.edges().all(|(u, v)| colors[u.index()] != colors[v.index()])
}

/// Checks that `in_set` (indexed by node) describes a maximal independent
/// set of `graph`: no two set members are adjacent, and every non-member has
/// a member neighbour.
#[must_use]
pub fn is_maximal_independent_set(graph: &Graph, in_set: &[bool]) -> bool {
    if in_set.len() != graph.node_count() {
        return false;
    }
    // Independence.
    if graph.edges().any(|(u, v)| in_set[u.index()] && in_set[v.index()]) {
        return false;
    }
    // Maximality: every node outside the set has a neighbour inside.
    graph
        .nodes()
        .all(|v| in_set[v.index()] || graph.neighbors(v).iter().any(|&u| in_set[u.index()]))
}

/// Checks that exactly the node with the maximum identifier answered `true`.
#[must_use]
pub fn is_correct_largest_id(graph: &Graph, outputs: &[bool]) -> bool {
    if outputs.len() != graph.node_count() {
        return false;
    }
    let Some(winner) = graph.max_identifier_node() else {
        return outputs.is_empty();
    };
    graph.nodes().all(|v| outputs[v.index()] == (v == winner))
}

/// Checks that `matched` describes a maximal matching: `matched[v]` is the
/// node `v` is matched with (or `None`), the relation is symmetric, matched
/// pairs are adjacent, and no two unmatched nodes are adjacent.
#[must_use]
pub fn is_maximal_matching(graph: &Graph, matched: &[Option<usize>]) -> bool {
    if matched.len() != graph.node_count() {
        return false;
    }
    for v in graph.nodes() {
        if let Some(partner) = matched[v.index()] {
            if partner >= graph.node_count() {
                return false;
            }
            // Symmetry and adjacency.
            if matched[partner] != Some(v.index()) {
                return false;
            }
            if !graph.contains_edge(v, avglocal_graph::NodeId::new(partner)) {
                return false;
            }
        }
    }
    // Maximality: no edge with both endpoints unmatched.
    graph.edges().all(|(u, v)| matched[u.index()].is_some() || matched[v.index()].is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal_graph::generators;

    #[test]
    fn proper_coloring_detection() {
        let g = generators::cycle(6).unwrap();
        assert!(is_proper_coloring(&g, &[0, 1, 0, 1, 0, 1], 2));
        assert!(!is_proper_coloring(&g, &[0, 1, 0, 1, 0, 0], 2)); // last edge conflicts
        assert!(!is_proper_coloring(&g, &[0, 1, 0, 1, 0, 2], 2)); // colour out of palette
        assert!(!is_proper_coloring(&g, &[0, 1, 0], 2)); // wrong length
    }

    #[test]
    fn odd_cycle_needs_three_colors() {
        let g = generators::cycle(5).unwrap();
        assert!(is_proper_coloring(&g, &[0, 1, 0, 1, 2], 3));
        assert!(!is_proper_coloring(&g, &[0, 1, 0, 1, 0], 3));
    }

    #[test]
    fn mis_detection() {
        let g = generators::cycle(6).unwrap();
        assert!(is_maximal_independent_set(&g, &[true, false, true, false, true, false]));
        // Independent but not maximal.
        assert!(!is_maximal_independent_set(&g, &[true, false, false, false, true, false]));
        // Not independent.
        assert!(!is_maximal_independent_set(&g, &[true, true, false, true, false, false]));
        // Wrong length.
        assert!(!is_maximal_independent_set(&g, &[true, false]));
    }

    #[test]
    fn matching_detection() {
        let g = generators::cycle(6).unwrap();
        // Perfect matching 0-1, 2-3, 4-5.
        let m = vec![Some(1), Some(0), Some(3), Some(2), Some(5), Some(4)];
        assert!(is_maximal_matching(&g, &m));
        // Asymmetric.
        let bad = vec![Some(1), None, None, None, None, None];
        assert!(!is_maximal_matching(&g, &bad));
        // Not maximal: nothing matched.
        assert!(!is_maximal_matching(&g, &[None; 6]));
        // Matched pair not adjacent.
        let far = vec![Some(3), None, None, Some(0), None, None];
        assert!(!is_maximal_matching(&g, &far));
        // Wrong length.
        assert!(!is_maximal_matching(&g, &[None; 3]));
        // Partner index out of range.
        let oob = vec![Some(99), None, None, None, None, None];
        assert!(!is_maximal_matching(&g, &oob));
    }

    /// Two components: a triangle on nodes {0, 1, 2} (ids 10, 30, 20) and an
    /// edge on nodes {3, 4} (ids 50, 40).
    fn two_components() -> (Graph, ComponentLabels) {
        let mut g = Graph::new();
        for id in [10u64, 30, 20, 50, 40] {
            g.add_node(avglocal_graph::Identifier::new(id));
        }
        let v = avglocal_graph::NodeId::new;
        g.add_edge(v(0), v(1)).unwrap();
        g.add_edge(v(1), v(2)).unwrap();
        g.add_edge(v(2), v(0)).unwrap();
        g.add_edge(v(3), v(4)).unwrap();
        let labels = ComponentLabels::of_graph(&g);
        (g, labels)
    }

    #[test]
    fn component_maxima_are_per_component() {
        let (g, labels) = two_components();
        let maxima = component_max_identifiers(&g, &labels).unwrap();
        assert_eq!(maxima.len(), 2);
        assert_eq!(maxima[0].value(), 30);
        assert_eq!(maxima[1].value(), 50);
    }

    #[test]
    fn per_component_largest_id_accepts_component_winners() {
        let (g, labels) = two_components();
        // One winner per component: node 1 (id 30) and node 3 (id 50).
        assert!(is_correct_largest_id_per_component(
            &g,
            &labels,
            &[false, true, false, true, false]
        ));
        // The *global* verifier rejects the same outputs (two winners)…
        assert!(!is_correct_largest_id(&g, &[false, true, false, true, false]));
        // …and the per-component verifier rejects a global-only winner.
        assert!(!is_correct_largest_id_per_component(
            &g,
            &labels,
            &[false, false, false, true, false]
        ));
        assert!(!is_correct_largest_id_per_component(&g, &labels, &[false; 3]));
    }

    #[test]
    fn per_component_leader_outputs() {
        let (g, labels) = two_components();
        let id = avglocal_graph::Identifier::new;
        assert!(is_component_leader_output(&g, &labels, &[id(30), id(30), id(30), id(50), id(50)]));
        // Naming the global maximum from the wrong component is invalid.
        assert!(!is_component_leader_output(
            &g,
            &labels,
            &[id(50), id(50), id(50), id(50), id(50)]
        ));
        assert!(!is_component_leader_output(&g, &labels, &[id(30); 2]));
    }

    #[test]
    fn per_component_checks_agree_with_global_on_connected_graphs() {
        let g = generators::cycle(6).unwrap();
        let labels = ComponentLabels::of_graph(&g);
        let mut outputs = vec![false; 6];
        outputs[5] = true;
        assert!(is_correct_largest_id(&g, &outputs));
        assert!(is_correct_largest_id_per_component(&g, &labels, &outputs));
    }
}
