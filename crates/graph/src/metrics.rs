//! Structural metrics of graphs, used in experiment reports.

use crate::traversal;
use crate::Graph;

/// A summary of the structural properties of a graph.
///
/// Produced by [`summarize`]; used by the experiment harness to annotate
/// result tables with the topology they were measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSummary {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Minimum degree, `None` when the graph is empty.
    pub min_degree: Option<usize>,
    /// Maximum degree, `None` when the graph is empty.
    pub max_degree: Option<usize>,
    /// Average degree (`2m / n`), 0.0 when the graph is empty.
    pub average_degree: f64,
    /// Whether the graph is connected.
    pub connected: bool,
    /// Diameter, `None` when disconnected or empty.
    pub diameter: Option<usize>,
    /// Whether the graph is bipartite.
    pub bipartite: bool,
}

/// Computes a [`GraphSummary`] for `graph`.
///
/// Diameter computation is quadratic in the number of nodes; for very large
/// graphs prefer computing only the fields you need.
#[must_use]
pub fn summarize(graph: &Graph) -> GraphSummary {
    let nodes = graph.node_count();
    let edges = graph.edge_count();
    GraphSummary {
        nodes,
        edges,
        min_degree: graph.min_degree(),
        max_degree: graph.max_degree(),
        average_degree: if nodes == 0 { 0.0 } else { 2.0 * edges as f64 / nodes as f64 },
        connected: traversal::is_connected(graph),
        diameter: traversal::diameter(graph),
        bipartite: traversal::is_bipartite(graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn cycle_summary() {
        let g = generators::cycle(8).unwrap();
        let s = summarize(&g);
        assert_eq!(s.nodes, 8);
        assert_eq!(s.edges, 8);
        assert_eq!(s.min_degree, Some(2));
        assert_eq!(s.max_degree, Some(2));
        assert!((s.average_degree - 2.0).abs() < 1e-12);
        assert!(s.connected);
        assert_eq!(s.diameter, Some(4));
        assert!(s.bipartite);
    }

    #[test]
    fn odd_cycle_is_not_bipartite() {
        let s = summarize(&generators::cycle(7).unwrap());
        assert!(!s.bipartite);
    }

    #[test]
    fn empty_graph_summary() {
        let s = summarize(&Graph::new());
        assert_eq!(s.nodes, 0);
        assert_eq!(s.average_degree, 0.0);
        assert!(s.connected);
        assert_eq!(s.diameter, None);
    }
}
