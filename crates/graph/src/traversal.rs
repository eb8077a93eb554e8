//! Breadth-first traversal, distances, diameter and connectivity.
//!
//! These are centralized (simulator-side) graph algorithms. They are used to
//! extract balls, to verify algorithm outputs, and to compute graph metrics
//! for reports; distributed algorithms never call them directly.

use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// Result of a breadth-first search from a single source.
///
/// Distances are measured in hops; unreachable nodes have distance `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    source: NodeId,
    distances: Vec<Option<usize>>,
    parents: Vec<Option<NodeId>>,
    order: Vec<NodeId>,
}

impl BfsResult {
    /// The source node of the search.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance in hops from the source to `node`, or `None` if unreachable.
    #[must_use]
    pub fn distance(&self, node: NodeId) -> Option<usize> {
        self.distances.get(node.index()).copied().flatten()
    }

    /// BFS parent of `node`, or `None` for the source and unreachable nodes.
    #[must_use]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parents.get(node.index()).copied().flatten()
    }

    /// Nodes in the order they were discovered (the source comes first).
    fn visit_order(&self) -> &[NodeId] {
        &self.order
    }

    /// Largest finite distance from the source (its eccentricity within its
    /// connected component).
    #[must_use]
    pub fn eccentricity(&self) -> usize {
        self.distances.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Number of nodes reachable from the source (including the source).
    fn reachable_count(&self) -> usize {
        self.distances.iter().flatten().count()
    }
}

/// Runs a breadth-first search from `source`.
///
/// # Panics
///
/// Panics if `source` is not a node of `graph`.
#[must_use]
pub fn bfs(graph: &Graph, source: NodeId) -> BfsResult {
    assert!(graph.contains_node(source), "bfs source must be in the graph");
    let n = graph.node_count();
    let mut distances = vec![None; n];
    let mut parents = vec![None; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    distances[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        let du = distances[u.index()].expect("queued nodes have a distance");
        for &v in graph.neighbors(u) {
            if distances[v.index()].is_none() {
                distances[v.index()] = Some(du + 1);
                parents[v.index()] = Some(u);
                queue.push_back(v);
            }
        }
    }
    BfsResult { source, distances, parents, order }
}

/// Hop distance between `u` and `v`, or `None` if they are disconnected.
#[must_use]
pub fn distance(graph: &Graph, u: NodeId, v: NodeId) -> Option<usize> {
    bfs(graph, u).distance(v)
}

/// Eccentricity of `node`: the largest distance to any reachable node.
#[must_use]
pub fn eccentricity(graph: &Graph, node: NodeId) -> usize {
    bfs(graph, node).eccentricity()
}

/// Diameter of the graph: the largest eccentricity over all nodes.
///
/// Returns `None` for the empty graph or a disconnected graph, because hop
/// distances between different components are infinite.
#[must_use]
pub fn diameter(graph: &Graph) -> Option<usize> {
    if graph.is_empty() || !is_connected(graph) {
        return None;
    }
    graph.nodes().map(|v| eccentricity(graph, v)).max()
}

/// Returns `true` when every node is reachable from every other node.
///
/// The empty graph is considered connected.
#[must_use]
pub fn is_connected(graph: &Graph) -> bool {
    match graph.nodes().next() {
        None => true,
        Some(first) => bfs(graph, first).reachable_count() == graph.node_count(),
    }
}

/// Partitions the nodes into connected components.
///
/// Components are listed in order of their smallest node index, and nodes
/// within a component are listed in BFS discovery order.
#[must_use]
pub fn connected_components(graph: &Graph) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; graph.node_count()];
    let mut components = Vec::new();
    for v in graph.nodes() {
        if seen[v.index()] {
            continue;
        }
        let result = bfs(graph, v);
        let component: Vec<NodeId> = result.visit_order().to_vec();
        for u in &component {
            seen[u.index()] = true;
        }
        components.push(component);
    }
    components
}

/// Checks whether the graph is bipartite (2-colourable).
///
/// The empty graph is bipartite.
#[must_use]
pub fn is_bipartite(graph: &Graph) -> bool {
    let n = graph.node_count();
    let mut colour: Vec<Option<bool>> = vec![None; n];
    for start in graph.nodes() {
        if colour[start.index()].is_some() {
            continue;
        }
        colour[start.index()] = Some(false);
        let mut queue = VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            let cu = colour[u.index()].expect("queued nodes are coloured");
            for &v in graph.neighbors(u) {
                match colour[v.index()] {
                    None => {
                        colour[v.index()] = Some(!cu);
                        queue.push_back(v);
                    }
                    Some(cv) if cv == cu => return false,
                    Some(_) => {}
                }
            }
        }
    }
    true
}

/// Length of a shortest cycle (the girth), or `None` for a forest.
///
/// This runs a BFS from every node and is intended for the moderate graph
/// sizes used in tests and experiments.
#[must_use]
pub fn girth(graph: &Graph) -> Option<usize> {
    let mut best: Option<usize> = None;
    for source in graph.nodes() {
        let n = graph.node_count();
        let mut dist = vec![usize::MAX; n];
        let mut parent = vec![None; n];
        dist[source.index()] = 0;
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    parent[v.index()] = Some(u);
                    queue.push_back(v);
                } else if parent[u.index()] != Some(v) {
                    // Found a cycle through `source` (or at least a closed walk
                    // bounding one); its length is at most the sum below.
                    let cycle_len = dist[u.index()] + dist[v.index()] + 1;
                    best = Some(best.map_or(cycle_len, |b| b.min(cycle_len)));
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Identifier;

    fn path4() -> Graph {
        generators::path(4).unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path4();
        let r = bfs(&g, NodeId::new(0));
        assert_eq!(r.distance(NodeId::new(0)), Some(0));
        assert_eq!(r.distance(NodeId::new(3)), Some(3));
        assert_eq!(r.eccentricity(), 3);
        assert_eq!(r.reachable_count(), 4);
        assert_eq!(r.source(), NodeId::new(0));
    }

    #[test]
    fn bfs_path_reconstruction() {
        let g = path4();
        let r = bfs(&g, NodeId::new(0));
        for v in 1..4 {
            assert_eq!(r.parent(NodeId::new(v)), Some(NodeId::new(v - 1)));
        }
        assert_eq!(r.parent(NodeId::new(0)), None);
    }

    #[test]
    fn bfs_visit_order_starts_at_source() {
        let g = path4();
        let r = bfs(&g, NodeId::new(2));
        assert_eq!(r.visit_order()[0], NodeId::new(2));
        assert_eq!(r.visit_order().len(), 4);
    }

    #[test]
    fn distance_between_nodes() {
        let g = generators::cycle(6).unwrap();
        assert_eq!(distance(&g, NodeId::new(0), NodeId::new(3)), Some(3));
        assert_eq!(distance(&g, NodeId::new(0), NodeId::new(5)), Some(1));
    }

    #[test]
    fn unreachable_nodes_have_no_distance() {
        let mut g = Graph::new();
        let a = g.add_node(Identifier::new(0));
        let b = g.add_node(Identifier::new(1));
        assert_eq!(distance(&g, a, b), None);
        let r = bfs(&g, a);
        assert_eq!(r.parent(b), None);
        assert_eq!(r.reachable_count(), 1);
    }

    #[test]
    fn diameter_and_radius_of_cycle() {
        let g = generators::cycle(8).unwrap();
        assert_eq!(diameter(&g), Some(4));
        assert_eq!(g.nodes().map(|v| eccentricity(&g, v)).min(), Some(4));
    }

    #[test]
    fn diameter_and_radius_of_path() {
        let g = path4();
        assert_eq!(diameter(&g), Some(3));
        assert_eq!(g.nodes().map(|v| eccentricity(&g, v)).min(), Some(2));
    }

    #[test]
    fn diameter_of_disconnected_graph_is_none() {
        let mut g = Graph::new();
        g.add_node(Identifier::new(0));
        g.add_node(Identifier::new(1));
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&Graph::new()));
        assert!(is_connected(&generators::cycle(5).unwrap()));
        let mut g = Graph::new();
        g.add_node(Identifier::new(0));
        g.add_node(Identifier::new(1));
        assert!(!is_connected(&g));
    }

    #[test]
    fn components_are_partitioned() {
        let mut g = Graph::new();
        let a = g.add_node(Identifier::new(0));
        let b = g.add_node(Identifier::new(1));
        let c = g.add_node(Identifier::new(2));
        g.add_edge(a, b).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![a, b]);
        assert_eq!(comps[1], vec![c]);
    }

    #[test]
    fn bipartiteness() {
        assert!(is_bipartite(&generators::cycle(6).unwrap()));
        assert!(!is_bipartite(&generators::cycle(5).unwrap()));
        assert!(is_bipartite(&path4()));
        assert!(is_bipartite(&Graph::new()));
    }

    #[test]
    fn girth_of_cycles_and_forests() {
        assert_eq!(girth(&generators::cycle(5).unwrap()), Some(5));
        assert_eq!(girth(&generators::cycle(9).unwrap()), Some(9));
        assert_eq!(girth(&path4()), None);
        assert_eq!(girth(&generators::complete(4).unwrap()), Some(3));
    }

    #[test]
    #[should_panic(expected = "bfs source must be in the graph")]
    fn bfs_panics_on_missing_source() {
        let g = Graph::new();
        let _ = bfs(&g, NodeId::new(0));
    }
}
