//! Undirected simple graphs with per-node identifiers.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};
use crate::{Identifier, NodeId};

/// An undirected simple graph whose nodes carry distributed [`Identifier`]s.
///
/// This is the substrate every LOCAL-model execution runs on. Nodes are stored
/// densely and addressed by [`NodeId`]; each node holds the identifier it
/// exposes to the distributed algorithm. Neighbour lists are kept in insertion
/// order, which doubles as the port numbering used by the runtime.
///
/// # Examples
///
/// ```
/// use avglocal_graph::{Graph, Identifier};
///
/// # fn main() -> Result<(), avglocal_graph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node(Identifier::new(10));
/// let b = g.add_node(Identifier::new(20));
/// g.add_edge(a, b)?;
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.degree(a), 1);
/// assert!(g.contains_edge(a, b));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<Vec<NodeId>>,
    identifiers: Vec<Identifier>,
    by_identifier: HashMap<Identifier, NodeId>,
    /// Normalised `(min, max)` endpoint pairs, mirroring `adjacency`. Makes
    /// [`Graph::contains_edge`] (and thus the duplicate check of
    /// [`Graph::add_edge`]) `O(1)`, so bulk generators are not `O(n·Δ²)`.
    edge_set: HashSet<(NodeId, NodeId)>,
    edge_count: usize,
}

/// Normalises an undirected edge to its `(min, max)` key.
fn edge_key(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph with room for `nodes` nodes.
    #[must_use]
    pub fn with_capacity(nodes: usize) -> Self {
        Graph {
            adjacency: Vec::with_capacity(nodes),
            identifiers: Vec::with_capacity(nodes),
            by_identifier: HashMap::with_capacity(nodes),
            edge_set: HashSet::new(),
            edge_count: 0,
        }
    }

    /// Adds a node carrying `identifier` and returns its [`NodeId`].
    ///
    /// Identifiers are not required to be unique at insertion time (the
    /// builder validates uniqueness when it matters); the reverse lookup map
    /// keeps the *first* node that used a given identifier.
    pub fn add_node(&mut self, identifier: Identifier) -> NodeId {
        let id = NodeId::new(self.adjacency.len());
        self.adjacency.push(Vec::new());
        self.identifiers.push(identifier);
        self.by_identifier.entry(identifier).or_insert(id);
        id
    }

    /// Adds `count` nodes with identifiers `0..count` and returns their ids.
    pub fn add_nodes_with_default_ids(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|i| self.add_node(Identifier::new(i as u64))).collect()
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if either endpoint does not
    /// exist, [`GraphError::SelfLoop`] when `u == v`, and
    /// [`GraphError::DuplicateEdge`] when the edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if !self.edge_set.insert(edge_key(u, v)) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        self.adjacency[u.index()].push(v);
        self.adjacency[v.index()].push(u);
        self.edge_count += 1;
        Ok(())
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Returns `true` if `node` is a valid node id of this graph.
    #[must_use]
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.adjacency.len()
    }

    /// Returns `true` if the undirected edge `(u, v)` exists. `O(1)`.
    #[must_use]
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_set.contains(&edge_key(u, v))
    }

    /// Freezes the adjacency into a flat [`CsrGraph`] snapshot for
    /// traversal-heavy workloads — one serial copy pass plus a BFS
    /// connected-components labelling; see [`crate::csr`].
    ///
    /// # Panics
    ///
    /// Panics when the graph has `u32::MAX` nodes or more, or when its
    /// directed edge count exceeds `u32::MAX`.
    #[must_use]
    pub fn freeze(&self) -> CsrGraph {
        CsrGraph::from_graph(self)
    }

    /// Degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Neighbours of `node`, in port order (insertion order of the edges).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.index()]
    }

    /// Identifier carried by `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[must_use]
    pub fn identifier(&self, node: NodeId) -> Identifier {
        self.identifiers[node.index()]
    }

    /// Replaces the identifier of `node`, keeping the reverse index coherent.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `node` does not exist.
    pub fn set_identifier(&mut self, node: NodeId, identifier: Identifier) -> Result<()> {
        self.check_node(node)?;
        let old = self.identifiers[node.index()];
        if old == identifier {
            return Ok(());
        }
        if self.by_identifier.get(&old) == Some(&node) {
            self.by_identifier.remove(&old);
        }
        self.identifiers[node.index()] = identifier;
        self.by_identifier.entry(identifier).or_insert(node);
        Ok(())
    }

    /// Looks up the node carrying `identifier`, if any.
    #[must_use]
    pub fn node_by_identifier(&self, identifier: Identifier) -> Option<NodeId> {
        self.by_identifier.get(&identifier).copied()
    }

    /// Returns the node with the largest identifier, if the graph is non-empty.
    #[must_use]
    pub fn max_identifier_node(&self) -> Option<NodeId> {
        self.identifiers.iter().enumerate().max_by_key(|(_, id)| **id).map(|(i, _)| NodeId::new(i))
    }

    /// Iterator over all node ids, in index order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.adjacency.len()).map(NodeId::new)
    }

    /// Iterator over all identifiers, in node-index order.
    pub fn identifiers(&self) -> impl ExactSizeIterator<Item = Identifier> + '_ {
        self.identifiers.iter().copied()
    }

    /// Iterator over all undirected edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = NodeId::new(u);
            nbrs.iter().copied().filter_map(move |v| (u < v).then_some((u, v)))
        })
    }

    /// Minimum degree over all nodes, or `None` for the empty graph.
    #[must_use]
    pub fn min_degree(&self) -> Option<usize> {
        self.adjacency.iter().map(Vec::len).min()
    }

    /// Maximum degree over all nodes, or `None` for the empty graph.
    #[must_use]
    pub fn max_degree(&self) -> Option<usize> {
        self.adjacency.iter().map(Vec::len).max()
    }

    /// Rebuilds the identifier reverse-lookup index.
    ///
    /// Needed after bulk identifier rewrites performed through
    /// [`Graph::set_all_identifiers`].
    fn rebuild_identifier_index(&mut self) {
        self.by_identifier.clear();
        for (i, id) in self.identifiers.iter().enumerate() {
            self.by_identifier.entry(*id).or_insert(NodeId::new(i));
        }
    }

    /// Replaces the identifiers of every node at once.
    ///
    /// `identifiers[i]` becomes the identifier of the node with index `i`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::AssignmentLengthMismatch`] if the slice length
    /// differs from the node count, and [`GraphError::DuplicateIdentifier`] if
    /// two nodes would share an identifier.
    pub fn set_all_identifiers(&mut self, identifiers: &[Identifier]) -> Result<()> {
        if identifiers.len() != self.node_count() {
            return Err(GraphError::AssignmentLengthMismatch {
                provided: identifiers.len(),
                expected: self.node_count(),
            });
        }
        let mut seen = HashMap::with_capacity(identifiers.len());
        for id in identifiers {
            if seen.insert(*id, ()).is_some() {
                return Err(GraphError::DuplicateIdentifier { identifier: id.value() });
            }
        }
        self.identifiers.clear();
        self.identifiers.extend_from_slice(identifiers);
        self.rebuild_identifier_index();
        Ok(())
    }

    /// Checks that every node carries a distinct identifier.
    #[must_use]
    pub fn has_unique_identifiers(&self) -> bool {
        let mut seen = HashMap::with_capacity(self.identifiers.len());
        self.identifiers.iter().all(|id| seen.insert(*id, ()).is_none())
    }

    fn check_node(&self, node: NodeId) -> Result<()> {
        if self.contains_node(node) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds { node, node_count: self.node_count() })
        }
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Graph({} nodes, {} edges)", self.node_count(), self.edge_count())?;
        for v in self.nodes() {
            let nbrs: Vec<String> = self.neighbors(v).iter().map(|u| u.to_string()).collect();
            writeln!(f, "  {v} [{}] -> {}", self.identifier(v), nbrs.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node(Identifier::new(1));
        let b = g.add_node(Identifier::new(2));
        let c = g.add_node(Identifier::new(3));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, a).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.min_degree(), None);
        assert_eq!(g.max_degree(), None);
        assert_eq!(g.max_identifier_node(), None);
    }

    #[test]
    fn add_nodes_and_edges() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(a), 2);
        assert!(g.contains_edge(a, b));
        assert!(g.contains_edge(b, a));
        assert!(g.contains_edge(c, a));
        assert!(!g.is_empty());
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let (mut g, a, b, _) = triangle();
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop { node: a }));
        assert_eq!(g.add_edge(a, b), Err(GraphError::DuplicateEdge { u: a, v: b }));
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn rejects_out_of_bounds_edges() {
        let mut g = Graph::new();
        let a = g.add_node(Identifier::new(1));
        let ghost = NodeId::new(10);
        assert!(matches!(g.add_edge(a, ghost), Err(GraphError::NodeOutOfBounds { .. })));
    }

    #[test]
    fn identifier_lookup() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.identifier(a), Identifier::new(1));
        assert_eq!(g.node_by_identifier(Identifier::new(2)), Some(b));
        assert_eq!(g.node_by_identifier(Identifier::new(99)), None);
        assert_eq!(g.max_identifier_node(), Some(c));
        assert!(g.has_unique_identifiers());
    }

    #[test]
    fn set_identifier_updates_lookup() {
        let (mut g, a, _, _) = triangle();
        g.set_identifier(a, Identifier::new(50)).unwrap();
        assert_eq!(g.identifier(a), Identifier::new(50));
        assert_eq!(g.node_by_identifier(Identifier::new(50)), Some(a));
        assert_eq!(g.node_by_identifier(Identifier::new(1)), None);
        assert_eq!(g.max_identifier_node(), Some(a));
    }

    #[test]
    fn set_identifier_out_of_bounds() {
        let mut g = Graph::new();
        assert!(matches!(
            g.set_identifier(NodeId::new(0), Identifier::new(1)),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn set_all_identifiers_validates() {
        let (mut g, a, b, c) = triangle();
        let err = g.set_all_identifiers(&[Identifier::new(5)]);
        assert!(matches!(err, Err(GraphError::AssignmentLengthMismatch { .. })));

        let err =
            g.set_all_identifiers(&[Identifier::new(5), Identifier::new(5), Identifier::new(6)]);
        assert!(matches!(err, Err(GraphError::DuplicateIdentifier { identifier: 5 })));

        g.set_all_identifiers(&[Identifier::new(30), Identifier::new(20), Identifier::new(10)])
            .unwrap();
        assert_eq!(g.identifier(a), Identifier::new(30));
        assert_eq!(g.identifier(b), Identifier::new(20));
        assert_eq!(g.identifier(c), Identifier::new(10));
        assert_eq!(g.max_identifier_node(), Some(a));
    }

    #[test]
    fn edges_reported_once() {
        let (g, _, _, _) = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn default_id_nodes() {
        let mut g = Graph::new();
        let nodes = g.add_nodes_with_default_ids(4);
        assert_eq!(nodes.len(), 4);
        assert_eq!(g.identifier(nodes[3]), Identifier::new(3));
        assert!(g.has_unique_identifiers());
    }

    #[test]
    fn degree_bounds() {
        let (g, _, _, _) = triangle();
        assert_eq!(g.min_degree(), Some(2));
        assert_eq!(g.max_degree(), Some(2));
    }

    #[test]
    fn display_contains_structure() {
        let (g, _, _, _) = triangle();
        let s = g.to_string();
        assert!(s.contains("3 nodes"));
        assert!(s.contains("v0"));
        assert!(s.contains("#1"));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let g = Graph::with_capacity(16);
        assert!(g.is_empty());
        assert_eq!(g, Graph::new());
    }
}
