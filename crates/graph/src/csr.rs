//! Compressed sparse row (CSR) adjacency snapshots.
//!
//! [`Graph`] stores adjacency as one `Vec` per node, which is the right shape
//! for incremental construction but the wrong one for traversal-heavy hot
//! loops: every neighbour list is its own allocation, so a BFS chases a
//! pointer per node. [`CsrGraph`] is the frozen, read-only counterpart — two
//! flat arrays (`offsets`, `targets`) plus the identifier table — produced
//! once per execution by [`Graph::freeze`] and shared immutably by every
//! worker thread. Port order (the neighbour order of the source graph) is
//! preserved exactly, so anything derived from a CSR snapshot matches the
//! `Graph`-based code paths node for node.
//!
//! # Freezing
//!
//! [`Graph::freeze`] is one serial pass: the adjacency lists are copied left
//! to right into `targets` while `offsets` records each node's end, and a BFS
//! sweep over the finished arrays labels the connected components that feed
//! the per-component experiment mode. The build is memory-bound — a parallel
//! degree count, scatter and lock-free union-find lost to this pass on every
//! machine it was measured on — so there is no other build path.

use std::sync::Arc;

use crate::components::ComponentLabels;
use crate::{Graph, Identifier, NodeId};

/// A frozen adjacency snapshot of a [`Graph`] in compressed sparse row form.
///
/// Node `v`'s neighbours are `targets[offsets[v] .. offsets[v + 1]]`, in the
/// same port order as [`Graph::neighbors`]. Indices are `u32`, which halves
/// the memory traffic of the hot traversal loops; graphs with more than
/// `u32::MAX - 1` nodes are rejected by [`Graph::freeze`].
///
/// # Examples
///
/// ```
/// use avglocal_graph::{generators, NodeId};
///
/// # fn main() -> Result<(), avglocal_graph::GraphError> {
/// let g = generators::cycle(8)?;
/// let csr = g.freeze();
/// assert_eq!(csr.node_count(), 8);
/// assert_eq!(csr.degree(0), 2);
/// assert_eq!(csr.neighbors(0), &[1, 7]);
/// assert_eq!(csr.identifier(3), g.identifier(NodeId::new(3)));
/// assert!(csr.is_connected());
/// assert_eq!(csr.components().count(), 1);
/// # Ok(())
/// # }
/// ```
/// The adjacency is immutable once frozen and shared behind an [`Arc`], so
/// cloning a snapshot — the per-trial operation of an identifier-assignment
/// sweep, which clones and then calls [`CsrGraph::set_identifiers`] — copies
/// only the `O(n)` identifier table, never the `O(n + m)` edge arrays or the
/// component labelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v] .. offsets[v + 1]` brackets node `v`'s slice of `targets`.
    offsets: Arc<[u32]>,
    /// Concatenated neighbour lists, in port order.
    targets: Arc<[u32]>,
    /// Canonical connected-component labelling, discovered at freeze time.
    components: Arc<ComponentLabels>,
    /// Identifier of each node, indexed by node.
    identifiers: Vec<Identifier>,
}

impl CsrGraph {
    /// Builds the snapshot; called through [`Graph::freeze`].
    ///
    /// # Panics
    ///
    /// Panics when the graph has `u32::MAX` nodes or more, or when its
    /// directed edge count `2·m` exceeds `u32::MAX` (dense graphs can hit the
    /// edge limit well below the node limit).
    #[must_use]
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.node_count();
        assert!(
            u32::try_from(n).is_ok_and(|n| n < u32::MAX),
            "CSR snapshots index nodes with u32; {n} nodes do not fit"
        );
        let directed_edges = 2 * graph.edge_count();
        assert!(
            u32::try_from(directed_edges).is_ok(),
            "CSR snapshots index edge offsets with u32; {directed_edges} edge endpoints do not fit"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(directed_edges);
        offsets.push(0);
        for v in graph.nodes() {
            for &u in graph.neighbors(v) {
                targets.push(u.index() as u32);
            }
            offsets.push(targets.len() as u32);
        }
        let components = ComponentLabels::of_csr(&offsets, &targets);
        CsrGraph {
            offsets: offsets.into(),
            targets: targets.into(),
            components: Arc::new(components),
            identifiers: graph.identifiers().collect(),
        }
    }

    /// Assembles a snapshot from arrays that have already been validated.
    ///
    /// Only the snapshot decoder ([`crate::snapshot`]) calls this, after
    /// checking every structural invariant (monotone offsets, endpoint
    /// bounds, symmetry, label consistency); the arrays are trusted here.
    pub(crate) fn from_validated_parts(
        offsets: Vec<u32>,
        targets: Vec<u32>,
        components: ComponentLabels,
        identifiers: Vec<Identifier>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), identifiers.len() + 1);
        debug_assert_eq!(components.node_count() + 1, offsets.len());
        CsrGraph {
            offsets: offsets.into(),
            targets: targets.into(),
            components: Arc::new(components),
            identifiers,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of node `v`.
    #[must_use]
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Neighbours of node `v`, in port order.
    #[must_use]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The raw offset array (`offsets[v] .. offsets[v + 1]` brackets node
    /// `v`'s slice of [`CsrGraph::targets`]).
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw concatenated neighbour lists, in port order.
    #[must_use]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// The connected-component labelling discovered when the snapshot was
    /// frozen.
    #[must_use]
    pub fn components(&self) -> &ComponentLabels {
        &self.components
    }

    /// Returns `true` when the snapshot has at most one component.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.components.is_connected()
    }

    /// Identifier of node `v`.
    #[must_use]
    pub fn identifier(&self, v: u32) -> Identifier {
        self.identifiers[v as usize]
    }

    /// All identifiers, indexed by node.
    #[must_use]
    pub fn identifiers(&self) -> &[Identifier] {
        &self.identifiers
    }

    /// Host [`NodeId`] of CSR node `v`.
    #[must_use]
    pub fn node_id(&self, v: u32) -> NodeId {
        NodeId::new(v as usize)
    }

    /// Iterator over all undirected edges as `(u, v)` node-index pairs with
    /// `u < v`, in node order — the edge stream the measure layer folds over.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.node_count() as u32).flat_map(move |v| {
            self.neighbors(v).iter().copied().filter_map(move |u| (v < u).then_some((v, u)))
        })
    }

    /// Replaces the identifier table, keeping the frozen adjacency.
    ///
    /// Experiment trials vary only the identifier assignment, so a session
    /// can reuse one adjacency snapshot across trials and swap the `O(n)`
    /// identifier table instead of re-freezing the `O(n + m)` structure.
    ///
    /// # Panics
    ///
    /// Panics when `identifiers` does not provide exactly one identifier per
    /// node. Callers handling untrusted table lengths should use
    /// [`CsrGraph::try_set_identifiers`] instead.
    pub fn set_identifiers(&mut self, identifiers: &[Identifier]) {
        assert!(
            self.try_set_identifiers(identifiers).is_ok(),
            "identifier table must cover every node exactly once ({} identifiers for {} nodes)",
            identifiers.len(),
            self.node_count()
        );
    }

    /// Fallible counterpart of [`CsrGraph::set_identifiers`] for untrusted
    /// table lengths.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::AssignmentLengthMismatch`] (leaving the
    /// snapshot unchanged) when `identifiers` does not provide exactly one
    /// identifier per node.
    pub fn try_set_identifiers(&mut self, identifiers: &[Identifier]) -> crate::Result<()> {
        if identifiers.len() != self.node_count() {
            return Err(crate::GraphError::AssignmentLengthMismatch {
                provided: identifiers.len(),
                expected: self.node_count(),
            });
        }
        self.identifiers.clear();
        self.identifiers.extend_from_slice(identifiers);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn csr_mirrors_graph_adjacency() {
        let graphs = [
            generators::cycle(9).unwrap(),
            generators::path(5).unwrap(),
            generators::grid(3, 4).unwrap(),
            generators::complete(6).unwrap(),
            generators::petersen(),
        ];
        for g in &graphs {
            let csr = g.freeze();
            assert_eq!(csr.node_count(), g.node_count());
            assert_eq!(csr.edge_count(), g.edge_count());
            for v in g.nodes() {
                let expected: Vec<u32> = g.neighbors(v).iter().map(|u| u.index() as u32).collect();
                assert_eq!(csr.neighbors(v.index() as u32), expected.as_slice());
                assert_eq!(csr.degree(v.index() as u32), g.degree(v));
                assert_eq!(csr.identifier(v.index() as u32), g.identifier(v));
            }
            assert!(csr.is_connected());
        }
    }

    #[test]
    fn empty_graph_freezes() {
        let csr = Graph::new().freeze();
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert!(csr.identifiers().is_empty());
        assert!(csr.is_connected());
        assert_eq!(csr.components().count(), 0);
    }

    #[test]
    fn edges_iterate_each_edge_once() {
        let g = generators::grid(3, 4).unwrap();
        let csr = g.freeze();
        let edges: Vec<(u32, u32)> = csr.edges().collect();
        assert_eq!(edges.len(), g.edge_count());
        for &(u, v) in &edges {
            assert!(u < v);
            assert!(g.contains_edge(NodeId::new(u as usize), NodeId::new(v as usize)));
        }
    }

    #[test]
    fn disconnected_snapshot_reports_components() {
        let mut g = Graph::new();
        for i in 0..6 {
            g.add_node(crate::Identifier::new(i));
        }
        g.add_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        g.add_edge(NodeId::new(3), NodeId::new(4)).unwrap();
        let csr = g.freeze();
        assert!(!csr.is_connected());
        assert_eq!(csr.components().count(), 4);
        assert_eq!(csr.components().sizes(), &[2, 1, 2, 1]);
    }

    #[test]
    fn set_identifiers_swaps_the_table_only() {
        let g = generators::cycle(5).unwrap();
        let mut csr = g.freeze();
        let reversed: Vec<Identifier> = (0..5).rev().map(Identifier::new).collect();
        csr.set_identifiers(&reversed);
        assert_eq!(csr.identifier(0), Identifier::new(4));
        assert_eq!(csr.identifiers(), reversed.as_slice());
        // Adjacency untouched.
        assert_eq!(csr.neighbors(0), g.freeze().neighbors(0));
    }

    #[test]
    #[should_panic(expected = "identifier table must cover every node")]
    fn set_identifiers_rejects_wrong_length() {
        let mut csr = generators::cycle(4).unwrap().freeze();
        csr.set_identifiers(&[Identifier::new(0)]);
    }

    #[test]
    fn try_set_identifiers_reports_wrong_length_and_leaves_table_intact() {
        let mut csr = generators::cycle(4).unwrap().freeze();
        let before: Vec<Identifier> = csr.identifiers().to_vec();
        let err = csr.try_set_identifiers(&[Identifier::new(9)]).unwrap_err();
        assert!(matches!(
            err,
            crate::GraphError::AssignmentLengthMismatch { provided: 1, expected: 4 }
        ));
        assert_eq!(csr.identifiers(), before.as_slice());
        let reversed: Vec<Identifier> = (0..4).rev().map(Identifier::new).collect();
        csr.try_set_identifiers(&reversed).unwrap();
        assert_eq!(csr.identifiers(), reversed.as_slice());
    }

    #[test]
    fn clones_share_the_adjacency_arrays() {
        let csr = generators::cycle(6).unwrap().freeze();
        let mut clone = csr.clone();
        // The adjacency is behind an Arc: a clone points at the same arrays…
        assert!(std::ptr::eq(csr.neighbors(0).as_ptr(), clone.neighbors(0).as_ptr()));
        // …and so is the component labelling…
        assert!(Arc::ptr_eq(&csr.components, &clone.components));
        // …while the identifier table stays independent.
        clone.set_identifiers(&(0..6).rev().map(Identifier::new).collect::<Vec<_>>());
        assert_ne!(csr.identifier(0), clone.identifier(0));
        assert_eq!(csr.neighbors(3), clone.neighbors(3));
    }

    #[test]
    fn node_id_round_trip() {
        let g = generators::cycle(4).unwrap();
        let csr = g.freeze();
        assert_eq!(csr.node_id(3), NodeId::new(3));
    }
}
