//! Port numberings: how a node refers to its incident edges.
//!
//! In the LOCAL model a node does not know the global names of its
//! neighbours; it only sees its incident edges through locally numbered
//! *ports* `0..deg(v)`. The runtime uses [`PortNumbering`] to translate
//! between the simulator's global [`NodeId`]s and the ports visible to an
//! algorithm.

use std::collections::HashMap;

use crate::{Graph, NodeId};

/// The port numbering of a graph: for every node, an ordered list of its
/// neighbours.
///
/// Port `p` of node `v` leads to `neighbor(v, p)`. The numbering is derived
/// from the neighbour insertion order of the [`Graph`], which generators keep
/// deterministic, so experiments are reproducible.
///
/// Construction also precomputes, for every directed edge `(v, p)`, the port
/// on the far side that leads back to `v` ([`PortNumbering::reverse_port`]),
/// so message delivery does not pay a linear neighbour scan per message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortNumbering {
    ports: Vec<Vec<NodeId>>,
    /// `reverse[v][p]` is the port of `neighbor(v, p)` that leads back to `v`.
    reverse: Vec<Vec<usize>>,
}

impl PortNumbering {
    /// Builds the port numbering of `graph`, including the reverse map.
    #[must_use]
    pub fn new(graph: &Graph) -> Self {
        let ports: Vec<Vec<NodeId>> = graph.nodes().map(|v| graph.neighbors(v).to_vec()).collect();
        // Index every directed edge once, then look each opposite port up in
        // O(1): overall O(n + m) instead of the O(sum of deg^2) that repeated
        // neighbour scans would cost.
        let mut port_of: HashMap<(NodeId, NodeId), usize> = HashMap::new();
        for (u, nbrs) in ports.iter().enumerate() {
            for (p, &v) in nbrs.iter().enumerate() {
                port_of.insert((NodeId::new(u), v), p);
            }
        }
        let reverse = ports
            .iter()
            .enumerate()
            .map(|(v, nbrs)| {
                nbrs.iter()
                    .map(|&u| {
                        *port_of
                            .get(&(u, NodeId::new(v)))
                            .expect("undirected graphs have symmetric port numberings")
                    })
                    .collect()
            })
            .collect();
        PortNumbering { ports, reverse }
    }

    /// Number of nodes covered by the numbering.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.ports.len()
    }

    /// Degree of `node` (number of its ports).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.ports[node.index()].len()
    }

    /// The neighbour reached through port `port` of `node`, if that port
    /// exists.
    #[must_use]
    pub fn neighbor(&self, node: NodeId, port: usize) -> Option<NodeId> {
        self.ports.get(node.index()).and_then(|p| p.get(port)).copied()
    }

    /// The port of `node` that leads to `neighbor`, if they are adjacent.
    fn port_to(&self, node: NodeId, neighbor: NodeId) -> Option<usize> {
        self.ports.get(node.index()).and_then(|p| p.iter().position(|&v| v == neighbor))
    }

    /// The precomputed far-side port: for the edge leaving `node` through
    /// `port`, the port of the neighbour that leads back to `node`. `O(1)`.
    ///
    /// Equivalent to `self.port_to(self.neighbor(node, port)?, node)`.
    #[must_use]
    pub fn reverse_port(&self, node: NodeId, port: usize) -> Option<usize> {
        self.reverse.get(node.index()).and_then(|r| r.get(port)).copied()
    }

    /// All neighbours of `node` in port order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.ports[node.index()]
    }

    /// Checks the symmetry invariant: if port `p` of `u` leads to `v`, then
    /// some port of `v` leads back to `u`.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.ports
            .iter()
            .enumerate()
            .all(|(u, nbrs)| nbrs.iter().all(|v| self.port_to(*v, NodeId::new(u)).is_some()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ports_follow_neighbor_order() {
        let g = generators::cycle(5).unwrap();
        let p = PortNumbering::new(&g);
        assert_eq!(p.node_count(), 5);
        for v in g.nodes() {
            assert_eq!(p.degree(v), 2);
            assert_eq!(p.neighbors(v), g.neighbors(v));
            assert_eq!(p.neighbor(v, 0), Some(g.neighbors(v)[0]));
            assert_eq!(p.neighbor(v, 2), None);
        }
    }

    #[test]
    fn port_to_inverts_neighbor() {
        let g = generators::complete(4).unwrap();
        let p = PortNumbering::new(&g);
        for v in g.nodes() {
            for port in 0..p.degree(v) {
                let u = p.neighbor(v, port).unwrap();
                assert_eq!(p.neighbor(v, p.port_to(v, u).unwrap()), Some(u));
            }
        }
    }

    #[test]
    fn reverse_port_matches_port_to() {
        for g in [
            generators::cycle(7).unwrap(),
            generators::star(5).unwrap(),
            generators::grid(3, 4).unwrap(),
            generators::complete(5).unwrap(),
        ] {
            let p = PortNumbering::new(&g);
            for v in g.nodes() {
                for port in 0..p.degree(v) {
                    let u = p.neighbor(v, port).unwrap();
                    assert_eq!(p.reverse_port(v, port), p.port_to(u, v));
                }
                assert_eq!(p.reverse_port(v, p.degree(v)), None);
            }
        }
        assert_eq!(PortNumbering::new(&Graph::new()).reverse_port(NodeId::new(0), 0), None);
    }

    #[test]
    fn port_to_missing_neighbor_is_none() {
        let g = generators::path(4).unwrap();
        let p = PortNumbering::new(&g);
        assert_eq!(p.port_to(NodeId::new(0), NodeId::new(3)), None);
    }

    #[test]
    fn consistency_holds_for_generated_graphs() {
        for g in [
            generators::cycle(6).unwrap(),
            generators::star(5).unwrap(),
            generators::grid(3, 3).unwrap(),
            generators::petersen(),
        ] {
            assert!(PortNumbering::new(&g).is_consistent());
        }
    }

    #[test]
    fn empty_graph_port_numbering() {
        let g = Graph::new();
        let p = PortNumbering::new(&g);
        assert_eq!(p.node_count(), 0);
        assert_eq!(p.neighbor(NodeId::new(0), 0), None);
    }
}
