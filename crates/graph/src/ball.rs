//! Radius-`r` balls: the information a LOCAL node gathers in `r` rounds.
//!
//! The second view of the LOCAL model used throughout the paper is that a node
//! collects the ball of radius `r` centred on itself and outputs a function of
//! that ball. [`Ball`] materialises exactly that information: the nodes within
//! distance `r`, their identifiers, their distances from the centre, and the
//! subgraph they induce. The executor in `avglocal-runtime` hands balls of
//! increasing radius to ball-view algorithms.

use std::collections::HashMap;
use std::collections::VecDeque;

use crate::{Graph, Identifier, NodeId};

/// The ball of radius `r` around a centre node.
///
/// A ball is a *snapshot of local knowledge*: everything a node can have
/// learnt after `r` communication rounds in the LOCAL model (with unbounded
/// message sizes). It contains the identifiers and adjacency of every node at
/// distance at most `r` from the centre, and knows whether growing the radius
/// further could reveal anything new ([`Ball::is_saturated`]).
///
/// # Examples
///
/// ```
/// use avglocal_graph::{generators, ball::extract_ball, NodeId};
///
/// # fn main() -> Result<(), avglocal_graph::GraphError> {
/// let cycle = generators::cycle(8)?;
/// let ball = extract_ball(&cycle, NodeId::new(0), 2);
/// assert_eq!(ball.radius(), 2);
/// assert_eq!(ball.node_count(), 5); // centre + 2 on each side
/// assert!(!ball.is_saturated());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ball {
    center: NodeId,
    radius: usize,
    /// Host-graph ids of the ball's nodes, in BFS (distance, discovery) order.
    members: Vec<NodeId>,
    /// Distance from the centre for each member, parallel to `members`.
    distances: Vec<usize>,
    /// Host id -> position in `members`.
    index_of: HashMap<NodeId, usize>,
    /// Identifier of each member, parallel to `members`.
    identifiers: Vec<Identifier>,
    /// Edges of the induced subgraph, as pairs of positions into `members`.
    edges: Vec<(usize, usize)>,
    /// True when every member has all of its neighbours inside the ball, i.e.
    /// the ball already covers the whole connected component of the centre.
    saturated: bool,
}

impl Ball {
    /// Assembles a ball from pre-computed parts; used by
    /// [`crate::BallGrower`] to materialise snapshots that are
    /// field-for-field identical to [`extract_ball`]'s output.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        center: NodeId,
        radius: usize,
        members: Vec<NodeId>,
        distances: Vec<usize>,
        index_of: HashMap<NodeId, usize>,
        identifiers: Vec<Identifier>,
        edges: Vec<(usize, usize)>,
        saturated: bool,
    ) -> Self {
        Ball { center, radius, members, distances, index_of, identifiers, edges, saturated }
    }

    /// The centre node (host-graph id).
    #[must_use]
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The radius the ball was extracted at.
    #[must_use]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of nodes inside the ball (the centre counts).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.members.len()
    }

    /// Number of edges of the induced subgraph.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Identifier of the centre node.
    #[must_use]
    pub fn center_identifier(&self) -> Identifier {
        self.identifiers[0]
    }

    /// Host-graph ids of the nodes in the ball, in (distance, discovery) order.
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Identifiers of the nodes in the ball, parallel to [`Ball::members`].
    #[must_use]
    pub fn identifiers(&self) -> &[Identifier] {
        &self.identifiers
    }

    /// Returns `true` when `node` lies inside the ball.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.index_of.contains_key(&node)
    }

    /// Distance from the centre to `node`, if `node` is inside the ball.
    #[must_use]
    pub fn distance_to(&self, node: NodeId) -> Option<usize> {
        self.index_of.get(&node).map(|&i| self.distances[i])
    }

    /// Largest identifier inside the ball.
    #[must_use]
    pub fn max_identifier(&self) -> Identifier {
        *self.identifiers.iter().max().expect("a ball always contains its centre")
    }

    /// Returns `true` when the centre's identifier is the strict maximum of
    /// the identifiers visible in the ball.
    #[must_use]
    pub fn center_has_max_identifier(&self) -> bool {
        let c = self.center_identifier();
        self.identifiers.iter().all(|&id| id <= c)
    }

    /// Returns `true` when the ball already covers the centre's entire
    /// connected component, so that growing the radius reveals nothing new.
    ///
    /// In the paper's algorithm for the largest-ID problem this is the "has
    /// seen all the cycle" stopping condition.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Materialises the induced subgraph of the ball as a standalone
    /// [`Graph`], preserving identifiers. The centre becomes node 0.
    #[must_use]
    pub fn to_subgraph(&self) -> Graph {
        let mut g = Graph::with_capacity(self.members.len());
        for id in &self.identifiers {
            g.add_node(*id);
        }
        for &(a, b) in &self.edges {
            g.add_edge(NodeId::new(a), NodeId::new(b)).expect("ball edges are simple and in range");
        }
        g
    }
}

/// Extracts the ball of radius `radius` around `center` in `graph`.
///
/// # Panics
///
/// Panics if `center` is not a node of `graph`.
#[must_use]
pub fn extract_ball(graph: &Graph, center: NodeId, radius: usize) -> Ball {
    assert!(graph.contains_node(center), "ball centre must be in the graph");
    let mut members = Vec::new();
    let mut distances = Vec::new();
    let mut index_of = HashMap::new();
    let mut queue = VecDeque::new();

    index_of.insert(center, 0);
    members.push(center);
    distances.push(0);
    queue.push_back(center);

    while let Some(u) = queue.pop_front() {
        let du = distances[index_of[&u]];
        if du == radius {
            continue;
        }
        for &v in graph.neighbors(u) {
            if let std::collections::hash_map::Entry::Vacant(entry) = index_of.entry(v) {
                entry.insert(members.len());
                members.push(v);
                distances.push(du + 1);
                queue.push_back(v);
            }
        }
    }

    let identifiers = members.iter().map(|&v| graph.identifier(v)).collect();

    // Induced edges, and saturation: a ball is saturated when no member has a
    // neighbour outside of it.
    let mut edges = Vec::new();
    let mut saturated = true;
    for (i, &u) in members.iter().enumerate() {
        for &v in graph.neighbors(u) {
            match index_of.get(&v) {
                Some(&j) => {
                    if i < j {
                        edges.push((i, j));
                    }
                }
                None => saturated = false,
            }
        }
    }

    Ball { center, radius, members, distances, index_of, identifiers, edges, saturated }
}

/// Walks away from `center` starting with `first_step`, never backtracking,
/// for at most `len` steps, and returns the nodes visited (excluding
/// `center`).
///
/// On paths and cycles this enumerates one of the two "arms" a node sees when
/// it grows its ball, which is the natural way to express the paper's
/// largest-ID and colouring algorithms. The walk stops early if it reaches a
/// node of degree 1 (an endpoint) or wraps back to `center`.
///
/// # Panics
///
/// Panics if `first_step` is not a neighbour of `center`, or if the walk
/// reaches a node of degree greater than 2 (the direction would be ambiguous).
#[must_use]
pub fn arm(graph: &Graph, center: NodeId, first_step: NodeId, len: usize) -> Vec<NodeId> {
    assert!(
        graph.neighbors(center).contains(&first_step),
        "first_step must be a neighbour of center"
    );
    let mut out = Vec::with_capacity(len);
    if len == 0 {
        return out;
    }
    let mut prev = center;
    let mut current = first_step;
    for _ in 0..len {
        out.push(current);
        let nbrs = graph.neighbors(current);
        assert!(nbrs.len() <= 2, "arm walks are only defined on nodes of degree at most 2");
        let next = nbrs.iter().copied().find(|&v| v != prev);
        match next {
            Some(v) if v != center => {
                prev = current;
                current = v;
            }
            _ => break, // endpoint reached, or wrapped around the cycle
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ball_radius_zero_is_just_the_center() {
        let g = generators::cycle(6).unwrap();
        let b = extract_ball(&g, NodeId::new(2), 0);
        assert_eq!(b.node_count(), 1);
        assert_eq!(b.center(), NodeId::new(2));
        assert_eq!(b.center_identifier(), g.identifier(NodeId::new(2)));
        assert_eq!(b.edge_count(), 0);
        assert!(!b.is_saturated());
    }

    #[test]
    fn ball_growth_on_cycle() {
        let g = generators::cycle(10).unwrap();
        for r in 0..=4 {
            let b = extract_ball(&g, NodeId::new(0), r);
            assert_eq!(b.node_count(), 2 * r + 1);
            assert_eq!(b.radius(), r);
            assert!(!b.is_saturated());
        }
        let b = extract_ball(&g, NodeId::new(0), 5);
        assert_eq!(b.node_count(), 10);
        assert!(b.is_saturated());
    }

    #[test]
    fn saturation_beyond_diameter() {
        let g = generators::cycle(7).unwrap();
        let b = extract_ball(&g, NodeId::new(3), 100);
        assert_eq!(b.node_count(), 7);
        assert!(b.is_saturated());
    }

    #[test]
    fn distances_and_membership() {
        let g = generators::path(6).unwrap();
        let b = extract_ball(&g, NodeId::new(2), 2);
        assert_eq!(b.distance_to(NodeId::new(2)), Some(0));
        assert_eq!(b.distance_to(NodeId::new(0)), Some(2));
        assert_eq!(b.distance_to(NodeId::new(4)), Some(2));
        assert_eq!(b.distance_to(NodeId::new(5)), None);
        assert!(b.contains(NodeId::new(1)));
        assert!(!b.contains(NodeId::new(5)));
    }

    #[test]
    fn identifiers_and_maxima() {
        let g = generators::cycle(8).unwrap();
        let b = extract_ball(&g, NodeId::new(7), 1);
        // Node 7 has the largest default identifier (7) and sees 6 and 0.
        assert!(b.center_has_max_identifier());
        assert_eq!(b.max_identifier(), Identifier::new(7));

        let b0 = extract_ball(&g, NodeId::new(0), 1);
        assert!(!b0.center_has_max_identifier());
    }

    #[test]
    fn induced_subgraph_preserves_structure() {
        let g = generators::cycle(9).unwrap();
        let b = extract_ball(&g, NodeId::new(4), 2);
        let sub = b.to_subgraph();
        assert_eq!(sub.node_count(), 5);
        assert_eq!(sub.edge_count(), 4); // a path of 5 nodes
        assert_eq!(sub.identifier(NodeId::new(0)), g.identifier(NodeId::new(4)));
        assert!(crate::traversal::is_connected(&sub));
    }

    #[test]
    fn whole_graph_ball_subgraph_equals_graph_size() {
        let g = generators::complete(5).unwrap();
        let b = extract_ball(&g, NodeId::new(0), 1);
        assert!(b.is_saturated());
        let sub = b.to_subgraph();
        assert_eq!(sub.node_count(), 5);
        assert_eq!(sub.edge_count(), 10);
    }

    #[test]
    fn arm_walk_on_cycle() {
        let g = generators::cycle(6).unwrap();
        let nbrs = g.neighbors(NodeId::new(0)).to_vec();
        let a = arm(&g, NodeId::new(0), nbrs[0], 3);
        assert_eq!(a.len(), 3);
        // Walking the other way gives disjoint interior nodes (for len < n/2).
        let b = arm(&g, NodeId::new(0), nbrs[1], 2);
        assert!(a.iter().all(|v| !b.contains(v)));
    }

    #[test]
    fn arm_stops_at_path_endpoint() {
        let g = generators::path(5).unwrap();
        let a = arm(&g, NodeId::new(3), NodeId::new(4), 10);
        assert_eq!(a, vec![NodeId::new(4)]);
        let b = arm(&g, NodeId::new(3), NodeId::new(2), 10);
        assert_eq!(b, vec![NodeId::new(2), NodeId::new(1), NodeId::new(0)]);
    }

    #[test]
    fn arm_wraps_and_stops_on_small_cycle() {
        let g = generators::cycle(4).unwrap();
        let nbrs = g.neighbors(NodeId::new(0)).to_vec();
        let a = arm(&g, NodeId::new(0), nbrs[0], 10);
        // From a 4-cycle, walking one way visits the 3 other nodes then stops.
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn arm_len_zero_is_empty() {
        let g = generators::cycle(5).unwrap();
        let nbrs = g.neighbors(NodeId::new(1)).to_vec();
        assert!(arm(&g, NodeId::new(1), nbrs[0], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "first_step must be a neighbour")]
    fn arm_rejects_non_neighbour() {
        let g = generators::cycle(6).unwrap();
        let _ = arm(&g, NodeId::new(0), NodeId::new(3), 2);
    }

    #[test]
    #[should_panic(expected = "ball centre must be in the graph")]
    fn ball_rejects_missing_center() {
        let g = Graph::new();
        let _ = extract_ball(&g, NodeId::new(0), 1);
    }
}
