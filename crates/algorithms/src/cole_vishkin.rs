//! Cole–Vishkin deterministic coin tossing on the oriented ring.
//!
//! This is the classic `O(log* n)`-round 3-colouring machinery the paper's
//! Section 3 refers to: starting from the identifiers, every iteration shrinks
//! the colour space from `b` bits to `O(log b)` bits by comparing a node's
//! colour with its successor's colour and encoding the position of the lowest
//! differing bit. After `log* + O(1)` iterations the colours live in
//! `{0, …, 5}`; a final reduction phase (see [`crate::reduce`]) brings them
//! down to `{0, 1, 2}`.
//!
//! The ring must be *oriented*: every node knows which of its two neighbours
//! is its successor. [`RingOrientation`] carries that per-node input,
//! constructed once from the generator's cycle.

use std::collections::HashMap;

use avglocal_graph::{Graph, Identifier, NodeId};
use avglocal_runtime::RuntimeError;

/// A consistent orientation of a cycle: every node's local knowledge of which
/// neighbour is its *successor*.
///
/// The orientation is part of the problem input (the paper's Section 3 and
/// Linial's lower bound are both stated for the oriented ring). Each node
/// only ever reads its own entry — handing the whole map to the algorithm
/// object is just a convenient way to distribute that local input in a
/// simulator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingOrientation {
    successor: HashMap<Identifier, Identifier>,
}

impl RingOrientation {
    /// Derives the orientation of a cycle by walking it once, starting from
    /// node 0 towards its first neighbour.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnsupportedTopology`] if the graph is not a
    /// single cycle (some node does not have degree 2, or the walk does not
    /// visit every node).
    pub fn trace(graph: &Graph) -> Result<Self, RuntimeError> {
        let n = graph.node_count();
        if n < 3 {
            return Err(RuntimeError::UnsupportedTopology {
                reason: format!("a cycle needs at least 3 nodes, the graph has {n}"),
            });
        }
        if let Some(bad) = graph.nodes().find(|&v| graph.degree(v) != 2) {
            return Err(RuntimeError::UnsupportedTopology {
                reason: format!("node {bad} has degree {}, expected 2", graph.degree(bad)),
            });
        }
        let mut successor = HashMap::with_capacity(n);
        let start = NodeId::new(0);
        let mut prev = start;
        let mut current = graph.neighbors(start)[0];
        successor.insert(graph.identifier(start), graph.identifier(current));
        let mut visited = 1usize;
        while current != start {
            let next = graph
                .neighbors(current)
                .iter()
                .copied()
                .find(|&u| u != prev)
                .expect("degree-2 node always has a way forward");
            successor.insert(graph.identifier(current), graph.identifier(next));
            prev = current;
            current = next;
            visited += 1;
            if visited > n {
                break;
            }
        }
        if visited != n {
            return Err(RuntimeError::UnsupportedTopology {
                reason: "the graph is not a single cycle".to_string(),
            });
        }
        Ok(RingOrientation { successor })
    }

    /// The successor of the node carrying `id`, if `id` belongs to the ring.
    #[must_use]
    pub fn successor(&self, id: Identifier) -> Option<Identifier> {
        self.successor.get(&id).copied()
    }

    /// The predecessor of the node carrying `id`, if `id` belongs to the ring.
    #[must_use]
    pub fn predecessor(&self, id: Identifier) -> Option<Identifier> {
        // A consistent orientation has exactly one match; reducing with
        // `min` keeps the answer independent of the map's iteration order
        // even for malformed maps.
        self.successor.iter().filter_map(|(&from, &to)| (to == id).then_some(from)).min()
    }

    /// Number of nodes covered by the orientation.
    #[must_use]
    pub fn len(&self) -> usize {
        self.successor.len()
    }

    /// Returns `true` when the orientation covers no node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.successor.is_empty()
    }

    /// Checks internal consistency: the successor map is a single cycle over
    /// exactly the identifiers it mentions.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        // Walk from a deterministic start (the smallest identifier): an
        // arbitrary hash-order start would make the answer depend on the
        // map's iteration order for multi-cycle maps (e.g. cycles of length
        // 2 and 4: six steps from inside the 2-cycle land back on the start,
        // from inside the 4-cycle they do not).
        let Some(start) = self.successor.keys().copied().min() else {
            return true;
        };
        let mut current = start;
        for step in 1..=self.successor.len() {
            match self.successor.get(&current) {
                Some(&next) => current = next,
                None => return false,
            }
            if current == start {
                // Back at the start: consistent iff the cycle covered the
                // whole map (an early return means a shorter sub-cycle).
                return step == self.successor.len();
            }
        }
        false
    }
}

/// One Cole–Vishkin iteration: combines a node's colour with its successor's
/// colour into a new colour of logarithmically fewer bits.
///
/// The new colour encodes `(i, b)` where `i` is the lowest bit position at
/// which the two colours differ and `b` is the node's own bit at that
/// position: `new = 2·i + b`. If the colours are equal (which cannot happen
/// for a proper colouring) the function returns `2·64`, an out-of-range
/// sentinel that will be caught by the validity checks.
#[must_use]
pub fn cv_step(own: u64, successor: u64) -> u64 {
    let diff = own ^ successor;
    if diff == 0 {
        return 128;
    }
    let i = u64::from(diff.trailing_zeros());
    2 * i + ((own >> i) & 1)
}

/// Number of Cole–Vishkin iterations needed to bring colours initialised with
/// `bits`-bit identifiers down to the range `{0, …, 5}`.
///
/// This is the `log*`-type quantity that drives the running time; for 64-bit
/// identifiers it is 4.
#[must_use]
pub fn cv_iterations_for_bits(bits: u32) -> usize {
    let bits = bits.clamp(1, 64);
    // Maximum possible colour value for the given bit budget.
    let mut max_value: u64 = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    let mut iterations = 0usize;
    while max_value > 5 {
        let b = 64 - max_value.leading_zeros();
        max_value = 2 * u64::from(b - 1) + 1;
        iterations += 1;
    }
    iterations
}

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal_graph::{generators, IdAssignment};

    #[test]
    fn orientation_of_generated_cycle() {
        let g = generators::cycle(8).unwrap();
        let o = RingOrientation::trace(&g).unwrap();
        assert_eq!(o.len(), 8);
        assert!(!o.is_empty());
        assert!(o.is_consistent());
        // Following successors 8 times returns to the start.
        let mut current = Identifier::new(0);
        for _ in 0..8 {
            current = o.successor(current).unwrap();
        }
        assert_eq!(current, Identifier::new(0));
    }

    #[test]
    fn predecessor_inverts_successor() {
        let mut g = generators::cycle(9).unwrap();
        IdAssignment::Shuffled { seed: 6 }.apply(&mut g).unwrap();
        let o = RingOrientation::trace(&g).unwrap();
        for v in g.nodes() {
            let id = g.identifier(v);
            let succ = o.successor(id).unwrap();
            assert_eq!(o.predecessor(succ), Some(id));
        }
        assert_eq!(o.successor(Identifier::new(999)), None);
        assert_eq!(o.predecessor(Identifier::new(999)), None);
    }

    #[test]
    fn orientation_rejects_non_cycles() {
        assert!(RingOrientation::trace(&generators::path(5).unwrap()).is_err());
        assert!(RingOrientation::trace(&generators::star(4).unwrap()).is_err());
        assert!(RingOrientation::trace(&generators::complete(5).unwrap()).is_err());
        let mut two = Graph::new();
        two.add_nodes_with_default_ids(2);
        assert!(RingOrientation::trace(&two).is_err());
    }

    #[test]
    fn default_orientation_is_empty_and_consistent() {
        let o = RingOrientation::default();
        assert!(o.is_empty());
        assert!(o.is_consistent());
    }

    #[test]
    fn cv_step_produces_distinct_colours_for_distinct_pairs() {
        // Proper-colouring preservation: for any chain a - b - c with a != b
        // and b != c, the new colours of a and b differ.
        for a in 0..32u64 {
            for b in 0..32u64 {
                for c in 0..32u64 {
                    if a != b && b != c {
                        assert_ne!(cv_step(a, b), cv_step(b, c), "a={a} b={b} c={c}");
                    }
                }
            }
        }
    }

    #[test]
    fn cv_step_examples() {
        // own = 0b0110, succ = 0b0100: lowest differing bit is 1, own bit is 1.
        assert_eq!(cv_step(0b0110, 0b0100), 3); // 2 * index 1 + bit 1
                                                // own = 0b1000, succ = 0b1001: lowest differing bit is 0, own bit is 0.
        assert_eq!(cv_step(0b1000, 0b1001), 0);
        // Equal colours yield the sentinel.
        assert_eq!(cv_step(7, 7), 128);
    }

    #[test]
    fn cv_step_shrinks_colour_range() {
        // Starting from values below 2^b, one step lands below 2b.
        for own in 0..256u64 {
            for succ in 0..256u64 {
                if own != succ {
                    assert!(cv_step(own, succ) < 16);
                }
            }
        }
    }

    #[test]
    fn iteration_counts() {
        assert_eq!(cv_iterations_for_bits(64), 4);
        assert_eq!(cv_iterations_for_bits(32), 4);
        assert_eq!(cv_iterations_for_bits(16), 4);
        assert_eq!(cv_iterations_for_bits(8), 3);
        assert_eq!(cv_iterations_for_bits(4), 2);
        assert_eq!(cv_iterations_for_bits(3), 1);
        assert_eq!(cv_iterations_for_bits(2), 0); // values <= 3 <= 5 already
        assert_eq!(cv_iterations_for_bits(1), 0);
        // Out-of-range bit counts are clamped.
        assert_eq!(cv_iterations_for_bits(0), 0);
        assert_eq!(cv_iterations_for_bits(100), 4);
    }
}
