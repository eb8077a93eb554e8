//! Node indices and distributed identifiers.
//!
//! The LOCAL model distinguishes between the *index* of a node inside a
//! particular in-memory graph (a dense `0..n` handle, [`NodeId`]) and the
//! *identifier* the node carries in the distributed computation
//! ([`Identifier`]). Identifiers are globally unique but otherwise arbitrary;
//! algorithms may only compare them or read their bits, never assume they are
//! dense or bounded by `n`.

use std::fmt;

/// Dense index of a node inside a [`crate::Graph`].
///
/// `NodeId` is a simulator-level handle: it is assigned by the graph in
/// insertion order and is *not* visible to distributed algorithms (they only
/// see [`Identifier`]s). It is `Copy` and cheap to pass around.
///
/// # Examples
///
/// ```
/// use avglocal_graph::NodeId;
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(format!("{v}"), "v3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a raw index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// Returns the raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Globally unique identifier carried by a node in the LOCAL model.
///
/// Identifiers are the only symmetry-breaking information available to a
/// deterministic LOCAL algorithm. The paper's worst-case-over-permutations
/// measure quantifies over all ways of assigning identifiers to nodes, so the
/// library keeps them separate from [`NodeId`].
///
/// # Examples
///
/// ```
/// use avglocal_graph::Identifier;
/// let a = Identifier::new(17);
/// let b = Identifier::new(42);
/// assert!(a < b);
/// assert_eq!(a.value(), 17);
/// assert_eq!(b.bit(1), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Identifier(u64);

impl Identifier {
    /// Creates an identifier from its numeric value.
    #[must_use]
    pub const fn new(value: u64) -> Self {
        Identifier(value)
    }

    /// Returns the numeric value of the identifier.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the `i`-th bit (0 = least significant) of the identifier.
    ///
    /// Cole–Vishkin style colour-reduction algorithms operate on the bits of
    /// the identifiers, so this accessor is part of the public API.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[must_use]
    pub const fn bit(self, i: u32) -> u64 {
        assert!(i < 64, "bit index out of range");
        (self.0 >> i) & 1
    }
}

impl From<u64> for Identifier {
    fn from(value: u64) -> Self {
        Identifier(value)
    }
}

impl From<Identifier> for u64 {
    fn from(id: Identifier) -> Self {
        id.0
    }
}

impl fmt::Display for Identifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl fmt::Binary for Identifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for Identifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Identifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Octal for Identifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        let v = NodeId::new(7);
        assert_eq!(v.index(), 7);
        assert_eq!(usize::from(v), 7);
        assert_eq!(NodeId::from(7usize), v);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::new(0).to_string(), "v0");
        assert_eq!(NodeId::new(123).to_string(), "v123");
    }

    #[test]
    fn node_id_ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::default(), NodeId::new(0));
    }

    #[test]
    fn identifier_round_trip() {
        let id = Identifier::new(99);
        assert_eq!(id.value(), 99);
        assert_eq!(u64::from(id), 99);
        assert_eq!(Identifier::from(99u64), id);
    }

    #[test]
    fn identifier_display_and_radix_formats() {
        let id = Identifier::new(10);
        assert_eq!(id.to_string(), "#10");
        assert_eq!(format!("{id:b}"), "1010");
        assert_eq!(format!("{id:x}"), "a");
        assert_eq!(format!("{id:X}"), "A");
        assert_eq!(format!("{id:o}"), "12");
    }

    #[test]
    fn identifier_bits() {
        let id = Identifier::new(0b1011);
        assert_eq!(id.bit(0), 1);
        assert_eq!(id.bit(1), 1);
        assert_eq!(id.bit(2), 0);
        assert_eq!(id.bit(3), 1);
        assert_eq!(id.bit(10), 0);
    }

    #[test]
    fn ordering_matches_value_ordering() {
        assert!(Identifier::new(3) < Identifier::new(4));
        assert!(Identifier::new(100) > Identifier::new(4));
    }

    #[test]
    #[should_panic(expected = "bit index out of range")]
    fn bit_out_of_range_panics() {
        let _ = Identifier::new(1).bit(64);
    }
}
