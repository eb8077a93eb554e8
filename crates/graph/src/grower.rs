//! Incremental ball growth: the engine behind the radius measurements.
//!
//! The paper's measurements probe every node at every radius `0..r(v)`, so
//! re-extracting the full ball from scratch at each probe costs
//! `Θ(Σ_v r(v)²)` — quadratic per node. [`BallGrower`] keeps the BFS frontier
//! between radius `r` and `r + 1` instead: growing the radius only touches
//! the edges of the newest ring, so probing a node up to its decision radius
//! costs `Θ(ball(v))` in total.
//!
//! The grower works on a [`CsrGraph`] snapshot and owns dense, epoch-stamped
//! scratch buffers. [`BallGrower::reset`] re-centres it in `O(1)` (one epoch
//! bump, no clearing), so one grower can serve every node of an execution
//! without allocating in the steady state.
//!
//! The grower always *discovers* one ring beyond the published radius: ring
//! `r + 1` is exactly what the saturation test at radius `r` needs ("does any
//! boundary node have a neighbour outside the ball?"), and becomes the
//! published ring on the next [`BallGrower::grow`]. Every edge of the final
//! ball is therefore scanned exactly once.

use std::collections::HashMap;

use crate::ball::Ball;
use crate::csr::CsrGraph;
use crate::{Identifier, NodeId};

/// The owned scratch buffers of a [`BallGrower`], detached from any CSR
/// borrow.
///
/// A grower borrows its [`CsrGraph`], so a long-lived session that owns its
/// snapshot cannot also store a grower (that would be self-referential).
/// Instead it stores a `GrowerScratch`, reattaches it with
/// [`BallGrower::with_scratch`] for each probe, and takes it back with
/// [`BallGrower::into_scratch`] — keeping the zero-steady-state-allocation
/// property across probes without holding the borrow open.
#[derive(Debug, Clone, Default)]
pub struct GrowerScratch {
    members: Vec<u32>,
    dists: Vec<u32>,
    ids: Vec<Identifier>,
    ring_ends: Vec<u32>,
    stamp: Vec<u32>,
    pos: Vec<u32>,
    epoch: u32,
}

/// Grows the ball around a centre node one radius at a time.
///
/// Equivalent, radius for radius, to [`crate::extract_ball`] — the property
/// tests compare the two ball for ball — but incremental: `grow` only expands
/// the frontier, and `reset` recycles all scratch buffers.
///
/// # Examples
///
/// ```
/// use avglocal_graph::{generators, BallGrower, NodeId};
///
/// # fn main() -> Result<(), avglocal_graph::GraphError> {
/// let cycle = generators::cycle(8)?;
/// let csr = cycle.freeze();
/// let mut grower = BallGrower::new(&csr, NodeId::new(0));
/// assert_eq!(grower.node_count(), 1); // radius 0: just the centre
/// grower.grow();
/// grower.grow();
/// assert_eq!(grower.radius(), 2);
/// assert_eq!(grower.node_count(), 5); // centre + 2 on each side
/// assert!(!grower.is_saturated());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BallGrower<'g> {
    csr: &'g CsrGraph,
    center: u32,
    radius: usize,
    /// Ball members in BFS (distance, discovery) order, as CSR node indices.
    /// Includes one ring of lookahead past the published radius.
    members: Vec<u32>,
    /// Distance from the centre, parallel to `members`.
    dists: Vec<u32>,
    /// Identifier of each member, parallel to `members`.
    ids: Vec<Identifier>,
    /// `ring_ends[d]` = exclusive end of ring `d` in `members`. Covers every
    /// ring up to and including the lookahead ring `radius + 1`.
    ring_ends: Vec<u32>,
    /// `stamp[v] == epoch` marks `v` as discovered in the current ball.
    stamp: Vec<u32>,
    /// Position of `v` in `members`, valid only when `stamp[v] == epoch`.
    pos: Vec<u32>,
    epoch: u32,
    /// Members `0..published` are inside the published (radius-`r`) ball; the
    /// rest are lookahead.
    published: usize,
    /// Running maximum identifier over the published members.
    max_id: Identifier,
    saturated: bool,
}

impl<'g> BallGrower<'g> {
    /// Creates a grower over `csr`, centred on `center` at radius 0.
    ///
    /// # Panics
    ///
    /// Panics if `center` is not a node of the snapshot.
    #[must_use]
    pub fn new(csr: &'g CsrGraph, center: NodeId) -> Self {
        Self::with_scratch(csr, center, GrowerScratch::default())
    }

    /// Creates a grower over `csr` reusing the buffers of a detached
    /// [`GrowerScratch`] (see [`BallGrower::into_scratch`]). Once the scratch
    /// has warmed up to the size of the snapshot this allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `center` is not a node of the snapshot.
    #[must_use]
    pub fn with_scratch(csr: &'g CsrGraph, center: NodeId, scratch: GrowerScratch) -> Self {
        let n = csr.node_count();
        let GrowerScratch { members, dists, ids, ring_ends, mut stamp, mut pos, epoch } = scratch;
        // Stale entries hold past epochs, which are strictly smaller than the
        // epoch `reset` bumps to, so resizing preserves correctness.
        stamp.resize(n, 0);
        pos.resize(n, 0);
        let mut grower = BallGrower {
            csr,
            center: 0,
            radius: 0,
            members,
            dists,
            ids,
            ring_ends,
            stamp,
            pos,
            epoch,
            published: 0,
            max_id: Identifier::new(0),
            saturated: false,
        };
        grower.reset(center);
        grower
    }

    /// Detaches the scratch buffers so a session owning the [`CsrGraph`] can
    /// keep them across probes; reattach with [`BallGrower::with_scratch`].
    #[must_use]
    pub fn into_scratch(self) -> GrowerScratch {
        GrowerScratch {
            members: self.members,
            dists: self.dists,
            ids: self.ids,
            ring_ends: self.ring_ends,
            stamp: self.stamp,
            pos: self.pos,
            epoch: self.epoch,
        }
    }

    /// Re-centres the grower on `center` at radius 0, reusing every scratch
    /// buffer. `O(1)` plus the centre's degree; no allocation once the
    /// buffers have warmed up.
    ///
    /// # Panics
    ///
    /// Panics if `center` is not a node of the snapshot.
    pub fn reset(&mut self, center: NodeId) {
        assert!(center.index() < self.csr.node_count(), "ball centre must be in the graph");
        if self.epoch == u32::MAX {
            // One stamp clear every 2^32 - 1 resets keeps the mark test a
            // single comparison everywhere else.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.center = center.index() as u32;
        self.radius = 0;
        self.members.clear();
        self.dists.clear();
        self.ids.clear();
        self.ring_ends.clear();

        self.stamp[self.center as usize] = self.epoch;
        self.pos[self.center as usize] = 0;
        self.members.push(self.center);
        self.dists.push(0);
        self.ids.push(self.csr.identifier(self.center));
        self.ring_ends.push(1);
        self.published = 1;
        self.max_id = self.csr.identifier(self.center);

        self.discover_next_ring();
        self.saturated = self.members.len() == self.published;
    }

    /// Grows the published radius by one, expanding only the frontier.
    ///
    /// Once the ball is saturated this is a no-op apart from the radius
    /// bookkeeping (larger radii reveal nothing new).
    pub fn grow(&mut self) {
        self.radius += 1;
        if self.saturated {
            // Record an empty ring so per-radius snapshots stay well formed.
            self.ring_ends.push(self.members.len() as u32);
            return;
        }
        let newly_published = self.ring_ends[self.radius] as usize;
        for i in self.published..newly_published {
            self.max_id = self.max_id.max(self.ids[i]);
        }
        self.published = newly_published;
        self.discover_next_ring();
        self.saturated = self.members.len() == self.published;
    }

    /// Discovers the ring after the last complete one by scanning exactly the
    /// edges incident to that last ring.
    fn discover_next_ring(&mut self) {
        let ring_count = self.ring_ends.len();
        let scan_start = if ring_count >= 2 { self.ring_ends[ring_count - 2] as usize } else { 0 };
        let scan_end = self.ring_ends[ring_count - 1] as usize;
        // The scanned ring is never empty: `reset` scans the centre and `grow`
        // only discovers while unsaturated (lookahead ring non-empty).
        let next_dist = self.dists[scan_start] + 1;
        for i in scan_start..scan_end {
            let u = self.members[i];
            for &v in self.csr.neighbors(u) {
                if self.stamp[v as usize] != self.epoch {
                    self.stamp[v as usize] = self.epoch;
                    self.pos[v as usize] = self.members.len() as u32;
                    self.members.push(v);
                    self.dists.push(next_dist);
                    self.ids.push(self.csr.identifier(v));
                }
            }
        }
        self.ring_ends.push(self.members.len() as u32);
    }

    /// The centre node.
    #[must_use]
    pub fn center(&self) -> NodeId {
        NodeId::new(self.center as usize)
    }

    /// The published radius.
    #[must_use]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of nodes in the published ball (the centre counts).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.published
    }

    /// Returns `true` when the published ball covers the centre's entire
    /// connected component.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Identifier of the centre.
    #[must_use]
    pub fn center_identifier(&self) -> Identifier {
        self.ids[0]
    }

    /// The centre's degree in the host graph (which equals its degree inside
    /// the ball as soon as the radius is at least 1).
    #[must_use]
    pub fn center_host_degree(&self) -> usize {
        self.csr.degree(self.center)
    }

    /// Largest identifier in the published ball, maintained incrementally.
    #[must_use]
    pub fn max_identifier(&self) -> Identifier {
        self.max_id
    }

    /// Identifiers of the published members, in BFS (distance, discovery)
    /// order; the centre comes first.
    #[must_use]
    pub fn identifiers(&self) -> &[Identifier] {
        &self.ids[..self.published]
    }

    /// Host node ids of the published members, in BFS order.
    #[must_use]
    pub fn members(&self) -> &[u32] {
        &self.members[..self.published]
    }

    /// Identifiers of the members at exactly distance `d`, in discovery
    /// order. Empty for distances beyond the published radius.
    #[must_use]
    pub fn ring_identifiers(&self, d: usize) -> &[Identifier] {
        if d > self.radius {
            return &[];
        }
        let start = if d == 0 { 0 } else { self.ring_ends[d - 1] as usize };
        let end = self.ring_ends[d] as usize;
        &self.ids[start..end.min(self.published)]
    }

    /// Materialises the published ball as a standalone [`Ball`], identical
    /// (including field-for-field equality) to
    /// [`crate::extract_ball`]`(graph, center, radius)`.
    ///
    /// This is `O(ball)` and allocates; the executors only call it when an
    /// algorithm actually asks for the induced subgraph.
    #[must_use]
    pub fn snapshot_ball(&self) -> Ball {
        let members: Vec<NodeId> =
            self.members().iter().map(|&v| NodeId::new(v as usize)).collect();
        let distances: Vec<usize> =
            self.dists[..self.published].iter().map(|&d| d as usize).collect();
        let index_of: HashMap<NodeId, usize> =
            members.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let identifiers = self.identifiers().to_vec();
        let mut edges = Vec::new();
        for (i, &u) in self.members().iter().enumerate() {
            for &v in self.csr.neighbors(u) {
                if self.stamp[v as usize] == self.epoch {
                    let j = self.pos[v as usize] as usize;
                    if j < self.published && i < j {
                        edges.push((i, j));
                    }
                }
            }
        }
        Ball::from_parts(
            self.center(),
            self.radius,
            members,
            distances,
            index_of,
            identifiers,
            edges,
            self.saturated,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ball::extract_ball;
    use crate::{generators, Graph, IdAssignment};

    fn assert_matches_extract(g: &Graph, center: usize, max_radius: usize) {
        let csr = g.freeze();
        let mut grower = BallGrower::new(&csr, NodeId::new(center));
        for r in 0..=max_radius {
            if r > 0 {
                grower.grow();
            }
            let expected = extract_ball(g, NodeId::new(center), r);
            assert_eq!(
                grower.snapshot_ball(),
                expected,
                "ball mismatch at center {center}, radius {r}"
            );
            assert_eq!(grower.node_count(), expected.node_count());
            assert_eq!(grower.is_saturated(), expected.is_saturated());
            assert_eq!(grower.max_identifier(), expected.max_identifier());
        }
    }

    #[test]
    fn matches_extract_ball_on_cycles_paths_grids() {
        for g in [
            generators::cycle(11).unwrap(),
            generators::path(7).unwrap(),
            generators::grid(3, 4).unwrap(),
            generators::star(6).unwrap(),
            generators::complete(5).unwrap(),
        ] {
            for center in 0..g.node_count() {
                assert_matches_extract(&g, center, g.node_count() / 2 + 2);
            }
        }
    }

    #[test]
    fn matches_extract_ball_with_shuffled_identifiers() {
        let mut g = generators::cycle(16).unwrap();
        IdAssignment::Shuffled { seed: 3 }.apply(&mut g).unwrap();
        assert_matches_extract(&g, 5, 10);
    }

    #[test]
    fn reset_reuses_buffers_across_centres() {
        let g = generators::cycle(12).unwrap();
        let csr = g.freeze();
        let mut grower = BallGrower::new(&csr, NodeId::new(0));
        for center in 0..12 {
            grower.reset(NodeId::new(center));
            while !grower.is_saturated() {
                grower.grow();
            }
            assert_eq!(grower.node_count(), 12);
            assert_eq!(grower.radius(), 6);
            assert_eq!(grower.center(), NodeId::new(center));
        }
    }

    #[test]
    fn saturated_growth_is_a_stable_no_op() {
        let g = generators::cycle(7).unwrap();
        let csr = g.freeze();
        let mut grower = BallGrower::new(&csr, NodeId::new(3));
        for _ in 0..10 {
            grower.grow();
        }
        assert_eq!(grower.radius(), 10);
        assert_eq!(grower.node_count(), 7);
        assert!(grower.is_saturated());
        assert_eq!(grower.snapshot_ball(), extract_ball(&g, NodeId::new(3), 10));
    }

    #[test]
    fn ring_identifiers_partition_the_ball() {
        let g = generators::grid(4, 4).unwrap();
        let csr = g.freeze();
        let mut grower = BallGrower::new(&csr, NodeId::new(5));
        grower.grow();
        grower.grow();
        let total: usize = (0..=2).map(|d| grower.ring_identifiers(d).len()).sum();
        assert_eq!(total, grower.node_count());
        assert_eq!(grower.ring_identifiers(0), &[g.identifier(NodeId::new(5))]);
        assert!(grower.ring_identifiers(7).is_empty());
    }

    #[test]
    fn scratch_round_trip_matches_fresh_grower() {
        // Detach/reattach across two different snapshots (different sizes,
        // different identifiers) and compare against fresh growers.
        let mut small = generators::cycle(8).unwrap();
        IdAssignment::Shuffled { seed: 5 }.apply(&mut small).unwrap();
        let big = generators::grid(4, 5).unwrap();
        let small_csr = small.freeze();
        let big_csr = big.freeze();

        let mut scratch = GrowerScratch::default();
        for (csr, center) in [(&small_csr, 3), (&big_csr, 11), (&small_csr, 0)] {
            let mut reused = BallGrower::with_scratch(csr, NodeId::new(center), scratch);
            let mut fresh = BallGrower::new(csr, NodeId::new(center));
            for _ in 0..4 {
                assert_eq!(reused.snapshot_ball(), fresh.snapshot_ball());
                assert_eq!(reused.max_identifier(), fresh.max_identifier());
                assert_eq!(reused.is_saturated(), fresh.is_saturated());
                reused.grow();
                fresh.grow();
            }
            scratch = reused.into_scratch();
        }
    }

    #[test]
    fn epoch_wrap_clears_stale_stamps() {
        // The stamp clear in `reset` runs once every 2^32 - 1 resets. Start
        // two resets short of the wrap with every node stamped at epoch 1, a
        // stale mark that would alias the first post-wrap epoch if the clear
        // were skipped, and compare each re-centred ball against a fresh
        // grower at every radius.
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut ring = generators::cycle(16).unwrap();
        IdAssignment::Shuffled { seed: 7 }.apply(&mut ring).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let hubs = generators::preferential_attachment(40, 2, &mut rng).unwrap();
        for g in [&ring, &hubs] {
            let csr = g.freeze();
            let n = csr.node_count();
            let scratch = GrowerScratch {
                stamp: vec![1; n],
                pos: vec![0; n],
                epoch: u32::MAX - 1,
                ..GrowerScratch::default()
            };
            let mut reused = BallGrower::with_scratch(&csr, NodeId::new(0), scratch);
            for center in [0, 5, 9, 3, 12, 0] {
                reused.reset(NodeId::new(center));
                let mut fresh = BallGrower::new(&csr, NodeId::new(center));
                loop {
                    assert_eq!(reused.members(), fresh.members(), "centre {center}");
                    assert_eq!(reused.is_saturated(), fresh.is_saturated());
                    assert_eq!(reused.snapshot_ball(), fresh.snapshot_ball());
                    if fresh.is_saturated() {
                        break;
                    }
                    reused.grow();
                    fresh.grow();
                }
            }
            // Seven resets from `u32::MAX - 1`: the epoch wrapped to 1 on the
            // second and has counted on from there.
            assert_eq!(reused.into_scratch().epoch, 6);
        }
    }

    #[test]
    #[should_panic(expected = "ball centre must be in the graph")]
    fn rejects_missing_center() {
        let g = generators::cycle(3).unwrap();
        let csr = g.freeze();
        let _ = BallGrower::new(&csr, NodeId::new(5));
    }
}
