//! The Section 3 adversarial construction: building an identifier permutation
//! with a large *average* radius out of many hard slices.
//!
//! The paper proves Theorem 1 by repeatedly taking an identifier arrangement
//! in which some vertex needs a large radius, cutting out the ball of radius
//! `½·log*(n/2)` around that vertex, and concatenating the slices into a new
//! permutation `π`. Each slice centre keeps its hard neighbourhood (and hence
//! its large radius), and by the regularity lemma (Lemma 3) the vertices near
//! it cannot be much cheaper, so the *average* radius over `π` stays
//! `Ω(log* n)`.
//!
//! This module implements the constructive part of that argument as an
//! executable procedure driven by a *radius oracle* — any function that, given
//! an identifier arrangement around a cycle, reports every node's radius
//! under the algorithm being attacked.

use avglocal_graph::{generators, Graph, IdAssignment, Identifier};
use avglocal_runtime::{BallAlgorithm, FrozenExecutor, Knowledge};

/// A function that, given the identifier arrangement of a cycle (position
/// `i` holds identifier `arrangement[i]`), returns the per-node radii of the
/// algorithm under attack.
pub type RadiusOracle<'a> = dyn Fn(&[u64]) -> Vec<usize> + 'a;

/// Builds a radius oracle for a [`BallAlgorithm`] by materialising each
/// candidate arrangement as a cycle graph and running the ball executor.
///
/// The oracle panics if the executor fails (which only happens for algorithms
/// that refuse to terminate on a saturated view).
pub fn ball_radius_oracle<A>(algorithm: A) -> impl Fn(&[u64]) -> Vec<usize>
where
    A: BallAlgorithm + Sync,
    A::Output: Send,
{
    move |arrangement: &[u64]| {
        let graph = cycle_with_arrangement(arrangement);
        FrozenExecutor::new(&graph)
            .run(&algorithm, Knowledge::none())
            .expect("radius oracle: the algorithm must terminate on every cycle")
            .radii()
            .to_vec()
    }
}

/// Builds the cycle graph whose position `i` carries identifier
/// `arrangement[i]`.
///
/// # Panics
///
/// Panics if the arrangement has fewer than 3 entries or repeats an
/// identifier.
#[must_use]
pub fn cycle_with_arrangement(arrangement: &[u64]) -> Graph {
    let mut graph = generators::cycle(arrangement.len()).expect("cycles need at least 3 nodes");
    let ids: Vec<Identifier> = arrangement.iter().map(|&x| Identifier::new(x)).collect();
    graph.set_all_identifiers(&ids).expect("arrangement must consist of distinct identifiers");
    graph
}

/// Parameters of the Section 3 construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceConstruction {
    /// Ring size `n`.
    pub n: usize,
    /// Slice radius `t` (the paper uses `½·log*(n/2)`): each extracted slice
    /// contains `2t + 1` identifiers.
    pub slice_radius: usize,
}

impl SliceConstruction {
    /// Creates the construction for an `n`-cycle with the given slice radius.
    #[must_use]
    pub fn new(n: usize, slice_radius: usize) -> Self {
        SliceConstruction { n, slice_radius }
    }

    /// Runs the construction and returns the adversarial arrangement: a
    /// permutation of `0..n` laid out around the cycle (position `i` gets
    /// identifier `result[i]`).
    ///
    /// Following the paper:
    ///
    /// 1. start from the natural arrangement of the remaining identifiers;
    /// 2. while at least `n/2` identifiers remain (and a full slice still
    ///    fits), query the oracle, find a vertex of maximum radius, cut out
    ///    the `2t+1` identifiers of its slice and append them to `π`;
    /// 3. append whatever remains.
    ///
    /// The resulting arrangement packs many hard neighbourhoods next to each
    /// other, which is exactly what makes the *average* radius large.
    #[must_use]
    pub fn build(&self, oracle: &RadiusOracle<'_>) -> Vec<u64> {
        let slice_len = 2 * self.slice_radius + 1;
        let mut remaining: Vec<u64> = (0..self.n as u64).collect();
        let mut pi: Vec<u64> = Vec::with_capacity(self.n);
        while remaining.len() >= (self.n / 2).max(3)
            && remaining.len() >= slice_len
            && remaining.len() - slice_len >= 3
        {
            let radii = oracle(&remaining);
            assert_eq!(radii.len(), remaining.len(), "oracle must report one radius per node");
            let center = radii
                .iter()
                .enumerate()
                .max_by_key(|(_, &r)| r)
                .map(|(i, _)| i)
                .expect("remaining arrangement is non-empty");
            let len = remaining.len();
            // Extract the window of slice_len identifiers centred at `center`,
            // wrapping around the cycle.
            let start = (center + len - self.slice_radius) % len;
            let window: Vec<usize> = (0..slice_len).map(|k| (start + k) % len).collect();
            for &idx in &window {
                pi.push(remaining[idx]);
            }
            // Remove the window, preserving the cyclic order of the rest.
            let mut keep: Vec<u64> = Vec::with_capacity(len - slice_len);
            let mut idx = (start + slice_len) % len;
            while idx != start {
                keep.push(remaining[idx]);
                idx = (idx + 1) % len;
            }
            remaining = keep;
        }
        pi.extend(remaining);
        pi
    }

    /// Convenience: runs the construction and wraps the result in an
    /// [`IdAssignment`] ready to be applied to an `n`-cycle.
    ///
    /// # Panics
    ///
    /// Panics if the construction somehow fails to produce a permutation
    /// (which would indicate a bug in the oracle).
    #[must_use]
    pub fn build_assignment(&self, oracle: &RadiusOracle<'_>) -> IdAssignment {
        let arrangement = self.build(oracle);
        IdAssignment::from_vec(arrangement.iter().map(|&x| x as usize).collect())
            .expect("the slice construction always yields a permutation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LandmarkColoring, LargestId};

    #[test]
    fn cycle_with_arrangement_places_identifiers() {
        let g = cycle_with_arrangement(&[5, 3, 9, 0]);
        assert_eq!(g.node_count(), 4);
        let ids: Vec<u64> = g.identifiers().map(|id| id.value()).collect();
        assert_eq!(ids, vec![5, 3, 9, 0]);
    }

    #[test]
    fn construction_returns_a_permutation() {
        let oracle = ball_radius_oracle(LargestId);
        for n in [12usize, 20, 33] {
            for t in [1usize, 2, 3] {
                let construction = SliceConstruction::new(n, t);
                let pi = construction.build(&oracle);
                let mut sorted = pi.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..n as u64).collect::<Vec<_>>(), "n={n} t={t}");
            }
        }
    }

    #[test]
    fn construction_produces_an_applicable_assignment() {
        let oracle = ball_radius_oracle(LargestId);
        let construction = SliceConstruction::new(16, 2);
        let assignment = construction.build_assignment(&oracle);
        let mut g = generators::cycle(16).unwrap();
        assignment.apply(&mut g).unwrap();
        assert!(g.has_unique_identifiers());
    }

    #[test]
    fn construction_does_not_decrease_average_radius_for_landmark_coloring() {
        // The slice construction packs hard neighbourhoods together; for the
        // landmark colouring its average radius should be at least the
        // random-assignment average.
        let n = 64usize;
        let oracle = ball_radius_oracle(LandmarkColoring);
        let construction = SliceConstruction::new(n, 3);
        let adversarial = construction.build(&oracle);
        let adversarial_radii = oracle(&adversarial);
        let adversarial_avg =
            adversarial_radii.iter().sum::<usize>() as f64 / adversarial_radii.len() as f64;

        let mut random_avgs = Vec::new();
        for seed in 0..5u64 {
            let mut g = generators::cycle(n).unwrap();
            IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
            let arrangement: Vec<u64> = g.identifiers().map(|id| id.value()).collect();
            let radii = oracle(&arrangement);
            random_avgs.push(radii.iter().sum::<usize>() as f64 / radii.len() as f64);
        }
        let random_mean = random_avgs.iter().sum::<f64>() / random_avgs.len() as f64;
        assert!(
            adversarial_avg >= random_mean * 0.9,
            "adversarial {adversarial_avg} vs random {random_mean}"
        );
    }

    #[test]
    fn slice_radius_zero_still_yields_permutation() {
        let oracle = ball_radius_oracle(LargestId);
        let pi = SliceConstruction::new(10, 0).build(&oracle);
        let mut sorted = pi.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10u64).collect::<Vec<_>>());
    }
}
