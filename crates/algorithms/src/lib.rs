//! # avglocal-algorithms
//!
//! Distributed algorithms for the LOCAL model used in the reproduction of
//! *"Brief Announcement: Average Complexity for the LOCAL Model"*
//! (Feuilloley, PODC 2015).
//!
//! * [`LargestId`] — the paper's Section 2 algorithm: grow the ball until a
//!   larger identifier (output `false`) or the whole graph (output `true`) is
//!   seen. Worst case `Θ(n)`, average `Θ(log n)` on the cycle.
//! * [`cole_vishkin`] / [`ThreeColorRing`] — the Cole–Vishkin pipeline that
//!   3-colours the oriented ring in `O(log* n)` rounds without knowledge of
//!   `n`, matching the paper's Theorem 1 lower bound.
//! * [`LandmarkColoring`] — a variable-radius 4-colouring in the spirit of
//!   the paper's Lemma 2 construction, whose radius profile genuinely varies
//!   from node to node.
//! * [`MisRing`] — maximal independent set on the ring, derived from the
//!   3-colouring.
//! * [`KnowTheLeader`] / [`baselines`] — problems and baselines whose average
//!   radius *cannot* beat the worst case, for contrast.
//! * [`adversary`] — the Section 3 slice construction that assembles an
//!   identifier permutation with a large average radius.
//! * [`verify`] — centralized validity checkers for every output produced
//!   here.
//!
//! # Example
//!
//! ```
//! use avglocal_algorithms::{LargestId, verify};
//! use avglocal_graph::{generators, IdAssignment};
//! use avglocal_runtime::{FrozenExecutor, Knowledge};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ring = generators::cycle(256)?;
//! IdAssignment::Shuffled { seed: 42 }.apply(&mut ring)?;
//! let run = FrozenExecutor::new(&ring).run(&LargestId, Knowledge::none())?;
//! assert!(verify::is_correct_largest_id(&ring, run.outputs()));
//! assert_eq!(run.max_radius(), 128);      // the winner sees half the ring
//! assert!(run.average_radius() < 10.0);   // everyone else stops early
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod baselines;
pub mod cole_vishkin;
mod largest_id;
mod leader;
mod matching;
mod mis;
pub mod reduce;
mod three_coloring;
pub mod verify;

pub use adversary::{cycle_with_arrangement, SliceConstruction};
pub use baselines::{FullInfoColoring, FullInfoLargestId};
pub use cole_vishkin::RingOrientation;
pub use largest_id::{predicted_cycle_radii, LargestId};
pub use leader::KnowTheLeader;
pub use matching::{MatchingMessage, MatchingRing, MatchingState};
pub use mis::{run_mis, MisMessage, MisRing, MisState};
pub use three_coloring::{
    landmarks, run_three_coloring, LandmarkColoring, ThreeColorRing, ThreeColorState,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use avglocal_graph::{generators, IdAssignment};
    use avglocal_runtime::{FrozenExecutor, Knowledge, SyncExecutor};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Largest-ID outputs are always correct and the measured radii match
        /// the combinatorial prediction on cycles.
        #[test]
        fn largest_id_correct_on_random_rings(n in 3usize..80, seed in 0u64..500) {
            let mut g = generators::cycle(n).unwrap();
            IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
            let run = FrozenExecutor::new(&g).run(&LargestId, Knowledge::none()).unwrap();
            prop_assert!(verify::is_correct_largest_id(&g, run.outputs()));
            let predicted = predicted_cycle_radii(&g);
            prop_assert_eq!(run.radii(), predicted.as_slice());
        }

        /// The Cole–Vishkin pipeline always produces a proper 3-colouring with
        /// constant radius, regardless of the identifier assignment.
        #[test]
        fn cole_vishkin_proper_on_random_rings(n in 3usize..64, seed in 0u64..500) {
            let mut g = generators::cycle(n).unwrap();
            IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
            let (colors, rounds) = run_three_coloring(&g).unwrap();
            prop_assert!(verify::is_proper_coloring(&g, &colors, 3));
            prop_assert!(rounds.iter().all(|&r| r == 7));
        }

        /// The landmark colouring is always proper (with 4 colours).
        #[test]
        fn landmark_coloring_proper_on_random_rings(n in 3usize..64, seed in 0u64..500) {
            let mut g = generators::cycle(n).unwrap();
            IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
            let run = FrozenExecutor::new(&g).run(&LandmarkColoring, Knowledge::none()).unwrap();
            prop_assert!(verify::is_proper_coloring(&g, run.outputs(), 4));
        }

        /// The MIS pipeline always produces a maximal independent set.
        #[test]
        fn mis_valid_on_random_rings(n in 3usize..48, seed in 0u64..300) {
            let mut g = generators::cycle(n).unwrap();
            IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
            let in_set = run_mis(&g).unwrap();
            prop_assert!(verify::is_maximal_independent_set(&g, &in_set));
        }

        /// The matching pipeline always produces a maximal matching.
        #[test]
        fn matching_valid_on_random_rings(n in 3usize..48, seed in 0u64..300) {
            let mut g = generators::cycle(n).unwrap();
            IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
            let orientation = RingOrientation::trace(&g).unwrap();
            let run = SyncExecutor::new()
                .run(&g, &MatchingRing::new(orientation), Knowledge::none())
                .unwrap();
            let matched: Vec<Option<usize>> = run
                .outputs()
                .into_iter()
                .map(|partner| partner.map(|id| g.node_by_identifier(id).unwrap().index()))
                .collect();
            prop_assert!(verify::is_maximal_matching(&g, &matched));
        }

        /// The Section 3 slice construction always yields a permutation.
        #[test]
        fn slice_construction_is_permutation(n in 8usize..48, t in 0usize..4) {
            let oracle = |arrangement: &[u64]| {
                let ring = cycle_with_arrangement(arrangement);
                FrozenExecutor::new(&ring).run(&LargestId, Knowledge::none()).unwrap().radii().to_vec()
            };
            let pi = SliceConstruction::new(n, t).build(&oracle);
            let mut sorted = pi.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n as u64).collect::<Vec<_>>());
        }
    }
}
