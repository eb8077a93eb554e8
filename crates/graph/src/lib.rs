//! # avglocal-graph
//!
//! Graph substrate for the `avglocal` LOCAL-model reproduction of
//! *"Brief Announcement: Average Complexity for the LOCAL Model"*
//! (Feuilloley, PODC 2015).
//!
//! The crate provides everything the simulator needs to know about the
//! network *topology* and the *identifier assignment*, which the paper treats
//! as two independent adversarial choices:
//!
//! * [`Graph`] — undirected simple graphs whose nodes carry [`Identifier`]s;
//! * [`generators`] — cycles, paths and the other families used in
//!   experiments;
//! * [`Topology`] — named graph families (cycle, path, tree, grid, torus,
//!   `G(n, p)`, preferential attachment, power-law configuration) that the
//!   experiment sweeps are parameterised by;
//! * [`Permutation`] / [`IdAssignment`] — the adversary's choice of how
//!   identifiers are laid out on the nodes;
//! * [`ball`] — radius-`r` balls, the unit of knowledge in the LOCAL model;
//! * [`CsrGraph`] / [`BallGrower`] — the frozen flat adjacency snapshot and
//!   the incremental ball engine the executors' hot paths run on;
//! * [`snapshot`] — the versioned binary form of a [`CsrGraph`]
//!   ([`CsrGraph::to_bytes`] / [`CsrGraph::from_bytes`]) with a validating
//!   decoder that treats its input as untrusted;
//! * [`traversal`] — centralized graph algorithms used for verification;
//! * [`PortNumbering`] — the local names a node uses for its incident edges.
//!
//! # Example
//!
//! ```
//! use avglocal_graph::{generators, ball::extract_ball, IdAssignment, NodeId};
//!
//! # fn main() -> Result<(), avglocal_graph::GraphError> {
//! // The paper's setting: a cycle with adversarially permuted identifiers.
//! let mut ring = generators::cycle(16)?;
//! IdAssignment::Shuffled { seed: 1 }.apply(&mut ring)?;
//!
//! // What node 0 knows after 3 rounds.
//! let ball = extract_ball(&ring, NodeId::new(0), 3);
//! assert_eq!(ball.node_count(), 7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod assignment;
pub mod ball;
mod builder;
pub mod components;
pub mod csr;
mod error;
pub mod generators;
mod graph;
pub mod grower;
mod ids;
pub mod io;
mod permutation;
mod ports;
pub mod snapshot;
pub mod topology;
pub mod traversal;

pub use assignment::IdAssignment;
pub use ball::{arm, extract_ball, Ball};
pub use builder::GraphBuilder;
pub use components::{ComponentLabels, ComponentMode};
pub use csr::CsrGraph;
pub use error::{GraphError, Result};
pub use graph::Graph;
pub use grower::{BallGrower, GrowerScratch};
pub use ids::{Identifier, NodeId};
pub use permutation::Permutation;
pub use ports::PortNumbering;
pub use topology::{derive_seed, Topology};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// A permutation composed with its inverse is the identity.
        #[test]
        fn permutation_inverse_round_trip(seed in 0u64..1000, n in 1usize..64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = Permutation::random(n, &mut rng);
            prop_assert!(p.compose(&p.inverse()).is_identity());
            prop_assert!(p.inverse().compose(&p).is_identity());
        }

        /// Balls grow monotonically with the radius and saturate at the
        /// component size.
        #[test]
        fn ball_growth_is_monotone(n in 3usize..40, center in 0usize..40, r in 0usize..25) {
            let center = center % n;
            let g = generators::cycle(n).unwrap();
            let b1 = extract_ball(&g, NodeId::new(center), r);
            let b2 = extract_ball(&g, NodeId::new(center), r + 1);
            prop_assert!(b2.node_count() >= b1.node_count());
            prop_assert!(b1.node_count() <= n);
            if b1.is_saturated() {
                prop_assert_eq!(b1.node_count(), n);
            }
        }

        /// On a cycle, the ball of radius r has exactly min(2r+1, n) nodes.
        #[test]
        fn cycle_ball_size_formula(n in 3usize..60, r in 0usize..40) {
            let g = generators::cycle(n).unwrap();
            let b = extract_ball(&g, NodeId::new(0), r);
            prop_assert_eq!(b.node_count(), (2 * r + 1).min(n));
        }

        /// Identifier assignments always produce distinct identifiers.
        #[test]
        fn assignments_keep_identifiers_unique(n in 3usize..50, seed in 0u64..500) {
            let mut g = generators::cycle(n).unwrap();
            IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
            prop_assert!(g.has_unique_identifiers());
        }

        /// BFS distances on the cycle match the circular distance formula.
        #[test]
        fn cycle_distances_match_formula(n in 3usize..50, a in 0usize..50, b in 0usize..50) {
            let a = a % n;
            let b = b % n;
            let g = generators::cycle(n).unwrap();
            let d = traversal::distance(&g, NodeId::new(a), NodeId::new(b)).unwrap();
            let linear = a.abs_diff(b);
            prop_assert_eq!(d, linear.min(n - linear));
        }
    }
}
