//! # avglocal-runtime
//!
//! Execution engine for the LOCAL model, in the two equivalent views used by
//! *"Brief Announcement: Average Complexity for the LOCAL Model"*
//! (Feuilloley, PODC 2015):
//!
//! * the **round-based view** ([`SyncExecutor`] + [`RoundAlgorithm`]):
//!   synchronous message passing where every node may commit to its output at
//!   a different round and keeps relaying messages afterwards;
//! * the **ball view** ([`FrozenExecutor`] + [`BallAlgorithm`]): every node
//!   grows the radius of the ball it sees until it can output; the radius of
//!   the first decision is the node's cost `r(v)`.
//!
//! [`GatherAdapter`] turns any ball algorithm into a round algorithm by
//! full-information flooding, and the test suite checks that decision rounds
//! and decision radii coincide — the equivalence the paper relies on when it
//! reasons in terms of radii.
//!
//! The measures themselves (worst-case radius, the paper's average radius,
//! adversarial search over identifier assignments) live in the `avglocal`
//! crate; this crate only produces exact per-node radii.
//!
//! The ball view has one executor and one engine. [`FrozenExecutor`] freezes
//! the graph into a CSR snapshot once and grows each node's view
//! **incrementally** (see [`avglocal_graph::BallGrower`]), handing algorithms
//! a lazy [`LocalView`] whose cheap queries never materialise the induced
//! subgraph. Its three entry points share that engine:
//!
//! * [`FrozenExecutor::run`] probes every node in parallel on a persistent
//!   work-stealing pool with **dynamically claimed chunks** — the right
//!   scheduling for the paper's skewed per-node costs, where one node pays
//!   `Θ(n)` while the rest pay `O(1)`. Results are index-addressed, so
//!   outputs, radii and error selection stay bit-identical to the sequential
//!   reference [`FrozenExecutor::run_sequential`].
//! * [`FrozenExecutor::run_node_with`] probes one node, optionally under a
//!   cooperative cancellation hook ([`ProbeOptions`]).
//! * [`FrozenExecutor::run_nodes_with`] probes an arbitrary node list in
//!   dynamically claimed shards ([`NodeBatchOptions`]).
//!
//! The session keeps its grower scratch buffers warm across calls, so every
//! probe after the first costs `Θ(ball(v))`.
//!
//! # Example
//!
//! ```
//! use avglocal_graph::{generators, IdAssignment};
//! use avglocal_runtime::{FrozenExecutor, Knowledge};
//! use avglocal_runtime::examples::NaiveLargestId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ring = generators::cycle(64)?;
//! IdAssignment::Shuffled { seed: 2025 }.apply(&mut ring)?;
//!
//! let run = FrozenExecutor::new(&ring).run(&NaiveLargestId, Knowledge::none())?;
//! // Worst-case cost is linear in n, but the average is much smaller.
//! assert_eq!(run.max_radius(), 32);
//! assert!(run.average_radius() < 8.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adapter;
mod algorithm;
mod error;
pub mod examples;
mod executor;
mod frozen;
mod knowledge;
mod message;
mod scratch;
mod view;

pub use adapter::{GatherAdapter, GatherState, Record};
pub use algorithm::{BallAlgorithm, NodeContext, RoundAlgorithm};
pub use error::{Result, RuntimeError};
pub use executor::{Execution, SyncExecutor};
pub use frozen::{BallExecution, FrozenExecutor, NodeBatchOptions, ProbeOptions};
pub use knowledge::Knowledge;
pub use message::{broadcast, Envelope};
pub use view::LocalView;

#[cfg(test)]
mod proptests {
    use super::*;
    use avglocal_graph::{generators, IdAssignment};
    use examples::NaiveLargestId;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ball executor and the message-passing adapter agree on every
        /// node's cost, for random cycle sizes and identifier assignments.
        #[test]
        fn views_agree_on_random_cycles(n in 3usize..40, seed in 0u64..200) {
            let mut g = generators::cycle(n).unwrap();
            IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
            let ball = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
            let rounds = SyncExecutor::new()
                .run(&g, &GatherAdapter::new(NaiveLargestId), Knowledge::none())
                .unwrap();
            for v in g.nodes() {
                prop_assert_eq!(rounds.decision_round(v), Some(ball.radius(v)));
                prop_assert_eq!(rounds.output(v), Some(ball.output(v)));
            }
        }

        /// Exactly one node outputs `true` for the largest-ID problem and its
        /// radius is ⌊n/2⌋ (it must see the whole cycle), independent of the
        /// identifier assignment.
        #[test]
        fn largest_id_has_unique_winner(n in 3usize..60, seed in 0u64..200) {
            let mut g = generators::cycle(n).unwrap();
            IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
            let run = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
            let winners: Vec<_> = g.nodes().filter(|&v| *run.output(v)).collect();
            prop_assert_eq!(winners.len(), 1);
            prop_assert_eq!(run.radius(winners[0]), n / 2);
            prop_assert_eq!(winners[0], g.max_identifier_node().unwrap());
        }

        /// The average radius never exceeds the maximum radius.
        #[test]
        fn average_bounded_by_max(n in 3usize..50, seed in 0u64..100) {
            let mut g = generators::cycle(n).unwrap();
            IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
            let run = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
            prop_assert!(run.average_radius() <= run.max_radius() as f64);
            prop_assert!(run.average_radius() >= 0.0);
        }
    }
}
