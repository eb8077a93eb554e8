//! # avglocal
//!
//! A reproduction of *"Brief Announcement: Average Complexity for the LOCAL
//! Model"* (Laurent Feuilloley, PODC 2015) as a Rust library.
//!
//! The paper proposes measuring a LOCAL algorithm not by the round at which
//! the **last** node outputs (the classical worst case) but by the **average**
//! over the nodes of their output radii, and proves two things on the cycle:
//!
//! 1. the largest-ID problem has worst-case complexity `Θ(n)` but average
//!    complexity `Θ(log n)` — an exponential separation (Section 2);
//! 2. Linial's `Ω(log* n)` lower bound for 3-colouring survives the new
//!    measure (Section 3, Theorem 1).
//!
//! This crate is the top of the stack: it combines the graph substrate
//! (`avglocal-graph`), the LOCAL executors (`avglocal-runtime`), the
//! distributed algorithms (`avglocal-algorithms`) and the exact mathematics
//! (`avglocal-analysis`) into the measurement, experimentation and reporting
//! API used by the benches and examples.
//!
//! ## Quick start
//!
//! ```
//! use avglocal::prelude::*;
//!
//! # fn main() -> Result<(), avglocal::CoreError> {
//! // The paper's separation, on a 256-node ring with random identifiers.
//! let ids = IdAssignment::Shuffled { seed: 1 };
//! let profile = run_on_topology(Problem::LargestId, &Topology::Cycle, 256, &ids)?;
//! let pair = MeasurePair::of(&profile);
//! assert_eq!(pair.worst_case, 128.0);          // Θ(n): the winner sees half the ring
//! assert!(pair.average < 10.0);                // Θ(log n) on average
//! assert!(pair.separation() > 12.0);           // the gap the paper is about
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! * [`Problem`] — algorithm + verifier bundles for every problem studied;
//! * [`RadiusProfile`] / [`Measure`] / [`MeasurePair`] — per-node radii and
//!   the two measures compared by the paper;
//! * [`RadiusCdf`] — the full radius distribution of an experiment (exact,
//!   mergeable ECDF with quantile/mean/tail accessors);
//! * [`experiment`] — size sweeps over any [`graph::Topology`] (cycles,
//!   paths, trees, grids, tori, `G(n, p)`, preferential attachment,
//!   power-law configuration) and identifier-assignment policies; the
//!   random-permutation study of Section 4 is a sweep under
//!   [`AssignmentPolicy::Random`];
//! * [`adversary`] — exhaustive and hill-climbing searches for worst-case
//!   identifier assignments, plus the Section 3 slice construction;
//! * [`theory`] — the paper's predicted curves (`a(n)`, `log*`, Cole–Vishkin
//!   bounds) for theory-versus-measurement tables;
//! * [`schedule`] — the motivating applications (parallel simulation,
//!   dynamic updates) as measurable quantities;
//! * [`report`] — plain-text/CSV tables used by the benchmark binary;
//! * [`service`] — the resilient long-lived radius-query service layer
//!   (epoch-published snapshots, deadlines, load shedding, batched sharded
//!   queries, crash-safe persistence; re-exported from `avglocal-service`);
//! * [`aggregate`] — the distributional endpoint over the service's batched
//!   query path ([`AggregateQueries`]): a whole generation's [`MeasureSet`],
//!   CDF included, as one admitted service call on one pinned epoch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod aggregate;
pub mod cdf;
mod error;
pub mod experiment;
pub mod figure;
pub mod measure;
mod problem;
mod profile;
pub mod report;
pub mod sampling;
pub mod schedule;
pub mod theory;

pub use adversary::{
    hub_adversarial_assignment, section3_assignment, top_hub, AdversaryResult, AdversarySearch,
};
pub use aggregate::{AggregateQueries, MeasuresReply};
pub use cdf::RadiusCdf;
pub use error::{CoreError, Result};
pub use experiment::{
    run_on_topology, run_on_topology_per_component, topology_with_assignment, AssignmentPolicy,
    SampledRow, Sweep, SweepResult, SweepRow,
};
pub use measure::{ComponentMeasures, EdgeWeight, Measure, MeasurePair, MeasureSet, MEDIAN};
pub use problem::Problem;
pub use profile::RadiusProfile;
pub use sampling::{
    Estimate, SamplePlan, SampleQueries, SampleReply, SampleSet, SampledMeasureSet,
};

// Re-export the lower layers so downstream users need a single dependency.
pub use avglocal_algorithms as algorithms;
pub use avglocal_analysis as analysis;
pub use avglocal_graph as graph;
pub use avglocal_runtime as runtime;
pub use avglocal_service as service;

/// Everything a typical experiment needs, importable in one line.
pub mod prelude {
    pub use crate::adversary::{
        hub_adversarial_assignment, section3_assignment, top_hub, AdversarySearch,
    };
    pub use crate::aggregate::AggregateQueries;
    pub use crate::cdf::RadiusCdf;
    pub use crate::experiment::{
        run_on_topology, run_on_topology_per_component, topology_with_assignment, AssignmentPolicy,
        SampledRow, Sweep,
    };
    pub use crate::figure::{AsciiChart, Series};
    pub use crate::measure::{ComponentMeasures, EdgeWeight, Measure, MeasurePair, MeasureSet};
    pub use crate::problem::Problem;
    pub use crate::profile::RadiusProfile;
    pub use crate::report::Table;
    pub use crate::sampling::{Estimate, SamplePlan, SampleQueries, SampledMeasureSet};
    pub use crate::schedule::{expected_invalidated_nodes, schedule_radii};
    pub use crate::theory;
    pub use avglocal_graph::{
        generators, ComponentLabels, ComponentMode, Graph, IdAssignment, Identifier, NodeId,
        Permutation, Topology,
    };
    pub use avglocal_runtime::{FrozenExecutor, Knowledge, SyncExecutor};
}

#[cfg(test)]
mod proptests {
    use super::prelude::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The average radius never exceeds the worst-case radius, for any
        /// problem, size and identifier assignment.
        #[test]
        fn average_never_exceeds_worst_case(
            n in 4usize..40,
            seed in 0u64..200,
            problem_idx in 0usize..Problem::ALL.len()
        ) {
            let problem = Problem::ALL[problem_idx];
            let ids = IdAssignment::Shuffled { seed };
            let profile = run_on_topology(problem, &Topology::Cycle, n, &ids).unwrap();
            let pair = MeasurePair::of(&profile);
            prop_assert!(pair.average <= pair.worst_case + 1e-9);
            prop_assert!(pair.average >= 0.0);
            prop_assert_eq!(profile.len(), n);
        }

        /// The measured total radius of the largest-ID algorithm never exceeds
        /// the paper's worst-case bound a(n-1) + n/2.
        #[test]
        fn largest_id_total_is_bounded_by_theory(n in 4usize..64, seed in 0u64..300) {
            let ids = IdAssignment::Shuffled { seed };
            let profile = run_on_topology(Problem::LargestId, &Topology::Cycle, n, &ids).unwrap();
            prop_assert!(profile.total() as u64 <= theory::largest_id_worst_total(n));
        }

        /// The Cole–Vishkin measured radii never exceed the theoretical upper
        /// bound for 64-bit identifiers.
        #[test]
        fn coloring_radii_bounded_by_cole_vishkin(n in 4usize..48, seed in 0u64..200) {
            let ids = IdAssignment::Shuffled { seed };
            let profile =
                run_on_topology(Problem::ThreeColoring, &Topology::Cycle, n, &ids).unwrap();
            prop_assert!(profile.max() <= theory::cole_vishkin_upper_bound(64));
        }
    }
}
