//! The topology-parameterised sweep harness against its cycle-only
//! ancestors, and the [`FrozenExecutor`] session against the per-call
//! executor.
//!
//! Three guarantees are pinned down here:
//!
//! 1. a sweep on [`Topology::Cycle`] is **bit-for-bit** a sequential
//!    rebuild from single `run_on_topology` runs — rows, summaries, and
//!    determinism under parallel trials;
//! 2. a reused [`FrozenExecutor`] session probes every node of every
//!    supported topology exactly like a session frozen for each probe;
//! 3. a `G(n, p)` family that cannot produce a connected instance is a loud
//!    error, never a silently component-local measurement.

use avglocal::analysis::Summary;
use avglocal::graph::GraphError;
use avglocal::prelude::*;
use avglocal::runtime::examples::NaiveLargestId;
use avglocal::runtime::ProbeOptions;
use avglocal::{CoreError, SweepResult};
use proptest::prelude::*;

/// Sizes for which every deterministic family (including the torus, which
/// needs a factorisation with both sides >= 3) has an instance.
const UNIVERSAL_SIZES: [usize; 4] = [9, 12, 16, 24];

fn supported_topologies(n: usize, seed: u64) -> Vec<Topology> {
    let mut all = Topology::DETERMINISTIC.to_vec();
    all.push(Topology::gnp_connected(n, seed));
    all
}

/// Rebuilds a one-size sweep row the way the pre-topology harness did:
/// sequentially, one single-instance run per trial.
fn legacy_cycle_row(
    problem: Problem,
    n: usize,
    policy: &AssignmentPolicy,
    trials: usize,
) -> (f64, f64, f64, Summary) {
    let mut worst = Vec::new();
    let mut averages = Vec::new();
    let mut totals = Vec::new();
    for trial in 0..trials {
        let assignment = policy.assignment_for_trial(trial);
        let profile = run_on_topology(problem, &Topology::Cycle, n, &assignment).unwrap();
        let pair = MeasurePair::of(&profile);
        worst.push(pair.worst_case);
        averages.push(pair.average);
        totals.push(profile.total() as f64);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&worst), mean(&averages), mean(&totals), Summary::from_values(&averages))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The topology-parameterised sweep on `Topology::Cycle` reproduces the
    /// sequential cycle-only pipeline bit for bit: every aggregate of every
    /// row, including the per-trial summary, and independently of the
    /// parallel trial scheduling.
    #[test]
    fn cycle_sweep_is_bit_identical_to_the_legacy_path(
        n in 4usize..48,
        base_seed in 0u64..500,
        trials in 1usize..5
    ) {
        let policy = AssignmentPolicy::Random { base_seed };
        let result = Sweep::on(Problem::LargestId, Topology::Cycle, vec![n])
            .with_policy(policy.clone())
            .with_trials(trials)
            .run()
            .unwrap();
        let row = &result.rows[0];
        let (worst, average, total, summary) =
            legacy_cycle_row(Problem::LargestId, n, &policy, trials);
        prop_assert_eq!(row.n, n);
        prop_assert_eq!(row.trials, trials);
        prop_assert_eq!(row.worst_case, worst);
        prop_assert_eq!(row.average, average);
        prop_assert_eq!(row.total, total);
        prop_assert_eq!(row.average_summary.clone(), summary);
        prop_assert!(row.topology.is_cycle());
    }

    /// Two runs of the same sweep configuration are identical, trials being
    /// parallel notwithstanding.
    #[test]
    fn sweeps_are_deterministic_under_parallel_trials(
        n in 4usize..40,
        base_seed in 0u64..200,
        trials in 2usize..6
    ) {
        let build = || -> SweepResult {
            Sweep::on(Problem::LargestId, Topology::Cycle, vec![n, n + 1])
                .with_policy(AssignmentPolicy::Random { base_seed })
                .with_trials(trials)
                .run()
                .unwrap()
        };
        prop_assert_eq!(build(), build());
    }

    /// A reused frozen session and a session frozen per call agree on every
    /// node of every supported topology, probe for probe.
    #[test]
    fn frozen_session_matches_per_call_run_node(
        size_idx in 0usize..UNIVERSAL_SIZES.len(),
        seed in 0u64..200
    ) {
        let n = UNIVERSAL_SIZES[size_idx];
        for topology in supported_topologies(n, seed) {
            let graph = topology_with_assignment(
                &topology,
                n,
                &IdAssignment::Shuffled { seed },
            ).unwrap();
            let session = FrozenExecutor::new(&graph);
            for v in graph.nodes() {
                let fresh = FrozenExecutor::new(&graph)
                    .run_node_with(v, &NaiveLargestId, Knowledge::none(), ProbeOptions::new())
                    .unwrap();
                let reused = session
                    .run_node_with(v, &NaiveLargestId, Knowledge::none(), ProbeOptions::new())
                    .unwrap();
                prop_assert_eq!(fresh, reused, "{} node {:?}", topology, v);
            }
        }
    }

    /// `run_on_topology` on the cycle family is exactly the problem run on
    /// the cycle generator's instance.
    #[test]
    fn run_on_topology_generalises_run_on_cycle(n in 3usize..64, seed in 0u64..300) {
        let assignment = IdAssignment::Shuffled { seed };
        let via_topology =
            run_on_topology(Problem::LargestId, &Topology::Cycle, n, &assignment).unwrap();
        let mut cycle = generators::cycle(n).unwrap();
        assignment.apply(&mut cycle).unwrap();
        let via_cycle = Problem::LargestId.run(&cycle).unwrap();
        prop_assert_eq!(via_topology, via_cycle);
    }
}

#[test]
fn disconnected_gnp_instances_are_rejected_not_measured() {
    // p = 0 on 8 nodes: no draw can ever be connected. The raw generator
    // hands the disconnected instance back…
    let family = Topology::Gnp { p: 0.0, seed: 42 };
    let raw = family.build_unchecked(8).unwrap();
    assert_eq!(raw.edge_count(), 0);

    // …but the sweep-facing build refuses it with a dedicated error,
    let err = family.build(8).unwrap_err();
    assert!(matches!(err, GraphError::Disconnected { .. }));

    // and the error survives the whole experiment stack.
    let err = Sweep::on(Problem::LargestId, family.clone(), vec![8]).run().unwrap_err();
    assert!(matches!(err, CoreError::Graph(GraphError::Disconnected { .. })));
}

#[test]
fn gnp_trials_share_one_instance() {
    // The sweep must measure identifier randomness on a fixed graph: two
    // trials of the same row see the same adjacency, only different ids.
    let family = Topology::gnp_connected(32, 9);
    let a = family.build(32).unwrap();
    let b = family.build(32).unwrap();
    assert_eq!(a, b, "the instance is a deterministic function of (family, n)");

    let result = Sweep::on(Problem::KnowTheLeader, family, vec![32])
        .with_policy(AssignmentPolicy::Random { base_seed: 4 })
        .with_trials(3)
        .run()
        .unwrap();
    // KnowTheLeader's worst case is the eccentricity of the winner; on a
    // fixed graph it can vary with the winner's position but stays within
    // the diameter, which would not be pinned down if the graph resampled.
    let diameter = avglocal::graph::traversal::diameter(&a).unwrap() as f64;
    assert!(result.rows[0].worst_case <= diameter);
}

#[test]
fn cross_topology_sweep_runs_end_to_end() {
    // The acceptance-criteria sweep: {cycle, tree, grid, gnp} from one
    // configuration, one row per topology, with sane measure ordering.
    for topology in [
        Topology::Cycle,
        Topology::CompleteBinaryTree,
        Topology::Grid,
        Topology::gnp_connected(24, 1),
    ] {
        let result = Sweep::on(Problem::LargestId, topology.clone(), vec![24])
            .with_policy(AssignmentPolicy::Random { base_seed: 8 })
            .with_trials(3)
            .run()
            .unwrap();
        let row = &result.rows[0];
        assert_eq!(row.topology, topology);
        assert_eq!(row.n, 24);
        assert!(row.worst_case >= row.average, "{topology}");
        assert!(row.average > 0.0, "{topology}");
    }
}
