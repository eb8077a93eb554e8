//! Determinism of the work-stealing executor.
//!
//! The persistent pool claims chunks dynamically, so which participant runs
//! which node — and in which order — varies from run to run. These tests pin
//! down the property the whole experiment harness relies on: outputs, radii
//! and error selection of `FrozenExecutor::run` are **bit-identical** to the
//! sequential left-to-right reference (`FrozenExecutor::run_sequential`), on every topology family, under maximally skewed
//! (adversarial) identifier assignments, and across repeated runs.

use avglocal::algorithms::LargestId;
use avglocal::analysis::recurrence::clustered_adversarial_arrangement;
use avglocal::analysis::Summary;
use avglocal::prelude::*;
use avglocal::runtime::Knowledge;
use avglocal::SweepRow;
use proptest::prelude::*;

/// The scheduler-adversarial assignment from the skewed bench: the paper's
/// worst-case `a(p)` segment arrangement packed into one quarter of the
/// ring, ascending filler, global maximum adjacent to the block (shared
/// construction: [`clustered_adversarial_arrangement`]).
fn clustered_adversarial(n: usize) -> IdAssignment {
    let ids = clustered_adversarial_arrangement(n).iter().map(|&id| id as usize).collect();
    IdAssignment::from_vec(ids).expect("clustered adversarial ids form a permutation")
}

/// Every topology family at a size each of them accepts.
fn families() -> Vec<(Topology, usize)> {
    vec![
        (Topology::Cycle, 64),
        (Topology::Path, 64),
        (Topology::CompleteBinaryTree, 63),
        (Topology::Grid, 64),
        (Topology::Torus, 36),
        (Topology::gnp_connected(48, 7), 48),
    ]
}

/// Maximally skewed assignments for a family: identity (the winner pays
/// `Θ(diameter)` while everyone else pays 1 on the ring), reversed, and —
/// on the cycle — the clustered worst-case-block construction.
fn skewed_assignments(topology: &Topology, n: usize) -> Vec<IdAssignment> {
    let mut assignments = vec![IdAssignment::Identity, IdAssignment::Reversed];
    if topology.is_cycle() && n >= 8 {
        assignments.push(clustered_adversarial(n));
    }
    assignments
}

#[test]
fn stealing_matches_sequential_on_all_families_under_skew() {
    for (topology, n) in families() {
        for assignment in skewed_assignments(&topology, n) {
            let mut graph = topology.build(n).unwrap();
            assignment.apply(&mut graph).unwrap();
            let session = FrozenExecutor::new(&graph);
            let reference = session.run_sequential(&LargestId, Knowledge::none()).unwrap();
            let run = session.run(&LargestId, Knowledge::none()).unwrap();
            assert_eq!(run.outputs(), reference.outputs(), "{topology}, {assignment:?}");
            assert_eq!(run.radii(), reference.radii(), "{topology}, {assignment:?}");
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Scheduling-dependent results would show up as run-to-run differences:
    // run the same frozen session several times and demand equality of every
    // output and radius, on the most skewed cycle workload we have.
    let n = 1024;
    let graph = topology_with_assignment(&Topology::Cycle, n, &clustered_adversarial(n)).unwrap();
    let session = FrozenExecutor::new(&graph);
    let first = session.run(&LargestId, Knowledge::none()).unwrap();
    for round in 0..4 {
        let again = session.run(&LargestId, Knowledge::none()).unwrap();
        assert_eq!(first.outputs(), again.outputs(), "round {round}");
        assert_eq!(first.radii(), again.radii(), "round {round}");
    }
}

#[test]
fn sweep_results_are_repeatable_under_the_pool() {
    // The whole harness path: parallel trials, nested parallel node loops,
    // per-participant session reuse — two identical sweeps must agree on
    // every aggregate bit for bit.
    let sweep = Sweep::on(Problem::LargestId, Topology::Cycle, vec![32, 64])
        .with_policy(AssignmentPolicy::Random { base_seed: 9 })
        .with_trials(8);
    let a = sweep.run().unwrap();
    let b = sweep.run().unwrap();
    assert_eq!(a, b);
}

/// The exact row of a sweep rebuilt trial by trial: a fresh instance and a
/// fresh run per trial, folded the way `Sweep` folds an exact row.
fn reference_row(
    problem: Problem,
    topology: &Topology,
    n: usize,
    mode: ComponentMode,
    policy: &AssignmentPolicy,
    trials: usize,
) -> SweepRow {
    let mut components = 1;
    let sets: Vec<MeasureSet> = (0..trials)
        .map(|t| {
            let assignment = policy.assignment_for_trial(t);
            let (graph, profile) = if mode == ComponentMode::PerComponent {
                let mut graph = topology.build_for(n, mode).unwrap();
                assignment.apply(&mut graph).unwrap();
                components = graph.freeze().components().count();
                let (profile, _) =
                    run_on_topology_per_component(problem, topology, n, &assignment).unwrap();
                (graph, profile)
            } else {
                let graph = topology_with_assignment(topology, n, &assignment).unwrap();
                let profile = problem.run(&graph).unwrap();
                (graph, profile)
            };
            MeasureSet::of(&profile, &graph)
        })
        .collect();
    let mean = |f: fn(&MeasureSet) -> f64| sets.iter().map(f).sum::<f64>() / trials as f64;
    let averages: Vec<f64> = sets.iter().map(|s| s.node_averaged).collect();
    let average_summary = Summary::from_values(&averages);
    let mut cdf = RadiusCdf::empty();
    for set in &sets {
        cdf.merge(&set.cdf);
    }
    SweepRow {
        topology: topology.clone(),
        n,
        trials,
        components,
        worst_case: mean(|s| s.worst_case),
        average: average_summary.mean,
        average_summary,
        total: mean(|s| s.total),
        edge_averaged: mean(|s| s.edge_averaged),
        edge_averaged_mean: mean(|s| s.edge_averaged_mean),
        median: mean(|s| s.median),
        cdf,
        sampled: None,
    }
}

#[test]
fn reused_trial_graphs_leak_nothing_between_trials() {
    // Each pool participant keeps one graph and re-labels it for every
    // trial it claims; a row must equal the one built from a fresh instance
    // per trial, for every problem, and for a disconnected instance in
    // per-component mode.
    let policy = AssignmentPolicy::Random { base_seed: 13 };
    let trials = 7;
    let mut cases: Vec<_> = Problem::ALL
        .iter()
        .map(|&problem| (problem, Topology::Cycle, 30, ComponentMode::RequireConnected))
        .collect();
    cases.push((
        Problem::LargestId,
        Topology::Gnp { p: 1.0 / 40.0, seed: 2 },
        40,
        ComponentMode::PerComponent,
    ));
    for (problem, topology, n, mode) in cases {
        let result = Sweep::on(problem, topology.clone(), vec![n])
            .with_policy(policy.clone())
            .with_trials(trials)
            .with_component_mode(mode)
            .run()
            .unwrap();
        let expected = reference_row(problem, &topology, n, mode, &policy, trials);
        assert_eq!(result.rows, vec![expected], "{} on {topology:?}", problem.key());
        if mode == ComponentMode::PerComponent {
            assert!(result.rows[0].components > 1, "the instance must be disconnected");
        }
    }
}

#[test]
fn round_based_per_component_rows_match_connected_rows() {
    // Round-based problems in per-component mode: on the (connected) cycle
    // the row must equal, field for field, both the default-mode row and
    // the reference built trial by trial.
    let policy = AssignmentPolicy::Random { base_seed: 21 };
    let (n, trials) = (24, 5);
    for problem in [Problem::ThreeColoring, Problem::Mis, Problem::Matching] {
        let row = |mode: ComponentMode| {
            Sweep::on(problem, Topology::Cycle, vec![n])
                .with_policy(policy.clone())
                .with_trials(trials)
                .with_component_mode(mode)
                .run()
                .unwrap()
                .rows
        };
        let mode = ComponentMode::PerComponent;
        let per_component = row(mode);
        assert_eq!(per_component, row(ComponentMode::RequireConnected), "{}", problem.key());
        let expected = reference_row(problem, &Topology::Cycle, n, mode, &policy, trials);
        assert_eq!(per_component, vec![expected], "{}", problem.key());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Work-stealing output equals the sequential reference for random
    /// sizes, seeds and families.
    #[test]
    fn stealing_matches_sequential_on_random_instances(
        k in 3usize..20,
        seed in 0u64..500,
        family in 0usize..5,
    ) {
        let (topology, n) = match family {
            0 => (Topology::Cycle, k * 3),
            1 => (Topology::Path, k * 3),
            2 => (Topology::CompleteBinaryTree, k * 3),
            3 => (Topology::Grid, k * 3),
            // Both torus dimensions must be at least 3.
            _ => (Topology::Torus, 3 * k.max(3)),
        };
        let mut graph = topology.build(n).unwrap();
        IdAssignment::Shuffled { seed }.apply(&mut graph).unwrap();
        let session = FrozenExecutor::new(&graph);
        let reference = session.run_sequential(&LargestId, Knowledge::none()).unwrap();
        let stolen = session.run(&LargestId, Knowledge::none()).unwrap();
        prop_assert_eq!(stolen.outputs(), reference.outputs());
        prop_assert_eq!(stolen.radii(), reference.radii());
    }
}
