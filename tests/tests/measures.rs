//! The measure layer against brute-force recomputation.
//!
//! Every measure a sweep row reports (node-averaged, edge-averaged under
//! both endpoint weightings, worst case, total, median) must equal a
//! from-scratch recomputation that runs the same trials through the plain
//! `run_on_topology` entry point and folds the raw radius vectors by hand —
//! same summation order, so the comparison is exact, not approximate.
//! The per-component mode is checked the same way: aggregate and
//! per-component sets recomputed from the labelled radius vectors.

use avglocal::graph::ComponentMode;
use avglocal::prelude::*;
use proptest::prelude::*;

/// Sizes for which every deterministic family (including the torus) has an
/// instance.
const UNIVERSAL_SIZES: [usize; 3] = [9, 16, 24];

fn supported_topologies(n: usize, seed: u64) -> Vec<Topology> {
    let mut all = Topology::DETERMINISTIC.to_vec();
    all.push(Topology::gnp_connected(n, seed));
    all
}

/// Brute-force edge-averaged measure straight from the definition.
fn brute_force_edge_averaged(graph: &Graph, radii: &[usize], use_max: bool) -> f64 {
    let mut sum = 0.0;
    let mut edges = 0usize;
    for (u, v) in graph.edges() {
        let (ru, rv) = (radii[u.index()], radii[v.index()]);
        sum += if use_max { ru.max(rv) as f64 } else { (ru + rv) as f64 / 2.0 };
        edges += 1;
    }
    if edges == 0 {
        0.0
    } else {
        sum / edges as f64
    }
}

/// Brute-force nearest-rank median.
fn brute_force_median(radii: &[usize]) -> f64 {
    if radii.is_empty() {
        return 0.0;
    }
    let mut sorted = radii.to_vec();
    sorted.sort_unstable();
    sorted[(500 * (sorted.len() - 1) + 500) / 1000] as f64
}

/// Recomputes a one-size sweep row from scratch: independent trial runs via
/// `run_on_topology`, measures folded by hand, aggregated in trial order.
fn brute_force_row(
    problem: Problem,
    topology: &Topology,
    n: usize,
    policy: &AssignmentPolicy,
    trials: usize,
) -> (f64, f64, f64, f64, f64, f64) {
    let mut worst = Vec::new();
    let mut averages = Vec::new();
    let mut totals = Vec::new();
    let mut edge_max = Vec::new();
    let mut edge_mean = Vec::new();
    let mut medians = Vec::new();
    for trial in 0..trials {
        let assignment = policy.assignment_for_trial(trial);
        let graph = topology_with_assignment(topology, n, &assignment).unwrap();
        let profile = run_on_topology(problem, topology, n, &assignment).unwrap();
        let radii = profile.radii();
        worst.push(profile.max() as f64);
        averages.push(profile.average());
        totals.push(profile.total() as f64);
        edge_max.push(brute_force_edge_averaged(&graph, radii, true));
        edge_mean.push(brute_force_edge_averaged(&graph, radii, false));
        medians.push(brute_force_median(radii));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (
        mean(&worst),
        mean(&averages),
        mean(&totals),
        mean(&edge_max),
        mean(&edge_mean),
        mean(&medians),
    )
}

#[test]
fn sweep_measures_equal_brute_force_on_every_family() {
    for &n in &UNIVERSAL_SIZES {
        for topology in supported_topologies(n, 5) {
            let policy = AssignmentPolicy::Random { base_seed: 3 };
            let trials = 3;
            let result = Sweep::on(Problem::LargestId, topology.clone(), vec![n])
                .with_policy(policy.clone())
                .with_trials(trials)
                .run()
                .unwrap();
            let row = &result.rows[0];
            let (worst, average, total, edge_max, edge_mean, median) =
                brute_force_row(Problem::LargestId, &topology, n, &policy, trials);
            assert_eq!(row.worst_case, worst, "{topology} n={n}");
            assert_eq!(row.average, average, "{topology} n={n}");
            assert_eq!(row.total, total, "{topology} n={n}");
            assert_eq!(row.edge_averaged, edge_max, "{topology} n={n}");
            assert_eq!(row.edge_averaged_mean, edge_mean, "{topology} n={n}");
            assert_eq!(row.median, median, "{topology} n={n}");
            assert_eq!(row.components, 1, "{topology} n={n}");
        }
    }
}

#[test]
fn round_based_problems_report_edge_measures_too() {
    // Cole–Vishkin goes through the round-based pipeline (no frozen
    // snapshot), so the measure layer folds over the Graph edge list.
    let policy = AssignmentPolicy::Random { base_seed: 7 };
    let result = Sweep::on(Problem::ThreeColoring, Topology::Cycle, vec![24])
        .with_policy(policy.clone())
        .with_trials(2)
        .run()
        .unwrap();
    let row = &result.rows[0];
    let (worst, average, _, edge_max, edge_mean, median) =
        brute_force_row(Problem::ThreeColoring, &Topology::Cycle, 24, &policy, 2);
    assert_eq!(row.worst_case, worst);
    assert_eq!(row.average, average);
    assert_eq!(row.edge_averaged, edge_max);
    assert_eq!(row.edge_averaged_mean, edge_mean);
    assert_eq!(row.median, median);
}

#[test]
fn study_measures_equal_brute_force() {
    let n = 32;
    let samples = 5;
    let base_seed = 11;
    // The random-permutation study is a one-size sweep, one shuffled
    // permutation per trial.
    let result = Sweep::on(Problem::LargestId, Topology::Grid, vec![n])
        .with_policy(AssignmentPolicy::Random { base_seed })
        .with_trials(samples)
        .run()
        .unwrap();
    let row = &result.rows[0];
    let mut edge_max = Vec::new();
    let mut medians = Vec::new();
    for i in 0..samples {
        let assignment =
            IdAssignment::Shuffled { seed: avglocal::graph::derive_seed(base_seed, i as u64) };
        let graph = topology_with_assignment(&Topology::Grid, n, &assignment).unwrap();
        let profile = run_on_topology(Problem::LargestId, &Topology::Grid, n, &assignment).unwrap();
        edge_max.push(brute_force_edge_averaged(&graph, profile.radii(), true));
        medians.push(brute_force_median(profile.radii()));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert_eq!(row.edge_averaged, mean(&edge_max));
    assert_eq!(row.median, mean(&medians));
}

#[test]
fn per_component_aggregates_recompose_from_the_components() {
    // Subcritical G(n, p): totals are additive over components, the worst
    // case is the max, and node/edge averages recompose from the
    // component-weighted sums.
    for seed in [2u64, 9, 21] {
        let n = 40;
        let topology = Topology::Gnp { p: 1.0 / n as f64, seed };
        let (profile, measures) = run_on_topology_per_component(
            Problem::LargestId,
            &topology,
            n,
            &IdAssignment::Shuffled { seed: 31 },
        )
        .unwrap();
        let agg = &measures.aggregate;
        assert_eq!(agg.nodes, n);
        let node_sum: usize = measures.per_component.iter().map(|m| m.nodes).sum();
        assert_eq!(node_sum, n);
        let total: f64 = measures.per_component.iter().map(|m| m.total).sum();
        assert_eq!(total, agg.total);
        let worst = measures.per_component.iter().map(|m| m.worst_case).fold(0.0, f64::max);
        assert_eq!(worst, agg.worst_case);
        let edge_sum: f64 =
            measures.per_component.iter().map(|m| m.edge_averaged * m.edges as f64).sum();
        if agg.edges > 0 {
            assert!((edge_sum / agg.edges as f64 - agg.edge_averaged).abs() < 1e-9);
        }
        // And the aggregate matches a direct recomputation on the labelled
        // instance.
        let mut graph = topology.build_for(n, ComponentMode::PerComponent).unwrap();
        IdAssignment::Shuffled { seed: 31 }.apply(&mut graph).unwrap();
        assert_eq!(agg.edge_averaged, brute_force_edge_averaged(&graph, profile.radii(), true));
        // Radii are scoped to components: no ball outgrows its component.
        let csr = graph.freeze();
        let labels = csr.components();
        for v in graph.nodes() {
            let size = labels.sizes()[labels.label(v) as usize] as usize;
            assert!(profile.radius(v).unwrap() < size.max(1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The regular-family sandwich: on cycles (2-regular) the edge-averaged
    /// (max-endpoint) measure is within [1, 2] x the node-averaged one, for
    /// every problem and identifier assignment.
    #[test]
    fn cycle_edge_average_is_sandwiched(n in 4usize..48, seed in 0u64..200) {
        let assignment = IdAssignment::Shuffled { seed };
        let graph = topology_with_assignment(&Topology::Cycle, n, &assignment).unwrap();
        let profile =
            run_on_topology(Problem::LargestId, &Topology::Cycle, n, &assignment).unwrap();
        let edge = brute_force_edge_averaged(&graph, profile.radii(), true);
        let node = profile.average();
        prop_assert!(edge >= node - 1e-12);
        prop_assert!(edge <= 2.0 * node + 1e-12);
    }

    /// Per-component sweeps are deterministic: same configuration, same
    /// rows, bit for bit — the labelling, the trial seeds and the aggregate
    /// order are all canonical.
    #[test]
    fn per_component_sweeps_are_deterministic(seed in 0u64..100) {
        let n = 32;
        let sweep = |s: u64| {
            Sweep::on(Problem::LargestId, Topology::Gnp { p: 1.0 / 32.0, seed: s }, vec![n])
                .with_policy(AssignmentPolicy::Random { base_seed: 1 })
                .with_trials(2)
                .with_component_mode(ComponentMode::PerComponent)
                .run()
                .unwrap()
        };
        prop_assert_eq!(sweep(seed), sweep(seed));
    }
}
