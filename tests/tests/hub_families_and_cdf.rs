//! The hub-weighted topology subsystem and the radius-CDF reporting layer,
//! tested through the whole stack.
//!
//! Two bundles of invariants:
//!
//! * **`RadiusCdf` invariants** on real sweep rows: the distribution is a
//!   genuine right-continuous ECDF (monotone, steps of `k / (trials * n)`,
//!   saturating at 1), its 500-per-mille point is bit-identical to the
//!   `Measure::Quantile { per_mille: 500 }` median column for single-trial
//!   rows, and merging per-trial distributions equals pooling the raw
//!   radius vectors.
//! * **Hub-family properties** across seeds: preferential attachment is
//!   deterministic per seed, realises `n` exactly, satisfies the handshake
//!   identity (degree sum = 2m) with the exact BA edge count, and stays
//!   connected; the power-law configuration model is deterministic, simple,
//!   and bounded by its degree sequence.

use avglocal::graph::{generators, traversal};
use avglocal::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Recomputes a sweep row's pooled distribution from scratch via the plain
/// per-trial entry point and compares bit for bit.
fn assert_row_cdf_matches_pooled_trials(topology: &Topology, n: usize, trials: usize, seed: u64) {
    let policy = AssignmentPolicy::Random { base_seed: seed };
    let result = Sweep::on(Problem::LargestId, topology.clone(), vec![n])
        .with_policy(policy.clone())
        .with_trials(trials)
        .run()
        .unwrap();
    let row = &result.rows[0];

    let mut pooled: Vec<usize> = Vec::new();
    let mut merged = RadiusCdf::empty();
    for trial in 0..trials {
        let profile =
            run_on_topology(Problem::LargestId, topology, n, &policy.assignment_for_trial(trial))
                .unwrap();
        merged.merge(&profile.cdf());
        pooled.extend_from_slice(profile.radii());
    }
    assert_eq!(row.cdf, RadiusCdf::from_radii(&pooled), "{topology} row vs pooled radii");
    assert_eq!(row.cdf, merged, "{topology} row vs merged per-trial CDFs");
}

/// Checks the ECDF axioms on one distribution with a known observation
/// count.
fn assert_cdf_invariants(cdf: &RadiusCdf, observations: u64) {
    assert_eq!(cdf.observations(), observations);
    let unit = 1.0 / observations as f64;
    let mut previous = 0.0;
    for r in 0..=cdf.max_radius() {
        let f = cdf.fraction_within(r);
        // Monotone, within [0, 1].
        assert!((0.0..=1.0 + 1e-12).contains(&f), "F({r}) = {f}");
        assert!(f >= previous - 1e-12, "F must be non-decreasing at {r}");
        // Right-continuous step function: F(r) = F(r-1) + count(r)/total,
        // i.e. every step height is an integer multiple of 1/(trials * n).
        let step = f - previous;
        let steps = (step / unit).round();
        assert!(
            (step - steps * unit).abs() < 1e-9,
            "step at {r} must be a multiple of 1/observations"
        );
        assert_eq!(steps as u64, cdf.count_at(r), "step at {r} counts the observations there");
        previous = f;
    }
    assert!((previous - 1.0).abs() < 1e-12, "the CDF saturates at 1");
    assert_eq!(cdf.tail(cdf.max_radius()), 0.0);
}

#[test]
fn sweep_row_cdfs_are_valid_ecdfs_across_families() {
    let topologies = [
        Topology::Cycle,
        Topology::CompleteBinaryTree,
        Topology::PreferentialAttachment { m: 2, seed: 13 },
        Topology::gnp_connected(24, 7),
    ];
    for topology in topologies {
        let trials = 3usize;
        let n = 24usize;
        let result = Sweep::on(Problem::LargestId, topology.clone(), vec![n])
            .with_policy(AssignmentPolicy::Random { base_seed: 5 })
            .with_trials(trials)
            .run()
            .unwrap();
        assert_cdf_invariants(&result.rows[0].cdf, (trials * n) as u64);
        assert_row_cdf_matches_pooled_trials(&topology, n, trials, 5);
    }
}

#[test]
fn single_trial_cdf_median_is_bit_identical_to_the_quantile_column() {
    // For a single trial the pooled distribution IS the trial, so its
    // 500-per-mille point must be bit-identical to the median column (the
    // `Measure::Quantile { per_mille: 500 }` value) — same nearest-rank
    // definition, same value, no floating-point slack.
    for (topology, n) in [
        (Topology::Cycle, 17usize),
        (Topology::Grid, 12),
        (Topology::PreferentialAttachment { m: 1, seed: 13 }, 40),
    ] {
        let result = Sweep::on(Problem::LargestId, topology.clone(), vec![n])
            .with_policy(AssignmentPolicy::Random { base_seed: 11 })
            .run()
            .unwrap();
        let row = &result.rows[0];
        assert_eq!(row.cdf.quantile(500), row.median, "{topology}");
        // And both agree with the profile-level quantile of the same trial.
        let profile = run_on_topology(
            Problem::LargestId,
            &topology,
            n,
            &AssignmentPolicy::Random { base_seed: 11 }.assignment_for_trial(0),
        )
        .unwrap();
        assert_eq!(row.median, profile.cdf().quantile(500), "{topology}");
        assert_eq!(row.cdf.mean(), row.average, "{topology}");
    }
}

#[test]
fn preferential_attachment_satisfies_the_handshake_identity() {
    // Degree sum = 2m with the exact BA edge count, at every (n, m, seed).
    for seed in 0u64..6 {
        for m in 1usize..4 {
            for n in [m + 1, 10, 33, 64] {
                let g = generators::preferential_attachment(n, m, &mut StdRng::seed_from_u64(seed))
                    .unwrap();
                assert_eq!(g.node_count(), n, "exact n at ({n}, {m}, {seed})");
                let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
                assert_eq!(degree_sum, 2 * g.edge_count(), "handshake at ({n}, {m}, {seed})");
                let s = n.min(m + 1);
                assert_eq!(
                    g.edge_count(),
                    s * (s - 1) / 2 + (n - s) * m,
                    "exact edge count at ({n}, {m}, {seed})"
                );
                assert!(traversal::is_connected(&g), "connected at ({n}, {m}, {seed})");
            }
        }
    }
}

#[test]
fn hub_topologies_are_deterministic_across_rebuilds() {
    // The Topology wrappers derive per-(seed, n) streams: same seed, same
    // instance; different seeds, different instances (at sizes where a
    // collision would be astronomically unlikely).
    for seed in 0u64..4 {
        let pa = Topology::PreferentialAttachment { m: 2, seed };
        assert_eq!(pa.build(48).unwrap(), pa.build(48).unwrap());
        let plc = Topology::PowerLawConfiguration { gamma: 2.3, seed };
        let build = || plc.build_for(48, ComponentMode::PerComponent).unwrap();
        assert_eq!(build(), build());
    }
    let a = Topology::PreferentialAttachment { m: 2, seed: 0 }.build(64).unwrap();
    let b = Topology::PreferentialAttachment { m: 2, seed: 1 }.build(64).unwrap();
    assert_ne!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The CDF of any radius profile agrees with the profile's own
    /// statistics, and with counts and nearest ranks taken directly off the
    /// radii, at every probe point.
    #[test]
    fn profile_cdf_agrees_with_profile_statistics(
        radii in collection::vec(0usize..30, 1..60)
    ) {
        let profile = RadiusProfile::new(radii.clone());
        let cdf = profile.cdf();
        prop_assert_eq!(cdf.observations(), radii.len() as u64);
        prop_assert_eq!(cdf.max_radius(), profile.max());
        prop_assert!((cdf.mean() - profile.average()).abs() < 1e-12);
        let n = radii.len();
        for r in 0..=profile.max() + 1 {
            let within = radii.iter().filter(|&&x| x <= r).count() as f64 / n as f64;
            prop_assert!((cdf.fraction_within(r) - within).abs() < 1e-12);
        }
        let mut sorted = radii;
        sorted.sort_unstable();
        for per_mille in [0u16, 100, 250, 500, 750, 900, 1000] {
            let rank = (usize::from(per_mille) * (n - 1) + 500) / 1000;
            prop_assert_eq!(cdf.quantile(per_mille), sorted[rank] as f64);
        }
    }

    /// Merging a split of a radius vector equals the distribution of the
    /// whole vector, regardless of the split point.
    #[test]
    fn cdf_merge_equals_pooling(
        radii in collection::vec(0usize..20, 2..50),
        split_seed in 0usize..1000
    ) {
        let split = split_seed % radii.len();
        let mut merged = RadiusCdf::from_radii(&radii[..split]);
        merged.merge(&RadiusCdf::from_radii(&radii[split..]));
        prop_assert_eq!(merged, RadiusCdf::from_radii(&radii));
    }

    /// Preferential-attachment determinism as a property: rebuilding with
    /// the same seed is bit-identical, and the handshake identity holds.
    #[test]
    fn preferential_attachment_properties(n in 1usize..48, m in 1usize..4, seed in 0u64..500) {
        let g1 = generators::preferential_attachment(n, m, &mut StdRng::seed_from_u64(seed)).unwrap();
        let g2 = generators::preferential_attachment(n, m, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(&g1, &g2);
        prop_assert_eq!(g1.node_count(), n);
        let degree_sum: usize = g1.nodes().map(|v| g1.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g1.edge_count());
        prop_assert!(traversal::is_connected(&g1));
    }
}
