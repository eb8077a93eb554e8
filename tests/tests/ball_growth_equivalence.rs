//! Property tests: the incremental [`BallGrower`] is indistinguishable from
//! from-scratch [`extract_ball`] extraction — members, distances, saturation
//! and view fingerprints — at every radius, on every graph family the sweep
//! harness cares about (cycles, paths, trees, grids, Gnp random graphs).

use avglocal::algorithms::LargestId;
use avglocal::graph::{extract_ball, generators, BallGrower};
use avglocal::prelude::*;
use avglocal::runtime::{FrozenExecutor, Knowledge, LocalView};
use avglocal_bench::baselines;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Checks grower == extract_ball for every centre and every radius from 0 to
/// two past saturation, on `g`.
fn assert_grower_matches_extraction(g: &Graph) {
    let csr = g.freeze();
    for center in g.nodes() {
        let mut grower = BallGrower::new(&csr, center);
        let mut radius = 0usize;
        let mut beyond_saturation = 0usize;
        loop {
            let expected = extract_ball(g, center, radius);
            assert_eq!(
                grower.snapshot_ball(),
                expected,
                "ball mismatch at centre {center}, radius {radius}"
            );
            let lazy = LocalView::from_grower(&grower);
            let eager = LocalView::from_ball(&expected);
            assert_eq!(lazy.fingerprint(), eager.fingerprint());
            assert_eq!(lazy.node_count(), eager.node_count());
            assert_eq!(lazy.max_identifier(), eager.max_identifier());
            assert_eq!(lazy.center_degree(), eager.center_degree());
            assert_eq!(lazy.is_saturated(), eager.is_saturated());

            if grower.is_saturated() {
                beyond_saturation += 1;
                if beyond_saturation > 2 {
                    break;
                }
            }
            grower.grow();
            radius += 1;
        }
    }
}

/// Checks that the incremental executor and the from-scratch baseline agree
/// on every radius and output of the largest-ID algorithm on `g`.
fn assert_executors_agree(g: &Graph) {
    let fast = FrozenExecutor::new(g)
        .run(&LargestId, Knowledge::none())
        .expect("largest-ID terminates on every graph");
    let (slow_outputs, slow_radii) = baselines::from_scratch_run(g, &LargestId, Knowledge::none())
        .expect("largest-ID terminates on every graph");
    assert_eq!(fast.radii(), slow_radii);
    assert_eq!(fast.outputs(), slow_outputs);
}

fn shuffled(mut g: Graph, seed: u64) -> Graph {
    IdAssignment::Shuffled { seed }.apply(&mut g).expect("shuffles always fit");
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grower_matches_extraction_on_cycles(n in 3usize..28, seed in 0u64..1000) {
        let g = shuffled(generators::cycle(n).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }

    #[test]
    fn grower_matches_extraction_on_paths(n in 1usize..28, seed in 0u64..1000) {
        let g = shuffled(generators::path(n).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }

    #[test]
    fn grower_matches_extraction_on_random_trees(n in 1usize..24, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = shuffled(generators::random_tree(n, &mut rng).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }

    #[test]
    fn grower_matches_extraction_on_grids(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let g = shuffled(generators::grid(rows, cols).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }

    #[test]
    fn grower_matches_extraction_on_gnp(n in 1usize..20, p_millis in 0usize..1001, seed in 0u64..1000) {
        // Gnp graphs may be disconnected: saturation then happens at the
        // component, which both engines must agree on.
        let p = p_millis as f64 / 1000.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = shuffled(generators::erdos_renyi(n, p, &mut rng).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }

    #[test]
    fn grower_matches_extraction_on_preferential_attachment(
        n in 1usize..24,
        m in 1usize..4,
        seed in 0u64..1000
    ) {
        // Hub-weighted instances stress the grower differently from the
        // near-regular families: one frontier step at a hub pulls in a large
        // fraction of the graph at once.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = shuffled(generators::preferential_attachment(n, m, &mut rng).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }

    #[test]
    fn grower_matches_extraction_on_power_law_configuration(
        n in 1usize..20,
        gamma_tenths in 15usize..35,
        seed in 0u64..1000
    ) {
        // Configuration-model draws may be disconnected (saturation at the
        // component) and carry extreme degree skew.
        let gamma = gamma_tenths as f64 / 10.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = shuffled(generators::power_law_configuration(n, gamma, &mut rng).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }
}
