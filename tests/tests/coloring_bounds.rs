//! E3/E4 end-to-end: 3-colouring upper bound (Cole–Vishkin) and lower bound
//! (Theorem 1) under random and adversarial identifier assignments.

use avglocal::algorithms::{landmarks, verify};
use avglocal::prelude::*;
use avglocal_integration_tests::{shuffled_ring, test_sizes};

#[test]
fn cole_vishkin_is_correct_and_constant_across_sizes() {
    for n in test_sizes() {
        let g = shuffled_ring(n, 41);
        let orientation = avglocal::algorithms::RingOrientation::trace(&g).unwrap();
        let algo = avglocal::algorithms::ThreeColorRing::new(orientation);
        let run = SyncExecutor::new().run(&g, &algo, Knowledge::none()).unwrap();
        assert!(verify::is_proper_coloring(&g, &run.outputs(), 3), "n={n}");
        let profile = RadiusProfile::new(run.decision_rounds());
        assert_eq!(profile.max(), theory::cole_vishkin_upper_bound(64), "n={n}");
        assert_eq!(profile.average(), theory::cole_vishkin_upper_bound(64) as f64, "n={n}");
    }
}

#[test]
fn coloring_average_respects_the_lower_bound() {
    // Theorem 1: no 3-colouring algorithm has average radius below
    // ½·log*(n/2). Both our colouring algorithms must respect it under every
    // assignment we try.
    for n in [64usize, 256, 1024] {
        let bound = theory::coloring_average_lower_bound(n);
        // The identity assignment makes the landmark colouring linear-radius
        // (one single landmark), which is slow to simulate at n = 1024, so it
        // is only exercised on the smaller rings.
        let mut assignments =
            vec![IdAssignment::Shuffled { seed: 0 }, IdAssignment::Shuffled { seed: 99 }];
        if n <= 256 {
            assignments.push(IdAssignment::Identity);
        }
        for assignment in assignments {
            let cv =
                run_on_topology(Problem::ThreeColoring, &Topology::Cycle, n, &assignment).unwrap();
            assert!(cv.average() >= bound, "CV at n={n}: {} < {bound}", cv.average());
            let lm = run_on_topology(Problem::LandmarkColoring, &Topology::Cycle, n, &assignment)
                .unwrap();
            assert!(lm.average() >= bound, "landmark at n={n}: {} < {bound}", lm.average());
        }
    }
}

#[test]
fn section3_construction_does_not_fall_below_the_bound() {
    for n in [64usize, 128] {
        for problem in [Problem::ThreeColoring, Problem::LandmarkColoring] {
            let assignment = section3_assignment(problem, n).unwrap();
            let profile = run_on_topology(problem, &Topology::Cycle, n, &assignment).unwrap();
            assert!(
                profile.average() >= theory::coloring_average_lower_bound(n),
                "{problem} at n={n}"
            );
        }
    }
}

#[test]
fn landmark_coloring_is_proper_under_adversarial_assignments() {
    // The hardest case for the landmark colouring is a monotone identifier
    // sequence (a single landmark); validity must not depend on the
    // assignment.
    for n in [16usize, 64, 129] {
        for assignment in [
            IdAssignment::Identity,
            IdAssignment::Reversed,
            IdAssignment::Rotated { shift: 3 },
            IdAssignment::Shuffled { seed: 4 },
        ] {
            let graph = topology_with_assignment(&Topology::Cycle, n, &assignment).unwrap();
            let profile = Problem::LandmarkColoring.run(&graph).unwrap();
            assert_eq!(profile.len(), n);
            let marks = landmarks(&graph);
            assert!(!marks.is_empty());
            if assignment == IdAssignment::Identity {
                assert_eq!(marks.len(), 1);
                // A single landmark forces a linear worst-case radius but the
                // average stays much smaller than n.
                assert!(profile.max() >= n / 2 - 2);
            }
        }
    }
}

#[test]
fn mis_pipeline_is_valid_and_fast_on_all_sizes() {
    for n in test_sizes() {
        let g = shuffled_ring(n, 17);
        let in_set = avglocal::algorithms::run_mis(&g).unwrap();
        assert!(verify::is_maximal_independent_set(&g, &in_set), "n={n}");
        let profile = Problem::Mis.run(&g).unwrap();
        // MIS decides within three rounds of the end of the colouring phase.
        assert!(profile.max() <= theory::cole_vishkin_upper_bound(64) + 3, "n={n}");
    }
}

#[test]
fn full_information_coloring_matches_greedy_baseline() {
    let g = shuffled_ring(48, 23);
    let profile = Problem::FullInfoColoring.run(&g).unwrap();
    assert_eq!(profile.max(), 24);
    assert_eq!(profile.average(), 24.0);
    let colors = avglocal::algorithms::baselines::greedy_coloring(&g);
    assert!(verify::is_proper_coloring(&g, &colors, 3));
}
