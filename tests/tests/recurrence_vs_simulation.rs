//! E2 end-to-end: the Section 2 recurrence, OEIS A000788 and the simulator
//! agree about the worst-case total radius.

use avglocal::analysis::{a000788, recurrence};
use avglocal::prelude::*;

#[test]
fn recurrence_equals_a000788_for_a_wide_range() {
    let a = recurrence::segment_worst_totals(2048);
    for (n, &total) in a.iter().enumerate() {
        assert_eq!(total, a000788::total_bit_count(n as u64), "n={n}");
    }
}

#[test]
fn exhaustive_search_matches_theory_exactly() {
    // For every n we can afford to enumerate, the worst total radius over all
    // identifier permutations equals a(n-1) + floor(n/2).
    for n in 3..=7usize {
        let search = AdversarySearch::new(Problem::LargestId, Measure::Total);
        let result = search.exhaustive(n).unwrap();
        assert_eq!(result.objective as u64, theory::largest_id_worst_total(n), "n={n}");
    }
}

#[test]
fn simulated_totals_never_exceed_theory() {
    for n in [8usize, 16, 33, 64, 128] {
        for seed in 0..5u64 {
            let profile = run_on_topology(
                Problem::LargestId,
                &Topology::Cycle,
                n,
                &IdAssignment::Shuffled { seed },
            )
            .unwrap();
            assert!(
                (profile.total() as u64) <= theory::largest_id_worst_total(n),
                "n={n} seed={seed}"
            );
        }
    }
}

#[test]
fn worst_case_segment_assignment_realises_large_totals_on_the_cycle() {
    // Lay the recurrence's worst-case segment assignment around the cycle
    // (winner gets the largest identifier, the segment follows). The realised
    // total must reach at least the recurrence value — the constructive side
    // of the Θ(n log n) bound.
    for n in [16usize, 32, 64, 128] {
        let segment = recurrence::worst_case_segment_assignment(n - 1);
        // Position 0 is the winner (identifier n-1), positions 1..n hold the
        // segment's identifiers (values 0..n-1 from the recurrence).
        let mut arrangement: Vec<usize> = Vec::with_capacity(n);
        arrangement.push(n - 1);
        arrangement.extend(segment.iter().map(|&x| x as usize));
        let assignment = IdAssignment::from_vec(arrangement).unwrap();
        let profile =
            run_on_topology(Problem::LargestId, &Topology::Cycle, n, &assignment).unwrap();
        let recurrence_total = a000788::total_bit_count(n as u64 - 1) + (n as u64) / 2;
        assert!(
            profile.total() as u64 >= recurrence_total.saturating_sub(n as u64),
            "n={n}: measured {} far below recurrence {}",
            profile.total(),
            recurrence_total
        );
        assert!(profile.total() as u64 <= recurrence_total);
    }
}

#[test]
fn hill_climbing_approaches_the_recurrence_value() {
    let n = 24usize;
    let search = AdversarySearch::new(Problem::LargestId, Measure::Total);
    let climbed = search.hill_climb(n, 3, 150, 9).unwrap();
    let theory_total = theory::largest_id_worst_total(n) as f64;
    assert!(
        climbed.objective >= 0.75 * theory_total,
        "hill climbing reached {} of theoretical {}",
        climbed.objective,
        theory_total
    );
}

#[test]
fn total_radius_grows_superlinearly_under_adversarial_assignments() {
    // The measured worst-ish totals (identity assignment is already Θ(n)) and
    // the theory bound should both grow faster than linear but slower than
    // quadratic.
    let n1 = 256usize;
    let n2 = 1024usize;
    let t1 = theory::largest_id_worst_total(n1) as f64;
    let t2 = theory::largest_id_worst_total(n2) as f64;
    let growth = t2 / t1;
    assert!(growth > 4.0 && growth < 8.0, "growth factor {growth}");
}
