//! The Section 3 adversarial construction in action.
//!
//! Builds the paper's permutation π (concatenation of hard slices of radius
//! ½·log*(n/2)) for the landmark colouring and for the largest-ID algorithm,
//! and compares the resulting average radii against random identifiers and
//! against hill-climbing adversaries.
//!
//! Run with: `cargo run -p avglocal-examples --bin lower_bound_adversary`

#![forbid(unsafe_code)]

use avglocal::prelude::*;

fn main() -> Result<(), avglocal::CoreError> {
    let n = 256;
    println!("Adversarial identifier assignments on a ring of {n} nodes\n");

    let mut table = Table::new(
        "average radius under different identifier assignments",
        &["problem", "random ids", "section 3 construction", "hill climbing", "theory lower bound"],
    );

    for problem in [Problem::LandmarkColoring, Problem::LargestId] {
        // Section 4's random-permutation study: one sweep row, 10 samples.
        let random = Sweep::on(problem, Topology::Cycle, vec![n])
            .with_policy(AssignmentPolicy::Random { base_seed: 1 })
            .with_trials(10)
            .run()?;
        let section3 = section3_assignment(problem, n)?;
        let adversarial = run_on_topology(problem, &Topology::Cycle, n, &section3)?;
        let climbed = AdversarySearch::new(problem, Measure::NodeAveraged)
            .hill_climb(n, 2, 60, 7)
            .map(|r| r.objective)?;
        let bound = match problem {
            Problem::LargestId => 0.0,
            _ => theory::coloring_average_lower_bound(n),
        };
        table.push_row(vec![
            problem.to_string(),
            format!("{:.3}", random.rows[0].average),
            format!("{:.3}", adversarial.average()),
            format!("{:.3}", climbed),
            format!("{:.1}", bound),
        ]);
    }

    println!("{table}");
    println!(
        "Reading: for colouring-type problems the adversary cannot push the average below\n\
         Ω(log* n) (Theorem 1) and cannot push Cole-Vishkin above its constant either; for\n\
         the largest-ID problem the adversary (monotone-ish arrangements) pushes the average\n\
         up to Θ(log n), the value predicted by the Section 2 recurrence."
    );
    Ok(())
}
