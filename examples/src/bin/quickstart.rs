//! Quickstart: the paper's headline result on a single ring.
//!
//! Runs the largest-ID algorithm on a 4096-node ring with random identifiers
//! and prints both measures: the classical worst case is `n/2`, the average
//! is logarithmic — an exponential separation. Then shows that 3-colouring
//! stays at a constant handful of rounds under both measures.
//!
//! Run with: `cargo run -p avglocal-examples --bin quickstart`

#![forbid(unsafe_code)]

use avglocal::prelude::*;
use avglocal_examples::print_profile;

fn main() -> Result<(), avglocal::CoreError> {
    let n = 4096;
    println!("avglocal quickstart — ring of {n} nodes, random identifiers (seed 2015)\n");
    let assignment = IdAssignment::Shuffled { seed: 2015 };

    println!("-- Section 2: the largest-ID problem --");
    let largest = run_on_topology(Problem::LargestId, &Topology::Cycle, n, &assignment)?;
    print_profile("largest ID (ball-growing)", &largest);
    println!(
        "paper's prediction:          average ≈ Θ(log n) vs worst case n/2 = {}\n",
        theory::largest_id_worst_case(n)
    );

    println!("-- Section 3: 3-colouring the ring --");
    let coloring = run_on_topology(Problem::ThreeColoring, &Topology::Cycle, n, &assignment)?;
    print_profile("3-colouring (Cole-Vishkin)", &coloring);
    println!(
        "paper's bounds:              Ω(log* n) = {} ≤ average ≤ {} (Cole-Vishkin, 64-bit ids)",
        theory::coloring_average_lower_bound(n),
        theory::cole_vishkin_upper_bound(64)
    );

    // The lazy baselines pay the full saturation radius at every node, so
    // their simulation cost is quadratic; a smaller ring makes the point.
    let small = 256;
    println!("\n-- Baselines with no average/worst-case gap (ring of {small} nodes) --");
    let baseline =
        run_on_topology(Problem::FullInfoLargestId, &Topology::Cycle, small, &assignment)?;
    print_profile("largest ID (full info)", &baseline);
    let leader = run_on_topology(Problem::KnowTheLeader, &Topology::Cycle, small, &assignment)?;
    print_profile("know the leader", &leader);

    Ok(())
}
