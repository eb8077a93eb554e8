//! The result tables of experiments E1–E9.
//!
//! Each function builds one table; the `experiments` binary prints them. The
//! `quick` flag shrinks the instance sizes so the same code can run inside
//! `cargo test` in seconds; the full sizes are meant for
//! `cargo run --release`.

use avglocal::analysis::fit::best_model;
use avglocal::analysis::{a000788, recurrence};
use avglocal::prelude::*;
use avglocal::report::fmt_float;
use avglocal::SweepRow;

/// E1 — the exponential separation for the largest-ID problem (Section 2).
///
/// For each ring size: the average radius under random and under identity
/// (adversarial-for-the-average) identifier assignments, the Section 2
/// prediction `(a(n-1) + n/2)/n`, and the worst-case radius `n/2`.
#[must_use]
pub fn table_e1(quick: bool) -> Table {
    let exponents: Vec<u32> =
        if quick { vec![4, 6, 8] } else { vec![4, 5, 6, 7, 8, 9, 10, 11, 12] };
    let trials = if quick { 2 } else { 5 };
    let mut table = Table::new(
        "E1: largest ID on the n-cycle — average vs worst case",
        &[
            "n",
            "avg radius (random ids)",
            "avg radius (identity ids)",
            "worst-case avg (theory)",
            "worst-case radius",
            "separation (worst/avg)",
        ],
    );
    let mut ns = Vec::new();
    let mut averages = Vec::new();
    for &k in &exponents {
        let n = 1usize << k;
        let random = Sweep::on(Problem::LargestId, Topology::Cycle, vec![n])
            .with_policy(AssignmentPolicy::Random { base_seed: 1 })
            .with_trials(trials)
            .run()
            .expect("largest-ID sweep cannot fail on cycles");
        let identity =
            run_on_topology(Problem::LargestId, &Topology::Cycle, n, &IdAssignment::Identity)
                .expect("largest-ID run cannot fail on cycles");
        let row = &random.rows[0];
        ns.push(n as f64);
        averages.push(row.average);
        table.push_row(vec![
            n.to_string(),
            fmt_float(row.average),
            fmt_float(identity.average()),
            fmt_float(theory::largest_id_worst_average(n)),
            format!("{}", theory::largest_id_worst_case(n)),
            format!("{:.1}x", row.separation()),
        ]);
    }
    let model = best_model(&ns, &averages);
    table.push_row(vec![
        "best-fit growth of the measured average".to_string(),
        model.name().to_string(),
    ]);
    table
}

/// E2 — the worst-case total radius recurrence `a(n)` (Section 2).
///
/// Checks that the dynamic program, OEIS A000788 and the `½·n·log2 n`
/// envelope agree, and that the simulator's adversarial search reaches the
/// predicted worst-case total `a(n-1) + ⌊n/2⌋`.
#[must_use]
pub fn table_e2(quick: bool) -> Table {
    let sizes: Vec<usize> =
        if quick { vec![4, 16, 64] } else { vec![4, 8, 16, 32, 64, 256, 1024, 4096] };
    let mut table = Table::new(
        "E2: the recurrence a(n) for the worst-case total radius",
        &[
            "n",
            "a(n) (recurrence)",
            "A000788(n)",
            "0.5 n log2 n",
            "worst total on n-cycle (theory)",
            "worst total found by search",
        ],
    );
    let max_n = *sizes.iter().max().expect("sizes is non-empty");
    let a = recurrence::segment_worst_totals(max_n);
    for &n in &sizes {
        let searched = if n <= 7 {
            let result = AdversarySearch::new(Problem::LargestId, Measure::Total)
                .exhaustive(n)
                .expect("exhaustive search works for n <= 8");
            format!("{} (exhaustive)", result.objective)
        } else if n <= 64 {
            let result = AdversarySearch::new(Problem::LargestId, Measure::Total)
                .hill_climb(n, 2, if quick { 40 } else { 200 }, 17)
                .expect("hill climbing works for n >= 3");
            format!("{} (hill climb)", result.objective)
        } else {
            "-".to_string()
        };
        table.push_row(vec![
            n.to_string(),
            a[n].to_string(),
            a000788::total_bit_count(n as u64).to_string(),
            fmt_float(a000788::asymptotic_estimate(n as u64)),
            theory::largest_id_worst_total(n).to_string(),
            searched,
        ]);
    }
    table
}

/// E3 — the Cole–Vishkin upper bound for 3-colouring (Section 3).
///
/// Shows that both measures stay bounded by the `log*`-type constant over
/// four orders of magnitude of `n`, while the landmark colouring (variable
/// radius) stays small on average but not in the worst case.
#[must_use]
pub fn table_e3(quick: bool) -> Table {
    let exponents: Vec<u32> = if quick { vec![4, 6, 8] } else { vec![4, 6, 8, 10, 12, 14, 16] };
    let mut table = Table::new(
        "E3: 3-colouring the n-ring — radii vs log* n",
        &[
            "n",
            "CV avg radius",
            "CV max radius",
            "landmark avg",
            "landmark max",
            "log*(n)",
            "lower bound (Thm 1)",
            "CV upper bound",
        ],
    );
    for &k in &exponents {
        let n = 1usize << k;
        let assignment = IdAssignment::Shuffled { seed: 3 };
        let cv = run_on_topology(Problem::ThreeColoring, &Topology::Cycle, n, &assignment)
            .expect("Cole-Vishkin runs on every cycle");
        let landmark = run_on_topology(Problem::LandmarkColoring, &Topology::Cycle, n, &assignment)
            .expect("landmark colouring runs on every cycle");
        table.push_row(vec![
            n.to_string(),
            fmt_float(cv.average()),
            cv.max().to_string(),
            fmt_float(landmark.average()),
            landmark.max().to_string(),
            theory::log_star_of(n).to_string(),
            fmt_float(theory::coloring_average_lower_bound(n)),
            theory::cole_vishkin_upper_bound(64).to_string(),
        ]);
    }
    table
}

/// The Section 4 random-permutation study on the `n`-cycle: one sweep row
/// with one uniformly random identifier permutation per sample.
fn random_study(problem: Problem, n: usize, samples: usize, base_seed: u64) -> SweepRow {
    Sweep::on(problem, Topology::Cycle, vec![n])
        .with_policy(AssignmentPolicy::Random { base_seed })
        .with_trials(samples)
        .run()
        .expect("the random-permutation study runs on cycles")
        .rows
        .remove(0)
}

/// E4 — the Theorem 1 lower bound: adversarial identifier assignments cannot
/// push the average colouring radius below `Ω(log* n)`, and the Section 3
/// slice construction produces such hard assignments.
#[must_use]
pub fn table_e4(quick: bool) -> Table {
    let sizes: Vec<usize> = if quick { vec![32, 64] } else { vec![64, 128, 256, 512] };
    let mut table = Table::new(
        "E4: adversarial assignments for colouring (Theorem 1)",
        &[
            "n",
            "algorithm",
            "avg radius (random ids)",
            "avg radius (section 3 pi)",
            "avg radius (hill climb)",
            "lower bound 0.5 log*(n/2)",
        ],
    );
    for &n in &sizes {
        for problem in [Problem::LandmarkColoring, Problem::ThreeColoring] {
            let random = random_study(problem, n, if quick { 3 } else { 8 }, 5);
            let section3 = section3_assignment(problem, n)
                .and_then(|a| run_on_topology(problem, &Topology::Cycle, n, &a))
                .expect("section 3 construction runs on cycles");
            let climbed = AdversarySearch::new(problem, Measure::NodeAveraged)
                .hill_climb(n, 1, if quick { 20 } else { 80 }, 11)
                .expect("hill climbing runs on cycles");
            table.push_row(vec![
                n.to_string(),
                problem.to_string(),
                fmt_float(random.average),
                fmt_float(section3.average()),
                fmt_float(climbed.objective),
                fmt_float(theory::coloring_average_lower_bound(n)),
            ]);
        }
    }
    table
}

/// E5 — the Section 4 "further work" question: both measures under uniformly
/// random identifier permutations.
#[must_use]
pub fn table_e5(quick: bool) -> Table {
    let exponents: Vec<u32> = if quick { vec![5, 7] } else { vec![6, 8, 10, 12] };
    let samples = if quick { 5 } else { 20 };
    let mut table = Table::new(
        "E5: largest ID under uniformly random identifiers",
        &[
            "n",
            "samples",
            "mean avg radius",
            "95% CI",
            "expected (theory)",
            "mean worst-case radius",
            "worst-case avg (adversarial theory)",
        ],
    );
    for &k in &exponents {
        let n = 1usize << k;
        let study = random_study(Problem::LargestId, n, samples, 23);
        table.push_row(vec![
            n.to_string(),
            samples.to_string(),
            fmt_float(study.average),
            format!("±{}", fmt_float(study.average_summary.confidence_95())),
            fmt_float(theory::largest_id_random_average(n)),
            fmt_float(study.worst_case),
            fmt_float(theory::largest_id_worst_average(n)),
        ]);
    }
    table
}

/// E6 — the motivating applications of Section 1: parallel replay makespan
/// and dynamic-update cost, per algorithm.
#[must_use]
pub fn table_e6(quick: bool) -> Table {
    let n = if quick { 64 } else { 256 };
    let workers = 16;
    let assignment = IdAssignment::Shuffled { seed: 31 };
    let mut table = Table::new(
        "E6: applications — parallel replay and dynamic updates",
        &[
            "algorithm",
            "avg radius",
            "max radius",
            "makespan (16 workers)",
            "makespan lower bound",
            "expected invalidated nodes",
        ],
    );
    for problem in [
        Problem::LargestId,
        Problem::FullInfoLargestId,
        Problem::ThreeColoring,
        Problem::LandmarkColoring,
        Problem::KnowTheLeader,
    ] {
        let profile = run_on_topology(problem, &Topology::Cycle, n, &assignment)
            .expect("all problems run on cycles");
        let outcome = schedule_radii(&profile, workers);
        table.push_row(vec![
            problem.to_string(),
            fmt_float(profile.average()),
            profile.max().to_string(),
            outcome.makespan.to_string(),
            outcome.lower_bound.to_string(),
            fmt_float(expected_invalidated_nodes(&profile)),
        ]);
    }
    table
}

/// A named topology family, parameterised by the instance size (so `G(n, p)`
/// can scale its edge probability with `n`).
type TopologyFamily = (&'static str, fn(usize) -> Topology);

/// The topology families swept by E7, with a `G(n, p)` family seeded above
/// the connectivity threshold for every size the table uses.
fn e7_topologies() -> Vec<TopologyFamily> {
    vec![
        ("cycle", |_n| Topology::Cycle),
        ("path", |_n| Topology::Path),
        ("tree", |_n| Topology::CompleteBinaryTree),
        ("grid", |_n| Topology::Grid),
        ("torus", |_n| Topology::Torus),
        ("gnp", |n| Topology::gnp_connected(n, 7)),
    ]
}

/// E7 — node-averaged complexity beyond the ring (the BGKO line).
///
/// The paper proves its separation on the cycle; the follow-up work
/// (Feuilloley 2017, Rozhoň 2023) asks how the node-averaged measure behaves
/// on trees, grids and general graphs. For each topology family and size:
/// the average and worst-case radius of the largest-ID problem under random
/// identifiers, and the separation factor. Low-diameter families (trees,
/// `G(n, p)`) compress the worst case, so the separation shrinks — the
/// qualitative shape the table is after.
#[must_use]
pub fn table_e7(quick: bool) -> Table {
    let sizes: Vec<usize> = if quick { vec![16, 64] } else { vec![64, 256, 1024] };
    let trials = if quick { 2 } else { 5 };
    let mut table = Table::new(
        "E7: largest ID across topologies — node-averaged vs worst case",
        &[
            "topology",
            "n",
            "avg radius (random ids)",
            "worst-case radius",
            "total radius",
            "separation (worst/avg)",
        ],
    );
    for (name, family) in e7_topologies() {
        for &n in &sizes {
            let topology = family(n);
            let result = Sweep::on(Problem::LargestId, topology, vec![n])
                .with_policy(AssignmentPolicy::Random { base_seed: 11 })
                .with_trials(trials)
                .run()
                .expect("largest-ID sweep runs on every connected E7 topology");
            let row = &result.rows[0];
            table.push_row(vec![
                name.to_string(),
                n.to_string(),
                fmt_float(row.average),
                fmt_float(row.worst_case),
                fmt_float(row.total),
                format!("{:.1}x", row.separation()),
            ]);
        }
    }
    table
}

/// Figure F3 — the E7 node-averaged curves: the average largest-ID radius per
/// topology family as the size grows. The ring and the path sit on the
/// paper's logarithmic curve; the low-diameter families stay flat.
#[must_use]
pub fn figure_f3(quick: bool) -> String {
    let sizes: Vec<usize> = if quick { vec![16, 64] } else { vec![64, 256, 1024] };
    let labels: Vec<String> = sizes.iter().map(ToString::to_string).collect();
    let mut series = Vec::new();
    for (name, family) in e7_topologies() {
        let mut averages = Vec::new();
        for &n in &sizes {
            let profile = run_on_topology(
                Problem::LargestId,
                &family(n),
                n,
                &IdAssignment::Shuffled { seed: 1 },
            )
            .expect("largest ID runs on every connected E7 topology");
            averages.push(profile.average());
        }
        series.push(avglocal::figure::Series::new(format!("{name} average radius"), averages));
    }
    avglocal::figure::AsciiChart::new("F3: largest-ID average radius across topologies", labels)
        .with_height(12)
        .render(&series)
}

/// Figure F1 — the E1 separation as an ASCII chart: the measured average
/// radius (random identifiers) versus the worst-case-over-permutations
/// average and the classical worst case, on a shared linear scale. The
/// worst-case curve dwarfing the two average curves *is* the paper's
/// exponential separation.
#[must_use]
pub fn figure_f1(quick: bool) -> String {
    let exponents: Vec<u32> = if quick { vec![4, 6, 8] } else { vec![4, 6, 8, 10, 12] };
    let mut labels = Vec::new();
    let mut measured = Vec::new();
    let mut theory_avg = Vec::new();
    let mut worst = Vec::new();
    for &k in &exponents {
        let n = 1usize << k;
        labels.push(format!("2^{k}"));
        let profile = run_on_topology(
            Problem::LargestId,
            &Topology::Cycle,
            n,
            &IdAssignment::Shuffled { seed: 1 },
        )
        .expect("largest ID runs on every cycle");
        measured.push(profile.average());
        theory_avg.push(theory::largest_id_worst_average(n));
        worst.push(theory::largest_id_worst_case(n) as f64);
    }
    avglocal::figure::AsciiChart::new("F1: largest ID — average vs worst case", labels)
        .with_height(14)
        .render(&[
            avglocal::figure::Series::new("measured average (random ids)", measured),
            avglocal::figure::Series::new("worst-case average (theory)", theory_avg),
            avglocal::figure::Series::new("worst-case radius n/2", worst),
        ])
}

/// Figure F2 — the E3 curves: Cole–Vishkin and landmark-colouring radii stay
/// flat next to `log* n` while the ring grows by orders of magnitude.
#[must_use]
pub fn figure_f2(quick: bool) -> String {
    let exponents: Vec<u32> = if quick { vec![4, 6, 8] } else { vec![4, 7, 10, 13, 16] };
    let mut labels = Vec::new();
    let mut cv = Vec::new();
    let mut landmark = Vec::new();
    let mut logstar = Vec::new();
    for &k in &exponents {
        let n = 1usize << k;
        labels.push(format!("2^{k}"));
        let assignment = IdAssignment::Shuffled { seed: 3 };
        cv.push(
            run_on_topology(Problem::ThreeColoring, &Topology::Cycle, n, &assignment)
                .expect("Cole-Vishkin runs on every cycle")
                .average(),
        );
        landmark.push(
            run_on_topology(Problem::LandmarkColoring, &Topology::Cycle, n, &assignment)
                .expect("landmark colouring runs on every cycle")
                .average(),
        );
        logstar.push(f64::from(theory::log_star_of(n)));
    }
    avglocal::figure::AsciiChart::new("F2: 3-colouring radii vs log* n", labels)
        .with_height(10)
        .render(&[
            avglocal::figure::Series::new("Cole-Vishkin average radius", cv),
            avglocal::figure::Series::new("landmark-colouring average radius", landmark),
            avglocal::figure::Series::new("log*(n)", logstar),
        ])
}

/// The E8 sizes of the adversarial-cycle section.
fn e8_exponents(quick: bool) -> Vec<u32> {
    if quick {
        vec![4, 6, 8]
    } else {
        vec![4, 6, 8, 10, 12]
    }
}

/// Formats the `worst/node` separation column.
fn fmt_ratio(numerator: f64, denominator: f64) -> String {
    if denominator == 0.0 {
        "-".to_string()
    } else {
        format!("{:.1}x", numerator / denominator)
    }
}

/// One E8 table row: every measure of a sweep row under the given setting
/// label. Single definition, so the table's columns cannot drift between
/// the three sections.
fn e8_row(setting: String, row: &SweepRow) -> Vec<String> {
    vec![
        setting,
        row.n.to_string(),
        fmt_float(row.average),
        fmt_float(row.edge_averaged),
        fmt_float(row.median),
        fmt_float(row.worst_case),
        fmt_ratio(row.worst_case, row.average),
        fmt_ratio(row.edge_averaged, row.average),
        row.components.to_string(),
    ]
}

/// E8 — the measure layer: node-averaged vs edge-averaged vs worst case.
///
/// Three sections, all fed by **one execution per row** (the sweep layer
/// folds every measure out of the same radius vector):
///
/// 1. *Adversarial cycle* (identity identifiers): the worst case grows as
///    `Θ(n)` (the winner sees half the ring) while the node-averaged,
///    edge-averaged and median radii all stay `O(1)` — the cycle is
///    2-regular, so the edge average is sandwiched within a factor of two of
///    the node average and inherits the paper's separation against the worst
///    case.
/// 2. *Topology families* under random identifiers: the `edge/node` column
///    stays in `[1, 2]` for the regular families (cycle, torus) and drifts
///    inside the same band for the others — bounded degree keeps the two
///    averages glued together.
/// 3. *Subcritical `G(n, p)`* in per-component mode: isolated nodes dilute
///    the node average but not the edge average, so `edge/node` detaches —
///    the measures genuinely disagree once the instance falls apart.
#[must_use]
pub fn table_e8(quick: bool) -> Table {
    let mut table = Table::new(
        "E8: measures compared — node-averaged vs edge-averaged vs worst case",
        &[
            "setting",
            "n",
            "node avg",
            "edge avg (max)",
            "median",
            "worst case",
            "worst/node",
            "edge/node",
            "components",
        ],
    );
    // Section 1: the adversarial identity cycle.
    for &k in &e8_exponents(quick) {
        let n = 1usize << k;
        let result = Sweep::on(Problem::LargestId, Topology::Cycle, vec![n])
            .with_policy(AssignmentPolicy::Fixed(IdAssignment::Identity))
            .run()
            .expect("largest-ID sweep cannot fail on cycles");
        table.push_row(e8_row("cycle, identity ids".to_string(), &result.rows[0]));
    }
    // Section 2: every topology family under random identifiers.
    let n = if quick { 64 } else { 1024 };
    let trials = if quick { 2 } else { 3 };
    for (name, family) in e7_topologies() {
        let result = Sweep::on(Problem::LargestId, family(n), vec![n])
            .with_policy(AssignmentPolicy::Random { base_seed: 17 })
            .with_trials(trials)
            .run()
            .expect("largest-ID sweep runs on every connected E8 topology");
        table.push_row(e8_row(format!("{name}, random ids"), &result.rows[0]));
    }
    // Section 3: subcritical G(n, p), per-component semantics.
    let n = if quick { 64 } else { 256 };
    let p = 1.0 / n as f64; // well below the ln(n)/n connectivity threshold
    let result = Sweep::on(Problem::LargestId, Topology::Gnp { p, seed: 13 }, vec![n])
        .with_policy(AssignmentPolicy::Random { base_seed: 23 })
        .with_trials(trials)
        .with_component_mode(ComponentMode::PerComponent)
        .run()
        .expect("per-component sweeps accept disconnected G(n, p)");
    table.push_row(e8_row("gnp subcritical, per-component".to_string(), &result.rows[0]));
    table
}

/// Figure F4 — the E8 separation: on the adversarial identity cycle the
/// worst-case radius grows linearly while the node-averaged, edge-averaged
/// and median radii all stay flat. The averaged curves hugging the x-axis
/// under the worst-case diagonal *is* the measure-layer separation.
#[must_use]
pub fn figure_f4(quick: bool) -> String {
    let mut labels = Vec::new();
    let mut node_avg = Vec::new();
    let mut edge_avg = Vec::new();
    let mut median = Vec::new();
    let mut worst = Vec::new();
    for &k in &e8_exponents(quick) {
        let n = 1usize << k;
        labels.push(format!("2^{k}"));
        let result = Sweep::on(Problem::LargestId, Topology::Cycle, vec![n])
            .with_policy(AssignmentPolicy::Fixed(IdAssignment::Identity))
            .run()
            .expect("largest-ID sweep cannot fail on cycles");
        let row = &result.rows[0];
        node_avg.push(row.average);
        edge_avg.push(row.edge_averaged);
        median.push(row.median);
        worst.push(row.worst_case);
    }
    avglocal::figure::AsciiChart::new(
        "F4: measures on the adversarial cycle — averages flat, worst case linear",
        labels,
    )
    .with_height(14)
    .render(&[
        avglocal::figure::Series::new("node-averaged radius", node_avg),
        avglocal::figure::Series::new("edge-averaged radius (max)", edge_avg),
        avglocal::figure::Series::new("median radius", median),
        avglocal::figure::Series::new("worst-case radius", worst),
    ])
}

/// The two hub-weighted families E9 studies, with the seeds committed after
/// a determinism scan: both build **connected** instances at every size the
/// table uses (preferential attachment by construction, the configuration
/// model through the redraw loop), and both detach the averaged measures
/// under the hub adversary.
fn e9_families() -> Vec<(&'static str, Topology, Vec<usize>, Vec<usize>)> {
    vec![
        // (label, family, quick sizes, full sizes)
        (
            "pa tree",
            Topology::PreferentialAttachment { m: 1, seed: 13 },
            vec![64],
            vec![64, 128, 256],
        ),
        (
            "powerlaw",
            Topology::PowerLawConfiguration { gamma: 2.5, seed: 11 },
            vec![64],
            vec![64, 128],
        ),
    ]
}

/// One E9 row from a [`SweepRow`]: the measure columns plus the
/// hub-specific ones (the max-degree node's degree and radius, and the
/// degree-weighted node average — which is exactly the mean-endpoint edge
/// average).
fn e9_row(setting: String, row: &SweepRow, hub_degree: usize, hub_radius: usize) -> Vec<String> {
    vec![
        setting,
        row.n.to_string(),
        fmt_float(row.average),
        fmt_float(row.edge_averaged),
        fmt_ratio(row.edge_averaged, row.average),
        fmt_float(row.edge_averaged_mean),
        hub_degree.to_string(),
        hub_radius.to_string(),
        fmt_float(row.median),
        fmt_float(row.worst_case),
        row.components.to_string(),
    ]
}

/// The [`e9_row`] shape from a single-execution [`MeasureSet`] (the hub
/// adversary is one fixed assignment, so its rows are one run each). The
/// instance came from `Topology::build`, which guarantees connectivity —
/// the components column is 1 by contract.
fn e9_measure_row(
    setting: String,
    set: &MeasureSet,
    hub_degree: usize,
    hub_radius: usize,
) -> Vec<String> {
    vec![
        setting,
        set.nodes.to_string(),
        fmt_float(set.node_averaged),
        fmt_float(set.edge_averaged),
        fmt_ratio(set.edge_averaged, set.node_averaged),
        fmt_float(set.edge_averaged_mean),
        hub_degree.to_string(),
        hub_radius.to_string(),
        fmt_float(set.median),
        fmt_float(set.worst_case),
        "1".to_string(),
    ]
}

/// Runs the hub adversary once on one instance of `topology` and folds
/// every measure (including the CDF) out of the single execution: one
/// build, one run — the same fold a one-trial sweep performs, without
/// re-building the deterministic instance. Returns the measures together
/// with the hub's degree and radius.
fn e9_hub_sweep(topology: &Topology, n: usize) -> (MeasureSet, usize, usize) {
    let mut graph =
        topology.build(n).expect("E9 families build connected instances at table sizes");
    // The adversary module owns the crowning rule; the report must describe
    // the same node that receives the maximum identifier.
    let hub = top_hub(&graph).expect("E9 instances are non-empty");
    let hub_degree = graph.degree(hub);
    let assignment =
        hub_adversarial_assignment(&graph).expect("the hub adversary works on non-empty graphs");
    assignment.apply(&mut graph).expect("the hub adversary is a valid permutation");
    let profile =
        Problem::LargestId.run(&graph).expect("largest ID runs on every connected family");
    let hub_radius = profile.radius(hub).expect("the hub has a radius");
    (MeasureSet::of(&profile, &graph), hub_degree, hub_radius)
}

/// E9 — hub-weighted families: the node/edge-averaged detachment while
/// connected.
///
/// Every family E7/E8 sweep is near-regular, so the bounded-degree sandwich
/// pins the edge-averaged measure within `[1, 2]x` the node-averaged one;
/// the only detachment E8 could show needed a *disconnected* instance
/// (isolated nodes dilute the node average). E9 closes the gap from the
/// other side, exactly as the BGKO line predicts: on a **connected**
/// hub-weighted family the two averages detach because a hub weighs once in
/// the node average but `deg(hub)` times in the edge average.
///
/// Three sections:
///
/// 1. *Hub adversary on hub families* ([`hub_adversarial_assignment`]): the
///    top identifiers sit on pairwise-far hubs, so every non-hub node stops
///    at radius 1 while each hub pays its separation (the top hub its full
///    eccentricity). The `edge/node` column exceeds the sandwich bound of 2
///    with a single connected component — the acceptance row.
/// 2. *The same adversary on the cycle*: 2-regularity keeps the ratio inside
///    `[1, 2]` no matter how adversarial the assignment — the sandwich is a
///    property of the family, not of the adversary.
/// 3. *Hub families under random identifiers*: hubs see a huge radius-1
///    neighbourhood and stop almost immediately, so the degree-weighted
///    average drops *below* the node average — the opposite-signed
///    detachment, also invisible on regular families.
#[must_use]
pub fn table_e9(quick: bool) -> Table {
    let mut table = Table::new(
        "E9: hub-weighted families — edge/node detachment while connected",
        &[
            "setting",
            "n",
            "node avg",
            "edge avg (max)",
            "edge/node",
            "deg-wtd avg",
            "hub degree",
            "hub radius",
            "median",
            "worst case",
            "components",
        ],
    );
    // Section 1: the hub adversary on the hub-weighted families.
    for (name, topology, quick_sizes, full_sizes) in e9_families() {
        for &n in if quick { &quick_sizes } else { &full_sizes } {
            let (set, hub_degree, hub_radius) = e9_hub_sweep(&topology, n);
            table.push_row(e9_measure_row(
                format!("{name}, hub adversary"),
                &set,
                hub_degree,
                hub_radius,
            ));
        }
    }
    // Section 2: the same adversary cannot escape the sandwich on the cycle.
    let n = if quick { 64 } else { 256 };
    let (set, hub_degree, hub_radius) = e9_hub_sweep(&Topology::Cycle, n);
    table.push_row(e9_measure_row(
        "cycle, hub adversary".to_string(),
        &set,
        hub_degree,
        hub_radius,
    ));
    // Section 3: random identifiers on the hub families — hubs decide early,
    // the degree-weighted average drops below the node average. The hub
    // radius column comes from trial 0 of the SAME policy the sweep runs
    // (`assignment_for_trial` derives the per-trial seed), so it is one of
    // the executions the averaged columns actually aggregate.
    let trials = if quick { 2 } else { 3 };
    let policy = AssignmentPolicy::Random { base_seed: 29 };
    for (name, topology, quick_sizes, full_sizes) in e9_families() {
        let n = *if quick { &quick_sizes } else { &full_sizes }.last().expect("sizes non-empty");
        let base = topology.build(n).expect("E9 families build connected instances");
        let hub = top_hub(&base).expect("E9 instances are non-empty");
        let profile =
            run_on_topology(Problem::LargestId, &topology, n, &policy.assignment_for_trial(0))
                .expect("largest ID runs on every connected family");
        let result = Sweep::on(Problem::LargestId, topology.clone(), vec![n])
            .with_policy(policy.clone())
            .with_trials(trials)
            .run()
            .expect("largest-ID sweeps run on every connected family");
        table.push_row(e9_row(
            format!("{name}, random ids"),
            &result.rows[0],
            base.degree(hub),
            profile.radius(hub).expect("the hub has a radius"),
        ));
    }
    table
}

/// Figure F5 — radius CDF curves across families at a fixed size: the full
/// distribution behind every scalar column of E7/E8/E9. Regular families
/// rise in lock-step; the hub-adversary curve jumps to ~1 at radius 1 and
/// then shelves — the handful of far-apart hubs still running long after
/// the whole network has finished *is* the hub detachment, seen as a
/// distribution instead of a ratio.
#[must_use]
pub fn figure_f5(quick: bool) -> String {
    let n = if quick { 64 } else { 256 };
    let trials = if quick { 2 } else { 3 };
    let mut curves: Vec<(String, avglocal::RadiusCdf)> = Vec::new();
    for (name, family) in [
        ("cycle", Topology::Cycle),
        ("tree", Topology::CompleteBinaryTree),
        ("grid", Topology::Grid),
    ] {
        let result = Sweep::on(Problem::LargestId, family, vec![n])
            .with_policy(AssignmentPolicy::Random { base_seed: 31 })
            .with_trials(trials)
            .run()
            .expect("largest-ID sweeps run on every deterministic family");
        let mut rows = result.rows;
        curves.push((format!("{name} (random ids)"), rows.remove(0).cdf));
    }
    let pa = Topology::PreferentialAttachment { m: 1, seed: 13 };
    let result = Sweep::on(Problem::LargestId, pa.clone(), vec![n])
        .with_policy(AssignmentPolicy::Random { base_seed: 31 })
        .with_trials(trials)
        .run()
        .expect("largest-ID sweeps run on preferential attachment");
    let mut rows = result.rows;
    curves.push(("pa tree (random ids)".to_string(), rows.remove(0).cdf));
    let (set, _, _) = e9_hub_sweep(&pa, n);
    curves.push(("pa tree (hub adversary)".to_string(), set.cdf));
    let series: Vec<(String, &avglocal::RadiusCdf)> =
        curves.iter().map(|(name, cdf)| (name.clone(), cdf)).collect();
    avglocal::figure::cdf_chart(&format!("F5: radius CDFs across families at n = {n}"), &series, 14)
}

/// Every experiment table builder, in experiment order: `TABLES[k - 1]`
/// builds the table of experiment E`k`.
pub const TABLES: [fn(bool) -> Table; 9] =
    [table_e1, table_e2, table_e3, table_e4, table_e5, table_e6, table_e7, table_e8, table_e9];

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal::analysis::fit::GrowthModel;

    #[test]
    fn e1_quick_has_expected_shape() {
        let t = table_e1(true);
        assert!(t.row_count() >= 4);
        assert!(t.to_text().contains("E1"));
        // The paper's claim: the average radius grows as Θ(log n).
        let csv = t.to_csv();
        let fit = csv.lines().last().expect("the fit row closes the table");
        assert!(fit.starts_with("best-fit growth of the measured average,"), "{fit}");
        assert_eq!(fit.split(',').nth(1), Some(GrowthModel::Logarithmic.name()));
    }

    #[test]
    fn e2_quick_matches_oeis() {
        let t = table_e2(true);
        let csv = t.to_csv();
        // a(16) = A000788(16) = 33 appears in both columns.
        assert!(csv.contains("16,33,33"));
    }

    #[test]
    fn e3_quick_contains_log_star() {
        let t = table_e3(true);
        assert_eq!(t.row_count(), 3);
        assert!(t.to_text().contains("log*"));
    }

    #[test]
    fn e5_and_e6_quick_render() {
        assert!(table_e5(true).row_count() >= 2);
        assert_eq!(table_e6(true).row_count(), 5);
    }

    #[test]
    fn e7_quick_covers_every_topology() {
        let t = table_e7(true);
        // Two sizes per family.
        assert_eq!(t.row_count(), 12);
        let text = t.to_text();
        for name in ["cycle", "path", "tree", "grid", "torus", "gnp"] {
            assert!(text.contains(name), "missing {name}");
        }
    }

    #[test]
    fn e7_cycle_rows_match_the_independent_cycle_run() {
        // The cross-topology sweep on Topology::Cycle must agree with an
        // independently reconstructed per-trial aggregate built from single
        // run_on_topology calls. (The full bit-for-bit property
        // test lives in tests/tests/topology_sweeps.rs.)
        let n = 16;
        let policy = AssignmentPolicy::Random { base_seed: 11 };
        let via_topology = Sweep::on(Problem::LargestId, Topology::Cycle, vec![n])
            .with_policy(policy.clone())
            .with_trials(2)
            .run()
            .unwrap();
        let mut worst_sum = 0.0;
        let mut average_sum = 0.0;
        for trial in 0..2 {
            let profile = run_on_topology(
                Problem::LargestId,
                &Topology::Cycle,
                n,
                &policy.assignment_for_trial(trial),
            )
            .unwrap();
            worst_sum += profile.max() as f64;
            average_sum += profile.average();
        }
        assert_eq!(via_topology.rows[0].worst_case, worst_sum / 2.0);
        assert_eq!(via_topology.rows[0].average, average_sum / 2.0);
    }

    #[test]
    fn e8_shows_the_measure_separation() {
        let t = table_e8(true);
        // 3 identity-cycle sizes + 6 families + 1 per-component row.
        assert_eq!(t.row_count(), 10);
        let text = t.to_text();
        assert!(text.contains("per-component"));
        assert!(text.contains("identity"));
        // The adversarial identity cycle: worst case grows linearly with n
        // while node average, edge average and median stay O(1) — check the
        // numbers directly on the underlying sweep.
        let mut last_separation = 0.0;
        for &k in &[4u32, 6, 8] {
            let n = 1usize << k;
            let result = Sweep::on(Problem::LargestId, Topology::Cycle, vec![n])
                .with_policy(AssignmentPolicy::Fixed(IdAssignment::Identity))
                .run()
                .unwrap();
            let row = &result.rows[0];
            assert_eq!(row.worst_case, (n / 2) as f64, "worst case is Θ(n)");
            assert!(row.average < 2.0, "node average stays O(1), got {}", row.average);
            assert!(row.edge_averaged < 3.0, "edge average stays O(1) on the 2-regular cycle");
            assert_eq!(row.median, 1.0, "the ordinary node stops at radius 1");
            // The 2-regular sandwich: node avg <= edge avg (max) <= 2x.
            assert!(row.edge_averaged >= row.average - 1e-12);
            assert!(row.edge_averaged <= 2.0 * row.average + 1e-12);
            // The worst/average separation grows with n.
            assert!(row.separation() > last_separation);
            last_separation = row.separation();
        }
    }

    #[test]
    fn e8_per_component_row_detaches_the_averages() {
        // Subcritical G(n, p): isolated nodes dilute the node average but
        // not the edge average, so the edge/node ratio exceeds the
        // bounded-degree sandwich bound of 2. (p = 0.5/n leaves a good half
        // of the nodes isolated.)
        let n = 64;
        let result =
            Sweep::on(Problem::LargestId, Topology::Gnp { p: 0.5 / n as f64, seed: 13 }, vec![n])
                .with_policy(AssignmentPolicy::Random { base_seed: 23 })
                .with_trials(2)
                .with_component_mode(ComponentMode::PerComponent)
                .run()
                .unwrap();
        let row = &result.rows[0];
        assert!(row.components > 1, "the subcritical instance must fall apart");
        assert!(
            row.edge_averaged > 2.0 * row.average,
            "isolated nodes must detach the averages: edge {} vs node {}",
            row.edge_averaged,
            row.average
        );
    }

    #[test]
    fn e9_detaches_the_averages_on_connected_hub_families() {
        // The acceptance row of the hub line: on every committed
        // hub-weighted family the edge/node ratio escapes the regular-family
        // sandwich bound of 2 with a SINGLE connected component, at every
        // size the quick table uses.
        for (name, topology, quick_sizes, _) in e9_families() {
            for &n in &quick_sizes {
                // Topology::build promises connectivity for these families;
                // verify it — the whole point of E9 is a detachment WITHOUT
                // falling apart.
                let instance = topology.build(n).unwrap();
                assert!(
                    avglocal::graph::traversal::is_connected(&instance),
                    "{name} must stay connected at n={n}"
                );
                let (set, hub_degree, hub_radius) = e9_hub_sweep(&topology, n);
                assert_eq!(set.nodes, n);
                assert!(
                    set.edge_averaged > 2.0 * set.node_averaged,
                    "{name} at n={n} must escape the sandwich: edge {} vs node {}",
                    set.edge_averaged,
                    set.node_averaged
                );
                // The hub genuinely is a hub and genuinely pays: its degree
                // dwarfs the tree's mean of ~2 and its radius is its full
                // eccentricity (>= the enforced hub separation).
                assert!(hub_degree >= 10, "{name} hub degree {hub_degree}");
                assert!(
                    hub_radius >= avglocal::adversary::HUB_ADVERSARY_SEPARATION,
                    "{name} hub radius {hub_radius}"
                );
                // The execution's distribution tells the same story: almost
                // every node has output by radius 1, yet a few hubs run on.
                assert!(set.cdf.fraction_within(1) > 0.8, "{name}");
                assert_eq!(set.cdf.max_radius(), set.worst_case as usize);
                assert!(set.worst_case as usize >= hub_radius);
            }
        }
        // The same adversary cannot escape the 2-regular sandwich.
        let (set, _, _) = e9_hub_sweep(&Topology::Cycle, 64);
        assert!(set.edge_averaged <= 2.0 * set.node_averaged + 1e-9);
        assert!(set.edge_averaged >= set.node_averaged - 1e-9);
    }

    #[test]
    fn e9_random_ids_detach_in_the_opposite_direction() {
        // Under random identifiers the hubs decide almost immediately (their
        // radius-1 ball is huge), so the degree-weighted average — the
        // mean-endpoint edge average — drops BELOW the node average: the
        // opposite-signed detachment, equally invisible on regular families.
        let topology = Topology::PreferentialAttachment { m: 1, seed: 13 };
        let result = Sweep::on(Problem::LargestId, topology, vec![64])
            .with_policy(AssignmentPolicy::Random { base_seed: 29 })
            .with_trials(2)
            .run()
            .unwrap();
        let row = &result.rows[0];
        assert!(
            row.edge_averaged_mean < row.average,
            "hubs decide early: deg-weighted {} vs node {}",
            row.edge_averaged_mean,
            row.average
        );
    }

    #[test]
    fn e9_quick_table_has_every_section() {
        let t = table_e9(true);
        // 2 hub-adversary rows + 1 cycle row + 2 random-id rows.
        assert_eq!(t.row_count(), 5);
        let text = t.to_text();
        for needle in ["pa tree, hub adversary", "powerlaw, hub adversary", "cycle", "random ids"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn quick_tables_match_the_golden_csv() {
        // `experiments --quick --csv` rendered from the registry: every
        // number of every table, pinned byte for byte. The output is the
        // same at every thread count, so one golden file serves them all.
        let mut csv = String::from("avglocal experiment harness (quick sizes)\n\n");
        for build in TABLES {
            let table = build(true);
            csv.push_str(&format!("# {}\n{}\n", table.title(), table.to_csv()));
        }
        assert_eq!(csv, include_str!("../golden/experiments_quick.csv"));
    }

    #[test]
    fn figures_render_in_quick_mode() {
        let f1 = figure_f1(true);
        assert!(f1.contains("F1"));
        assert!(f1.contains("worst-case radius n/2"));
        let f2 = figure_f2(true);
        assert!(f2.contains("F2"));
        assert!(f2.contains("log*(n)"));
        let f3 = figure_f3(true);
        assert!(f3.contains("F3"));
        assert!(f3.contains("grid average radius"));
        let f4 = figure_f4(true);
        assert!(f4.contains("F4"));
        assert!(f4.contains("edge-averaged radius (max)"));
        assert!(f4.contains("worst-case radius"));
        let f5 = figure_f5(true);
        assert!(f5.contains("F5"));
        assert!(f5.contains("F(r) pa tree (hub adversary)"));
        assert!(f5.contains("F(r) cycle (random ids)"));
    }
}
