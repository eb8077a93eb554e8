//! # avglocal-bench
//!
//! Benchmark harness for the `avglocal` reproduction of
//! *"Brief Announcement: Average Complexity for the LOCAL Model"*.
//!
//! The paper is a theory brief announcement with no tables or figures, so the
//! "evaluation" reproduced here is the set of quantitative claims E1–E6
//! defined in `EXPERIMENTS.md`:
//!
//! | Experiment | Claim | Bench target |
//! |---|---|---|
//! | E1 | largest-ID: worst case Θ(n) vs average Θ(log n) | `benches/e1_largest_id.rs` |
//! | E2 | the recurrence `a(n)` = A000788 = Θ(n log n) | `benches/e2_recurrence.rs` |
//! | E3 | Cole–Vishkin 3-colouring: O(log* n) everywhere | `benches/e3_cole_vishkin.rs` |
//! | E4 | Theorem 1: average colouring radius Ω(log* n) | `benches/e4_lower_bound.rs` |
//! | E5 | random identifiers (Section 4 further work) | `benches/e5_random_ids.rs` |
//! | E6 | motivating applications (Section 1) | `benches/e6_applications.rs` |
//! | E7 | node-averaged complexity beyond the ring (BGKO line) | `bin/experiments.rs --e7` |
//! | E8 | node- vs edge-averaged vs worst-case measures | `bin/experiments.rs --e8` |
//! | E9 | hub-weighted families: edge/node detachment while connected | `bin/experiments.rs --e9` |
//! | — | radius-query service under sustained load (qps, p99, overhead) | `bin/service_load.rs` |
//!
//! The Criterion benches measure the *simulator's* throughput on each
//! experiment workload; the actual result tables (who wins, by how much) are
//! printed by the `experiments` binary:
//!
//! ```text
//! cargo run --release -p avglocal-bench --bin experiments            # all tables
//! cargo run --release -p avglocal-bench --bin experiments -- --e1    # one table
//! ```

pub mod baselines;
pub mod load;
pub mod tables;

pub use tables::{
    all_tables, figure_f1, figure_f2, figure_f3, figure_f4, figure_f5, table_e1, table_e2,
    table_e3, table_e4, table_e5, table_e6, table_e7, table_e8, table_e9,
};
