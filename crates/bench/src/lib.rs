//! # avglocal-bench
//!
//! Benchmark harness for the `avglocal` reproduction of
//! *"Brief Announcement: Average Complexity for the LOCAL Model"*.
//!
//! The paper is a theory brief announcement with no tables or figures, so the
//! "evaluation" reproduced here is the set of quantitative claims E1–E9
//! defined in `EXPERIMENTS.md`. The `experiments` binary prints each
//! claim's result table; the `bench_e1` binary times the engine behind them
//! and records the perf trajectory in `BENCH_e1.json`, one block per
//! measurement:
//!
//! | Experiment | Claim | Where it is timed |
//! |---|---|---|
//! | E1 | largest-ID: worst case Θ(n) vs average Θ(log n) | `bench_e1` blocks `rows`, `run_node`, `skewed`, `pool`, `experiments` |
//! | E2 | the recurrence `a(n)` = A000788 = Θ(n log n) | `bench_e1` block `experiments` |
//! | E3 | Cole–Vishkin 3-colouring: O(log* n) everywhere | `bench_e1` block `experiments` |
//! | E4 | Theorem 1: average colouring radius Ω(log* n) | `bench_e1` block `experiments` |
//! | E5 | random identifiers (Section 4 further work) | `bench_e1` block `experiments` |
//! | E6 | motivating applications (Section 1) | `bench_e1` block `experiments` |
//! | E7 | node-averaged complexity beyond the ring (BGKO line) | `bench_e1` blocks `sampling`, `experiments` |
//! | E8 | node- vs edge-averaged vs worst-case measures | `bench_e1` block `experiments` |
//! | E9 | hub-weighted families: edge/node detachment while connected | `bench_e1` blocks `hub`, `experiments` |
//! | — | the validating snapshot codec (freeze cost: perfbench `graph.freeze_ns_per_arc`) | `bench_e1` block `snapshot` |
//! | — | radius-query service under sustained load (qps, p99, overhead) | `bench_e1` blocks `service`, `service_batch` |
//!
//! ```text
//! cargo run --release -p avglocal-bench --bin experiments            # all tables
//! cargo run --release -p avglocal-bench --bin experiments -- --e1    # one table
//! ./bench.sh --quick --check                                         # every bench block, gated
//! ```

pub mod baselines;
pub mod block;
pub mod load;
pub mod tables;

pub use tables::{
    figure_f1, figure_f2, figure_f3, figure_f4, figure_f5, table_e1, table_e2, table_e3, table_e4,
    table_e5, table_e6, table_e7, table_e8, table_e9, TABLES,
};

/// Checks a binary's command-line arguments against the flags it accepts.
///
/// # Errors
///
/// Returns a message naming the first argument that is not in `known`,
/// followed by a usage line for `binary`.
pub fn check_flags(binary: &str, args: &[String], known: &[&str]) -> Result<(), String> {
    match args.iter().find(|arg| !known.contains(&arg.as_str())) {
        Some(unknown) => {
            Err(format!("unknown argument `{unknown}`\nusage: {binary} [{}]", known.join("] [")))
        }
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::check_flags;

    const KNOWN: &[&str] = &["--quick", "--check", "--e1", "--e9"];

    fn check(args: &[&str]) -> Result<(), String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        check_flags("bench", &args, KNOWN)
    }

    #[test]
    fn known_flags_are_accepted() {
        assert_eq!(check(&[]), Ok(()));
        assert_eq!(check(&["--quick", "--check", "--e9", "--e1", "--quick"]), Ok(()));
    }

    #[test]
    fn unknown_flags_are_rejected_with_a_usage_line() {
        for bad in ["--e10", "--qick", "-quick"] {
            let message = check(&["--quick", bad]).expect_err(bad);
            assert!(message.starts_with(&format!("unknown argument `{bad}`\n")), "{message}");
            assert!(message.ends_with("usage: bench [--quick] [--check] [--e1] [--e9]"));
        }
    }
}
