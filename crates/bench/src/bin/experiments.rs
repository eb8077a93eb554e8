//! Prints the result tables of experiments E1–E9 (see `EXPERIMENTS.md`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p avglocal-bench --bin experiments             # all experiments
//! cargo run --release -p avglocal-bench --bin experiments -- --e3    # only E3
//! cargo run --release -p avglocal-bench --bin experiments -- --e7    # cross-topology sweep
//! cargo run --release -p avglocal-bench --bin experiments -- --e8    # measure comparison
//! cargo run --release -p avglocal-bench --bin experiments -- --e9    # hub-weighted families
//! cargo run --release -p avglocal-bench --bin experiments -- --quick # reduced sizes
//! cargo run --release -p avglocal-bench --bin experiments -- --csv   # CSV output
//! ```
//!
//! Any other argument is rejected with a usage line and exit code 2.

use std::env;
use std::process::ExitCode;

use avglocal_bench::{check_flags, TABLES};

const FLAGS: &[&str] =
    &["--quick", "--csv", "--e1", "--e2", "--e3", "--e4", "--e5", "--e6", "--e7", "--e8", "--e9"];

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if let Err(message) = check_flags("experiments", &args, FLAGS) {
        eprintln!("{message}");
        return ExitCode::from(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let selected: Vec<usize> =
        (1..=9).filter(|i| args.iter().any(|a| a == &format!("--e{i}"))).collect();
    let run_all = selected.is_empty();

    println!("avglocal experiment harness ({} sizes)\n", if quick { "quick" } else { "full" });
    for (id, build) in (1..).zip(TABLES) {
        if run_all || selected.contains(&id) {
            let table = build(quick);
            if csv {
                println!("# {}", table.title());
                println!("{}", table.to_csv());
            } else {
                println!("{table}");
            }
        }
    }

    // The figures accompany E1, E3, E7 and E8; skip them in CSV mode.
    if !csv {
        if run_all || selected.contains(&1) {
            println!("{}", avglocal_bench::figure_f1(quick));
        }
        if run_all || selected.contains(&3) {
            println!("{}", avglocal_bench::figure_f2(quick));
        }
        if run_all || selected.contains(&7) {
            println!("{}", avglocal_bench::figure_f3(quick));
        }
        if run_all || selected.contains(&8) {
            println!("{}", avglocal_bench::figure_f4(quick));
        }
        if run_all || selected.contains(&9) {
            println!("{}", avglocal_bench::figure_f5(quick));
        }
    }
    ExitCode::SUCCESS
}
