//! `cargo xtask` — workspace automation entry point.
//!
//! Subcommands:
//!
//! * `lint` — run the repo-invariant linter over the workspace sources and
//!   exit non-zero on any violation. See [`xtask::lint`] for the rule table.
//! * `loc` — print the number of non-test lines over the same sources, as
//!   the linter marks them ([`xtask::lint::count_non_test_lines`]).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next();
    match command.as_deref() {
        Some("lint") => {
            let root = workspace_root();
            let violations = xtask::lint::run(&root, &xtask::lint::Config::workspace(&root));
            for violation in &violations {
                eprintln!("{violation}");
            }
            if violations.is_empty() {
                eprintln!("xtask lint: workspace clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        Some("loc") => {
            let root = workspace_root();
            match xtask::lint::count_non_test_lines(&root, &xtask::lint::Config::workspace(&root)) {
                Ok(count) => {
                    println!("{count} non-test lines");
                    ExitCode::SUCCESS
                }
                Err(err) => {
                    eprintln!("xtask loc: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(other) => {
            eprintln!("unknown xtask command `{other}` (expected: lint, loc)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask <lint|loc>");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: `cargo xtask` runs with the xtask crate as cwd or the
/// workspace root depending on invocation, so anchor on this file's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(PathBuf::from).unwrap_or(manifest)
}
