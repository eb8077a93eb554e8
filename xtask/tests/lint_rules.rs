//! Fixture-driven tests for the workspace linter: each rule must fire at
//! the seeded file and line, and nowhere else — including the negative
//! controls (commented twins, `debug_assert_eq!`, `#[cfg(test)]` code).

use std::path::{Path, PathBuf};

use xtask::lint::{count_non_test_lines, run, Config, Violation};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn fixture_config(allowlist: Option<&str>) -> Config {
    Config {
        roots: vec![PathBuf::from("tests/fixtures/src")],
        allowlist: allowlist.map(PathBuf::from),
        hardened: vec![PathBuf::from("tests/fixtures/src/decode_surface.rs")],
        library_roots: vec![PathBuf::from("tests/fixtures/src")],
    }
}

fn hits<'a>(violations: &'a [Violation], rule: &str) -> Vec<(&'a str, usize)> {
    violations.iter().filter(|v| v.rule == rule).map(|v| (v.path.as_str(), v.line)).collect()
}

#[test]
fn every_rule_fires_at_the_seeded_site() {
    let violations = run(root(), &fixture_config(None));
    assert_eq!(
        hits(&violations, "safety-comment"),
        vec![("tests/fixtures/src/unsafe_sites.rs", 4)],
        "the commented twin at line 9 must stay clean"
    );
    assert_eq!(
        hits(&violations, "determinism"),
        vec![
            ("tests/fixtures/src/nondeterminism.rs", 3),
            ("tests/fixtures/src/nondeterminism.rs", 4),
            ("tests/fixtures/src/nondeterminism.rs", 5),
            ("tests/fixtures/src/nondeterminism.rs", 6),
            ("tests/fixtures/src/nondeterminism.rs", 9),
        ],
        "each token reports once per file, at its first occurrence"
    );
    assert_eq!(
        hits(&violations, "no-panic-decode"),
        vec![
            ("tests/fixtures/src/decode_surface.rs", 4),
            ("tests/fixtures/src/decode_surface.rs", 5),
            ("tests/fixtures/src/decode_surface.rs", 6),
        ],
        "`debug_assert_eq!` at line 7 must not fire"
    );
    assert_eq!(
        hits(&violations, "non-exhaustive-error-enum"),
        vec![("tests/fixtures/src/error_enums.rs", 3)],
        "the `#[non_exhaustive]` twin at line 8 must stay clean"
    );
    assert_eq!(
        hits(&violations, "relaxed-ordering"),
        vec![("tests/fixtures/src/relaxed.rs", 6)],
        "the justified twin at line 11 must stay clean"
    );
    // Nothing else fires — in particular nothing from test_exempt.rs.
    assert_eq!(violations.len(), 11, "unexpected extra violations: {violations:#?}");
}

#[test]
fn loc_counts_what_the_linter_treats_as_non_test_code() {
    let config = Config {
        roots: vec![PathBuf::from("tests/fixtures/loc")],
        allowlist: None,
        hardened: Vec::new(),
        library_roots: Vec::new(),
    };
    // src/lib.rs has 16 lines, 7 of them in its `#[cfg(test)]` module;
    // tests/target.rs is a test target and counts nothing.
    assert_eq!(count_non_test_lines(root(), &config).unwrap(), 9);
}

#[test]
fn allowlist_silences_entries_and_flags_its_own_rot() {
    let violations = run(root(), &fixture_config(Some("tests/fixtures/allow-fixture.txt")));
    // The determinism seeds are allowlisted away with a reason…
    assert!(hits(&violations, "determinism").is_empty(), "{violations:#?}");
    // …the reason-less entry is rejected, so its rule still fires…
    assert_eq!(hits(&violations, "relaxed-ordering"), vec![("tests/fixtures/src/relaxed.rs", 6)]);
    // …and the allowlist's own defects (stale entry, missing reason) are
    // reported at their own lines.
    assert_eq!(
        hits(&violations, "allowlist"),
        vec![("tests/fixtures/allow-fixture.txt", 3), ("tests/fixtures/allow-fixture.txt", 4),]
    );
}

/// The enforcement test: the real workspace, under the real configuration,
/// is clean. CI runs `cargo xtask lint` too; this copy makes plain
/// `cargo test` catch violations without the extra step.
#[test]
fn the_workspace_is_clean() {
    let workspace = root().parent().expect("xtask sits inside the workspace");
    let violations = run(workspace, &Config::workspace(workspace));
    assert!(violations.is_empty(), "workspace lint violations: {violations:#?}");
}
