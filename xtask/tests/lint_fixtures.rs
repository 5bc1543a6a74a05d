//! Fixture tests for the repo-lint scanner: each fixture under
//! `tests/fixtures/` is scanned under a synthetic repo-relative path and
//! the resulting diagnostics are compared against the exact `(line, rule)`
//! set the fixture was written to produce. The fixtures directory itself is
//! skipped by `scan_repo`, so these deliberately-violating files never leak
//! into the real lint pass.

use std::path::Path;

use std::path::PathBuf;

use xtask::lint::{rules_for_path, scan_dead_pub, scan_repo, scan_source, Diagnostic};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

/// The `(line, rule)` pairs of `diags`, in scan order.
fn findings(diags: &[Diagnostic]) -> Vec<(usize, &'static str)> {
    diags.iter().map(|d| (d.line, d.rule)).collect()
}

#[test]
fn io_panic_fixture_yields_exact_lines() {
    let diags = scan_source(Path::new("crates/graph/src/io/fixture.rs"), &fixture("io_panic.rs"));
    assert_eq!(
        findings(&diags),
        vec![(6, "io-panic"), (7, "io-panic"), (9, "io-panic"), (12, "io-panic")],
        "full diagnostics: {diags:#?}"
    );
}

#[test]
fn io_panic_rule_is_scoped_to_the_io_tree() {
    // The same source outside `crates/graph/src/io/` produces nothing: the
    // panics are legal elsewhere and no other rule matches this fixture.
    let diags = scan_source(Path::new("crates/graph/src/fixture.rs"), &fixture("io_panic.rs"));
    assert_eq!(findings(&diags), vec![], "full diagnostics: {diags:#?}");
}

#[test]
fn safety_fixture_flags_only_the_undocumented_site() {
    let diags = scan_source(Path::new("crates/graph/src/fixture.rs"), &fixture("safety.rs"));
    assert_eq!(findings(&diags), vec![(5, "safety-comment")], "full diagnostics: {diags:#?}");
}

#[test]
fn safety_rule_applies_even_under_tests() {
    // Every other rule is relaxed for test code; SAFETY discipline is not.
    let diags = scan_source(Path::new("crates/graph/tests/fixture.rs"), &fixture("safety.rs"));
    assert_eq!(findings(&diags), vec![(5, "safety-comment")], "full diagnostics: {diags:#?}");
}

#[test]
fn fs_clock_hash_fixture_yields_exact_lines() {
    let diags = scan_source(Path::new("crates/graph/src/fixture.rs"), &fixture("fs_clock_hash.rs"));
    assert_eq!(
        findings(&diags),
        vec![
            (9, "fs-choke-point"),
            (10, "fs-choke-point"),
            (11, "fs-choke-point"),
            (15, "clock-discipline"),
            (19, "clock-discipline"),
            (23, "hash-determinism"),
            (34, "hash-determinism"),
            (39, "clock-discipline"),
        ],
        "full diagnostics: {diags:#?}"
    );
}

#[test]
fn overlapping_fs_patterns_collapse_to_one_diagnostic() {
    // `std::fs::metadata(` matches both the `std::fs::` and `fs::metadata`
    // patterns; the scanner must report the line once.
    let diags = scan_source(Path::new("crates/graph/src/fixture.rs"), &fixture("fs_clock_hash.rs"));
    let on_line_9: Vec<_> = diags.iter().filter(|d| d.line == 9).collect();
    assert_eq!(on_line_9.len(), 1, "full diagnostics: {diags:#?}");
}

#[test]
fn diagnostics_render_as_path_line_col_rule() {
    let diags = scan_source(Path::new("crates/graph/src/fixture.rs"), &fixture("fs_clock_hash.rs"));
    let first = diags.first().expect("fixture produces diagnostics");
    let rendered = first.to_string();
    assert!(
        rendered.starts_with("crates/graph/src/fixture.rs:9:")
            && rendered.contains("[fs-choke-point]"),
        "unexpected rendering: {rendered}"
    );
}

#[test]
fn fixture_paths_are_exempt_from_every_rule() {
    // Scanning a fixture under its real path produces nothing — that is how
    // the violating files in tests/fixtures/ stay out of `cargo xtask lint`.
    for name in ["io_panic.rs", "safety.rs", "fs_clock_hash.rs", "twin_entry.rs"] {
        let rel = format!("xtask/tests/fixtures/{name}");
        let diags = scan_source(Path::new(&rel), &fixture(name));
        assert_eq!(findings(&diags), vec![], "{name}: {diags:#?}");
    }
}

#[test]
fn rule_scoping_matches_the_approved_locations() {
    let choke = rules_for_path("crates/graph/src/io/mod.rs");
    assert!(!choke.fs_choke_point, "the choke point itself may touch std::fs");
    assert!(choke.io_panic, "but it is still on the IO no-panic path");

    let cancel = rules_for_path("crates/graph/src/cancel.rs");
    assert!(!cancel.clock_discipline, "deadline handling may read the clock");
    assert!(cancel.fs_choke_point);

    let bench = rules_for_path("crates/bench/src/bin/run.rs");
    assert!(!bench.fs_choke_point, "bench binaries are operator tools");
    assert!(!bench.clock_discipline);

    let vendored = rules_for_path("vendor/rayon/src/pool.rs");
    assert!(vendored.safety_comment);
    assert!(vendored.fs_choke_point);
    assert!(!vendored.hash_determinism, "hash rule covers crates/ only");

    let test_file = rules_for_path("crates/graph/tests/loom.rs");
    assert!(test_file.safety_comment);
    assert!(!test_file.fs_choke_point);
    assert!(!test_file.clock_discipline);
}

#[test]
fn twin_entry_fixture_flags_the_untagged_public_twins() {
    // `solve_cancel`, `solve_with_split`, `sweep_with_scratch` and the
    // bare-tagged `bare_tag_cancel`; not the tagged twin, the non-`pub`
    // ones, methods or test-module helpers.
    let diags = scan_source(Path::new("crates/graph/src/fixture.rs"), &fixture("twin_entry.rs"));
    assert_eq!(
        findings(&diags),
        vec![(8, "twin-entry"), (12, "twin-entry"), (16, "twin-entry"), (21, "twin-entry")],
        "full diagnostics: {diags:#?}"
    );
    assert!(diags[0].message.contains("take the argument instead"), "{}", diags[0].message);
}

#[test]
fn twin_entry_tag_keeps_a_pinned_twin() {
    // The justified tag above `pinned_with_split` is the only thing that
    // keeps it quiet: without the tag it is reported like the others.
    let src = fixture("twin_entry.rs");
    let lines = |src: &str| -> Vec<usize> {
        scan_source(Path::new("crates/graph/src/fixture.rs"), src).iter().map(|d| d.line).collect()
    };
    assert!(!lines(&src).contains(&27));
    let untagged = src.replace("lint:allow(twin-entry): a benchmark", "a benchmark");
    assert!(lines(&untagged).contains(&27), "untagged twin not reported");
}

#[test]
fn twin_entry_rule_covers_shipped_crate_sources_only() {
    assert!(rules_for_path("crates/core/src/bounds.rs").twin_entry);
    assert!(rules_for_path("crates/bench/src/runner.rs").twin_entry);
    for rel in [
        "crates/testkit/src/lib.rs",
        "crates/modelcheck/src/rt.rs",
        "crates/core/tests/prop_cluster_equivalence.rs",
        "src/lib.rs",
        "vendor/rayon/src/lib.rs",
        "examples/quickstart.rs",
    ] {
        assert!(!rules_for_path(rel).twin_entry, "{rel}");
    }
}

/// A small in-memory workspace for the cross-file `dead-pub` rule: every
/// `pub fn` in `crates/alpha/src/lib.rs` is named after the situation it
/// exercises.
fn dead_pub_tree() -> Vec<(PathBuf, String)> {
    let alpha = "\
pub use crate::only_reexported as reexport;
#[cfg(test)]
mod fixture_only;

pub fn nothing_calls_me() {}

pub fn only_test_mod_calls_me() {}

pub fn only_tests_dir_calls_me() {}

pub fn only_reexported() {}

pub fn only_method_calls_me() {}

pub fn only_comments_call_me() {}

pub fn only_its_own_body_calls_me() { only_its_own_body_calls_me() }

pub fn only_a_test_module_file_calls_me() {}

// lint:allow(dead-pub):
pub fn bare_tag() {}

// lint:allow(dead-pub): a test entry point, kept on purpose
pub fn tagged_with_a_reason() {}

pub fn called_from_another_crate() {}

pub fn called_from_an_example() {}

pub fn called_from_perfbench() {}

pub const fn called_in_its_own_file() -> u32 { 1 }

pub(crate) fn crate_visible_is_not_checked() {}

pub struct Thing;

impl Thing {
    pub fn nothing_calls_this_method(&self) -> u32 { Self::called_through_self() }

    pub fn called_as_a_method(&self) {}

    pub fn called_through_the_type() {}

    pub fn called_through_self() -> u32 { called_in_its_own_file() }

    pub(crate) fn crate_visible_method_is_not_checked(&self) {}

    #[cfg(any(test, feature = \"model-check\"))]
    pub fn test_gated_methods_are_not_checked(&self) {}
}

impl Default for Thing {
    fn default() -> Self { Thing }
}

pub mod declared_as_a_module_too;

pub fn declared_as_a_module_too() {}

#[cfg(test)]
mod tests {
    pub fn test_helpers_are_not_checked() {}

    impl super::Thing {
        pub fn test_only_methods_are_not_checked(&self) {}
    }

    fn t() { super::only_test_mod_calls_me(); }
}
";
    let beta = "\
pub fn beta_entry(x: &Thing) {
    alpha::called_from_another_crate();
    x.only_method_calls_me();
    x.called_as_a_method();
    alpha::Thing::called_through_the_type();
    // only_comments_call_me();
    let _ = \"only_comments_call_me()\";
}
";
    [
        ("crates/alpha/src/lib.rs", alpha),
        (
            "crates/alpha/src/fixture_only.rs",
            "pub fn f() { super::only_a_test_module_file_calls_me() }\n",
        ),
        ("crates/alpha/tests/it.rs", "fn t() { alpha::only_tests_dir_calls_me(); }\n"),
        ("crates/beta/src/lib.rs", beta),
        ("crates/testkit/src/lib.rs", "pub fn testkit_is_not_scanned() {}\n"),
        (
            "examples/demo.rs",
            "fn main() { alpha::called_from_an_example(); beta::beta_entry(&T); }\n",
        ),
        ("perfbench/src/main.rs", "fn main() { alpha::called_from_perfbench(); }\n"),
    ]
    .into_iter()
    .map(|(path, src)| (PathBuf::from(path), src.to_string()))
    .collect()
}

#[test]
fn dead_pub_flags_exactly_the_functions_without_a_non_test_caller() {
    let diags = scan_dead_pub(&dead_pub_tree());
    let found: Vec<(String, usize)> =
        diags.iter().map(|d| (d.path.display().to_string(), d.line)).collect();
    let alpha = |line| ("crates/alpha/src/lib.rs".to_string(), line);
    assert_eq!(
        found,
        vec![
            alpha(5),  // nothing_calls_me
            alpha(7),  // only_test_mod_calls_me
            alpha(9),  // only_tests_dir_calls_me
            alpha(11), // only_reexported
            alpha(13), // only_method_calls_me
            alpha(15), // only_comments_call_me
            alpha(17), // only_its_own_body_calls_me
            alpha(19), // only_a_test_module_file_calls_me
            alpha(22), // bare_tag
            alpha(40), // nothing_calls_this_method
            alpha(60), // declared_as_a_module_too
        ],
        "full diagnostics: {diags:#?}"
    );
    assert!(diags.iter().all(|d| d.rule == "dead-pub"));
    assert!(diags[0].message.contains("`pub fn nothing_calls_me`"), "{}", diags[0].message);
}

#[test]
fn dead_pub_flags_a_function_once_its_last_caller_goes() {
    // The example holds the only call of `called_from_an_example`; without
    // it the rule reports the declaration, on top of the base findings.
    let mut tree = dead_pub_tree();
    let example = tree.iter_mut().find(|(path, _)| path.starts_with("examples")).unwrap();
    example.1 = example.1.replace("alpha::called_from_an_example();", "");
    let lines: Vec<usize> = scan_dead_pub(&tree).iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![5, 7, 9, 11, 13, 15, 17, 19, 22, 29, 40, 60]);
}

#[test]
fn dead_pub_flags_a_method_once_its_last_caller_goes() {
    // Without their `.m()`, `Thing::m` and `Self::m` calls those methods are
    // reported too; the `pub(crate)`, test-gated, trait-impl and test-module
    // methods (lines 48, 51, 55 and 67) never are.
    let mut tree = dead_pub_tree();
    for (_, src) in &mut tree {
        for call in [
            "x.called_as_a_method();",
            "alpha::Thing::called_through_the_type();",
            "Self::called_through_self()",
        ] {
            *src = src.replace(call, "");
        }
    }
    let lines: Vec<usize> = scan_dead_pub(&tree).iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![5, 7, 9, 11, 13, 15, 17, 19, 22, 40, 42, 44, 46, 60]);
}

#[test]
fn repository_is_lint_clean() {
    // The same invariant CI enforces via `cargo xtask lint`, kept here so a
    // plain `cargo test` catches regressions too.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().to_path_buf();
    let diags = scan_repo(&root).unwrap();
    assert!(diags.is_empty(), "repo lint violations:\n{:#?}", diags);
}
