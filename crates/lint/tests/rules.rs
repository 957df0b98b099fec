//! Fixture-driven rule tests: every rule fires on its seeded-violation
//! fixture, stays silent on its clean fixture, honors reasoned suppressions,
//! and reports reasonless/unknown/malformed suppressions — plus a self-lint
//! proving the real workspace is clean.
//!
//! Fixtures live under `tests/fixtures/` (never compiled, excluded from
//! workspace discovery) and are scanned with a pretend workspace path so
//! each rule's `applies` gate sees the crate the fixture impersonates.

use hmd_lint::diagnostics::Diagnostic;
use hmd_lint::engine::{self, SUPPRESSION_RULE};
use hmd_lint::source::SourceFile;
use hmd_lint::workspace::{self, FileContext, FileKind};
use std::path::Path;

/// Lints a fixture as if it lived at `crates/<krate>/src/<fixture>`.
fn check(fixture: &str, krate: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let rel = format!("crates/{krate}/src/{fixture}");
    let file = SourceFile::read(&path, &rel).expect("fixture file reads");
    engine::check_file(&file, &FileContext::new(krate, FileKind::Lib, false))
}

fn count(diags: &[Diagnostic], rule: &str) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

#[test]
fn float_total_cmp_fires_on_partial_cmp_and_raw_comparators() {
    let diags = check("float_bad.rs", "lint");
    assert_eq!(count(&diags, "float-total-cmp"), 2, "{diags:?}");
}

#[test]
fn float_total_cmp_accepts_total_cmp_and_reasoned_allows() {
    let diags = check("float_ok.rs", "lint");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unsafe_rule_fires_on_blocks_fns_and_orphaned_comments() {
    let diags = check("unsafe_bad.rs", "lint");
    assert_eq!(count(&diags, "unsafe-safety-comment"), 3, "{diags:?}");
}

#[test]
fn unsafe_rule_accepts_safety_comments_through_attributes() {
    let diags = check("unsafe_ok.rs", "lint");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn no_panic_fires_on_unwrap_expect_and_panic_macros() {
    let diags = check("no_panic_bad.rs", "core");
    assert_eq!(count(&diags, "no-panic-in-lib"), 4, "{diags:?}");
}

#[test]
fn no_panic_accepts_results_allows_domain_expect_and_test_code() {
    let diags = check("no_panic_ok.rs", "core");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn no_panic_polices_corpus_generator_lib_code() {
    // The corpus generators (dvfs/hpc/threat) feed long-running soak and
    // robustness streams, so their lib code is in scope for the no-panic
    // rule — while their integration tests (the million-row stream suites)
    // stay free to assert.
    for krate in ["dvfs", "hpc", "threat"] {
        let diags = check("no_panic_bad.rs", krate);
        assert_eq!(
            count(&diags, "no-panic-in-lib"),
            4,
            "{krate} lib code must be policed: {diags:?}"
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("no_panic_bad.rs");
    let file = SourceFile::read(&path, "crates/dvfs/tests/stream.rs").unwrap();
    let diags = engine::check_file(&file, &FileContext::new("dvfs", FileKind::Test, false));
    assert!(diags.is_empty(), "stream tests panic freely: {diags:?}");
}

#[test]
fn no_panic_ignores_non_serving_crates_and_non_lib_code() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("no_panic_bad.rs");
    let file = SourceFile::read(&path, "crates/bench/src/no_panic_bad.rs").unwrap();
    let diags = engine::check_file(&file, &FileContext::new("bench", FileKind::Lib, false));
    assert!(diags.is_empty(), "bench is not a serving crate: {diags:?}");
    let file = SourceFile::read(&path, "crates/core/tests/no_panic_bad.rs").unwrap();
    let diags = engine::check_file(&file, &FileContext::new("core", FileKind::Test, false));
    assert!(diags.is_empty(), "tests panic freely: {diags:?}");
}

#[test]
fn lock_discipline_fires_on_nesting_and_long_calls() {
    let diags = check("lock_bad.rs", "serve");
    assert_eq!(count(&diags, "lock-discipline"), 5, "{diags:?}");
}

#[test]
fn lock_discipline_accepts_scoped_dropped_and_temporary_guards() {
    let diags = check("lock_ok.rs", "serve");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn lock_discipline_only_polices_the_serving_crate() {
    let diags = check("lock_bad.rs", "ml");
    assert_eq!(count(&diags, "lock-discipline"), 0, "{diags:?}");
}

#[test]
fn derived_state_fires_on_identifiers_and_json_keys_in_codec() {
    let diags = check("derived_bad.rs", "codec");
    assert_eq!(count(&diags, "derived-state-persistence"), 3, "{diags:?}");
}

#[test]
fn derived_state_accepts_caches_outside_persistence_paths() {
    let diags = check("derived_ok.rs", "ml");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn derived_state_polices_decoders_outside_the_codec() {
    let diags = check("derived_decode.rs", "ml");
    assert_eq!(count(&diags, "derived-state-persistence"), 2, "{diags:?}");
    // Both hits sit in the decoder that names the cache (its `let` and its
    // struct literal); the one that rebuilds through `from_trees` is clean.
    assert!(diags.iter().all(|d| (8..=9).contains(&d.line)), "{diags:?}");
}

#[test]
fn suppression_failure_modes_are_reported_and_do_not_suppress() {
    let diags = check("suppression_cases.rs", "core");
    assert_eq!(
        count(&diags, "no-panic-in-lib"),
        1,
        "a reasonless allow must not suppress: {diags:?}"
    );
    assert_eq!(count(&diags, SUPPRESSION_RULE), 3, "{diags:?}");
}

#[test]
fn fixtures_are_excluded_from_workspace_discovery() {
    let root = workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let files = workspace::discover(&root).unwrap();
    assert!(
        files.iter().all(|(_, rel, _)| !rel.contains("fixtures")),
        "fixture files must never be linted as workspace source"
    );
}

/// The dogfood gate: the real workspace tree must lint clean. This is the
/// same check CI runs via `cargo run -p hmd_lint -- --workspace`.
#[test]
fn the_workspace_itself_lints_clean() {
    let root = workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let report = engine::run_workspace(&root).unwrap();
    assert!(
        report.is_clean(),
        "workspace findings:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 100, "discovery walked the workspace");
}
