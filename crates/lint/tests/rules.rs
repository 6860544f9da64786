//! Fixture tests: every rule is exercised against files under
//! `tests/fixtures/` with true positives, waiver suppression, and
//! strings/comments that must NOT match. Fixtures are parsed by the linter,
//! never compiled (the workspace walker skips `fixtures` directories for
//! the same reason).

use atlas_lint::lint_source;
use std::path::Path;

/// Lint one fixture under a synthetic workspace-relative path that puts it
/// in the wanted rule's scope.
fn lint_fixture(fixture: &str, as_path: &str) -> Vec<atlas_lint::diag::Diagnostic> {
    let on_disk = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let text = std::fs::read_to_string(&on_disk)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", on_disk.display()));
    lint_source(as_path, &text)
}

fn rules_of(diags: &[atlas_lint::diag::Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule).collect()
}

fn lines_of(diags: &[atlas_lint::diag::Diagnostic], rule: &str) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn determinism_positives_are_found() {
    let diags = lint_fixture("determinism_positive.rs", "crates/core/src/fixture.rs");
    assert_eq!(
        lines_of(&diags, "nondeterministic-iteration"),
        vec![12, 18, 25],
        "annotated binding, initialized binding, alias/returning-fn: {diags:?}"
    );
}

#[test]
fn determinism_negatives_stay_clean() {
    let diags = lint_fixture("determinism_negative.rs", "crates/core/src/fixture.rs");
    assert!(diags.is_empty(), "false positives: {diags:?}");
}

#[test]
fn determinism_rule_is_scoped_to_pipeline_crates() {
    let diags = lint_fixture("determinism_positive.rs", "crates/datagen/src/fixture.rs");
    assert!(
        !rules_of(&diags).contains(&"nondeterministic-iteration"),
        "datagen is out of the determinism scope: {diags:?}"
    );
}

#[test]
fn wire_float_positives_are_found() {
    let diags = lint_fixture("wire_floats_positive.rs", "crates/serve/src/wire/fx.rs");
    assert_eq!(
        lines_of(&diags, "wire-float-format"),
        vec![4, 8, 13, 18],
        "positional, inline capture, to_string, write!: {diags:?}"
    );
}

#[test]
fn wire_float_negatives_stay_clean() {
    let diags = lint_fixture("wire_floats_negative.rs", "crates/serve/src/wire/fx.rs");
    assert!(
        !rules_of(&diags).contains(&"wire-float-format"),
        "false positives: {diags:?}"
    );
}

#[test]
fn wire_float_rule_is_scoped_to_wire_modules() {
    let diags = lint_fixture("wire_floats_positive.rs", "crates/serve/src/server.rs");
    assert!(
        !rules_of(&diags).contains(&"wire-float-format"),
        "float formatting outside wire/ is legal: {diags:?}"
    );
}

#[test]
fn panic_and_index_positives_are_found() {
    let diags = lint_fixture("panic_positive.rs", "crates/serve/src/fixture.rs");
    assert_eq!(
        lines_of(&diags, "panic-path"),
        vec![4, 8, 13, 14, 15],
        "unwrap, expect, panic!, unreachable!, todo!: {diags:?}"
    );
    assert_eq!(
        lines_of(&diags, "slice-index"),
        vec![20, 24, 24],
        "plain index plus a chained double index: {diags:?}"
    );
}

#[test]
fn panic_and_index_negatives_stay_clean() {
    let diags = lint_fixture("panic_negative.rs", "crates/serve/src/fixture.rs");
    assert!(diags.is_empty(), "false positives: {diags:?}");
}

#[test]
fn panic_rules_are_scoped_to_serve() {
    let diags = lint_fixture("panic_positive.rs", "crates/core/src/fixture.rs");
    assert!(
        !rules_of(&diags).contains(&"panic-path") && !rules_of(&diags).contains(&"slice-index"),
        "panic-freedom is a serve-only contract: {diags:?}"
    );
}

#[test]
fn unsafe_positives_are_found_everywhere_including_vendor() {
    for path in ["crates/core/src/fx.rs", "vendor/minirayon/src/fx.rs"] {
        let diags = lint_fixture("unsafe_positive.rs", path);
        assert_eq!(
            lines_of(&diags, "missing-safety-comment").len(),
            2,
            "both undocumented unsafe sites at {path}: {diags:?}"
        );
    }
}

#[test]
fn unsafe_negatives_stay_clean() {
    let diags = lint_fixture("unsafe_negative.rs", "crates/core/src/fx.rs");
    assert!(
        !rules_of(&diags).contains(&"missing-safety-comment"),
        "false positives: {diags:?}"
    );
}

#[test]
fn unsafe_rule_is_unwaivable() {
    let source = "fn f(x: &u32) -> &'static u32 {\n\
                  \x20   // lint: missing-safety-comment (trying to waive)\n\
                  \x20   unsafe { std::mem::transmute(x) }\n\
                  }\n";
    let diags = lint_source("crates/core/src/fx.rs", source);
    assert!(
        rules_of(&diags).contains(&"missing-safety-comment"),
        "no waiver key exists for the unsafe audit: {diags:?}"
    );
}

#[test]
fn testless_integration_files_are_flagged() {
    let diags = lint_fixture("testless_positive.rs", "crates/serve/tests/fixture.rs");
    assert_eq!(lines_of(&diags, "testless-integration-file"), vec![1]);
    // The same content deeper than tests/ (a helper module) is exempt.
    let diags = lint_fixture("testless_positive.rs", "crates/serve/tests/util/helper.rs");
    assert!(!rules_of(&diags).contains(&"testless-integration-file"));
}

#[test]
fn integration_files_with_tests_stay_clean() {
    let diags = lint_fixture("testless_negative.rs", "crates/serve/tests/fixture.rs");
    assert!(
        !rules_of(&diags).contains(&"testless-integration-file"),
        "false positives: {diags:?}"
    );
}

#[test]
fn undocumented_pub_flags_the_facade_only() {
    let source = "#![warn(missing_docs)]\n\
                  pub use other as alias;\n\
                  /// Documented.\n\
                  pub fn documented() {}\n";
    let diags = lint_source("src/lib.rs", source);
    assert_eq!(lines_of(&diags, "undocumented-pub"), vec![2]);
    // Anywhere else the rule is out of scope.
    let diags = lint_source("crates/core/src/lib.rs", source);
    assert!(!rules_of(&diags).contains(&"undocumented-pub"));
}

#[test]
fn waivers_suppress_only_their_own_key() {
    let source = "fn f(v: Vec<u32>, i: usize) -> u32 {\n\
                  \x20   // lint: panic-ok (wrong key for an index)\n\
                  \x20   v[i]\n\
                  }\n";
    let diags = lint_source("crates/serve/src/fx.rs", source);
    assert!(
        rules_of(&diags).contains(&"slice-index"),
        "a panic-ok waiver must not silence slice-index: {diags:?}"
    );
}

/// The acceptance gate in test form: the whole workspace lints clean against
/// the committed baseline (no findings — see lint-baseline.txt) and carries no
/// more waivers than it records.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let atlas_lint::WorkspaceReport { diags, waivers } =
        atlas_lint::survey_workspace(&root).expect("workspace walk succeeds");
    let baseline_text = std::fs::read_to_string(root.join("lint-baseline.txt")).unwrap_or_default();
    let baseline = atlas_lint::baseline::Baseline::parse(&baseline_text);
    assert!(waivers > 0, "the serve crate carries waivers");
    if let Err(message) = baseline.check_waivers(waivers) {
        panic!("{message}");
    }
    let applied = baseline.apply(&diags);
    assert!(
        applied.fresh.is_empty(),
        "non-baselined findings:\n{}",
        applied
            .fresh
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
