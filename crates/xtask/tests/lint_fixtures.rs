//! Fixture proofs for the workspace lint: every rule must fire on
//! its known-bad snippet and stay silent on the waivered twin. The
//! fixtures live under `tests/fixtures/`, which the workspace walker
//! deliberately skips — they are inputs to the engine, not workspace
//! code.

use xtask::lexer::lex;
use xtask::lint::{lint_lexed, lint_source, lint_workspace, NameCounts, Violation};

fn rules_of(violations: &[xtask::lint::Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn d001_fires_in_replay_critical_crates_and_spares_strings() {
    let src = include_str!("fixtures/d001_bad.rs");
    let (violations, _) = lint_source("overlay", "d001_bad.rs", src, false);
    assert_eq!(rules_of(&violations), ["D001", "D001"]);
    // The declaration and the constructor, not the `use` line or the
    // string literal.
    assert_eq!(violations[0].line, 3);
    assert_eq!(violations[1].line, 4);
}

#[test]
fn d001_is_silent_outside_replay_critical_crates() {
    let src = include_str!("fixtures/d001_bad.rs");
    let (violations, _) = lint_source("metrics", "d001_bad.rs", src, false);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn d001_waivers_with_reasons_suppress() {
    let src = include_str!("fixtures/d001_waived.rs");
    let (violations, honored) = lint_source("overlay", "d001_waived.rs", src, false);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(honored, 2);
}

#[test]
fn d002_fires_on_clock_reads_not_type_positions() {
    let src = include_str!("fixtures/d002_bad.rs");
    let (violations, _) = lint_source("core", "d002_bad.rs", src, false);
    assert_eq!(rules_of(&violations), ["D002"]);
    assert_eq!(violations[0].line, 4);
}

#[test]
fn d002_waiver_naming_the_stat_suppresses() {
    let src = include_str!("fixtures/d002_waived.rs");
    let (violations, honored) = lint_source("core", "d002_waived.rs", src, false);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(honored, 1);
}

#[test]
fn d003_fires_in_every_crate() {
    let src = include_str!("fixtures/d003_bad.rs");
    let (violations, _) = lint_source("sim", "d003_bad.rs", src, false);
    assert_eq!(rules_of(&violations), ["D003"]);
}

#[test]
fn d003_waiver_suppresses() {
    let src = include_str!("fixtures/d003_waived.rs");
    let (violations, honored) = lint_source("sim", "d003_waived.rs", src, false);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(honored, 1);
}

#[test]
fn d004_fires_outside_geom_but_skips_trait_impls() {
    let src = include_str!("fixtures/d004_bad.rs");
    let (violations, _) = lint_source("core", "d004_bad.rs", src, false);
    assert_eq!(rules_of(&violations), ["D004"]);
    let (violations, _) = lint_source("geom", "d004_bad.rs", src, false);
    assert!(violations.is_empty(), "geom hosts the comparators");
}

#[test]
fn d004_waiver_suppresses_and_fn_definitions_do_not_trip() {
    let src = include_str!("fixtures/d004_waived.rs");
    let (violations, honored) = lint_source("core", "d004_waived.rs", src, false);
    assert!(violations.is_empty(), "{violations:?}");
    // Only the sort_by call needed the waiver; the `fn partial_cmp`
    // definition is not a comparison site.
    assert_eq!(honored, 1);
}

#[test]
fn d005_requires_forbid_unsafe_on_crate_roots_only() {
    let src = include_str!("fixtures/d005_bad.rs");
    let (violations, _) = lint_source("core", "d005_bad.rs", src, true);
    assert_eq!(rules_of(&violations), ["D005"]);
    let (violations, _) = lint_source("core", "d005_bad.rs", src, false);
    assert!(violations.is_empty(), "non-root modules are exempt");
}

#[test]
fn d005_attribute_or_waiver_passes() {
    let src = include_str!("fixtures/d005_ok.rs");
    let (violations, _) = lint_source("core", "d005_ok.rs", src, true);
    assert!(violations.is_empty(), "{violations:?}");
    let src = include_str!("fixtures/d005_waived.rs");
    let (violations, honored) = lint_source("core", "d005_waived.rs", src, true);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(honored, 1);
}

/// Lints `fixture` as `label` of crate `core`, with the names of
/// `fixture` and of `d006_caller.rs` (counted as `caller_label`) as the
/// workspace.
fn d006(fixture: &str, label: &str, caller_label: &str) -> (Vec<Violation>, usize) {
    let lexed = lex(fixture);
    let mut reached = NameCounts::default();
    reached.add(label, &lexed);
    reached.add(caller_label, &lex(include_str!("fixtures/d006_caller.rs")));
    lint_lexed("core", label, &lexed, false, Some(&reached))
}

#[test]
fn d006_fires_on_names_only_tests_strings_and_reexports_mention() {
    let src = include_str!("fixtures/d006_bad.rs");
    let (violations, _) = d006(src, "crates/core/src/bad.rs", "crates/cli/src/caller.rs");
    assert_eq!(rules_of(&violations), ["D006", "D006"]);
    // `only_its_tests` and `OnlyReexported`; not `reached`, not the
    // name defined twice, not the `pub fn` inside the test module.
    assert_eq!(violations[0].line, 5);
    assert_eq!(violations[1].line, 9);
}

#[test]
fn d006_counts_nothing_under_tests_or_examples() {
    let src = include_str!("fixtures/d006_bad.rs");
    for caller in ["crates/core/tests/caller.rs", "examples/caller.rs"] {
        let (violations, _) = d006(src, "crates/core/src/bad.rs", caller);
        let lines: Vec<usize> = violations.iter().map(|v| v.line).collect();
        assert_eq!(lines, [1, 5, 9, 11], "{caller}");
    }
    // And a file under `tests/` declares no library surface.
    let (violations, _) = d006(src, "crates/core/tests/bad.rs", "crates/cli/src/caller.rs");
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn d006_is_silent_without_the_workspace_and_outside_library_crates() {
    let src = include_str!("fixtures/d006_bad.rs");
    let (violations, _) = lint_source("core", "crates/core/src/bad.rs", src, false);
    assert!(violations.is_empty(), "{violations:?}");
    let lexed = lex(src);
    let reached = NameCounts::default();
    let (violations, _) = lint_lexed(
        "cli",
        "crates/cli/src/bad.rs",
        &lexed,
        false,
        Some(&reached),
    );
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn d006_waivers_with_reasons_suppress() {
    let src = include_str!("fixtures/d006_waived.rs");
    let (violations, honored) = d006(src, "crates/core/src/waived.rs", "crates/cli/src/caller.rs");
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(honored, 2);
}

#[test]
fn w001_reasonless_waiver_suppresses_nothing_and_is_flagged() {
    let src = include_str!("fixtures/w001_no_reason.rs");
    let (violations, honored) = lint_source("overlay", "w001_no_reason.rs", src, false);
    let mut rules = rules_of(&violations);
    rules.sort_unstable();
    // The underlying D001s still fire (two lines), plus the hygiene
    // violation for the reasonless waiver.
    assert_eq!(rules, ["D001", "D001", "W001"]);
    assert_eq!(honored, 0);
}

#[test]
fn w001_unused_waiver_is_flagged() {
    let src = include_str!("fixtures/w001_unused.rs");
    let (violations, _) = lint_source("overlay", "w001_unused.rs", src, false);
    assert_eq!(rules_of(&violations), ["W001"]);
}

#[test]
fn json_report_is_well_formed_enough() {
    let src = include_str!("fixtures/d001_bad.rs");
    let (violations, _) = lint_source("overlay", "d001_bad.rs", src, false);
    let report = xtask::lint::LintReport {
        violations,
        files: 1,
        waivers_honored: 0,
    };
    let json = report.to_json();
    assert!(json.contains("\"rule\": \"D001\""));
    assert!(json.contains("\"clean\": false"));
}

#[test]
fn real_workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = lint_workspace(&root).expect("workspace readable");
    assert!(report.files > 90, "walker found the workspace");
    assert!(
        report.violations.is_empty(),
        "determinism lint must be clean:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.waivers_honored >= 20, "the audited waivers are live");
}
