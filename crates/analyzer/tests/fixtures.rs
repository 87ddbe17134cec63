//! End-to-end tests driving the `routenet-analyzer` binary against the
//! fixture files in `tests/fixtures/`. Each fixture pins violations to fixed
//! lines, so these tests assert exact diagnostic counts and `file:line`
//! positions as well as exit codes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_routenet-analyzer"))
        .args(args)
        .output()
        .expect("analyzer binary runs")
}

fn run_on_fixtures(names: &[&str]) -> (Output, String) {
    let paths: Vec<String> = names
        .iter()
        .map(|n| fixture(n).to_string_lossy().into_owned())
        .collect();
    let args: Vec<&str> = paths.iter().map(String::as_str).collect();
    let out = run(&args);
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf8 stdout");
    (out, stdout)
}

/// Count diagnostic lines for `rule` ("[rule]" tags in human output).
fn count_rule(stdout: &str, rule: &str) -> usize {
    stdout.matches(&format!("[{rule}]")).count()
}

#[test]
fn float_fixture_exact_diagnostics() {
    let (out, stdout) = run_on_fixtures(&["floats.rs"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(count_rule(&stdout, "nan"), 2, "stdout:\n{stdout}");
    for line in ["floats.rs:4: [nan]", "floats.rs:8: [nan]"] {
        assert!(stdout.contains(line), "missing `{line}` in:\n{stdout}");
    }
    // The literal-zero division is also an unguarded RN404 denominator.
    assert!(
        stdout.contains("floats.rs:8: [nan-div]"),
        "stdout:\n{stdout}"
    );
    // The total_cmp sort must pass.
    assert!(
        !stdout.contains("floats.rs:12:"),
        "total_cmp flagged:\n{stdout}"
    );
}

#[test]
fn invariant_fixture_indexes_and_flags() {
    let (out, stdout) = run_on_fixtures(&["invariants.rs"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(count_rule(&stdout, "invariant"), 1, "stdout:\n{stdout}");
    assert!(stdout.contains("invariants.rs:9:"), "stdout:\n{stdout}");
    assert!(stdout.contains("unchecked_invariant"), "stdout:\n{stdout}");
    // Both annotations indexed, one backed by a debug_assert.
    assert!(
        stdout.contains("2 invariant(s) indexed (1 checked)"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn allow_suppression_and_lint_syntax() {
    let (out, stdout) = run_on_fixtures(&["allowed.rs"]);
    assert_eq!(out.status.code(), Some(1));
    // The three justified allows fully suppress their sites: two standalone
    // directives (a `nan` one and a `relaxed-publish` one) and a trailing one.
    assert!(
        !stdout.contains("allowed.rs:6:"),
        "suppressed sort flagged:\n{stdout}"
    );
    assert!(
        !stdout.contains("allowed.rs:10:"),
        "trailing allow ignored:\n{stdout}"
    );
    assert!(
        !stdout.contains("allowed.rs:15:"),
        "suppressed relaxed store flagged:\n{stdout}"
    );
    assert!(
        stdout.contains("3 allow justification(s)"),
        "stdout:\n{stdout}"
    );
    // ...while a reasonless allow and an unknown rule are themselves errors
    // and do NOT suppress anything.
    assert_eq!(count_rule(&stdout, "lint-syntax"), 2, "stdout:\n{stdout}");
    assert_eq!(count_rule(&stdout, "nan"), 2, "stdout:\n{stdout}");
    for line in [
        "allowed.rs:19:",
        "allowed.rs:20:",
        "allowed.rs:24:",
        "allowed.rs:25:",
    ] {
        assert!(stdout.contains(line), "missing `{line}` in:\n{stdout}");
    }
    assert_eq!(
        count_rule(&stdout, "lint-stale"),
        0,
        "in-force allow reported stale:\n{stdout}"
    );

    // An allow that suppresses nothing fails the gate like any finding.
    let (out, stdout) = run_on_fixtures(&["stale_allow.rs"]);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(
        stdout.contains("stale_allow.rs:3: [lint-stale] RN007"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn clean_fixture_exits_zero() {
    let (out, stdout) = run_on_fixtures(&["clean.rs"]);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("0 diagnostic(s)"), "stdout:\n{stdout}");
}

#[test]
fn concurrency_fixture_exact_diagnostics() {
    let (out, stdout) = run_on_fixtures(&["concurrency.rs"]);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert_eq!(
        count_rule(&stdout, "relaxed-publish"),
        1,
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("concurrency.rs:6: [relaxed-publish] RN205"),
        "stdout:\n{stdout}"
    );
    // The Relaxed counter (fetch_add) must not be flagged.
    assert!(
        !stdout.contains("concurrency.rs:5:"),
        "relaxed counter flagged:\n{stdout}"
    );
    assert!(stdout.contains("1 diagnostic(s)"), "stdout:\n{stdout}");
}

#[test]
fn concurrency_clean_fixture_passes() {
    let (out, stdout) = run_on_fixtures(&["concurrency_clean.rs"]);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("0 diagnostic(s)"), "stdout:\n{stdout}");
}

#[test]
fn numeric_fixture_exact_diagnostics() {
    let (out, stdout) = run_on_fixtures(&["numeric.rs"]);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert_eq!(count_rule(&stdout, "unit-mismatch"), 1, "stdout:\n{stdout}");
    assert_eq!(
        count_rule(&stdout, "unit-dimension"),
        2,
        "stdout:\n{stdout}"
    );
    assert_eq!(count_rule(&stdout, "unit-sink"), 1, "stdout:\n{stdout}");
    assert_eq!(count_rule(&stdout, "nan-div"), 2, "stdout:\n{stdout}");
    assert_eq!(count_rule(&stdout, "nan-domain"), 1, "stdout:\n{stdout}");
    assert_eq!(count_rule(&stdout, "nan-sink"), 1, "stdout:\n{stdout}");
    for line in [
        "numeric.rs:11:", // s + bit/s
        "numeric.rs:15:", // tx_delay_s from bits * bit/s
        "numeric.rs:21:", // utilization clamp masks an over-count (PR 4 bug shape)
        "numeric.rs:25:", // unguarded capacity denominator
        "numeric.rs:29:", // seconds into sigmoid
        "numeric.rs:38:", // ln of an unguarded delay
        "numeric.rs:49:", // unguarded packet-count denominator
        "numeric.rs:50:", // possibly-NaN mean into a label struct
    ] {
        assert!(stdout.contains(line), "missing `{line}` in:\n{stdout}");
    }
    // The guarded division feeding the clamp must not double-report RN404.
    assert!(
        !stdout.contains("numeric.rs:21: [nan-div]"),
        "asserted denominator flagged:\n{stdout}"
    );
}

#[test]
fn numeric_clean_fixture_passes() {
    let (out, stdout) = run_on_fixtures(&["numeric_clean.rs"]);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("0 diagnostic(s)"), "stdout:\n{stdout}");
}

#[test]
fn all_fixtures_total_count() {
    let (out, stdout) = run_on_fixtures(&["floats.rs", "invariants.rs", "allowed.rs", "clean.rs"]);
    assert_eq!(out.status.code(), Some(1));
    // floats.rs 3 (two nan, one nan-div), invariants.rs 1, allowed.rs 4.
    assert!(stdout.contains("8 diagnostic(s)"), "stdout:\n{stdout}");
    assert!(stdout.contains("4 file(s) scanned"), "stdout:\n{stdout}");
}

#[test]
fn workspace_tree_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root exists")
        .to_path_buf();
    // The CI invocation: any finding fails it.
    let out = run(&["--workspace", "--root", &root.to_string_lossy()]);
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace not clean:\n{stdout}{stderr}"
    );
    assert!(stdout.contains("0 diagnostic(s)"), "stdout:\n{stdout}");
}

#[test]
fn json_report_is_emitted() {
    let json_path =
        std::env::temp_dir().join(format!("analyzer-fixture-{}.json", std::process::id()));
    let floats = fixture("floats.rs");
    let out = run(&[
        "--json",
        &json_path.to_string_lossy(),
        &floats.to_string_lossy(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let json = std::fs::read_to_string(&json_path).expect("json written");
    let _ = std::fs::remove_file(&json_path);
    assert!(
        json.contains("\"schema\": \"analyzer-report\""),
        "json:\n{json}"
    );
    assert!(json.contains("\"version\": 5"), "json:\n{json}");
    assert!(json.contains("\"by_rule\""), "json:\n{json}");
    assert!(json.contains("\"rule\": \"nan\""), "json:\n{json}");
    assert!(json.contains("\"id\": \"RN003\""), "json:\n{json}");
    assert!(!json.contains("severity"), "json:\n{json}");
    assert!(json.contains("\"summary\""), "json:\n{json}");
    assert!(json.contains("\"line\": 4"), "json:\n{json}");
    // Cheap well-formedness: balanced braces and brackets.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

#[test]
fn usage_errors_exit_two() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    let both = run(&["--workspace", "some/file.rs"]);
    assert_eq!(both.status.code(), Some(2));
    let unknown = run(&["--workspace", "--frobnicate"]);
    assert_eq!(unknown.status.code(), Some(2));
}
