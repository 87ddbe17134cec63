//! Cross-file contract of the workspace scan: the unit environment is built
//! over the whole workspace, and interprocedural RN4xx findings report at
//! the *call site*. Editing only a callee's
//! body must therefore surface findings in a caller file that never changed.
//!
//! The tests build a tiny synthetic workspace in a temp dir. The caller file
//! is byte-identical in both scenarios; only the callee body differs.

use routenet_analyzer::analyze_workspace;
use std::fs;
use std::path::PathBuf;

/// Caller file, placed at a numeric-scoped path. Never edited: every finding
/// asserted below is driven purely by callee-side evidence.
const CALLER: &str = r#"//! Synthetic measurement module.

use crate::helpers::mean_delay;

pub struct Telemetry {
    /// unit: s
    pub last_s: f64,
}

impl Telemetry {
    pub fn observe_s(&mut self, v: f64) {
        self.last_s = v;
    }
}

pub fn record(t: &mut Telemetry, sum_s: f64, n: f64) {
    let v = mean_delay(sum_s, n);
    t.observe_s(v);
}
"#;

/// Callee with a guarded division: no evidence reaches the caller.
const CALLEE_CLEAN: &str = r#"//! Callee bodies (the edited file).

pub fn mean_delay(sum_s: f64, n: f64) -> f64 {
    let count = n.max(1.0);
    sum_s / count
}
"#;

/// The same callee after a careless edit: an unguarded denominator, so NaN
/// can now flow into the caller's telemetry sink.
const CALLEE_BUGGY: &str = r#"//! Callee bodies (the edited file).

pub fn mean_delay(sum_s: f64, n: f64) -> f64 {
    sum_s / n
}
"#;

/// Numeric-scoped, so the RN4xx family reports here.
const CALLER_REL: &str = "crates/simnet/src/sim.rs";
const CALLEE_REL: &str = "crates/simnet/src/helpers.rs";

fn build_workspace(tag: &str, callee: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("analyzer-cross-file-{tag}-{}", std::process::id()));
    let src = root.join("crates/simnet/src");
    fs::create_dir_all(&src).expect("temp workspace dirs");
    fs::write(root.join(CALLER_REL), CALLER).expect("write caller");
    fs::write(root.join(CALLEE_REL), callee).expect("write callee");
    root
}

fn rules_in(report: &routenet_analyzer::Report, file: &str) -> Vec<(String, u32)> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.file == file)
        .map(|d| (d.rule.to_string(), d.line))
        .collect()
}

#[test]
fn callee_edit_resurfaces_findings_in_unchanged_caller() {
    let root = build_workspace("buggy", CALLEE_BUGGY);
    let report = analyze_workspace(&root).expect("scan");
    let caller = rules_in(&report, CALLER_REL);
    assert!(
        caller.iter().any(|(r, _)| r == "nan-sink"),
        "RN406 lost in caller: {caller:?}"
    );

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn clean_callee_keeps_caller_silent() {
    let root = build_workspace("clean", CALLEE_CLEAN);
    let report = analyze_workspace(&root).expect("scan");
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings: {:?}",
        report
            .diagnostics
            .iter()
            .map(|d| (d.file.as_str(), d.rule, d.line))
            .collect::<Vec<_>>()
    );
    let _ = fs::remove_dir_all(&root);
}
