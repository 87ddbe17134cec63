//! Property test for the report-determinism contract (DESIGN.md "Parallelism
//! safety contract"): the analyzer's JSON output must be byte-identical
//! across repeated runs and across any permutation of the input file order.
//! The report is sorted before rendering and the unit environment uses no
//! hash maps precisely so this holds; a regression here would make the
//! golden tests flaky.

use routenet_analyzer::{analyze_paths, analyze_workspace};
use std::path::PathBuf;

fn fixture_paths() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "expected several fixtures, got {paths:?}");
    paths
}

/// Deterministic xorshift64* stream — no external RNG crates in the analyzer.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn shuffled(paths: &[PathBuf], rng: &mut XorShift) -> Vec<PathBuf> {
    let mut out = paths.to_vec();
    for i in (1..out.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

#[test]
fn report_is_byte_identical_across_runs_and_input_orderings() {
    let paths = fixture_paths();
    let reference = analyze_paths(&paths).expect("analyze fixtures").json();
    // The fixture set must exercise the directive parser (syntax errors and
    // in-force allows) and the numeric family: its workspace-wide unit
    // environment and NaN fixed point are the newest sorted containers this
    // property guards.
    for id in [
        "RN003", "RN005", "RN006", "RN401", "RN402", "RN403", "RN404", "RN405", "RN406",
    ] {
        assert!(reference.contains(id), "fixture sweep lost {id} coverage");
    }
    assert!(
        reference.contains("\"allows\": [\n    {"),
        "fixture sweep lost in-force allows"
    );

    // Repeated runs over the same ordering.
    for _ in 0..3 {
        let again = analyze_paths(&paths).expect("analyze fixtures").json();
        assert_eq!(reference, again, "repeated run drifted");
    }

    // Permuted input orderings. The report sorts by file path internally, so
    // every permutation must serialize to the same bytes.
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for round in 0..8 {
        let permuted = shuffled(&paths, &mut rng);
        let report = analyze_paths(&permuted).expect("analyze fixtures").json();
        assert_eq!(
            reference, report,
            "permutation round {round} drifted: order {permuted:?}"
        );
    }
}

#[test]
fn workspace_report_is_byte_identical_across_runs() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let first = analyze_workspace(&root).expect("workspace scan").json();
    let second = analyze_workspace(&root).expect("workspace scan").json();
    assert_eq!(first, second, "workspace report drifted between runs");
}
