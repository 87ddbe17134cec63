//! Golden-file tests for the `analyzer-report v5` JSON schema: one per
//! semantic rule family. The binary is run from the crate root with relative
//! fixture paths so the `file` fields in the report are machine-independent,
//! and the emitted JSON must match the committed golden byte-for-byte.
//!
//! To regenerate after an intentional schema or rule change:
//!
//! ```text
//! cd crates/analyzer
//! cargo run -p routenet-analyzer -- --json tests/fixtures/golden/<family>.json \
//!     tests/fixtures/<family>.rs
//! ```

use std::path::PathBuf;
use std::process::Command;

fn golden_check(fixture: &str, golden: &str) {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let json_path = std::env::temp_dir().join(format!(
        "analyzer-golden-{}-{}.json",
        golden.replace('/', "-"),
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_routenet-analyzer"))
        .current_dir(&manifest)
        .args(["--json", &json_path.to_string_lossy(), fixture])
        .output()
        .expect("analyzer binary runs");
    assert!(
        out.status.code() == Some(0) || out.status.code() == Some(1),
        "unexpected exit: {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = std::fs::read_to_string(&json_path).expect("json written");
    let _ = std::fs::remove_file(&json_path);
    let golden_path = manifest.join(golden);
    let expected = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", golden_path.display()));
    assert_eq!(
        actual, expected,
        "report drifted from {golden}; if the change is intentional, regenerate per the module docs"
    );
}

#[test]
fn concurrency_report_matches_golden() {
    golden_check(
        "tests/fixtures/concurrency.rs",
        "tests/fixtures/golden/concurrency.json",
    );
}

#[test]
fn numeric_report_matches_golden() {
    golden_check(
        "tests/fixtures/numeric.rs",
        "tests/fixtures/golden/numeric.json",
    );
}

#[test]
fn concurrency_clean_report_matches_golden() {
    golden_check(
        "tests/fixtures/concurrency_clean.rs",
        "tests/fixtures/golden/concurrency_clean.json",
    );
}
