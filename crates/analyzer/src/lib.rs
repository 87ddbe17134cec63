//! # routenet-analyzer
//!
//! Dependency-free static-analysis gate for the RouteNet workspace. The
//! offline toolchain rules out `syn`-based tooling, so this crate carries its
//! own minimal Rust lexer ([`lexer`]) and the rules clippy cannot express,
//! tuned to the failure modes that would invalidate the paper's
//! generalization results: NaN-unsound float handling and undocumented
//! invariants ([`rules`]), relaxed publication ([`concurrency`]), and unit
//! or NaN dataflow errors ([`numeric`]). Panics, float equality, lossy
//! casts, hash-order iteration, discarded errors, direct `std::fs` use and
//! locks outside the modules that own one are clippy's job; racing writes
//! are the borrow checker's, with `unsafe_code` denied; parallel
//! determinism rests on one scoped-thread helper that clippy keeps the only
//! parallel region, pinned by 1-vs-N byte-identity tests; and hot-loop
//! allocation and telemetry calls are measured by the root test
//! `tests/alloc_counts.rs` (see [`rules::RETIRED`] and `scripts/check.sh`).
//!
//! Entry points: [`analyze_workspace`] (what `scripts/check.sh` and CI run)
//! and [`analyze_paths`] (explicit files, all rules on — used by the fixture
//! tests). Both produce a [`Report`] with `file:line` diagnostics and a
//! machine-readable JSON rendering.

pub mod concurrency;
pub mod lexer;
pub mod numeric;
pub mod rules;

use rules::{AllowEntry, Diagnostic, InvariantEntry, RuleSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Files under the RN4xx numeric-dataflow audit: the measurement and kernel
/// code where a seconds-vs-bits/s slip or an unguarded division corrupts
/// labels, features, or the loss (see `numeric` module docs). Unit
/// annotations and the NaN-taint fixed point are still collected
/// workspace-wide; this list only scopes where findings are *reported*.
pub const NUMERIC_PATHS: &[&str] = &[
    "crates/simnet/src/stats.rs",
    "crates/simnet/src/sim.rs",
    "crates/simnet/src/queueing.rs",
    "crates/core/src/metrics.rs",
    "crates/core/src/eval.rs",
    "crates/core/src/features.rs",
    "crates/core/src/sample.rs",
    "crates/core/src/baseline.rs",
    "crates/dataset/src/gen.rs",
    "crates/nn/src/tape.rs",
    "crates/netgraph/src/traffic.rs",
];

/// Directory components that exclude a file from analysis entirely.
const SKIP_DIRS: &[&str] = &["tests", "examples", "fixtures", "target", "vendor"];

/// Aggregated analysis result over a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, ordered by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Index of every `// INVARIANT:` annotation found.
    pub invariants: Vec<InvariantEntry>,
    /// Every `// lint: allow(..)` justification in force.
    pub allows: Vec<AllowEntry>,
}

impl Report {
    /// True when the tree is clean. Every finding fails the gate.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Order diagnostics by `(file, line, rule)` so reports are stable
    /// across filesystem iteration order.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.invariants
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        self.allows
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// Human-readable diagnostics, one `file:line: [rule] ID: message` per
    /// line.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}: [{}] {}: {}\n",
                d.file,
                d.line,
                d.rule,
                d.id(),
                d.message
            ));
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} diagnostic(s), {} invariant(s) indexed ({} checked), {} allow justification(s)\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.invariants.len(),
            self.invariants.iter().filter(|i| i.checked).count(),
            self.allows.len(),
        ));
        out
    }

    /// Machine-readable JSON rendering (hand-rolled: this crate is
    /// dependency-free so it can never be broken by the code it audits).
    /// Schema: `analyzer-report v5` — drops the severity fields (`severity`
    /// per diagnostic; `deny`, `warn`, `baselined` and `by_severity` in the
    /// summary) from v4, since every finding now fails the gate. The summary
    /// keeps the total and the per-rule breakdown (`summary.by_rule`,
    /// registry order, nonzero rules only); each diagnostic carries its
    /// stable rule ID.
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schema\": \"analyzer-report\",\n  \"version\": 5,\n  \"files_scanned\": {},\n",
            self.files_scanned
        ));
        let by_rule: Vec<(&str, usize)> = rules::RULES
            .iter()
            .map(|r| {
                let n = self.diagnostics.iter().filter(|d| d.rule == r.name).count();
                (r.name, n)
            })
            .filter(|(_, n)| *n > 0)
            .collect();
        let by_rule_json = by_rule
            .iter()
            .map(|(r, n)| format!("{}: {n}", json_str(r)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "  \"summary\": {{\"diagnostics\": {}, \"by_rule\": {{{by_rule_json}}}}},\n",
            self.diagnostics.len(),
        ));
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
                json_str(d.id()),
                json_str(d.rule),
                json_str(&d.file),
                d.line,
                json_str(&d.message),
                comma(i, self.diagnostics.len()),
            ));
        }
        out.push_str("  ],\n  \"invariants\": [\n");
        for (i, v) in self.invariants.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"function\": {}, \"text\": {}, \"checked\": {}}}{}\n",
                json_str(&v.file),
                v.line,
                json_str(&v.function),
                json_str(&v.text),
                v.checked,
                comma(i, self.invariants.len()),
            ));
        }
        out.push_str("  ],\n  \"allows\": [\n");
        for (i, a) in self.allows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}{}\n",
                json_str(&a.file),
                a.line,
                json_str(&a.rule),
                json_str(&a.reason),
                comma(i, self.allows.len()),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Errors from the filesystem walk.
#[derive(Debug)]
pub struct AnalyzeError {
    /// What went wrong, with the offending path.
    pub message: String,
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for AnalyzeError {}

/// Analyze the whole workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`). Scans `src/`, `examples/` and `crates/*/src/`;
/// `tests/` directories, crate-level `examples/`, `fixtures/`, and `vendor/`
/// are exempt.
#[must_use = "the report carries the findings; dropping it skips the gate"]
pub fn analyze_workspace(root: &Path) -> Result<Report, AnalyzeError> {
    let mut files = Vec::new();
    for base in ["src", "examples", "crates"] {
        let dir = root.join(base);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        sources.push((rel_path(rel), read_source(path)?));
    }
    Ok(analyze_sources(&sources, rules_for))
}

/// Analyze explicit paths with every rule enabled (fixture mode). The unit
/// environment spans exactly the given files.
#[must_use = "the report carries the findings; dropping it skips the gate"]
pub fn analyze_paths(paths: &[PathBuf]) -> Result<Report, AnalyzeError> {
    let mut sources: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in paths {
        sources.push((rel_path(path), read_source(path)?));
    }
    Ok(analyze_sources(&sources, |_| RuleSet::all()))
}

/// Run the rule passes selected by `rules_for` over every source, with the
/// unit environment built over all of them so a finding in one file can
/// rest on evidence from another.
fn analyze_sources(sources: &[(String, String)], rules_for: impl Fn(&str) -> RuleSet) -> Report {
    let units = numeric::UnitEnv::build(sources);
    let mut report = Report::default();
    for (rel, source) in sources {
        let file = rules::analyze_source_with(rel, source, rules_for(rel), Some(&units));
        report.files_scanned += 1;
        report.diagnostics.extend(file.diagnostics);
        report.invariants.extend(file.invariants);
        report.allows.extend(file.allows);
    }
    report.sort();
    report
}

/// A path as reported in diagnostics: `/`-separated on every platform.
fn rel_path(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

#[expect(
    clippy::disallowed_methods,
    reason = "the analyzer reads the tree it scans directly; it runs outside the fault-injection seam"
)]
fn read_source(path: &Path) -> Result<String, AnalyzeError> {
    fs::read_to_string(path).map_err(|e| AnalyzeError {
        message: format!("cannot read {}: {e}", path.display()),
    })
}

/// Rule selection by path: every rule runs everywhere except the
/// path-scoped numeric dataflow family, which reports in [`NUMERIC_PATHS`]
/// only.
fn rules_for(rel: &str) -> RuleSet {
    RuleSet {
        numeric: NUMERIC_PATHS.iter().any(|h| rel.ends_with(h)),
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AnalyzeError> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the analyzer reads the tree it scans directly; it runs outside the fault-injection seam"
    )]
    let entries = fs::read_dir(dir).map_err(|e| AnalyzeError {
        message: format!("cannot read dir {}: {e}", dir.display()),
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| AnalyzeError {
            message: format!("cannot read dir entry under {}: {e}", dir.display()),
        })?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        #[expect(
            clippy::disallowed_methods,
            reason = "the analyzer reads the tree it scans directly; it runs outside the fault-injection seam"
        )]
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn rules_for_scopes_path_families() {
        // numeric: the measurement/kernel files only.
        assert!(rules_for("crates/simnet/src/sim.rs").numeric);
        assert!(rules_for("crates/core/src/metrics.rs").numeric);
        assert!(rules_for("crates/nn/src/tape.rs").numeric);
        assert!(!rules_for("crates/core/src/model.rs").numeric);
        assert!(!rules_for("crates/obs/src/lib.rs").numeric);
    }

    #[test]
    fn report_json_is_parseable_shape() {
        let mut r = Report {
            files_scanned: 1,
            ..Report::default()
        };
        r.diagnostics.push(rules::Diagnostic::new(
            "nan",
            "x.rs",
            3,
            "msg with \"quotes\"".into(),
        ));
        let j = r.json();
        assert!(j.contains("\"schema\": \"analyzer-report\""));
        assert!(j.contains("\"version\": 5"));
        assert!(j.contains("\"files_scanned\": 1"));
        assert!(j.contains("\"summary\": {\"diagnostics\": 1, \"by_rule\": {\"nan\": 1}}"));
        assert!(j.contains("\"id\": \"RN003\""));
        assert!(!j.contains("severity"));
        assert!(j.contains("\\\"quotes\\\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
