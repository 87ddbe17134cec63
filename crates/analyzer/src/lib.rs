//! # routenet-analyzer
//!
//! Dependency-free static-analysis gate for the RouteNet workspace. The
//! offline toolchain rules out `syn`-based tooling, so this crate carries its
//! own minimal Rust lexer ([`lexer`]) and the rules clippy cannot express,
//! tuned to the failure modes that would invalidate the paper's
//! generalization results: NaN-unsound float handling, undocumented
//! invariants, allocation and locking in hot loops ([`rules`]), parallel
//! regions that break determinism ([`concurrency`]), and unit or NaN
//! dataflow errors ([`numeric`]). Panics, float equality, lossy casts,
//! hash-order iteration, discarded errors, and direct `std::fs` use are
//! clippy's job (see [`rules::RETIRED`] and `scripts/check.sh`).
//!
//! Entry points: [`analyze_workspace`] (what `scripts/check.sh` and CI run)
//! and [`analyze_paths`] (explicit files, all rules on — used by the fixture
//! tests). Both produce a [`Report`] with `file:line` diagnostics and a
//! machine-readable JSON rendering.

pub mod callgraph;
pub mod concurrency;
pub mod lexer;
pub mod numeric;
pub mod parse;
pub mod rules;

use rules::{AllowEntry, Diagnostic, InvariantEntry, RuleSet, Severity};
use std::fs;
use std::path::{Path, PathBuf};

/// Files whose loops are hot enough that per-iteration allocation is a
/// finding: the autodiff tape/tensor kernels, the training loop, and the
/// simulator event loop.
pub const ALLOC_HOT_PATHS: &[&str] = &[
    "crates/nn/src/tape.rs",
    "crates/nn/src/tensor.rs",
    "crates/nn/src/plan.rs",
    "crates/core/src/trainer.rs",
    "crates/core/src/batch.rs",
    "crates/simnet/src/sim.rs",
];

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
const SKIP_DIRS: &[&str] = &[
    "tests", "benches", "examples", "fixtures", "target", "vendor",
];

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
    /// Findings suppressed by the committed baseline file.
    pub baselined: usize,
}

impl Report {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of deny-level findings (the CI-failing kind).
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Apply `--deny RULE` / `--warn RULE` overrides on top of the registry
    /// defaults.
    pub fn apply_severity_overrides(&mut self, overrides: &[(String, Severity)]) {
        for d in &mut self.diagnostics {
            for (rule, sev) in overrides {
                if d.rule == rule {
                    d.severity = *sev;
                }
            }
        }
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

    /// Human-readable diagnostics, one
    /// `file:line: [rule] ID severity: message` per line.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}: [{}] {} {}: {}\n",
                d.file,
                d.line,
                d.rule,
                d.id(),
                d.severity.as_str(),
                d.message
            ));
        }
        let baseline_note = if self.baselined > 0 {
            format!(", {} baselined", self.baselined)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{} file(s) scanned, {} diagnostic(s) ({} deny, {} warn{}), {} invariant(s) indexed ({} checked), {} allow justification(s)\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.deny_count(),
            self.warn_count(),
            baseline_note,
            self.invariants.len(),
            self.invariants.iter().filter(|i| i.checked).count(),
            self.allows.len(),
        ));
        out
    }

    /// Machine-readable JSON rendering (hand-rolled: this crate is
    /// dependency-free so it can never be broken by the code it audits).
    /// Schema: `analyzer-report v4` — adds a severity breakdown
    /// (`summary.by_severity`, deny/warn keys always present) over v3,
    /// which added a per-rule count breakdown (`summary.by_rule`, registry
    /// order, nonzero rules only) over v2, which added stable rule IDs,
    /// severities, and a summary block over v1.
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schema\": \"analyzer-report\",\n  \"version\": 4,\n  \"files_scanned\": {},\n",
            self.files_scanned
        ));
        let by_rule: Vec<(&str, usize)> = rules::RULE_NAMES
            .iter()
            .map(|r| (*r, self.diagnostics.iter().filter(|d| d.rule == *r).count()))
            .filter(|(_, n)| *n > 0)
            .collect();
        let by_rule_json = by_rule
            .iter()
            .map(|(r, n)| format!("{}: {n}", json_str(r)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "  \"summary\": {{\"diagnostics\": {}, \"deny\": {}, \"warn\": {}, \"baselined\": {}, \"by_severity\": {{\"deny\": {}, \"warn\": {}}}, \"by_rule\": {{{by_rule_json}}}}},\n",
            self.diagnostics.len(),
            self.deny_count(),
            self.warn_count(),
            self.baselined,
            self.deny_count(),
            self.warn_count(),
        ));
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"rule\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
                json_str(d.id()),
                json_str(d.rule),
                json_str(d.severity.as_str()),
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

/// A committed ratchet of known findings: `rule<TAB>count<TAB>file` lines
/// under a `# analyzer-baseline v1` header. New findings beyond the recorded
/// count fail the gate; fixed findings require shrinking the baseline so it
/// only ever ratchets downward.
#[derive(Debug, Default)]
pub struct Baseline {
    /// `(rule, file) -> allowed finding count`.
    entries: Vec<(String, String, usize)>,
}

impl Baseline {
    /// Parse a baseline file. Blank lines and `#` comments are ignored.
    #[must_use = "a dropped baseline means the ratchet is not applied"]
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut b = Baseline::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            let (rule, count, file) = match (parts.next(), parts.next(), parts.next()) {
                (Some(r), Some(c), Some(f)) if parts.next().is_none() => (r, c, f),
                _ => {
                    return Err(format!(
                        "baseline line {}: expected `rule<TAB>count<TAB>file`, got `{line}`",
                        lineno + 1
                    ));
                }
            };
            if !rules::RULE_NAMES.contains(&rule) {
                return Err(format!(
                    "baseline line {}: unknown rule `{rule}`",
                    lineno + 1
                ));
            }
            let count: usize = count
                .parse()
                .map_err(|_| format!("baseline line {}: bad count `{count}`", lineno + 1))?;
            b.entries.push((rule.to_string(), file.to_string(), count));
        }
        Ok(b)
    }

    /// Render a report's current findings as a baseline file.
    pub fn render(report: &Report) -> String {
        let mut counts: Vec<(String, String, usize)> = Vec::new();
        for d in &report.diagnostics {
            match counts
                .iter_mut()
                .find(|(r, f, _)| r == d.rule && f == &d.file)
            {
                Some((_, _, n)) => *n += 1,
                None => counts.push((d.rule.to_string(), d.file.clone(), 1)),
            }
        }
        counts.sort();
        let mut out = String::from(
            "# analyzer-baseline v1\n\
             # One `rule<TAB>count<TAB>file` entry per known finding group.\n\
             # This file only ratchets down: fixing a finding requires removing\n\
             # its entry; new findings are never added here without review.\n",
        );
        for (rule, file, n) in counts {
            out.push_str(&format!("{rule}\t{n}\t{file}\n"));
        }
        out
    }

    /// Remove up to the baselined count of findings per `(rule, file)` group
    /// from `report` (bumping `report.baselined`), and return a list of stale
    /// entries — groups whose recorded count exceeds what the analyzer now
    /// finds. Stale entries are an error: the baseline must shrink with the
    /// code so the ratchet can never mask a regression.
    pub fn apply(&self, report: &mut Report) -> Vec<String> {
        let mut stale = Vec::new();
        for (rule, file, count) in &self.entries {
            let mut removed = 0usize;
            report.diagnostics.retain(|d| {
                if removed < *count && d.rule == rule && &d.file == file {
                    removed += 1;
                    false
                } else {
                    true
                }
            });
            report.baselined += removed;
            if removed < *count {
                stale.push(format!(
                    "baseline records {count} `{rule}` finding(s) in {file} but only {removed} remain — shrink the baseline"
                ));
            }
        }
        stale
    }

    /// Keep only the entries whose file is in `files`. Used by
    /// `--changed-only`: entries for unscanned files would otherwise all
    /// read as stale.
    pub fn retain_files(&mut self, files: &[String]) {
        self.entries
            .retain(|(_, f, _)| files.iter().any(|x| x == f));
    }
}

/// Analyze the whole workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`). Scans `src/` and `crates/*/src/`; `tests/`,
/// `benches/`, `examples/`, `fixtures/`, and `vendor/` are exempt.
#[must_use = "the report carries the findings; dropping it skips the gate"]
pub fn analyze_workspace(root: &Path) -> Result<Report, AnalyzeError> {
    analyze_workspace_filtered(root, None)
}

/// Like [`analyze_workspace`], but when `only` is given, rule passes (and
/// `files_scanned`) are restricted to the listed workspace-relative paths.
/// The call graph is still built over the *whole* workspace so transitive
/// RN2xx evidence does not depend on the filter (`--changed-only` must never
/// see fewer hazards than a full run).
#[must_use = "the report carries the findings; dropping it skips the gate"]
pub fn analyze_workspace_filtered(
    root: &Path,
    only: Option<&[String]>,
) -> Result<Report, AnalyzeError> {
    let sources = load_workspace_sources(root)?;
    let graph = callgraph::CallGraph::build(&sources);
    let units = numeric::UnitEnv::build(&sources);
    let mut report = Report::default();
    for (rel, source) in &sources {
        if let Some(filter) = only {
            if !filter.iter().any(|f| f == rel) {
                continue;
            }
        }
        let rules = rules_for(rel);
        let file = rules::analyze_source_with(rel, source, rules, Some(&graph), Some(&units));
        report.files_scanned += 1;
        report.diagnostics.extend(file.diagnostics);
        report.invariants.extend(file.invariants);
        report.allows.extend(file.allows);
    }
    report.sort();
    Ok(report)
}

/// Read every analyzable `.rs` file under `root` as
/// `(workspace-relative path, source text)` pairs, sorted by path.
fn load_workspace_sources(root: &Path) -> Result<Vec<(String, String)>, AnalyzeError> {
    let mut files = Vec::new();
    for base in ["src", "crates"] {
        let dir = root.join(base);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        #[expect(
            clippy::disallowed_methods,
            reason = "the analyzer reads the tree it scans directly; it runs outside the fault-injection seam"
        )]
        let source = fs::read_to_string(path).map_err(|e| AnalyzeError {
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        sources.push((rel, source));
    }
    Ok(sources)
}

/// Expand a changed-file list with every file that transitively *calls* a
/// function defined in one of the changed files. Interprocedural rules
/// (RN2xx lock/RNG evidence, RN4xx unit and NaN propagation) report at the
/// call site, so editing only a callee's body must re-surface findings in
/// its unchanged callers — `--changed-only` scans this closure, not the raw
/// diff. Resolution is by name (simple and `Type::name`), matching the call
/// graph's own semantics; the returned list is sorted and deduplicated.
#[must_use = "the expanded closure drives which files are scanned and baselined"]
pub fn expand_changed_files(root: &Path, changed: &[String]) -> Result<Vec<String>, AnalyzeError> {
    let sources = load_workspace_sources(root)?;
    let graph = callgraph::CallGraph::build(&sources);
    let mut included: Vec<String> = changed.to_vec();
    included.sort();
    included.dedup();
    loop {
        let mut grew = false;
        for node in graph.nodes() {
            if included.binary_search(&node.file).is_ok() {
                continue;
            }
            let pulls_changed_callee = node.calls.iter().any(|callee| {
                graph.nodes().iter().any(|def| {
                    (def.name == *callee || def.qualified.as_deref() == Some(callee.as_str()))
                        && included.binary_search(&def.file).is_ok()
                })
            });
            if pulls_changed_callee {
                if let Err(i) = included.binary_search(&node.file) {
                    included.insert(i, node.file.clone());
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    Ok(included)
}

/// Analyze explicit paths with every rule enabled (fixture mode). The call
/// graph spans exactly the given files.
#[must_use = "the report carries the findings; dropping it skips the gate"]
pub fn analyze_paths(paths: &[PathBuf]) -> Result<Report, AnalyzeError> {
    let mut sources: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path.to_string_lossy().replace('\\', "/");
        #[expect(
            clippy::disallowed_methods,
            reason = "the analyzer reads the tree it scans directly; it runs outside the fault-injection seam"
        )]
        let source = fs::read_to_string(path).map_err(|e| AnalyzeError {
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        sources.push((rel, source));
    }
    let graph = callgraph::CallGraph::build(&sources);
    let units = numeric::UnitEnv::build(&sources);
    let mut report = Report::default();
    for (rel, source) in &sources {
        let file =
            rules::analyze_source_with(rel, source, RuleSet::all(), Some(&graph), Some(&units));
        report.files_scanned += 1;
        report.diagnostics.extend(file.diagnostics);
        report.invariants.extend(file.invariants);
        report.allows.extend(file.allows);
    }
    report.sort();
    Ok(report)
}

/// Rule selection by path: every rule runs everywhere except the
/// path-scoped families — hot-loop allocation and lock checks in the
/// [`ALLOC_HOT_PATHS`] kernels, numeric dataflow in [`NUMERIC_PATHS`].
fn rules_for(rel: &str) -> RuleSet {
    let hot = ALLOC_HOT_PATHS.iter().any(|h| rel.ends_with(h));
    RuleSet {
        hot_loop_alloc: hot,
        hot_loop_lock: hot,
        numeric: NUMERIC_PATHS.iter().any(|h| rel.ends_with(h)),
        ..RuleSet::all()
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
        // Hot-loop allocation and locks: the kernel files only.
        for hot in [
            "crates/nn/src/tensor.rs",
            "crates/nn/src/plan.rs",
            "crates/core/src/trainer.rs",
            "crates/core/src/batch.rs",
        ] {
            assert!(rules_for(hot).hot_loop_alloc, "{hot}");
            assert!(rules_for(hot).hot_loop_lock, "{hot}");
        }
        assert!(!rules_for("crates/core/src/model.rs").hot_loop_alloc);
        assert!(!rules_for("crates/core/src/model.rs").hot_loop_lock);
        // numeric: the measurement/kernel files only.
        assert!(rules_for("crates/simnet/src/sim.rs").numeric);
        assert!(rules_for("crates/core/src/metrics.rs").numeric);
        assert!(rules_for("crates/nn/src/tape.rs").numeric);
        assert!(!rules_for("crates/core/src/model.rs").numeric);
        assert!(!rules_for("crates/obs/src/lib.rs").numeric);
        // Everything else runs everywhere, binaries included.
        let bin = rules_for("crates/bench/src/bin/report.rs");
        assert!(bin.nan && bin.invariant && bin.concurrency);
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
        assert!(j.contains("\"version\": 4"));
        assert!(j.contains("\"files_scanned\": 1"));
        assert!(j.contains("\"by_severity\": {\"deny\": 1, \"warn\": 0}"));
        assert!(j.contains("\"by_rule\": {\"nan\": 1}"));
        assert!(j.contains("\"id\": \"RN003\""));
        assert!(j.contains("\"severity\": \"deny\""));
        assert!(j.contains("\\\"quotes\\\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn baseline_roundtrip_and_ratchet() {
        let mut r = Report {
            files_scanned: 1,
            ..Report::default()
        };
        r.diagnostics.push(rules::Diagnostic::new(
            "hot-loop-alloc",
            "a.rs",
            3,
            "x".into(),
        ));
        r.diagnostics.push(rules::Diagnostic::new(
            "hot-loop-alloc",
            "a.rs",
            9,
            "y".into(),
        ));
        r.diagnostics
            .push(rules::Diagnostic::new("nan", "b.rs", 1, "z".into()));
        let text = Baseline::render(&r);
        assert!(text.starts_with("# analyzer-baseline v1"));
        assert!(text.contains("hot-loop-alloc\t2\ta.rs"));
        assert!(text.contains("nan\t1\tb.rs"));

        // Applying the freshly written baseline removes everything, no stale.
        let b = Baseline::parse(&text).unwrap();
        let stale = b.apply(&mut r);
        assert!(stale.is_empty());
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.baselined, 3);

        // A baseline over-recording findings is stale: the ratchet must shrink.
        let mut r2 = Report::default();
        r2.diagnostics.push(rules::Diagnostic::new(
            "hot-loop-alloc",
            "a.rs",
            3,
            "x".into(),
        ));
        let stale = b.apply(&mut r2);
        assert_eq!(stale.len(), 2); // hot-loop-alloc count short + nan gone
        assert!(stale[0].contains("shrink the baseline"));
    }

    #[test]
    fn baseline_rejects_garbage() {
        assert!(Baseline::parse("no-tabs-here").is_err());
        assert!(Baseline::parse("not-a-rule\t1\ta.rs").is_err());
        assert!(Baseline::parse("nan\tmany\ta.rs").is_err());
        assert!(Baseline::parse("# comment\n\nnan\t1\ta.rs").is_ok());
        // A retired rule's name is no longer a rule.
        assert!(Baseline::parse("panic\t1\ta.rs").is_err());
    }

    #[test]
    fn severity_overrides_apply() {
        let mut r = Report::default();
        r.diagnostics.push(rules::Diagnostic::new(
            "hot-loop-alloc",
            "a.rs",
            3,
            "x".into(),
        ));
        assert_eq!(r.warn_count(), 1);
        r.apply_severity_overrides(&[("hot-loop-alloc".to_string(), Severity::Deny)]);
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warn_count(), 0);
    }
}
