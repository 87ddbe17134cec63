//! Rule passes over the token/comment streams produced by [`crate::lexer`].
//!
//! Token-level rules:
//!
//! | rule        | flags |
//! |-------------|-------|
//! | `nan`       | `.partial_cmp(..)` chained into `unwrap*`/`expect` (NaN panics or is silently misordered); division by a literal zero |
//! | `invariant` | `// INVARIANT:` comments whose function has no `debug_assert!` |
//!
//! The RN2xx family lives in [`crate::concurrency`], the RN4xx family in
//! [`crate::numeric`]. Rules that the toolchain checks better are retired
//! to it (see [`RETIRED`]); their IDs stay reserved.
//!
//! Suppression: `// lint: allow(<rule>, reason = "...")`. A trailing
//! directive covers its own line; a standalone directive covers the next
//! statement — and, when that statement opens a block, the whole block/item.
//! The reason is mandatory — an allow without one is itself reported (rule
//! `lint-syntax`), and an allow that suppresses nothing is reported as
//! `lint-stale`. A directive naming a retired rule is a `lint-syntax` error
//! that names what replaced it.

use crate::lexer::{Comment, Lexed, Token, TokenKind};

/// Static registry entry for one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name, as used in `lint: allow(..)` and reports.
    pub name: &'static str,
    /// Stable ID carried in the JSON report (`RN0xx` core, `RN1xx` semantic).
    pub id: &'static str,
}

/// The rule registry. IDs are append-only: a retired rule's ID is never
/// reused, so report consumers can rely on them across versions.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "nan",
        id: "RN003",
    },
    RuleInfo {
        name: "invariant",
        id: "RN005",
    },
    RuleInfo {
        name: "lint-syntax",
        id: "RN006",
    },
    RuleInfo {
        name: "lint-stale",
        id: "RN007",
    },
    RuleInfo {
        name: "relaxed-publish",
        id: "RN205",
    },
    RuleInfo {
        name: "unit-mismatch",
        id: "RN401",
    },
    RuleInfo {
        name: "unit-dimension",
        id: "RN402",
    },
    RuleInfo {
        name: "unit-sink",
        id: "RN403",
    },
    RuleInfo {
        name: "nan-div",
        id: "RN404",
    },
    RuleInfo {
        name: "nan-domain",
        id: "RN405",
    },
    RuleInfo {
        name: "nan-sink",
        id: "RN406",
    },
];

/// A rule retired in favour of a toolchain check: its name, its reserved
/// ID, and what now enforces what it checked.
#[derive(Debug, Clone, Copy)]
pub struct RetiredRule {
    /// Former rule name, as once used in `lint: allow(..)`.
    pub name: &'static str,
    /// Former ID. Reserved: never reassigned to another rule.
    pub id: &'static str,
    /// What replaced it: clippy lints (`#[expect]` the one that fires), a
    /// rustc lint, or a test.
    pub replaced_by: &'static [&'static str],
}

/// What replaced the parallel-determinism rules: one scoped-thread helper
/// that clippy keeps the only parallel region, and the tests that pin its
/// output at 1 and N workers.
const PARALLEL_REGION: &[&str] = &[
    "clippy::disallowed_methods on std::thread::scope outside routenet_core::par::strided_map",
    "the 1-vs-N byte-identity tests parallel_training_is_bit_identical_to_sequential (routenet-core) and parallel_equals_sequential (routenet-dataset)",
];

/// Retired rules. Clippy lints run from `scripts/check.sh` (configuration
/// in `clippy.toml`); `unsafe_code` is denied in the workspace manifest.
pub const RETIRED: &[RetiredRule] = &[
    RetiredRule {
        name: "panic",
        id: "RN001",
        replaced_by: &[
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
            "clippy::unreachable",
            "clippy::todo",
            "clippy::unimplemented",
            "clippy::indexing_slicing",
        ],
    },
    RetiredRule {
        name: "float-eq",
        id: "RN002",
        replaced_by: &["clippy::float_cmp"],
    },
    RetiredRule {
        name: "cast",
        id: "RN004",
        replaced_by: &[
            "clippy::cast_possible_truncation",
            "clippy::cast_sign_loss",
            "clippy::cast_possible_wrap",
        ],
    },
    RetiredRule {
        name: "determinism",
        id: "RN101",
        replaced_by: &["clippy::iter_over_hash_type", "clippy::disallowed_methods"],
    },
    RetiredRule {
        name: "error-discard",
        id: "RN102",
        replaced_by: &[
            "clippy::let_underscore_must_use",
            "clippy::unused_result_ok",
        ],
    },
    RetiredRule {
        name: "hot-loop-alloc",
        id: "RN103",
        replaced_by: &["the counting-allocator test tests/alloc_counts.rs"],
    },
    RetiredRule {
        name: "parallel-shared-mut",
        id: "RN201",
        replaced_by: &["the borrow checker, with unsafe_code denied workspace-wide"],
    },
    RetiredRule {
        name: "parallel-float-reduce",
        id: "RN202",
        replaced_by: PARALLEL_REGION,
    },
    RetiredRule {
        name: "parallel-rng",
        id: "RN203",
        replaced_by: PARALLEL_REGION,
    },
    RetiredRule {
        name: "hot-loop-lock",
        id: "RN204",
        replaced_by: &[
            "clippy::disallowed_types on std::sync::Mutex and std::sync::RwLock",
            "the telemetry-allocation cases in tests/alloc_counts.rs",
        ],
    },
    RetiredRule {
        name: "io-seam",
        id: "RN301",
        replaced_by: &["clippy::disallowed_methods", "clippy::disallowed_types"],
    },
];

/// Registry entry for `rule` (`None` for unknown names).
pub fn rule_info(rule: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == rule)
}

/// Stable ID for `rule` (`"RN000"` for unknown names, which never leave the
/// analyzer's own tests).
pub fn rule_id(rule: &str) -> &'static str {
    rule_info(rule).map_or("RN000", |r| r.id)
}

/// One finding, pointing at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (one of the [`RULES`] names).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Construct a finding for `rule` at `file:line`.
    pub fn new(rule: &'static str, file: &str, line: u32, message: String) -> Self {
        Diagnostic {
            rule,
            file: file.to_string(),
            line,
            message,
        }
    }

    /// Stable ID of this finding's rule.
    pub fn id(&self) -> &'static str {
        rule_id(self.rule)
    }
}

/// An `// INVARIANT:` annotation and whether its function checks it.
#[derive(Debug, Clone)]
pub struct InvariantEntry {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Name of the function the invariant is attached to (empty if unattached).
    pub function: String,
    /// Invariant text (after `INVARIANT:`).
    pub text: String,
    /// Whether the function body contains a `debug_assert!` family call.
    pub checked: bool,
}

/// A parsed `// lint: allow(..)` directive.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// Rule being allowed.
    pub rule: String,
    /// Justification text.
    pub reason: String,
}

/// Which path-scoped rule families run on a given file. Every other rule
/// runs on every file.
#[derive(Debug, Clone, Copy)]
pub struct RuleSet {
    /// RN401–RN406: numeric dataflow (unit/dimension inference and
    /// NaN-taint) in the measurement and kernel files.
    pub numeric: bool,
}

impl RuleSet {
    /// Everything on — used for fixtures and the analyzer's own tests.
    pub fn all() -> Self {
        RuleSet { numeric: true }
    }

    /// Is `rule` enabled under this set? Used by stale-allow detection so a
    /// directive for a rule that never runs here is not reported as stale.
    pub fn enables(&self, rule: &str) -> bool {
        match rule {
            "unit-mismatch" | "unit-dimension" | "unit-sink" | "nan-div" | "nan-domain"
            | "nan-sink" => self.numeric,
            _ => rule_info(rule).is_some(),
        }
    }
}

/// Full single-file analysis result.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings after allow-directive and test-span filtering.
    pub diagnostics: Vec<Diagnostic>,
    /// Invariant index entries (including checked ones).
    pub invariants: Vec<InvariantEntry>,
    /// Allow directives that suppressed at least the syntax check.
    pub allows: Vec<AllowEntry>,
}

/// Analyze one file's source text on its own: the RN4xx checks see a
/// unit environment built from this file alone.
pub fn analyze_source(file: &str, source: &str, rules: RuleSet) -> FileReport {
    analyze_source_with(file, source, rules, None)
}

/// Analyze one file's source text with an optional workspace unit
/// environment for the RN4xx numeric-dataflow checks. When `units` is
/// `None` and the numeric family is enabled, a single-file environment is
/// built from this source alone (cross-call inference degrades to
/// same-file calls only).
pub fn analyze_source_with(
    file: &str,
    source: &str,
    rules: RuleSet,
    units: Option<&crate::numeric::UnitEnv>,
) -> FileReport {
    let lexed = crate::lexer::lex(source);
    let test_spans = test_mod_spans(&lexed.tokens);
    let fns = function_spans(&lexed.tokens);
    let directives = parse_directives(file, &lexed, &test_spans);

    let mut raw: Vec<Diagnostic> = directives.syntax_errors.clone();
    nan_rule(file, &lexed.tokens, &mut raw);
    crate::concurrency::relaxed_publish_rule(file, &lexed.tokens, &mut raw);
    if rules.numeric {
        match units {
            Some(env) => crate::numeric::numeric_rules(file, &lexed, &fns, env, &mut raw),
            None => {
                let env = crate::numeric::UnitEnv::build(&[(file.to_string(), source.to_string())]);
                crate::numeric::numeric_rules(file, &lexed, &fns, &env, &mut raw);
            }
        }
    }

    let mut invariants = Vec::new();
    invariant_rule(file, &lexed, &fns, &directives, &mut raw, &mut invariants);

    // Stale-allow detection against the *raw* findings (before test-span
    // filtering, so an allow inside test code is never reported as stale).
    let mut stale: Vec<Diagnostic> = Vec::new();
    for span in &directives.allow_spans {
        let matched = raw
            .iter()
            .any(|d| d.rule == span.rule && span.covers(d.line));
        if !matched && rules.enables(&span.rule) && !in_spans(span.directive_line, &test_spans) {
            stale.push(Diagnostic::new(
                "lint-stale",
                file,
                span.directive_line,
                format!(
                    "lint: allow({}) suppressed nothing — remove the stale directive",
                    span.rule
                ),
            ));
        }
    }
    raw.extend(stale);

    let diagnostics = raw
        .into_iter()
        .filter(|d| !in_spans(d.line, &test_spans))
        .filter(|d| !directives.is_allowed(d.rule, d.line))
        .collect();

    FileReport {
        diagnostics,
        invariants,
        allows: directives.allows,
    }
}

// ---------------------------------------------------------------------------
// Directives: `lint: allow(..)` and `INVARIANT:` comments
// ---------------------------------------------------------------------------

/// Line coverage of one `lint: allow(..)` directive.
#[derive(Debug)]
struct AllowSpan {
    rule: String,
    /// Line of the directive comment (always covered, so trailing allows
    /// keep working).
    directive_line: u32,
    /// First covered code line.
    start: u32,
    /// Last covered code line: equal to `start` for trailing directives,
    /// extended to the end of the next statement — or of the block/item it
    /// opens — for standalone directives.
    end: u32,
}

impl AllowSpan {
    fn covers(&self, line: u32) -> bool {
        line == self.directive_line || (self.start..=self.end).contains(&line)
    }
}

struct Directives {
    allow_spans: Vec<AllowSpan>,
    allows: Vec<AllowEntry>,
    invariant_comments: Vec<Comment>,
    syntax_errors: Vec<Diagnostic>,
}

impl Directives {
    fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allow_spans
            .iter()
            .any(|s| s.rule == rule && s.covers(line))
    }
}

fn parse_directives(file: &str, lexed: &Lexed, test_spans: &[(u32, u32)]) -> Directives {
    let mut d = Directives {
        allow_spans: Vec::new(),
        allows: Vec::new(),
        invariant_comments: Vec::new(),
        syntax_errors: Vec::new(),
    };
    for c in &lexed.comments {
        // Strip doc-comment leaders (`///`, `//!` arrive as `/`, `!`).
        let text = c.text.trim_start_matches(['/', '!']).trim();
        if let Some(rest) = text.strip_prefix("INVARIANT:") {
            d.invariant_comments.push(Comment {
                line: c.line,
                text: rest.trim().to_string(),
            });
            continue;
        }
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        match parse_allow(rest.trim()) {
            Ok((rule, reason)) => {
                d.allow_spans.push(allow_span(&rule, c.line, &lexed.tokens));
                d.allows.push(AllowEntry {
                    file: file.to_string(),
                    line: c.line,
                    rule,
                    reason,
                });
            }
            Err(msg) if !in_spans(c.line, test_spans) => {
                d.syntax_errors
                    .push(Diagnostic::new("lint-syntax", file, c.line, msg));
            }
            Err(_) => {}
        }
    }
    d
}

/// Compute the line span a directive at `line` suppresses.
///
/// A trailing directive (code on the same line) covers its line plus the
/// next code line, matching the historical behavior. A standalone directive
/// covers the statement that follows it; when that statement opens a block
/// (`fn`, `impl`, `for`, ...) the whole block/item is covered, and coverage
/// stops at the block's closing brace — it never leaks to the next item.
fn allow_span(rule: &str, line: u32, tokens: &[Token]) -> AllowSpan {
    let trailing = tokens.iter().any(|t| t.line == line);
    let Some(idx) = tokens.iter().position(|t| t.line > line) else {
        return AllowSpan {
            rule: rule.to_string(),
            directive_line: line,
            start: line,
            end: line,
        };
    };
    let start = tokens[idx].line;
    if trailing {
        return AllowSpan {
            rule: rule.to_string(),
            directive_line: line,
            start,
            end: start,
        };
    }
    let mut end = start;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut j = idx;
    while let Some(t) = tokens.get(j) {
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => {
                let close = skip_balanced(tokens, j, "{", "}");
                end = tokens
                    .get(close.saturating_sub(1))
                    .map_or(t.line, |t| t.line);
                break;
            }
            ";" | "," if paren == 0 && bracket == 0 => {
                end = t.line;
                break;
            }
            "}" => {
                // Closing the enclosing block: the covered statement was a
                // tail expression.
                end = t.line;
                break;
            }
            _ => {}
        }
        end = t.line;
        j += 1;
    }
    AllowSpan {
        rule: rule.to_string(),
        directive_line: line,
        start,
        end,
    }
}

/// Parse `allow(<rule>, reason = "...")`. The reason is mandatory.
fn parse_allow(text: &str) -> Result<(String, String), String> {
    let Some(inner) = text
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('('))
        .and_then(|t| t.strip_suffix(')'))
    else {
        return Err(format!("malformed lint directive `lint: {text}` — expected `lint: allow(<rule>, reason = \"...\")`"));
    };
    let Some((rule, rest)) = inner.split_once(',') else {
        return Err(
            "lint allow is missing a reason — write `lint: allow(<rule>, reason = \"...\")`"
                .to_string(),
        );
    };
    let rule = rule.trim().to_string();
    if let Some(r) = RETIRED.iter().find(|r| r.name == rule) {
        let by = r.replaced_by.join(", ");
        return Err(if r.replaced_by.iter().all(|l| l.starts_with("clippy::")) {
            format!(
                "lint rule `{rule}` ({}) is retired to clippy — replace the directive with `#[expect(<lint>, reason = \"...\")]` for the lint that fires: {by}",
                r.id
            )
        } else {
            format!(
                "lint rule `{rule}` ({}) is retired — delete the directive; {by} now checks what it checked",
                r.id
            )
        });
    }
    if rule_info(&rule).is_none() {
        let known: Vec<&str> = RULES
            .iter()
            .map(|r| r.name)
            .filter(|r| !r.starts_with("lint-"))
            .collect();
        return Err(format!(
            "unknown lint rule `{rule}` (known: {})",
            known.join(", ")
        ));
    }
    let reason = rest
        .trim()
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim)
        .map(|t| t.trim_matches('"').trim())
        .unwrap_or("");
    if reason.is_empty() {
        return Err(format!(
            "lint allow({rule}) has an empty reason — justify the exception"
        ));
    }
    Ok((rule, reason.to_string()))
}

// ---------------------------------------------------------------------------
// Structural scans: `#[cfg(test)] mod` spans and function spans
// ---------------------------------------------------------------------------

pub(crate) fn in_spans(line: u32, spans: &[(u32, u32)]) -> bool {
    spans.iter().any(|&(a, b)| (a..=b).contains(&line))
}

/// Line spans of `#[cfg(test)] mod .. { .. }` bodies.
pub(crate) fn test_mod_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Skip this attribute, any further attributes, and visibility.
            let mut j = skip_attr(tokens, i);
            loop {
                if matches!(tokens.get(j), Some(t) if t.text == "#") {
                    j = skip_attr(tokens, j);
                } else if matches!(tokens.get(j), Some(t) if t.text == "pub") {
                    j += 1;
                    if matches!(tokens.get(j), Some(t) if t.text == "(") {
                        j = skip_balanced(tokens, j, "(", ")");
                    }
                } else {
                    break;
                }
            }
            if matches!(tokens.get(j), Some(t) if t.text == "mod") {
                // mod <name> { ... }
                if let Some(open) = tokens[j..].iter().position(|t| t.text == "{") {
                    let start_idx = j + open;
                    let end_idx = skip_balanced(tokens, start_idx, "{", "}");
                    let start = tokens[start_idx].line;
                    let end = tokens
                        .get(end_idx.saturating_sub(1))
                        .map_or(start, |t| t.line);
                    spans.push((tokens[i].line, end));
                    i = end_idx;
                    continue;
                }
            }
        }
        i += 1;
    }
    spans
}

/// Does `tokens[i..]` start `#[cfg(test)]`?
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let texts: Vec<&str> = tokens[i..]
        .iter()
        .take(7)
        .map(|t| t.text.as_str())
        .collect();
    matches!(texts.as_slice(), ["#", "[", "cfg", "(", "test", ")", "]"])
}

/// Given `tokens[i] == "#"`, return the index just past the attribute.
pub(crate) fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if matches!(tokens.get(j), Some(t) if t.text == "!") {
        j += 1;
    }
    if matches!(tokens.get(j), Some(t) if t.text == "[") {
        skip_balanced(tokens, j, "[", "]")
    } else {
        j
    }
}

/// Given `tokens[open]` is the opening delimiter, return the index just past
/// its matching close (or `tokens.len()` when unbalanced).
pub(crate) fn skip_balanced(tokens: &[Token], open: usize, open_t: &str, close_t: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].text == open_t {
            depth += 1;
        } else if tokens[j].text == close_t {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// A function item: name, signature line, and body token/line extent.
#[derive(Debug)]
pub(crate) struct FnSpan {
    pub(crate) name: String,
    pub(crate) sig_line: u32,
    pub(crate) body_start_line: u32,
    pub(crate) body_end_line: u32,
    pub(crate) body_tokens: (usize, usize),
}

pub(crate) fn function_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Ident && tokens[i].text == "fn" {
            let name_tok = tokens.get(i + 1);
            // `fn(` is a function-pointer type, `Fn(..)` never lexes as `fn`.
            if let Some(name) = name_tok.filter(|t| t.kind == TokenKind::Ident) {
                // Find the body `{`: first brace outside parens/brackets.
                let mut j = i + 2;
                let mut paren = 0i32;
                let mut bracket = 0i32;
                let mut body = None;
                while let Some(t) = tokens.get(j) {
                    match t.text.as_str() {
                        "(" => paren += 1,
                        ")" => paren -= 1,
                        "[" => bracket += 1,
                        "]" => bracket -= 1,
                        "{" if paren == 0 && bracket == 0 => {
                            body = Some(j);
                            break;
                        }
                        ";" if paren == 0 && bracket == 0 => break, // trait decl
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(open) = body {
                    let end = skip_balanced(tokens, open, "{", "}");
                    fns.push(FnSpan {
                        name: name.text.clone(),
                        sig_line: tokens[i].line,
                        body_start_line: tokens[open].line,
                        body_end_line: tokens
                            .get(end.saturating_sub(1))
                            .map_or(tokens[open].line, |t| t.line),
                        body_tokens: (open, end),
                    });
                    // Continue scanning *inside* the body too (nested fns):
                    // advance past `fn name` only.
                }
            }
        }
        i += 1;
    }
    fns
}

// ---------------------------------------------------------------------------
// Rule: nan
// ---------------------------------------------------------------------------

const NAN_SINKS: &[&str] = &["unwrap", "expect", "unwrap_or", "unwrap_or_else"];

fn nan_rule(file: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        // `.partial_cmp(..).unwrap*` — panics on NaN or silently misorders it.
        if t.kind == TokenKind::Ident
            && t.text == "partial_cmp"
            && i.checked_sub(1)
                .and_then(|p| tokens.get(p))
                .is_some_and(|p| p.text == ".")
            && matches!(tokens.get(i + 1), Some(n) if n.text == "(")
        {
            let after_args = skip_balanced(tokens, i + 1, "(", ")");
            let chained = matches!(tokens.get(after_args), Some(d) if d.text == ".")
                && matches!(
                    tokens.get(after_args + 1),
                    Some(m) if NAN_SINKS.contains(&m.text.as_str())
                );
            if chained {
                let sink = &tokens[after_args + 1].text;
                out.push(Diagnostic::new(
                    "nan",
                    file,
                    t.line,
                    format!(
                        ".partial_cmp(..).{sink}(..) mishandles NaN — use f64::total_cmp or handle the None case"
                    ),
                ));
            }
        }
        // Division by a literal zero always produces inf/NaN.
        if t.text == "/"
            && matches!(
                tokens.get(i + 1),
                Some(z) if z.kind == TokenKind::Float && is_zero_float_literal(&z.text)
            )
        {
            out.push(Diagnostic::new(
                "nan",
                file,
                t.line,
                "division by literal 0.0 produces inf/NaN".to_string(),
            ));
        }
    }
}

/// True for `0.0`, `0.`, `0.000f64`, ... — every digit is zero.
fn is_zero_float_literal(text: &str) -> bool {
    let core = text
        .strip_suffix("f64")
        .or_else(|| text.strip_suffix("f32"))
        .unwrap_or(text);
    core.chars().all(|c| matches!(c, '0' | '.' | '_')) && core.contains('0')
}

// ---------------------------------------------------------------------------
// Rule: invariant
// ---------------------------------------------------------------------------

fn invariant_rule(
    file: &str,
    lexed: &Lexed,
    fns: &[FnSpan],
    directives: &Directives,
    out: &mut Vec<Diagnostic>,
    index: &mut Vec<InvariantEntry>,
) {
    for c in &directives.invariant_comments {
        // Innermost function whose body contains the comment line, else the
        // next function declared at or below it (attrs/docs may intervene).
        let owner = fns
            .iter()
            .filter(|f| (f.body_start_line..=f.body_end_line).contains(&c.line))
            .min_by_key(|f| f.body_end_line - f.body_start_line)
            .or_else(|| {
                fns.iter()
                    .filter(|f| f.sig_line >= c.line)
                    .min_by_key(|f| f.sig_line)
            });
        match owner {
            None => {
                out.push(Diagnostic::new(
                    "invariant",
                    file,
                    c.line,
                    "INVARIANT comment is not attached to any function".to_string(),
                ));
                index.push(InvariantEntry {
                    file: file.to_string(),
                    line: c.line,
                    function: String::new(),
                    text: c.text.clone(),
                    checked: false,
                });
            }
            Some(f) => {
                let (a, b) = f.body_tokens;
                let checked = lexed.tokens[a..b.min(lexed.tokens.len())]
                    .windows(2)
                    .any(|w| {
                        w[0].kind == TokenKind::Ident
                            && w[0].text.starts_with("debug_assert")
                            && w[1].text == "!"
                    });
                if !checked {
                    out.push(Diagnostic::new(
                        "invariant",
                        file,
                        c.line,
                        format!(
                            "fn {} declares an INVARIANT but contains no debug_assert! backing it",
                            f.name
                        ),
                    ));
                }
                index.push(InvariantEntry {
                    file: file.to_string(),
                    line: c.line,
                    function: f.name.clone(),
                    text: c.text.clone(),
                    checked,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> FileReport {
        analyze_source("test.rs", src, RuleSet::all())
    }

    fn rules_of(rep: &FileReport) -> Vec<&'static str> {
        rep.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn findings_in_test_modules_are_exempt() {
        let src = "fn f(a: f64, b: f64) -> Ordering { a.partial_cmp(&b).unwrap_or(Ordering::Equal) }\n#[cfg(test)]\nmod tests {\n fn g(a: f64, b: f64) -> Ordering { a.partial_cmp(&b).unwrap_or(Ordering::Equal) }\n}";
        let r = run(src);
        assert_eq!(rules_of(&r), vec!["nan"]);
        assert_eq!(r.diagnostics[0].line, 1);
    }

    #[test]
    fn allow_comment_suppresses_same_line_and_above() {
        let same = "fn f(a: f64, b: f64) -> Ordering { a.partial_cmp(&b).unwrap_or(Ordering::Equal) } // lint: allow(nan, reason = \"ties are fine here\")";
        assert!(run(same).diagnostics.is_empty());
        let above = "// lint: allow(nan, reason = \"ties are fine here\")\nfn f(a: f64, b: f64) -> Ordering { a.partial_cmp(&b).unwrap_or(Ordering::Equal) }";
        assert!(run(above).diagnostics.is_empty());
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let r = run("// lint: allow(nan)\nfn f(a: f64, b: f64) -> Ordering { a.partial_cmp(&b).unwrap_or(Ordering::Equal) }");
        // The malformed allow is an error and suppresses nothing.
        assert_eq!(rules_of(&r), vec!["lint-syntax", "nan"]);
    }

    #[test]
    fn unknown_rule_name_is_reported() {
        let r = run("// lint: allow(bogus, reason = \"x\")\nfn f() {}");
        assert_eq!(rules_of(&r), vec!["lint-syntax"]);
        assert!(r.diagnostics[0].message.contains("known: nan, invariant"));
    }

    #[test]
    fn retired_rule_directive_names_its_replacement() {
        for (rule, retired_to, lint) in [
            ("panic", "retired to clippy", "clippy::expect_used"),
            ("float-eq", "retired to clippy", "clippy::float_cmp"),
            (
                "cast",
                "retired to clippy",
                "clippy::cast_possible_truncation",
            ),
            (
                "determinism",
                "retired to clippy",
                "clippy::iter_over_hash_type",
            ),
            (
                "error-discard",
                "retired to clippy",
                "clippy::let_underscore_must_use",
            ),
            (
                "hot-loop-alloc",
                "retired — delete",
                "tests/alloc_counts.rs",
            ),
            (
                "parallel-shared-mut",
                "retired — delete",
                "unsafe_code denied",
            ),
            (
                "parallel-float-reduce",
                "retired — delete",
                "parallel_training_is_bit_identical_to_sequential",
            ),
            (
                "parallel-rng",
                "retired — delete",
                "std::thread::scope outside routenet_core::par::strided_map",
            ),
            (
                "hot-loop-lock",
                "retired — delete",
                "clippy::disallowed_types on std::sync::Mutex",
            ),
            ("io-seam", "retired to clippy", "clippy::disallowed_methods"),
        ] {
            let src =
                format!("// lint: allow({rule}, reason = \"from before the move\")\nfn f() {{}}");
            let r = run(&src);
            assert_eq!(rules_of(&r), vec!["lint-syntax"], "{rule}");
            let msg = &r.diagnostics[0].message;
            assert!(msg.contains(retired_to), "{rule}: {msg}");
            assert!(msg.contains(lint), "{rule}: {msg}");
            assert!(
                r.allows.is_empty(),
                "{rule}: a retired allow is not in force"
            );
        }
    }

    #[test]
    fn partial_cmp_chain_flagged() {
        let src = "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal) }";
        assert_eq!(rules_of(&run(src)), vec!["nan"]);
    }

    #[test]
    fn invariant_without_debug_assert_flagged() {
        let src = "/// INVARIANT: x is finite\nfn f(x: f64) -> f64 { x * 2.0 }";
        let r = run(src);
        assert_eq!(rules_of(&r), vec!["invariant"]);
        assert_eq!(r.invariants.len(), 1);
        assert!(!r.invariants[0].checked);
        assert_eq!(r.invariants[0].function, "f");
    }

    #[test]
    fn invariant_with_debug_assert_indexed_as_checked() {
        let src = "// INVARIANT: x is finite\nfn f(x: f64) -> f64 { debug_assert!(x.is_finite()); x * 2.0 }";
        let r = run(src);
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.invariants.len(), 1);
        assert!(r.invariants[0].checked);
    }

    #[test]
    fn invariant_inside_fn_body_attaches_to_that_fn() {
        let src = "fn outer(x: f64) -> f64 {\n    // INVARIANT: gradient is finite\n    debug_assert!(x.is_finite());\n    x\n}";
        let r = run(src);
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.invariants[0].function, "outer");
    }

    #[test]
    fn strings_do_not_trigger_rules() {
        let src = "fn f() -> &'static str { \"a.partial_cmp(&b).unwrap() / 0.0\" }";
        assert!(run(src).diagnostics.is_empty());
    }

    #[test]
    fn allow_scopes_to_following_block_not_rest_of_file() {
        let src = "fn f(xs: &[f64], y: f64) -> u32 {\n\
                       let mut t = 0;\n\
                       // lint: allow(nan, reason = \"xs is NaN-free by construction\")\n\
                       for x in xs.iter() {\n\
                           t += x.partial_cmp(&y).unwrap() as u32;\n\
                       }\n\
                       for x in xs.iter() {\n\
                           t += x.partial_cmp(&y).unwrap() as u32;\n\
                       }\n\
                       t\n\
                   }";
        let rep = run(src);
        // Only the second loop (outside the allow's block span) is flagged.
        assert_eq!(rules_of(&rep), vec!["nan"]);
        assert_eq!(rep.diagnostics[0].line, 8);
    }

    #[test]
    fn stale_allow_is_reported() {
        let src = "// lint: allow(nan, reason = \"nothing here compares\")\n\
                   fn f() -> u32 { 1 }";
        let rep = run(src);
        assert_eq!(rules_of(&rep), vec!["lint-stale"]);
        assert!(rep.diagnostics[0].message.contains("suppressed nothing"));
    }

    #[test]
    fn matching_allow_is_not_stale() {
        let src = "fn f(a: f64, b: f64) -> Ordering {\n\
                       // lint: allow(nan, reason = \"ties are fine here\")\n\
                       a.partial_cmp(&b).unwrap_or(Ordering::Equal)\n\
                   }";
        let rep = run(src);
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
        assert_eq!(rep.allows.len(), 1);
    }

    #[test]
    fn rule_ids_are_stable() {
        assert_eq!(rule_id("nan"), "RN003");
        assert_eq!(rule_id("relaxed-publish"), "RN205");
        assert_eq!(rule_id("nan-sink"), "RN406");
        assert_eq!(rule_id("unheard-of"), "RN000");
        // Retired rules keep their IDs reserved: no live rule takes over a
        // retired name or ID, and the retired names no longer resolve.
        let retired: Vec<(&str, &str)> = RETIRED.iter().map(|r| (r.name, r.id)).collect();
        assert_eq!(
            retired,
            vec![
                ("panic", "RN001"),
                ("float-eq", "RN002"),
                ("cast", "RN004"),
                ("determinism", "RN101"),
                ("error-discard", "RN102"),
                ("hot-loop-alloc", "RN103"),
                ("parallel-shared-mut", "RN201"),
                ("parallel-float-reduce", "RN202"),
                ("parallel-rng", "RN203"),
                ("hot-loop-lock", "RN204"),
                ("io-seam", "RN301"),
            ]
        );
        for r in RETIRED {
            assert!(
                RULES.iter().all(|live| live.id != r.id),
                "{} reassigned",
                r.id
            );
            assert_eq!(rule_id(r.name), "RN000", "{} reused", r.name);
        }
    }
}
