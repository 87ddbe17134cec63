//! RN4xx: interprocedural numeric dataflow — unit/dimension inference and
//! NaN-taint tracking over the [`crate::lexer`] token stream, with its own
//! table of each function's callees (matched by name).
//!
//! Units are seeded from `/// unit: s | s^2 | bit/s | bits | ratio | count`
//! doc annotations on fields, functions, and `let` bindings, plus built-in
//! name heuristics (`*_s`, `*_s2`, `*_bps`, `capacity*`, `*util*`,
//! `*_prob`/`*_frac`/`*_ratio`). Units propagate through arithmetic
//! expressions (a `Dim` is a pair of time/data exponents, so `bit/s × s`
//! correctly yields `bits`) and across calls via annotated or inferred
//! function return units, iterated to a monotone fixed point.
//!
//! | rule             | flags |
//! |------------------|-------|
//! | `unit-mismatch`  | RN401: add/subtract/compare of operands with different known units |
//! | `unit-dimension` | RN402: a binding whose computed dimension contradicts its declared/derived unit (rate×time misuse), and `.min(1.0)`/`.clamp(0.0, 1.0)` applied to a division result (masks out-of-range ratios — the PR 4 utilization-clamp bug) |
//! | `unit-sink`      | RN403: unit-carrying values fed to intrinsically unitless transforms (`sigmoid`, `exp`, `tanh`) |
//! | `nan-div`        | RN404: divisions whose denominator is not proven nonzero by a guard, `.max(..)`, assert, or monotone counter |
//! | `nan-domain`     | RN405: `ln`/`log2`/`log10`/`sqrt`/`powf` on values not proven in-domain |
//! | `nan-sink`       | RN406: possibly-NaN values flowing into labels, features, loss, or telemetry sinks without an `is_finite` boundary |
//!
//! Everything here is deliberately conservative: a finding requires *known*
//! units or *locally evident* lack of a guard, so `Unknown` never flags.
//! Evidence scanning is function-scoped (plus constructor asserts reached by
//! name), which is a heuristic, not a dominator analysis — the escape hatch
//! is the usual `// lint: allow(<rule>, reason = "...")`.

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use crate::rules::{self, Diagnostic, FnSpan};

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

/// A physical dimension as exponents of time (seconds) and data (bits).
/// `s` = (1, 0), `bit/s` = (-1, 1), `bits` = (0, 1), `ratio`/`count` = (0, 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Dim {
    /// Exponent of seconds.
    pub time: i8,
    /// Exponent of bits.
    pub data: i8,
}

impl Dim {
    /// Dimensionless (ratios, probabilities, counts).
    pub const RATIO: Dim = Dim { time: 0, data: 0 };
    /// Seconds.
    pub const SECONDS: Dim = Dim { time: 1, data: 0 };
    /// Seconds squared (jitter/variance of delay).
    pub const S2: Dim = Dim { time: 2, data: 0 };
    /// Bits.
    pub const BITS: Dim = Dim { time: 0, data: 1 };
    /// Bits per second.
    pub const BPS: Dim = Dim { time: -1, data: 1 };
    /// Events per second.
    pub const PER_S: Dim = Dim { time: -1, data: 0 };

    fn mul(self, o: Dim) -> Dim {
        Dim {
            time: self.time.saturating_add(o.time),
            data: self.data.saturating_add(o.data),
        }
    }

    fn div(self, o: Dim) -> Dim {
        Dim {
            time: self.time.saturating_sub(o.time),
            data: self.data.saturating_sub(o.data),
        }
    }

    fn pow(self, k: i8) -> Dim {
        Dim {
            time: self.time.saturating_mul(k),
            data: self.data.saturating_mul(k),
        }
    }

    /// Canonical display name used in diagnostics.
    pub fn name(self) -> String {
        match (self.time, self.data) {
            (0, 0) => "ratio".into(),
            (1, 0) => "s".into(),
            (2, 0) => "s^2".into(),
            (-1, 0) => "1/s".into(),
            (0, 1) => "bits".into(),
            (-1, 1) => "bit/s".into(),
            (t, d) => format!("s^{t}*bit^{d}"),
        }
    }
}

/// Inference result for one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Unit {
    /// No information — never produces a finding.
    #[default]
    Unknown,
    /// Known dimension.
    Known(Dim),
}

impl Unit {
    fn dim(self) -> Option<Dim> {
        match self {
            Unit::Known(d) => Some(d),
            Unit::Unknown => None,
        }
    }
}

/// Parse the value of a `unit:` annotation. `None` for unknown spellings.
pub fn parse_unit_text(s: &str) -> Option<Dim> {
    match s.trim() {
        "s" => Some(Dim::SECONDS),
        "s^2" | "s2" => Some(Dim::S2),
        "bit/s" | "bps" => Some(Dim::BPS),
        "bit" | "bits" => Some(Dim::BITS),
        "ratio" | "count" => Some(Dim::RATIO),
        "1/s" | "hz" => Some(Dim::PER_S),
        _ => None,
    }
}

/// The spellings accepted by [`parse_unit_text`], for diagnostics.
pub const KNOWN_UNITS: &str = "s, s^2, bit/s, bits, ratio, count, 1/s";

/// Built-in name heuristics. `method_pos` suppresses the bare `capacity`
/// match so `Vec::capacity()` never reads as bit/s.
fn unit_from_name(name: &str, method_pos: bool) -> Unit {
    let n = name.to_ascii_lowercase();
    if n.starts_with("with_") {
        return Unit::Unknown; // Vec::with_capacity and friends
    }
    if n.ends_with("_s2") {
        return Unit::Known(Dim::S2);
    }
    if n.ends_with("_s") || n.ends_with("_delay") {
        return Unit::Known(Dim::SECONDS);
    }
    if n.ends_with("_bps") || (!method_pos && n.contains("capacity")) {
        return Unit::Known(Dim::BPS);
    }
    if n.ends_with("_bits") {
        return Unit::Known(Dim::BITS);
    }
    if n.contains("util")
        || n.ends_with("_prob")
        || n.ends_with("_frac")
        || n.ends_with("_ratio")
        || n.ends_with("intensity")
    {
        return Unit::Known(Dim::RATIO);
    }
    Unit::Unknown
}

// ---------------------------------------------------------------------------
// Workspace unit environment
// ---------------------------------------------------------------------------

/// Workspace-wide numeric environment: annotated units for fields, function
/// returns, and `let` bindings, plus the NaN-effect tables used by RN406.
/// Built once over all sources, so a finding in one file can rest on
/// annotations in another.
#[derive(Debug, Default)]
pub struct UnitEnv {
    /// Field name -> annotated dim (`None` = conflicting annotations).
    fields: Vec<(String, Option<Dim>)>,
    /// Function name -> annotated or inferred return dim.
    fns: Vec<(String, Option<Dim>)>,
    /// Annotated `let` bindings: (file, line, name, dim).
    locals: Vec<(String, u32, String, Dim)>,
    /// `const NAME: f64 = <literal>;` values (`None` = conflicting
    /// definitions across the workspace). Lets `.max(EPS)`-style guards
    /// through named constants count as proven, not just bare literals.
    consts: Vec<(String, Option<f64>)>,
    /// Functions whose body checks `is_finite`/`is_nan` — NaN boundaries.
    finite_checkers: Vec<String>,
    /// Functions that may return NaN (direct unguarded op, or transitively
    /// via calls), cut at finite-checker boundaries.
    may_nan: Vec<String>,
}

/// One parsed file during env construction.
struct EnvFile {
    file: String,
    lexed: Lexed,
    test_spans: Vec<(u32, u32)>,
    fns: Vec<FnSpan>,
}

impl UnitEnv {
    /// Build the environment over `(relative path, source)` pairs.
    /// `#[cfg(test)]` bodies contribute nothing.
    pub fn build(files: &[(String, String)]) -> UnitEnv {
        let mut env = UnitEnv::default();
        let parsed: Vec<EnvFile> = files
            .iter()
            .map(|(file, source)| {
                let lexed = lex(source);
                let test_spans = rules::test_mod_spans(&lexed.tokens);
                let fns = rules::function_spans(&lexed.tokens);
                EnvFile {
                    file: file.clone(),
                    lexed,
                    test_spans,
                    fns,
                }
            })
            .collect();

        for f in &parsed {
            env.collect_annotations(f);
            env.collect_consts(f);
            for fspan in &f.fns {
                if rules::in_spans(fspan.sig_line, &f.test_spans) {
                    continue;
                }
                let (a, b) = fspan.body_tokens;
                let body = &f.lexed.tokens[a..b];
                if body.iter().any(|t| {
                    t.kind == TokenKind::Ident
                        && matches!(t.text.as_str(), "is_finite" | "is_nan" | "is_normal")
                }) {
                    push_name(&mut env.finite_checkers, &fspan.name);
                }
            }
        }
        env.fields.sort();
        env.fns.sort();
        env.locals.sort();
        env.consts.sort_by(|a, b| a.0.cmp(&b.0));
        env.finite_checkers.sort();

        env.infer_return_units(&parsed);
        env.propagate_nan(&parsed);
        env
    }

    fn collect_annotations(&mut self, f: &EnvFile) {
        for c in &f.lexed.comments {
            if rules::in_spans(c.line, &f.test_spans) {
                continue;
            }
            let Some(value) = unit_annotation(c) else {
                continue;
            };
            let Some(dim) = parse_unit_text(value) else {
                continue; // malformed: reported by the per-file pass
            };
            let Some(target) = annotation_target(&f.lexed.tokens, c.line) else {
                continue;
            };
            match target {
                AnnTarget::Field(name) => insert_dim(&mut self.fields, &name, dim),
                AnnTarget::Fn(name) => insert_dim(&mut self.fns, &name, dim),
                AnnTarget::Let(name, line) => {
                    self.locals.push((f.file.clone(), line, name, dim));
                }
            }
        }
    }

    /// Fixed point: infer return units for unannotated functions from their
    /// `return` and tail expressions. Units only ever go Unknown -> Known,
    /// so this terminates; conflicting inferences poison the entry.
    fn infer_return_units(&mut self, parsed: &[EnvFile]) {
        for _ in 0..8 {
            let mut changed = false;
            for f in parsed {
                for fspan in &f.fns {
                    if rules::in_spans(fspan.sig_line, &f.test_spans) {
                        continue;
                    }
                    if self.fn_unit(&fspan.name, false) != Unit::Unknown {
                        continue;
                    }
                    let ctx = FileCtx {
                        file: &f.file,
                        tokens: &f.lexed.tokens,
                        env: self,
                    };
                    let local = build_local_env(&ctx, fspan);
                    let mut inferred: Option<Dim> = None;
                    let mut ok = true;
                    for (a, b) in return_ranges(&f.lexed.tokens, fspan) {
                        let e = parse_expr(&ctx, &local, a, b, 0);
                        match (e.unit.dim(), e.all_literal) {
                            (Some(d), false) => match inferred {
                                None => inferred = Some(d),
                                Some(prev) if prev == d => {}
                                Some(_) => {
                                    ok = false;
                                }
                            },
                            _ => ok = false,
                        }
                    }
                    if ok {
                        if let Some(d) = inferred {
                            insert_dim(&mut self.fns, &fspan.name, d);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Fixed point: a function may produce NaN if its body has an unproven
    /// division/domain op (or touches `f64::NAN`), or calls a may-NaN
    /// function — unless its own body checks `is_finite`/`is_nan`, which
    /// makes it a boundary that neither originates nor propagates taint.
    fn propagate_nan(&mut self, parsed: &[EnvFile]) {
        let mut direct: Vec<(String, Vec<String>)> = Vec::new(); // (fn, callees)
        for f in parsed {
            for fspan in &f.fns {
                if rules::in_spans(fspan.sig_line, &f.test_spans) {
                    continue;
                }
                if self.checks_finite(&fspan.name) {
                    continue;
                }
                let ctx = FileCtx {
                    file: &f.file,
                    tokens: &f.lexed.tokens,
                    env: self,
                };
                let local = build_local_env(&ctx, fspan);
                let (a, b) = fspan.body_tokens;
                if range_possibly_nan(&ctx, &local, fspan, a, b) {
                    push_name(&mut self.may_nan, &fspan.name);
                }
                direct.push((fspan.name.clone(), callee_names(&f.lexed.tokens[a..b])));
            }
        }
        self.may_nan.sort();
        if std::env::var_os("RN_DEBUG_NAN").is_some() {
            eprintln!("direct may_nan: {:?}", self.may_nan);
        }
        loop {
            let mut changed = false;
            for (name, callees) in &direct {
                if self.is_may_nan(name) {
                    continue;
                }
                if callees.iter().any(|c| self.is_may_nan(c)) {
                    if let Err(i) = self.may_nan.binary_search(name) {
                        self.may_nan.insert(i, name.clone());
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        if std::env::var_os("RN_DEBUG_NAN").is_some() {
            eprintln!("may_nan: {:?}", self.may_nan);
        }
    }

    /// Record every `const NAME: f64 = <literal>;` so guard evidence can see
    /// through named epsilon/floor constants. Conflicting redefinitions
    /// across the workspace poison the name.
    fn collect_consts(&mut self, f: &EnvFile) {
        let tokens = &f.lexed.tokens;
        for i in 0..tokens.len() {
            if tokens[i].text != "const" {
                continue;
            }
            let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            if name.text.chars().any(|c| c.is_ascii_lowercase()) {
                continue; // SCREAMING_CASE only: locals can never shadow these
            }
            if !matches!(tokens.get(i + 2), Some(t) if t.text == ":") {
                continue;
            }
            if !matches!(tokens.get(i + 3), Some(t) if t.text == "f64" || t.text == "f32") {
                continue;
            }
            if !matches!(tokens.get(i + 4), Some(t) if t.text == "=") {
                continue;
            }
            let (vtok, neg) = match tokens.get(i + 5) {
                Some(t) if t.text == "-" => (tokens.get(i + 6), true),
                t => (t, false),
            };
            let Some(v) = vtok
                .filter(|t| matches!(t.kind, TokenKind::Int | TokenKind::Float))
                .and_then(|t| lit_value(&t.text))
            else {
                continue;
            };
            let v = if neg { -v } else { v };
            match self.consts.iter_mut().find(|(n, _)| n == &name.text) {
                Some((_, prev)) => {
                    if *prev != Some(v) {
                        *prev = None;
                    }
                }
                None => self.consts.push((name.text.clone(), Some(v))),
            }
        }
    }

    fn const_value(&self, name: &str) -> Option<f64> {
        match self.consts.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.consts[i].1,
            Err(_) => None,
        }
    }

    fn field_unit(&self, name: &str) -> Unit {
        match self.fields.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.fields[i].1.map_or(Unit::Unknown, Unit::Known),
            Err(_) => unit_from_name(name, false),
        }
    }

    fn fn_unit(&self, name: &str, method_pos: bool) -> Unit {
        match self.fns.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.fns[i].1.map_or(Unit::Unknown, Unit::Known),
            Err(_) => unit_from_name(name, method_pos),
        }
    }

    fn local_annotation(&self, file: &str, line: u32, name: &str) -> Option<Dim> {
        self.locals
            .iter()
            .find(|(f, l, n, _)| f == file && *l == line && n == name)
            .map(|(_, _, _, d)| *d)
    }

    /// Does any function with this name check `is_finite`/`is_nan`?
    pub fn checks_finite(&self, name: &str) -> bool {
        self.finite_checkers
            .binary_search_by(|n| n.as_str().cmp(name))
            .is_ok()
    }

    /// May a function with this name return NaN?
    pub fn is_may_nan(&self, name: &str) -> bool {
        self.may_nan
            .binary_search_by(|n| n.as_str().cmp(name))
            .is_ok()
    }
}

fn push_name(v: &mut Vec<String>, name: &str) {
    if !v.iter().any(|n| n == name) {
        v.push(name.to_string());
    }
}

fn insert_dim(v: &mut Vec<(String, Option<Dim>)>, name: &str, dim: Dim) {
    match v.iter_mut().find(|(n, _)| n == name) {
        Some((_, d)) => {
            if *d != Some(dim) {
                *d = None; // conflicting annotations poison the name
            }
        }
        None => v.push((name.to_string(), Some(dim))),
    }
}

/// `unit: <value>` comment payload, if this comment is a unit annotation.
fn unit_annotation(c: &Comment) -> Option<&str> {
    c.text
        .trim_start_matches(['/', '!'])
        .trim()
        .strip_prefix("unit:")
        .map(str::trim)
}

enum AnnTarget {
    Field(String),
    Fn(String),
    Let(String, u32),
}

/// What declaration does a unit comment on `line` attach to? Trailing
/// comments cover their own line; standalone comments cover the next line
/// holding code.
fn annotation_target(tokens: &[Token], line: u32) -> Option<AnnTarget> {
    let target_line = if tokens.iter().any(|t| t.line == line) {
        line
    } else {
        tokens.iter().map(|t| t.line).filter(|l| *l > line).min()?
    };
    let mut i = tokens.iter().position(|t| t.line == target_line)?;
    // Skip visibility and attributes.
    loop {
        match tokens.get(i).map(|t| t.text.as_str()) {
            Some("pub") => {
                i += 1;
                if matches!(tokens.get(i), Some(t) if t.text == "(") {
                    i = rules::skip_balanced(tokens, i, "(", ")");
                }
            }
            Some("#") => i = rules::skip_attr(tokens, i),
            Some("const" | "static" | "unsafe" | "async") => i += 1,
            _ => break,
        }
    }
    let t = tokens.get(i)?;
    if t.text == "fn" {
        let name = tokens.get(i + 1)?;
        return (name.kind == TokenKind::Ident).then(|| AnnTarget::Fn(name.text.clone()));
    }
    if t.text == "let" {
        let mut j = i + 1;
        if matches!(tokens.get(j), Some(t) if t.text == "mut") {
            j += 1;
        }
        let name = tokens.get(j)?;
        if name.kind == TokenKind::Ident
            && matches!(tokens.get(j + 1).map(|t| t.text.as_str()), Some(":" | "="))
        {
            return Some(AnnTarget::Let(name.text.clone(), target_line));
        }
        return None;
    }
    if t.kind == TokenKind::Ident && matches!(tokens.get(i + 1), Some(n) if n.text == ":") {
        return Some(AnnTarget::Field(t.text.clone()));
    }
    None
}

/// `return <expr>;` ranges plus the tail expression of a body.
fn return_ranges(tokens: &[Token], fspan: &FnSpan) -> Vec<(usize, usize)> {
    let (open, end) = fspan.body_tokens;
    let mut out = Vec::new();
    let mut i = open + 1;
    while i + 1 < end {
        if tokens[i].text == "return" && tokens[i].kind == TokenKind::Ident {
            let start = i + 1;
            let mut depth = 0i32;
            let mut j = start;
            while j < end {
                match tokens[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j > start {
                out.push((start, j));
            }
            i = j;
        }
        i += 1;
    }
    // Tail expression: tokens after the last brace-depth-1 `;` (or the body
    // open) up to the closing `}`.
    let mut depth = 0i32;
    let mut tail = open + 1;
    for (j, t) in tokens.iter().enumerate().take(end - 1).skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 1 => tail = j + 1,
            _ => {}
        }
    }
    if tail < end - 1 {
        out.push((tail, end - 1));
    }
    out
}

/// Callee names in a body: idents directly followed by `(` (skipping macros
/// and control keywords), as in the RN2xx call-site scan.
fn callee_names(body: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !matches!(body.get(i + 1), Some(n) if n.text == "(")
            || matches!(
                t.text.as_str(),
                "if" | "while"
                    | "for"
                    | "match"
                    | "loop"
                    | "return"
                    | "fn"
                    | "Some"
                    | "Ok"
                    | "Err"
                    | "None"
            )
        {
            continue;
        }
        if i > 0 && body[i - 1].text == "!" {
            continue;
        }
        if !out.contains(&t.text) {
            out.push(t.text.clone());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Per-function local environment
// ---------------------------------------------------------------------------

/// Shared read-only context for one file's scans.
pub(crate) struct FileCtx<'a> {
    pub(crate) file: &'a str,
    pub(crate) tokens: &'a [Token],
    pub(crate) env: &'a UnitEnv,
}

/// Per-function facts: binding units, provably-positive bindings, aliases
/// (`let n = xs.len()` lets a guard on `xs` prove `n`), and NaN-tainted
/// bindings for RN406.
#[derive(Debug, Default)]
struct LocalEnv {
    units: Vec<(String, Unit)>,
    proven_positive: Vec<String>,
    aliases: Vec<(String, String)>,
    tainted: Vec<String>,
}

impl LocalEnv {
    fn unit(&self, name: &str) -> Unit {
        match self.units.iter().rev().find(|(n, _)| n == name) {
            Some((_, u)) if *u != Unit::Unknown => *u,
            _ => unit_from_name(name, false),
        }
    }

    fn is_positive(&self, name: &str) -> bool {
        self.proven_positive.iter().any(|n| n == name)
    }

    fn alias_of(&self, name: &str) -> Option<&str> {
        self.aliases
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.as_str())
    }
}

/// Parameter names of the function owning `fspan` (idents followed by `:`
/// at paren depth >= 1 in the signature).
fn param_names(tokens: &[Token], fspan: &FnSpan) -> Vec<String> {
    let open = fspan.body_tokens.0;
    // Walk back to the `fn` introducing this body.
    let mut fn_idx = None;
    let mut k = open;
    while k > 0 {
        k -= 1;
        if tokens[k].text == "fn" && matches!(tokens.get(k + 1), Some(n) if n.text == fspan.name) {
            fn_idx = Some(k);
            break;
        }
        if open - k > 400 {
            break;
        }
    }
    let Some(fi) = fn_idx else {
        return Vec::new();
    };
    let Some(p) = tokens[fi..open].iter().position(|t| t.text == "(") else {
        return Vec::new();
    };
    let pstart = fi + p;
    let pend = rules::skip_balanced(tokens, pstart, "(", ")").min(open);
    let mut out = Vec::new();
    let mut depth = 0i32;
    for i in pstart..pend {
        match tokens[i].text.as_str() {
            "(" => depth += 1,
            ")" => depth -= 1,
            _ => {
                if depth >= 1
                    && tokens[i].kind == TokenKind::Ident
                    && matches!(tokens.get(i + 1), Some(n) if n.text == ":")
                    && (i == pstart + 1 || matches!(tokens[i - 1].text.as_str(), "(" | "," | "mut"))
                {
                    out.push(tokens[i].text.clone());
                }
            }
        }
    }
    out
}

/// Build the local environment with a single forward pass over the body:
/// params get heuristic units; each `let` binding gets its annotated,
/// heuristic, or RHS-inferred unit plus positivity/taint/alias facts.
fn build_local_env(ctx: &FileCtx<'_>, fspan: &FnSpan) -> LocalEnv {
    let mut local = LocalEnv::default();
    for p in param_names(ctx.tokens, fspan) {
        let u = unit_from_name(&p, false);
        local.units.push((p, u));
    }
    let (open, end) = fspan.body_tokens;
    let mut i = open + 1;
    while i + 1 < end.min(ctx.tokens.len()) {
        if ctx.tokens[i].text != "let" || ctx.tokens[i].kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if matches!(ctx.tokens.get(j), Some(t) if t.text == "mut") {
            j += 1;
        }
        let Some(name_tok) = ctx.tokens.get(j) else {
            break;
        };
        if name_tok.kind != TokenKind::Ident
            || !matches!(
                ctx.tokens.get(j + 1).map(|t| t.text.as_str()),
                Some(":" | "=")
            )
        {
            i += 1;
            continue; // destructuring / `if let` patterns: skip
        }
        let name = name_tok.text.clone();
        // Find `=` then the RHS extent (up to `;` at delimiter depth 0).
        let mut eq = j + 1;
        while eq < end && ctx.tokens[eq].text != "=" && ctx.tokens[eq].text != ";" {
            eq += 1;
        }
        if eq >= end || ctx.tokens[eq].text != "=" {
            i = j;
            continue;
        }
        let rstart = eq + 1;
        let mut depth = 0i32;
        let mut rend = rstart;
        while rend < end {
            match ctx.tokens[rend].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => break,
                _ => {}
            }
            rend += 1;
        }
        let rhs = parse_expr(ctx, &local, rstart, rend, 0);
        let declared = ctx
            .env
            .local_annotation(ctx.file, name_tok.line, &name)
            .map(Unit::Known)
            .unwrap_or_else(|| unit_from_name(&name, false));
        let unit = if declared != Unit::Unknown {
            declared
        } else if rhs.all_literal {
            // A bare-literal initializer (`let mut acc = 0.0;`) is a unit
            // chameleon: the accumulator takes whatever unit is added to it
            // later, so seeding `ratio` here would flag every accumulation
            // loop. Leave it Unknown.
            Unit::Unknown
        } else {
            rhs.unit
        };
        local.units.push((name.clone(), unit));
        if rhs.proven_positive || (rhs.all_literal && rhs.lit_value.is_some_and(|v| v > 0.0)) {
            local.proven_positive.push(name.clone());
        }
        if rhs.roots.len() == 1 && !rhs.has_div {
            local.aliases.push((name.clone(), rhs.roots[0].clone()));
        }
        if rhs.may_nan_call || range_possibly_nan(ctx, &local, fspan, rstart, rend) {
            local.tainted.push(name);
        }
        i = rend;
    }
    local
}

// ---------------------------------------------------------------------------
// Expression parsing (forward) and term location (backward)
// ---------------------------------------------------------------------------

/// Facts about one parsed term/expression.
#[derive(Debug, Clone, Default)]
struct ExprInfo {
    unit: Unit,
    /// Leaf identifiers, for guard-evidence matching.
    roots: Vec<String>,
    /// Entirely literal (neutral in unit checks).
    all_literal: bool,
    lit_value: Option<f64>,
    /// Provably > 0 (positive literal, `.max(pos)`, `.exp()`, ...).
    proven_positive: bool,
    /// Provably >= 0 (`.abs()`, `.powi(even)`, nonneg literal, ...).
    proven_nonneg: bool,
    has_div: bool,
    has_muldiv: bool,
    /// Contains a call to a may-NaN function or `f64::NAN`.
    may_nan_call: bool,
    /// Index just past the parsed tokens.
    end: usize,
}

impl ExprInfo {
    fn literal(v: f64, end: usize) -> ExprInfo {
        ExprInfo {
            unit: Unit::Known(Dim::RATIO),
            all_literal: true,
            lit_value: Some(v),
            proven_positive: v > 0.0,
            proven_nonneg: v >= 0.0,
            end,
            ..ExprInfo::default()
        }
    }

    fn unknown(end: usize) -> ExprInfo {
        ExprInfo {
            end,
            ..ExprInfo::default()
        }
    }
}

fn lit_value(text: &str) -> Option<f64> {
    let t: String = text
        .chars()
        .filter(|c| *c != '_')
        .collect::<String>()
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches("u64")
        .trim_end_matches("u32")
        .trim_end_matches("usize")
        .trim_end_matches("i64")
        .trim_end_matches("i32")
        .trim_end_matches("isize")
        .to_string();
    t.parse::<f64>().ok()
}

const MAX_DEPTH: u32 = 16;

/// Parse one term (primary + postfix chain) starting at `i`, stopping
/// before `stop` (use `tokens.len()` for "no limit").
fn parse_term(
    ctx: &FileCtx<'_>,
    local: &LocalEnv,
    i: usize,
    stop: usize,
    depth: u32,
) -> Option<ExprInfo> {
    if depth > MAX_DEPTH || i >= stop {
        return None;
    }
    let tokens = ctx.tokens;
    let t = tokens.get(i)?;
    let mut info = match t.kind {
        TokenKind::Int | TokenKind::Float => {
            let v = lit_value(&t.text)?;
            ExprInfo::literal(v, i + 1)
        }
        TokenKind::Str | TokenKind::Char | TokenKind::Lifetime => ExprInfo::unknown(i + 1),
        TokenKind::Punct => match t.text.as_str() {
            "-" | "!" => {
                let inner = parse_term(ctx, local, i + 1, stop, depth + 1)?;
                let mut out = inner;
                out.proven_positive = false;
                out.proven_nonneg = false;
                out.lit_value = out.lit_value.map(|v| -v);
                return Some(out);
            }
            "&" | "*" => return parse_term(ctx, local, i + 1, stop, depth + 1),
            "(" => {
                let close = rules::skip_balanced(tokens, i, "(", ")").min(stop);
                let inner_end = close.saturating_sub(1);
                let mut inner = parse_expr(ctx, local, i + 1, inner_end, depth + 1);
                if inner.end < inner_end {
                    // Unparsed remainder (closures, `&&`, ...): collect roots
                    // and division presence crudely; the unit is lost.
                    inner.unit = Unit::Unknown;
                    inner.all_literal = false;
                    inner.proven_positive = false;
                    inner.proven_nonneg = false;
                    collect_loose(tokens, inner.end, inner_end, &mut inner);
                }
                inner.end = close;
                inner
            }
            _ => return None,
        },
        TokenKind::Ident => {
            let mut name = t.text.clone();
            let mut j = i + 1;
            let mut saw_path = false;
            while matches!(tokens.get(j), Some(p) if p.text == "::") {
                saw_path = true;
                if matches!(tokens.get(j + 1), Some(p) if p.text == "<") {
                    j = skip_angles(tokens, j + 1).min(stop);
                    continue;
                }
                match tokens.get(j + 1) {
                    Some(n) if n.kind == TokenKind::Ident => {
                        name = n.text.clone();
                        j += 2;
                    }
                    _ => break,
                }
            }
            if matches!(tokens.get(j), Some(n) if n.text == "!") {
                // Macro invocation: consume its delimiter group.
                let open = j + 1;
                let e = match tokens.get(open).map(|t| t.text.as_str()) {
                    Some("(") => rules::skip_balanced(tokens, open, "(", ")"),
                    Some("[") => rules::skip_balanced(tokens, open, "[", "]"),
                    Some("{") => rules::skip_balanced(tokens, open, "{", "}"),
                    _ => open,
                };
                ExprInfo::unknown(e.min(stop))
            } else if matches!(tokens.get(j), Some(n) if n.text == "(") {
                let close = rules::skip_balanced(tokens, j, "(", ")").min(stop);
                ExprInfo {
                    unit: ctx.env.fn_unit(&name, false),
                    may_nan_call: ctx.env.is_may_nan(&name),
                    end: close,
                    ..ExprInfo::default()
                }
            } else if name == "NAN" && saw_path {
                ExprInfo {
                    may_nan_call: true,
                    end: j,
                    ..ExprInfo::default()
                }
            } else if saw_path && matches!(name.as_str(), "EPSILON" | "MIN_POSITIVE") {
                // `f64::EPSILON` / `f64::MIN_POSITIVE`: tiny positive floats.
                ExprInfo::literal(f64::MIN_POSITIVE, j)
            } else if matches!(name.as_str(), "self" | "true" | "false" | "None") {
                ExprInfo::unknown(j)
            } else if let Some(v) = ctx.env.const_value(&name) {
                ExprInfo::literal(v, j)
            } else {
                let mut e = ExprInfo {
                    unit: local.unit(&name),
                    roots: vec![name.clone()],
                    proven_positive: local.is_positive(&name),
                    may_nan_call: local.tainted.contains(&name),
                    end: j,
                    ..ExprInfo::default()
                };
                if e.unit == Unit::Unknown {
                    e.unit = unit_from_name(&name, false);
                }
                e
            }
        }
    };
    postfix(ctx, local, &mut info, stop, depth);
    Some(info)
}

/// Skip `<...>` generic arguments starting at an opening `<`.
fn skip_angles(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() && j < open + 64 {
        match tokens[j].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            ";" | "{" => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Crude root/division collection for token ranges the parser gave up on.
fn collect_loose(tokens: &[Token], a: usize, b: usize, info: &mut ExprInfo) {
    for k in a..b.min(tokens.len()) {
        let t = &tokens[k];
        if t.text == "/" || t.text == "/=" {
            info.has_div = true;
            info.has_muldiv = true;
        }
        if t.kind == TokenKind::Ident
            && !matches!(tokens.get(k + 1), Some(n) if n.text == "(")
            && !matches!(
                t.text.as_str(),
                "if" | "else"
                    | "let"
                    | "mut"
                    | "self"
                    | "as"
                    | "in"
                    | "for"
                    | "while"
                    | "match"
                    | "move"
                    | "return"
                    | "true"
                    | "false"
                    | "Some"
                    | "None"
                    | "Ok"
                    | "Err"
            )
            && !info.roots.contains(&t.text)
        {
            info.roots.push(t.text.clone());
        }
    }
}

/// Apply the postfix chain (`.method(..)`, `.field`, `[..]`, `as T`, `?`)
/// to `info`, advancing `info.end` but never past `stop`.
fn postfix(ctx: &FileCtx<'_>, local: &LocalEnv, info: &mut ExprInfo, stop: usize, depth: u32) {
    let tokens = ctx.tokens;
    loop {
        let p = info.end;
        if p >= stop {
            return;
        }
        match tokens[p].text.as_str() {
            "." if matches!(tokens.get(p + 1), Some(n) if n.kind == TokenKind::Ident) => {
                let m = tokens[p + 1].text.clone();
                // Turbofish on methods: `.sum::<f64>()`.
                let mut call_at = p + 2;
                if matches!(tokens.get(call_at), Some(t) if t.text == "::")
                    && matches!(tokens.get(call_at + 1), Some(t) if t.text == "<")
                {
                    call_at = skip_angles(tokens, call_at + 1);
                }
                if matches!(tokens.get(call_at), Some(t) if t.text == "(") {
                    let close = rules::skip_balanced(tokens, call_at, "(", ")").min(stop);
                    apply_method(
                        ctx,
                        local,
                        info,
                        &m,
                        call_at + 1,
                        close.saturating_sub(1),
                        depth,
                    );
                    info.end = close;
                } else {
                    // Field access: last segment decides unit and root.
                    info.unit = ctx.env.field_unit(&m);
                    info.roots = vec![m];
                    info.all_literal = false;
                    info.lit_value = None;
                    info.proven_positive = false;
                    info.proven_nonneg = false;
                    info.end = p + 2;
                }
            }
            "[" => {
                // Indexing keeps the collection's (element) unit and roots.
                info.end = rules::skip_balanced(tokens, p, "[", "]").min(stop);
                info.all_literal = false;
                info.lit_value = None;
            }
            "?" => info.end = p + 1,
            "as" if tokens[p].kind == TokenKind::Ident => {
                // `x as f64`: unit and roots unchanged; consume the type path.
                let mut j = p + 1;
                while matches!(tokens.get(j), Some(t) if t.kind == TokenKind::Ident)
                    || matches!(tokens.get(j), Some(t) if t.text == "::")
                {
                    j += 1;
                }
                info.end = j.min(stop);
                info.lit_value = None;
            }
            _ => return,
        }
    }
}

/// Method-call effects on an in-flight term.
fn apply_method(
    ctx: &FileCtx<'_>,
    local: &LocalEnv,
    info: &mut ExprInfo,
    m: &str,
    args_a: usize,
    args_b: usize,
    depth: u32,
) {
    let arg = || -> Option<ExprInfo> {
        if args_a < args_b && depth < MAX_DEPTH {
            Some(parse_expr(ctx, local, args_a, args_b, depth + 1))
        } else {
            None
        }
    };
    info.all_literal = false;
    info.lit_value = None;
    match m {
        "max" => {
            if let Some(a) = arg() {
                if a.proven_positive {
                    info.proven_positive = true;
                }
                if a.proven_nonneg {
                    info.proven_nonneg = true;
                }
                if info.unit == Unit::Unknown && !a.all_literal {
                    info.unit = a.unit;
                }
                info.roots.extend(a.roots);
            }
        }
        "min" => {
            if let Some(a) = arg() {
                info.proven_positive &= a.proven_positive;
                info.proven_nonneg &= a.proven_nonneg;
                info.roots.extend(a.roots);
            }
        }
        "clamp" => {
            if let Some(a) = arg() {
                // `clamp(lo, hi)` bounds below by `lo`.
                info.proven_positive = a.proven_positive;
                info.proven_nonneg = a.proven_nonneg;
            }
        }
        "abs" => info.proven_nonneg = true,
        "exp" | "exp2" => {
            info.unit = Unit::Unknown;
            info.proven_positive = true;
            info.proven_nonneg = true;
        }
        "sqrt" => {
            info.unit = match info.unit.dim() {
                Some(d) if d.time % 2 == 0 && d.data % 2 == 0 => Unit::Known(Dim {
                    time: d.time / 2,
                    data: d.data / 2,
                }),
                _ => Unit::Unknown,
            };
            info.proven_positive = false;
        }
        "powi" => {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "exponent literals are tiny; saturation via Dim::pow caps the dimension anyway"
            )]
            let k = arg().and_then(|a| a.lit_value).map(|v| v as i8);
            info.unit = match (info.unit.dim(), k) {
                (Some(d), Some(k)) => Unit::Known(d.pow(k)),
                _ => Unit::Unknown,
            };
            if k.is_some_and(|k| k % 2 == 0) {
                info.proven_nonneg = true;
            }
        }
        "powf" | "ln" | "log2" | "log10" | "ln_1p" => {
            info.unit = Unit::Unknown;
            info.proven_positive = false;
            info.proven_nonneg = false;
        }
        "recip" => {
            info.unit = match info.unit.dim() {
                Some(d) => Unit::Known(Dim::RATIO.div(d)),
                None => Unit::Unknown,
            };
        }
        "len" | "count" => {
            info.unit = Unit::Known(Dim::RATIO);
            info.proven_nonneg = true;
            info.proven_positive = false;
        }
        "unwrap_or" => {
            if let Some(a) = arg() {
                if info.unit == Unit::Unknown {
                    info.unit = a.unit;
                }
                info.proven_positive &= a.proven_positive;
                info.proven_nonneg &= a.proven_nonneg;
            }
        }
        "unwrap" | "expect" | "unwrap_or_default" | "clone" | "copied" | "cloned" | "to_owned"
        | "floor" | "ceil" | "round" | "trunc" => {
            info.proven_positive = false; // floor(0.5) == 0
        }
        _ => {
            // Unknown method: adopt an annotated/heuristic return unit if
            // any (method position suppresses the bare-`capacity` match).
            info.unit = ctx.env.fn_unit(m, true);
            info.proven_positive = false;
            info.proven_nonneg = false;
            info.may_nan_call |= ctx.env.is_may_nan(m);
        }
    }
}

/// Parse a multiplicative chain (`a * b / c % d`) of terms.
fn parse_chain(
    ctx: &FileCtx<'_>,
    local: &LocalEnv,
    i: usize,
    stop: usize,
    depth: u32,
) -> Option<ExprInfo> {
    let mut acc = parse_term(ctx, local, i, stop, depth)?;
    loop {
        let op = match ctx.tokens.get(acc.end) {
            Some(t) if acc.end < stop && matches!(t.text.as_str(), "*" | "/" | "%") => {
                t.text.clone()
            }
            _ => return Some(acc),
        };
        let rhs = parse_term(ctx, local, acc.end + 1, stop, depth)?;
        acc.has_muldiv = true;
        if op == "/" {
            acc.has_div = true;
        }
        acc.unit = match (op.as_str(), acc.unit.dim(), rhs.unit.dim()) {
            ("%", l, _) => l.map_or(Unit::Unknown, Unit::Known),
            ("*", Some(l), Some(r)) => Unit::Known(l.mul(r)),
            ("/", Some(l), Some(r)) => Unit::Known(l.div(r)),
            _ => Unit::Unknown,
        };
        acc.all_literal &= rhs.all_literal;
        acc.lit_value = None;
        acc.proven_positive &= rhs.proven_positive;
        acc.proven_nonneg &= rhs.proven_nonneg && op != "%";
        acc.roots.extend(rhs.roots);
        acc.may_nan_call |= rhs.may_nan_call;
        acc.has_div |= rhs.has_div;
        acc.has_muldiv |= rhs.has_muldiv;
        acc.end = rhs.end;
    }
}

/// Parse a full expression (`chain (+|-|cmp) chain ...`) in `[i, limit)`.
/// Mixed-unit addends make the result Unknown (RN401 reports them from its
/// own operator scan); comparisons yield a unitless bool.
fn parse_expr(ctx: &FileCtx<'_>, local: &LocalEnv, i: usize, limit: usize, depth: u32) -> ExprInfo {
    let Some(mut acc) = parse_chain(ctx, local, i, limit, depth) else {
        let mut e = ExprInfo::unknown(i);
        collect_loose(ctx.tokens, i, limit, &mut e);
        e.end = limit;
        return e;
    };
    loop {
        let op = match ctx.tokens.get(acc.end) {
            Some(t)
                if acc.end < limit
                    && matches!(
                        t.text.as_str(),
                        "+" | "-" | "==" | "!=" | "<" | ">" | "<=" | ">="
                    ) =>
            {
                t.text.clone()
            }
            _ => return acc,
        };
        let Some(rhs) = parse_chain(ctx, local, acc.end + 1, limit, depth) else {
            acc.unit = Unit::Unknown;
            return acc;
        };
        let cmp = !matches!(op.as_str(), "+" | "-");
        acc.unit = if cmp {
            Unit::Unknown
        } else {
            match (
                acc.unit.dim(),
                acc.all_literal,
                rhs.unit.dim(),
                rhs.all_literal,
            ) {
                (Some(l), false, _, true) => Unit::Known(l),
                (_, true, Some(r), false) => Unit::Known(r),
                (Some(l), _, Some(r), _) if l == r => Unit::Known(l),
                _ => Unit::Unknown,
            }
        };
        acc.proven_positive = !cmp && op == "+" && acc.proven_positive && rhs.proven_nonneg
            || !cmp && op == "+" && acc.proven_nonneg && rhs.proven_positive;
        acc.proven_nonneg =
            !cmp && op == "+" && acc.proven_nonneg && rhs.proven_nonneg || acc.proven_positive;
        acc.all_literal &= rhs.all_literal;
        acc.lit_value = None;
        acc.roots.extend(rhs.roots);
        acc.may_nan_call |= rhs.may_nan_call;
        acc.has_div |= rhs.has_div;
        acc.has_muldiv |= rhs.has_muldiv;
        acc.end = rhs.end;
    }
}

/// Backward scan: the start index of the term ending just before `end`.
fn term_start(tokens: &[Token], end: usize) -> Option<usize> {
    let mut k = end.checked_sub(1)?;
    loop {
        // Consume trailing delimiter groups of this segment.
        let mut had_group = false;
        while matches!(tokens[k].text.as_str(), ")" | "]") {
            had_group = true;
            let open = open_of(tokens, k)?;
            if open == 0 {
                return Some(0);
            }
            k = open - 1;
        }
        if matches!(
            tokens[k].kind,
            TokenKind::Ident | TokenKind::Int | TokenKind::Float | TokenKind::Str
        ) && !matches!(tokens[k].text.as_str(), "as" | "in" | "return" | "else")
        {
            // Segment head (ident, call name, or literal); fall through.
        } else if had_group {
            // Pure parenthesized/indexed group: it starts right after `k`.
            return Some(k + 1);
        } else {
            return None;
        }
        if k >= 2 && matches!(tokens[k - 1].text.as_str(), "." | "::") {
            k -= 2;
            continue;
        }
        return Some(k);
    }
}

/// Backward-matching open delimiter for the close at `close_idx`.
fn open_of(tokens: &[Token], close_idx: usize) -> Option<usize> {
    let close = tokens[close_idx].text.as_str();
    let open = match close {
        ")" => "(",
        "]" => "[",
        "}" => "{",
        _ => return None,
    };
    let mut depth = 0i32;
    let mut k = close_idx;
    loop {
        if tokens[k].text == close {
            depth += 1;
        } else if tokens[k].text == open {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k = k.checked_sub(1)?;
    }
}

/// Start of the multiplicative chain whose last term ends just before `op`.
fn chain_start(tokens: &[Token], op: usize) -> Option<usize> {
    let mut start = term_start(tokens, op)?;
    while start >= 2 && matches!(tokens[start - 1].text.as_str(), "*" | "/" | "%") {
        start = term_start(tokens, start - 1)?;
    }
    Some(start)
}

// ---------------------------------------------------------------------------
// Guard evidence
// ---------------------------------------------------------------------------

/// Is there function-local evidence that `root` is nonzero/positive? Looks
/// for zero comparisons, emptiness checks, assert-macro mentions, monotone
/// `+= 1` counters, and `.max(positive)` rebinds, following `let a = b` /
/// `let n = xs.len()` aliases.
fn has_evidence(
    ctx: &FileCtx<'_>,
    local: &LocalEnv,
    fspan: &FnSpan,
    root: &str,
    hops: u32,
) -> bool {
    if local.is_positive(root) {
        return true;
    }
    let (a, b) = fspan.body_tokens;
    let tokens = ctx.tokens;
    let asserts = assert_spans(tokens, a, b);
    for k in a..b.min(tokens.len()) {
        if tokens[k].kind != TokenKind::Ident || tokens[k].text != root {
            continue;
        }
        if asserts.iter().any(|&(s, e)| (s..e).contains(&k)) {
            return true;
        }
        // `root <cmp> 0` / `root > <pos>` (and the mirrored `0 < root` is
        // caught when the scan lands on the literal side's comparison).
        if let (Some(op), Some(lit)) = (tokens.get(k + 1), tokens.get(k + 2)) {
            let v = lit_value(&lit.text);
            let zero_cmp =
                matches!(op.text.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">=") && v == Some(0.0);
            let pos_cmp = matches!(op.text.as_str(), ">" | ">=") && v.is_some_and(|v| v > 0.0);
            let counter = op.text == "+=" && v.is_some_and(|v| v > 0.0);
            if zero_cmp || pos_cmp || counter {
                return true;
            }
        }
        if k >= 2 {
            let (lit, op) = (&tokens[k - 2], &tokens[k - 1]);
            if matches!(op.text.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">=")
                && lit_value(&lit.text) == Some(0.0)
            {
                return true;
            }
        }
        // `root.is_empty()` / `root.max(pos)`.
        if matches!(tokens.get(k + 1), Some(t) if t.text == ".") {
            match tokens.get(k + 2).map(|t| t.text.as_str()) {
                Some("is_empty") => return true,
                Some("max")
                    if matches!(tokens.get(k + 3), Some(t) if t.text == "(")
                        && tokens
                            .get(k + 4)
                            .and_then(|t| lit_value(&t.text))
                            .is_some_and(|v| v > 0.0) =>
                {
                    return true;
                }
                _ => {}
            }
        }
    }
    if hops < 4 {
        if let Some(src) = local.alias_of(root) {
            if src != root && has_evidence(ctx, local, fspan, src, hops + 1) {
                return true;
            }
        }
    }
    false
}

/// Token spans of `assert!`/`debug_assert!`-family macro invocations.
fn assert_spans(tokens: &[Token], a: usize, b: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for k in a..b.min(tokens.len()) {
        if tokens[k].kind == TokenKind::Ident
            && matches!(
                tokens[k].text.as_str(),
                "assert"
                    | "debug_assert"
                    | "assert_eq"
                    | "assert_ne"
                    | "debug_assert_eq"
                    | "debug_assert_ne"
            )
            && matches!(tokens.get(k + 1), Some(t) if t.text == "!")
            && matches!(tokens.get(k + 2), Some(t) if t.text == "(")
        {
            out.push((k, rules::skip_balanced(tokens, k + 2, "(", ")")));
        }
    }
    out
}

/// Does `[a, b)` contain an unproven division/domain op, a `f64::NAN`, or a
/// call to a may-NaN function? Used for taint seeding and RN406 arguments.
fn range_possibly_nan(
    ctx: &FileCtx<'_>,
    local: &LocalEnv,
    fspan: &FnSpan,
    a: usize,
    b: usize,
) -> bool {
    let tokens = ctx.tokens;
    let b = b.min(tokens.len());
    for k in a..b {
        let t = &tokens[k];
        if t.kind == TokenKind::Ident {
            if t.text == "NAN" {
                return true;
            }
            if ctx.env.is_may_nan(&t.text) && matches!(tokens.get(k + 1), Some(n) if n.text == "(")
            {
                return true;
            }
            if local.tainted.contains(&t.text) {
                return true;
            }
        }
        if (t.text == "/" || t.text == "/=") && is_binary_pos(tokens, k) {
            if let Some(d) = parse_term(ctx, local, k + 1, b, 0) {
                if !div_proven(ctx, local, fspan, &d) {
                    return true;
                }
            } else {
                return true;
            }
        }
        if t.text == "."
            && matches!(
                tokens.get(k + 1).map(|t| t.text.as_str()),
                Some("ln" | "log2" | "log10" | "sqrt" | "powf")
            )
            && matches!(tokens.get(k + 2), Some(t) if t.text == "(")
        {
            if let Some((recv, op)) = receiver_of(ctx, local, k) {
                if !domain_proven(ctx, local, fspan, &recv, op) {
                    return true;
                }
            } else {
                return true;
            }
        }
    }
    false
}

/// Is the token at `k` in binary-operator position?
fn is_binary_pos(tokens: &[Token], k: usize) -> bool {
    k > 0
        && (matches!(
            tokens[k - 1].kind,
            TokenKind::Ident | TokenKind::Int | TokenKind::Float
        ) || matches!(tokens[k - 1].text.as_str(), ")" | "]" | "?"))
}

/// Is the denominator term proven nonzero?
fn div_proven(ctx: &FileCtx<'_>, local: &LocalEnv, fspan: &FnSpan, d: &ExprInfo) -> bool {
    if d.all_literal {
        return d.lit_value.is_some_and(|v| v != 0.0);
    }
    if d.proven_positive {
        return true;
    }
    !d.roots.is_empty()
        && d.roots
            .iter()
            .all(|r| has_evidence(ctx, local, fspan, r, 0))
}

/// Is the receiver of `ln`/`sqrt`/`powf`-family in-domain?
fn domain_proven(
    ctx: &FileCtx<'_>,
    local: &LocalEnv,
    fspan: &FnSpan,
    recv: &ExprInfo,
    op: &str,
) -> bool {
    if recv.proven_positive {
        return true;
    }
    if op == "sqrt" && recv.proven_nonneg {
        return true;
    }
    if recv.all_literal {
        let min_ok = if op == "sqrt" { 0.0 } else { f64::MIN_POSITIVE };
        return recv.lit_value.is_some_and(|v| v >= min_ok);
    }
    !recv.roots.is_empty()
        && recv
            .roots
            .iter()
            .all(|r| has_evidence(ctx, local, fspan, r, 0))
}

/// Parse the receiver term of a `.method(` at dot index `k`; returns the
/// receiver info and the method name.
fn receiver_of<'a>(ctx: &FileCtx<'a>, local: &LocalEnv, k: usize) -> Option<(ExprInfo, &'a str)> {
    let start = term_start(ctx.tokens, k)?;
    let recv = parse_term(ctx, local, start, k, 0)?;
    if recv.end != k {
        return None;
    }
    Some((recv, ctx.tokens[k + 1].text.as_str()))
}

// ---------------------------------------------------------------------------
// The rule pass
// ---------------------------------------------------------------------------

/// Telemetry/loss/feature/label sinks for RN403/RN406. Methods whose callee
/// checks `is_finite` itself (e.g. an accumulator's `record`) are exempt at
/// the call site — the boundary lives in the callee.
const NAN_SINK_METHODS: &[&str] = &["emit", "observe_s", "gauge_set", "record", "set", "mse"];
/// Struct literals that carry labels (the poisoned-tape sink list's
/// source-side counterpart).
const NAN_SINK_STRUCTS: &[&str] = &["TargetKpi", "Prediction"];
/// Intrinsically unitless transforms (RN403).
const UNITLESS_FNS: &[&str] = &["sigmoid", "softplus", "logistic"];
const UNITLESS_METHODS: &[&str] = &["exp", "exp2", "tanh"];

/// Run the RN401–RN406 passes over one file. `env` is the workspace
/// environment; pass a single-file env for isolated analysis.
pub(crate) fn numeric_rules(
    file: &str,
    lexed: &Lexed,
    fns: &[FnSpan],
    env: &UnitEnv,
    out: &mut Vec<Diagnostic>,
) {
    let ctx = FileCtx {
        file,
        tokens: &lexed.tokens,
        env,
    };
    let test_spans = rules::test_mod_spans(&lexed.tokens);

    // Malformed `unit:` annotations are a lint-syntax error: a typo'd unit
    // would otherwise silently disable inference.
    for c in &lexed.comments {
        if rules::in_spans(c.line, &test_spans) {
            continue;
        }
        if let Some(value) = unit_annotation(c) {
            if parse_unit_text(value).is_none() {
                out.push(Diagnostic::new(
                    "lint-syntax",
                    file,
                    c.line,
                    format!("unknown unit `{value}` in annotation (known: {KNOWN_UNITS})"),
                ));
            }
        }
    }

    let locals: Vec<LocalEnv> = fns.iter().map(|f| build_local_env(&ctx, f)).collect();
    let innermost = |idx: usize| -> Option<usize> {
        fns.iter()
            .enumerate()
            .filter(|(_, f)| f.body_tokens.0 < idx && idx < f.body_tokens.1)
            .min_by_key(|(_, f)| f.body_tokens.1 - f.body_tokens.0)
            .map(|(i, _)| i)
    };
    let mut flagged: Vec<(u32, &'static str)> = Vec::new();
    let flag = |out: &mut Vec<Diagnostic>,
                flagged: &mut Vec<(u32, &'static str)>,
                rule: &'static str,
                line: u32,
                msg: String| {
        if !flagged.contains(&(line, rule)) {
            flagged.push((line, rule));
            out.push(Diagnostic::new(rule, file, line, msg));
        }
    };

    let tokens = &lexed.tokens;
    for i in 0..tokens.len() {
        let t = &tokens[i];
        let Some(fi) = innermost(i) else { continue };
        let (fspan, local) = (&fns[fi], &locals[fi]);

        // RN401: mixed-unit add/sub/compare (and unit-changing `*=`/`/=`).
        if t.kind == TokenKind::Punct
            && matches!(
                t.text.as_str(),
                "+" | "-" | "==" | "!=" | "<" | ">" | "<=" | ">=" | "+=" | "-="
            )
            && is_binary_pos(tokens, i)
            && tokens[i - 1].text != "::"
        {
            if let Some((l, r)) = operand_pair(&ctx, local, i) {
                if let (Some(ld), Some(rd)) = (l.unit.dim(), r.unit.dim()) {
                    if ld != rd && !l.all_literal && !r.all_literal {
                        flag(
                            out,
                            &mut flagged,
                            "unit-mismatch",
                            t.line,
                            format!(
                                "mixed units: `{}` {} `{}` — these quantities have different dimensions",
                                ld.name(),
                                t.text,
                                rd.name()
                            ),
                        );
                    }
                }
            }
        }
        if t.kind == TokenKind::Punct && matches!(t.text.as_str(), "*=" | "/=") {
            if let Some((l, r)) = operand_pair(&ctx, local, i) {
                if let (Some(ld), Some(rd)) = (l.unit.dim(), r.unit.dim()) {
                    if rd != Dim::RATIO && !r.all_literal {
                        let res = if t.text == "*=" {
                            ld.mul(rd)
                        } else {
                            ld.div(rd)
                        };
                        flag(
                            out,
                            &mut flagged,
                            "unit-dimension",
                            t.line,
                            format!(
                                "`{}` by a `{}` value changes the dimension to `{}` but the binding carries `{}`",
                                t.text,
                                rd.name(),
                                res.name(),
                                ld.name()
                            ),
                        );
                    }
                }
            }
        }

        // RN402: binding whose RHS dimension contradicts the declared unit.
        if t.kind == TokenKind::Ident && t.text == "let" {
            if let Some((name, line, decl, rhs)) = let_binding(&ctx, local, fspan, i) {
                if let (Some(dd), Some(rd)) = (decl.dim(), rhs.unit.dim()) {
                    if dd != rd && !rhs.all_literal {
                        let kind = if rhs.has_muldiv {
                            "the arithmetic produces"
                        } else {
                            "the value carries"
                        };
                        flag(
                            out,
                            &mut flagged,
                            "unit-dimension",
                            line,
                            format!(
                                "`{name}` is declared/derived as `{}` but {kind} `{}`",
                                dd.name(),
                                rd.name()
                            ),
                        );
                    }
                }
            }
        }

        // RN402 (clamp-mask): `.min(1.0)` / `.clamp(0.0, 1.0)` applied to a
        // division result — the PR 4 utilization-clamp bug shape. A ratio
        // above 1 means the numerator over-counts; clamping hides it.
        if t.text == "."
            && matches!(
                tokens.get(i + 1).map(|x| x.text.as_str()),
                Some("min" | "clamp")
            )
            && matches!(tokens.get(i + 2), Some(x) if x.text == "(")
        {
            let is_ratio_clamp = match tokens[i + 1].text.as_str() {
                "min" => {
                    tokens.get(i + 3).and_then(|x| lit_value(&x.text)) == Some(1.0)
                        && matches!(tokens.get(i + 4), Some(x) if x.text == ")")
                }
                _ => {
                    tokens.get(i + 3).and_then(|x| lit_value(&x.text)) == Some(0.0)
                        && matches!(tokens.get(i + 4), Some(x) if x.text == ",")
                        && tokens.get(i + 5).and_then(|x| lit_value(&x.text)) == Some(1.0)
                }
            };
            if is_ratio_clamp {
                if let Some(start) = term_start(tokens, i) {
                    if tokens[start..i].iter().any(|x| x.text == "/") {
                        flag(
                            out,
                            &mut flagged,
                            "unit-dimension",
                            t.line,
                            format!(
                                "`.{}(..)` caps a division result into a ratio range — a value above 1 means the numerator over-counts; fix the measurement instead of clamping",
                                tokens[i + 1].text
                            ),
                        );
                    }
                }
            }
        }

        // RN403: unit-carrying values into unitless transforms.
        if t.kind == TokenKind::Ident
            && UNITLESS_FNS.contains(&t.text.as_str())
            && matches!(tokens.get(i + 1), Some(x) if x.text == "(")
            && (i == 0 || tokens[i - 1].text != "fn")
        {
            let close = rules::skip_balanced(tokens, i + 1, "(", ")");
            for (a, b) in split_args(tokens, i + 2, close.saturating_sub(1)) {
                let e = parse_expr(&ctx, local, a, b, 0);
                if let Some(d) = e.unit.dim() {
                    if d != Dim::RATIO && !e.all_literal {
                        flag(
                            out,
                            &mut flagged,
                            "unit-sink",
                            t.line,
                            format!(
                                "`{}` takes a unitless ratio but the argument carries `{}` — normalize first",
                                t.text,
                                d.name()
                            ),
                        );
                    }
                }
            }
        }
        if t.text == "."
            && matches!(tokens.get(i + 1), Some(x) if x.kind == TokenKind::Ident && UNITLESS_METHODS.contains(&x.text.as_str()))
            && matches!(tokens.get(i + 2), Some(x) if x.text == "(")
        {
            if let Some((recv, m)) = receiver_of(&ctx, local, i) {
                if let Some(d) = recv.unit.dim() {
                    if d != Dim::RATIO && !recv.all_literal {
                        flag(
                            out,
                            &mut flagged,
                            "unit-sink",
                            t.line,
                            format!(
                                "`.{m}()` is unitless but its receiver carries `{}` — normalize first",
                                d.name()
                            ),
                        );
                    }
                }
            }
        }

        // RN404: division with an unproven denominator.
        if t.kind == TokenKind::Punct
            && (t.text == "/" || t.text == "/=")
            && is_binary_pos(tokens, i)
        {
            match parse_term(&ctx, local, i + 1, tokens.len(), 0) {
                Some(d) if !div_proven(&ctx, local, fspan, &d) => {
                    let denom = tokens[i + 1..d.end.min(i + 7)]
                        .iter()
                        .map(|x| x.text.as_str())
                        .collect::<Vec<_>>()
                        .join("");
                    flag(
                        out,
                        &mut flagged,
                        "nan-div",
                        t.line,
                        format!(
                            "denominator `{denom}` is not proven nonzero — guard with a zero check, `.max(..)`, or an assert"
                        ),
                    );
                }
                _ => {}
            }
        }

        // RN405: domain ops on values not proven in-domain.
        if t.text == "."
            && matches!(
                tokens.get(i + 1).map(|x| x.text.as_str()),
                Some("ln" | "log2" | "log10" | "sqrt" | "powf")
            )
            && matches!(tokens.get(i + 2), Some(x) if x.text == "(")
        {
            let proven = match receiver_of(&ctx, local, i) {
                Some((recv, op)) => domain_proven(&ctx, local, fspan, &recv, op),
                None => false,
            };
            if !proven {
                let need = if tokens[i + 1].text == "sqrt" {
                    "nonnegative"
                } else {
                    "positive"
                };
                flag(
                    out,
                    &mut flagged,
                    "nan-domain",
                    t.line,
                    format!(
                        "`.{}()` on a value not proven {need} — NaN would poison every consumer; guard with `.max(..)` or an assert",
                        tokens[i + 1].text
                    ),
                );
            }
        }

        // RN406: possibly-NaN values into label/feature/loss/telemetry sinks.
        let sink_method = t.text == "."
            && matches!(tokens.get(i + 1), Some(x) if x.kind == TokenKind::Ident && NAN_SINK_METHODS.contains(&x.text.as_str()))
            && matches!(tokens.get(i + 2), Some(x) if x.text == "(");
        let sink_struct = t.kind == TokenKind::Ident
            && NAN_SINK_STRUCTS.contains(&t.text.as_str())
            && matches!(tokens.get(i + 1), Some(x) if x.text == "{");
        if sink_method || sink_struct {
            let fn_checks = {
                let (a, b) = fspan.body_tokens;
                tokens[a..b.min(tokens.len())].iter().any(|x| {
                    x.kind == TokenKind::Ident
                        && matches!(x.text.as_str(), "is_finite" | "is_nan" | "is_normal")
                })
            };
            let (name, a, b) = if sink_method {
                let close = rules::skip_balanced(tokens, i + 2, "(", ")");
                (tokens[i + 1].text.as_str(), i + 3, close.saturating_sub(1))
            } else {
                let close = rules::skip_balanced(tokens, i + 1, "{", "}");
                (t.text.as_str(), i + 2, close.saturating_sub(1))
            };
            let callee_checks = sink_method && env.checks_finite(name);
            if !fn_checks && !callee_checks && range_possibly_nan(&ctx, local, fspan, a, b) {
                flag(
                    out,
                    &mut flagged,
                    "nan-sink",
                    t.line,
                    format!(
                        "possibly-NaN value flows into `{name}` without an `is_finite` check — NaN in labels/features/telemetry poisons downstream consumers silently"
                    ),
                );
            }
        }
    }
}

/// Left and right operand chains around the operator at `i`.
fn operand_pair(ctx: &FileCtx<'_>, local: &LocalEnv, i: usize) -> Option<(ExprInfo, ExprInfo)> {
    let lstart = chain_start(ctx.tokens, i)?;
    let left = parse_chain(ctx, local, lstart, i, 0)?;
    if left.end != i {
        return None;
    }
    let right = parse_chain(ctx, local, i + 1, ctx.tokens.len(), 0)?;
    Some((left, right))
}

/// Parse the binding introduced by the `let` at `i`; returns
/// `(name, line, declared unit, RHS info)`.
fn let_binding(
    ctx: &FileCtx<'_>,
    local: &LocalEnv,
    fspan: &FnSpan,
    i: usize,
) -> Option<(String, u32, Unit, ExprInfo)> {
    let tokens = ctx.tokens;
    let mut j = i + 1;
    if matches!(tokens.get(j), Some(t) if t.text == "mut") {
        j += 1;
    }
    let name_tok = tokens.get(j)?;
    if name_tok.kind != TokenKind::Ident
        || !matches!(tokens.get(j + 1).map(|t| t.text.as_str()), Some(":" | "="))
    {
        return None;
    }
    let mut eq = j + 1;
    let end = fspan.body_tokens.1;
    while eq < end && tokens[eq].text != "=" && tokens[eq].text != ";" {
        eq += 1;
    }
    if eq >= end || tokens[eq].text != "=" {
        return None;
    }
    let mut depth = 0i32;
    let mut rend = eq + 1;
    while rend < end {
        match tokens[rend].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => break,
            _ => {}
        }
        rend += 1;
    }
    let rhs = parse_expr(ctx, local, eq + 1, rend, 0);
    let decl = ctx
        .env
        .local_annotation(ctx.file, name_tok.line, &name_tok.text)
        .map(Unit::Known)
        .unwrap_or_else(|| unit_from_name(&name_tok.text, false));
    Some((name_tok.text.clone(), name_tok.line, decl, rhs))
}

/// Split `[a, b)` at depth-0 commas.
fn split_args(tokens: &[Token], a: usize, b: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = a;
    for (k, tok) in tokens.iter().enumerate().take(b.min(tokens.len())).skip(a) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                if k > start {
                    out.push((start, k));
                }
                start = k + 1;
            }
            _ => {}
        }
    }
    if b > start {
        out.push((start, b));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(source: &str) -> Vec<Diagnostic> {
        let env = UnitEnv::build(&[("t.rs".to_string(), source.to_string())]);
        let lexed = lex(source);
        let fns = rules::function_spans(&lexed.tokens);
        let mut out = Vec::new();
        numeric_rules("t.rs", &lexed, &fns, &env, &mut out);
        out
    }

    fn rules_of(ds: &[Diagnostic]) -> Vec<&str> {
        ds.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn dim_algebra() {
        assert_eq!(Dim::BPS.mul(Dim::SECONDS), Dim::BITS);
        assert_eq!(Dim::BITS.div(Dim::SECONDS), Dim::BPS);
        assert_eq!(Dim::SECONDS.name(), "s");
        assert_eq!(Dim::BPS.name(), "bit/s");
        assert_eq!(parse_unit_text("bit/s"), Some(Dim::BPS));
        assert_eq!(parse_unit_text("furlongs"), None);
    }

    #[test]
    fn name_heuristics() {
        assert_eq!(
            unit_from_name("mean_delay_s", false),
            Unit::Known(Dim::SECONDS)
        );
        assert_eq!(unit_from_name("jitter_s2", false), Unit::Known(Dim::S2));
        assert_eq!(unit_from_name("demand_bps", false), Unit::Known(Dim::BPS));
        assert_eq!(unit_from_name("capacity", false), Unit::Known(Dim::BPS));
        assert_eq!(unit_from_name("capacity", true), Unit::Unknown);
        assert_eq!(unit_from_name("with_capacity", false), Unit::Unknown);
        assert_eq!(
            unit_from_name("link_utilization", false),
            Unit::Known(Dim::RATIO)
        );
        assert_eq!(unit_from_name("total", false), Unit::Unknown);
    }

    #[test]
    fn rn401_mixed_add_and_compare() {
        let ds =
            run("fn f(mean_delay_s: f64, demand_bps: f64) -> f64 { mean_delay_s + demand_bps }");
        assert_eq!(rules_of(&ds), ["unit-mismatch"]);
        let ds = run("fn f(a_s: f64, b_bps: f64) -> bool { a_s < b_bps }");
        assert_eq!(rules_of(&ds), ["unit-mismatch"]);
        // Same unit, literals, and unknowns stay silent.
        assert!(run("fn f(a_s: f64, b_s: f64) -> f64 { a_s + b_s }").is_empty());
        assert!(run("fn f(a_s: f64) -> f64 { a_s + 1.0 }").is_empty());
        assert!(run("fn f(a_s: f64, x: f64) -> f64 { a_s + x }").is_empty());
    }

    #[test]
    fn rn401_sees_through_products() {
        // bit/s * s = bits; bits + s mismatches.
        let ds =
            run("fn f(rate_bps: f64, dt_s: f64, lag_s: f64) -> f64 { rate_bps * dt_s + lag_s }");
        assert_eq!(rules_of(&ds), ["unit-mismatch"]);
        // bit/s * s + bits is consistent.
        assert!(run("fn f(rate_bps: f64, dt_s: f64, backlog_bits: f64) -> f64 { rate_bps * dt_s + backlog_bits }").is_empty());
    }

    #[test]
    fn rn402_binding_dimension() {
        let ds = run("fn f(a_s: f64, b_s: f64) -> f64 { let x_s = a_s / b_s.max(1e-9); x_s }");
        assert_eq!(rules_of(&ds), ["unit-dimension"]);
        assert!(run(
            "fn f(bits: f64, dt_s: f64) -> f64 { let rate_bps = bits / dt_s.max(1e-9); rate_bps }"
        )
        .is_empty());
    }

    #[test]
    fn rn402_ratio_clamp_mask() {
        let ds =
            run("fn f(busy_s: f64, win_s: f64) -> f64 { (busy_s / win_s.max(1e-9)).min(1.0) }");
        assert_eq!(rules_of(&ds), ["unit-dimension"]);
        let ds = run(
            "fn f(busy_s: f64, win_s: f64) -> f64 { (busy_s / win_s.max(1e-9)).clamp(0.0, 1.0) }",
        );
        assert_eq!(rules_of(&ds), ["unit-dimension"]);
        // `.min` on a non-division is fine.
        assert!(run("fn f(a: f64) -> f64 { a.min(1.0) }").is_empty());
    }

    #[test]
    fn rn403_unit_into_unitless() {
        let ds = run("fn f(delay_s: f64) -> f64 { sigmoid(delay_s) }\nfn sigmoid(x: f64) -> f64 { x.max(1.0) }");
        assert_eq!(rules_of(&ds), ["unit-sink"]);
        let ds = run("fn f(delay_s: f64) -> f64 { (delay_s).exp() }");
        assert_eq!(rules_of(&ds), ["unit-sink"]);
        assert!(run("fn f(u_ratio: f64) -> f64 { sigmoid(u_ratio) }\nfn sigmoid(x: f64) -> f64 { x.max(1.0) }").is_empty());
    }

    #[test]
    fn rn404_unguarded_division() {
        let ds = run("fn f(a: f64, n: f64) -> f64 { a / n }");
        assert_eq!(rules_of(&ds), ["nan-div"]);
        // Guards: max, zero-compare, assert, monotone counter, literal.
        assert!(run("fn f(a: f64, n: f64) -> f64 { a / n.max(1e-9) }").is_empty());
        assert!(
            run("fn f(a: f64, n: f64) -> f64 { if n == 0.0 { return 0.0; } a / n }").is_empty()
        );
        assert!(run("fn f(a: f64, n: f64) -> f64 { debug_assert!(n > 0.0); a / n }").is_empty());
        assert!(run("fn f(a: f64) -> f64 { let mut c = 0u32; c += 1; a / c as f64 }").is_empty());
        assert!(run("fn f(a: f64) -> f64 { a / 2.0 }").is_empty());
    }

    #[test]
    fn rn404_alias_through_len() {
        assert!(run(
            "fn f(xs: &[f64]) -> f64 { assert!(!xs.is_empty()); let n = xs.len(); xs[0] / n as f64 }"
        )
        .is_empty());
        let ds = run("fn f(xs: &[f64]) -> f64 { let n = xs.len(); xs[0] / n as f64 }");
        assert_eq!(rules_of(&ds), ["nan-div"]);
    }

    #[test]
    fn rn405_domain_ops() {
        let ds = run("fn f(x: f64) -> f64 { x.ln() }");
        assert_eq!(rules_of(&ds), ["nan-domain"]);
        let ds = run("fn f(x: f64) -> f64 { x.sqrt() }");
        assert_eq!(rules_of(&ds), ["nan-domain"]);
        assert!(run("fn f(x: f64) -> f64 { x.max(1e-12).ln() }").is_empty());
        assert!(run("fn f(x: f64) -> f64 { x.max(0.0).sqrt() }").is_empty());
        assert!(run("fn f(x: f64) -> f64 { debug_assert!(x > 0.0); x.ln() }").is_empty());
        assert!(run("fn f(x: f64) -> f64 { x.abs().sqrt() }").is_empty());
        assert!(run("fn f(x: f64) -> f64 { x.powi(2) }").is_empty());
    }

    #[test]
    fn rn406_taint_into_sink() {
        // Unproven division taints `v`, which reaches telemetry.
        let ds = run("fn f(tel: &T, a: f64, n: f64) { let v = a / n; tel.gauge_set(\"x\", v); }");
        assert!(rules_of(&ds).contains(&"nan-sink"));
        // An is_finite boundary in the function suppresses the sink finding.
        assert!(!rules_of(&run(
            "fn f(tel: &T, a: f64, n: f64) { let v = a / n; if v.is_finite() { tel.gauge_set(\"x\", v); } }"
        ))
        .contains(&"nan-sink"));
        // A guarded division is not tainted.
        assert!(!rules_of(&run(
            "fn f(tel: &T, a: f64, n: f64) { let v = a / n.max(1e-9); tel.gauge_set(\"x\", v); }"
        ))
        .contains(&"nan-sink"));
    }

    #[test]
    fn rn406_callee_boundary_and_transitive() {
        // The callee checks is_finite: call sites are exempt.
        let src = "\
fn record(x: f64) { debug_assert!(x.is_finite()); }\n\
fn f(acc: &mut A, a: f64, n: f64) { let v = a / n; acc.record(v); }";
        assert!(!rules_of(&run(src)).contains(&"nan-sink"));
        // may-NaN propagates through calls into a sink.
        let src = "\
fn ratio(a: f64, n: f64) -> f64 { a / n }\n\
fn f(tel: &T, a: f64, n: f64) { tel.gauge_set(\"x\", ratio(a, n)); }";
        assert!(rules_of(&run(src)).contains(&"nan-sink"));
    }

    #[test]
    fn annotations_seed_units() {
        // A field annotation overrides heuristics; mixing then flags.
        let src = "\
struct S {\n    /// unit: bit/s\n    pub load: f64,\n}\n\
fn f(s: &S, d_s: f64) -> f64 { s.load + d_s }";
        assert_eq!(rules_of(&run(src)), ["unit-mismatch"]);
        // Fn annotation gives calls a return unit.
        let src = "\
/// unit: s\nfn lag(x: f64) -> f64 { x.max(1e-9) }\n\
fn f(rate_bps: f64, y: f64) -> f64 { lag(y) + rate_bps }";
        assert_eq!(rules_of(&run(src)), ["unit-mismatch"]);
    }

    #[test]
    fn malformed_annotation_is_lint_syntax() {
        let src = "/// unit: furlongs\nfn f(x: f64) -> f64 { x.max(1.0) }";
        let ds = run(src);
        assert_eq!(rules_of(&ds), ["lint-syntax"]);
        assert!(ds[0].message.contains("furlongs"));
    }

    #[test]
    fn return_unit_inference_crosses_calls() {
        // `half` returns s (inferred from its body), so `f` mixing it with
        // bit/s flags even with no annotation anywhere.
        let src = "\
fn half(d_s: f64) -> f64 { d_s / 2.0 }\n\
fn f(rate_bps: f64, y: f64) -> f64 { half(y) + rate_bps }";
        assert_eq!(rules_of(&run(src)), ["unit-mismatch"]);
    }

    #[test]
    fn tests_are_exempt() {
        let src = "\
#[cfg(test)]\nmod tests {\n    fn f(a: f64, n: f64) -> f64 { a / n }\n}";
        // Raw findings are produced but the caller (analyze_source_with)
        // filters test spans; numeric_rules itself reports them.
        let env = UnitEnv::build(&[("t.rs".to_string(), src.to_string())]);
        assert!(env.may_nan.is_empty()); // env build skips test bodies
    }
}
