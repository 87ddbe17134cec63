//! Workspace-wide call graph with per-function lock inference.
//!
//! The RN204 hot-loop-lock rule ([`crate::concurrency`]) needs a cross-file
//! answer — "does the function called inside this hot loop acquire a lock,
//! anywhere down its call chain?" — that no single-file token pass can
//! give. This module builds that context in three steps:
//!
//! 1. **Symbol table**: every function item in the analyzed file set, keyed
//!    by simple name and, where the declaring `impl` block names a type, by
//!    `Type::name` too. Functions inside `#[cfg(test)]` modules are excluded
//!    so test-only helpers never poison production call chains.
//! 2. **Call-site resolution**: plain calls (`helper(..)`), path calls
//!    (`Type::helper(..)`), and method calls (`x.helper(..)`) inside each
//!    function body, resolved by name against the symbol table. Name-based
//!    resolution is deliberately conservative: an ambiguous name unions the
//!    effects of every candidate, so the rule over-approximates rather than
//!    misses a hazard. A function in a binary target (`src/main.rs`,
//!    `src/bin/*.rs`) is only a candidate for calls from its own file: no
//!    other crate or file can call it, so `rng.gen()` in a library never
//!    reaches a binary's `fn gen`.
//! 3. **Effect inference**: whether each body acquires a lock (`.lock(..)`),
//!    then a fixed-point pass that propagates it through resolved calls.
//!
//! Everything is stored in sorted `Vec`s keyed by `(file, name, line)` —
//! never a hash map — so the graph, and every report built on it, is
//! byte-identical across runs and input orderings.

use crate::lexer::{Token, TokenKind};

/// One function node in the graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative path of the declaring file.
    pub file: String,
    /// Simple function name.
    pub name: String,
    /// `Type::name` when declared in an `impl` block with a nameable type.
    pub qualified: Option<String>,
    /// Line of the `fn` keyword.
    pub sig_line: u32,
    /// Callee names (simple or `Type::name`), sorted and deduplicated.
    pub calls: Vec<String>,
    /// Acquires a lock, directly or through any callee.
    pub lock_effect: bool,
}

/// The workspace call graph: function nodes sorted by `(file, sig_line)`.
#[derive(Debug, Default)]
pub struct CallGraph {
    nodes: Vec<FnNode>,
}

/// Names too generic to resolve by name alone: uniting every `new` in the
/// workspace would wire unrelated constructors into every call chain, and
/// plain `drop(x)` is std's free function, not any local `Drop` impl.
/// Qualified forms (`Type::new`) still resolve exactly.
const UNRESOLVABLE_NAMES: &[&str] = &[
    "new",
    "default",
    "with_capacity",
    "from",
    "build",
    "get",
    "drop",
];

impl CallGraph {
    /// Build the graph over `(workspace-relative path, source text)` pairs.
    /// Files are processed in the given order; the node list is then sorted,
    /// so any input ordering produces the same graph.
    pub fn build(files: &[(String, String)]) -> CallGraph {
        let mut nodes = Vec::new();
        for (rel, source) in files {
            collect_file(rel, source, &mut nodes);
        }
        nodes.sort_by(|a, b| (&a.file, a.sig_line, &a.name).cmp(&(&b.file, b.sig_line, &b.name)));
        let mut g = CallGraph { nodes };
        g.propagate();
        g
    }

    /// All nodes, sorted by `(file, sig_line)`.
    pub fn nodes(&self) -> &[FnNode] {
        &self.nodes
    }

    /// Indices of every node matching `name` (simple or `Type::name`) that
    /// a call in file `from` can reach: functions of binary targets only
    /// from their own file.
    fn candidates(&self, from: &str, name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.name == name || n.qualified.as_deref() == Some(name))
            .filter(|(_, n)| n.file == from || !is_binary_target(&n.file))
            .map(|(i, _)| i)
            .collect()
    }

    /// Does any function matching `name`, called from file `from`, acquire
    /// a lock, transitively? Unknown names resolve to `false`: the graph
    /// only ever adds evidence.
    pub fn lock_effect(&self, from: &str, name: &str) -> bool {
        self.candidates(from, name)
            .iter()
            .any(|&i| self.nodes[i].lock_effect)
    }

    /// Fixed-point propagation of lock effects, seeded with each body's own
    /// `.lock(..)` calls, through resolved calls. The flag only ever turns
    /// on, so iteration terminates and the result is independent of visit
    /// order.
    fn propagate(&mut self) {
        loop {
            let mut changed = false;
            for i in 0..self.nodes.len() {
                if self.nodes[i].lock_effect {
                    continue;
                }
                let from = &self.nodes[i].file;
                let lock = self.nodes[i].calls.iter().any(|callee| {
                    self.candidates(from, callee)
                        .iter()
                        .any(|&j| self.nodes[j].lock_effect)
                });
                if lock {
                    self.nodes[i].lock_effect = true;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }
}

/// Is `rel` the root of a binary target (`src/main.rs`, `src/bin/..`)?
/// Nothing outside such a file can call the functions it defines.
fn is_binary_target(rel: &str) -> bool {
    let rel = rel.strip_prefix("./").unwrap_or(rel);
    rel == "src/main.rs"
        || rel.ends_with("/src/main.rs")
        || rel.starts_with("src/bin/")
        || rel.contains("/src/bin/")
}

/// Lex one file and append its function nodes.
fn collect_file(rel: &str, source: &str, nodes: &mut Vec<FnNode>) {
    let lexed = crate::lexer::lex(source);
    let tokens = &lexed.tokens;
    let test_spans = crate::rules::test_mod_spans(tokens);
    let impl_owners = impl_owner_ranges(tokens);
    for f in crate::rules::function_spans(tokens) {
        if crate::rules::in_spans(f.sig_line, &test_spans) {
            continue;
        }
        let (a, b) = f.body_tokens;
        let body = &tokens[a..b.min(tokens.len())];
        let owner = impl_owners
            .iter()
            .find(|(open, close, _)| (*open..*close).contains(&a))
            .map(|(_, _, ty)| ty.clone());
        nodes.push(FnNode {
            file: rel.to_string(),
            name: f.name.clone(),
            qualified: owner.map(|ty| format!("{ty}::{}", f.name)),
            sig_line: f.sig_line,
            calls: call_sites(body),
            lock_effect: locks(body),
        });
    }
}

/// `(open token, close token, type name)` for every `impl` block whose
/// implemented type is a plain identifier (`impl Foo`, `impl Trait for Foo`).
fn impl_owner_ranges(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "impl" {
            continue;
        }
        // Walk to the body `{`, remembering the last plain identifier seen
        // at angle-depth 0 — that is the implemented type (after `for`, if
        // present, else the only path).
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut ty: Option<String> = None;
        while let Some(t2) = tokens.get(j) {
            match t2.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => break,
                ";" => break,
                "where" if t2.kind == TokenKind::Ident => break,
                _ if angle == 0 && t2.kind == TokenKind::Ident && t2.text != "for" => {
                    ty = Some(t2.text.clone());
                }
                _ => {}
            }
            j += 1;
        }
        if let (Some(ty), Some(open)) = (ty, tokens.get(j).filter(|t| t.text == "{").map(|_| j)) {
            let close = crate::rules::skip_balanced(tokens, open, "{", "}");
            out.push((open, close, ty));
        }
    }
    out
}

/// Does one body call `.lock(..)` directly?
fn locks(body: &[Token]) -> bool {
    body.windows(3).any(|w| {
        w[0].text == "." && w[1].kind == TokenKind::Ident && w[1].text == "lock" && w[2].text == "("
    })
}

/// Callee names referenced by one body: plain calls, `Type::name(..)` path
/// calls, and `.name(..)` method calls. Sorted and deduplicated. Names in
/// [`UNRESOLVABLE_NAMES`] are kept only in their qualified form.
fn call_sites(body: &[Token]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut push = |s: String| {
        if let Err(pos) = out.binary_search(&s) {
            out.insert(pos, s);
        }
    };
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident || !matches!(body.get(i + 1), Some(n) if n.text == "(") {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| body.get(p));
        match prev.map(|p| p.text.as_str()) {
            Some("fn") => {} // nested declaration, not a call
            Some("::") => {
                // `Type::name(` — qualify when the segment before `::` is a
                // type-looking identifier; record the simple name too unless
                // it is too generic to mean anything on its own.
                if let Some(q) = i
                    .checked_sub(2)
                    .and_then(|p| body.get(p))
                    .filter(|q| q.kind == TokenKind::Ident)
                {
                    push(format!("{}::{}", q.text, t.text));
                }
                if !UNRESOLVABLE_NAMES.contains(&t.text.as_str()) {
                    push(t.text.clone());
                }
            }
            Some(".") if UNRESOLVABLE_NAMES.contains(&t.text.as_str()) => {}
            _ => {
                if !UNRESOLVABLE_NAMES.contains(&t.text.as_str()) {
                    push(t.text.clone());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| ((*a).to_string(), (*b).to_string()))
            .collect();
        CallGraph::build(&owned)
    }

    #[test]
    fn direct_lock_detected() {
        let g = graph_of(&[(
            "a.rs",
            "fn f(m: &Mutex<f64>) -> f64 { let v = vec![1]; *m.lock() }\nfn g(x: f64) -> f64 { x }",
        )]);
        assert!(g.nodes()[0].lock_effect);
        assert!(!g.nodes()[1].lock_effect);
    }

    #[test]
    fn lock_effect_propagates_across_files() {
        let g = graph_of(&[
            ("a.rs", "pub fn record(s: &S) { let g = s.m.lock(); }"),
            ("b.rs", "pub fn wrapper(s: &S) { record(s) }"),
            ("c.rs", "pub fn outer(s: &S) { wrapper(s) }"),
        ]);
        assert!(g.lock_effect("d.rs", "outer"));
        assert!(!g.lock_effect("d.rs", "unheard_of"));
    }

    #[test]
    fn lock_effect_propagates_through_methods() {
        let src = "struct S;\nimpl S {\n fn read(&self) -> f64 { let g = self.m.lock(); g }\n}\n\
                   fn use_it(s: &S) -> f64 { s.read() }";
        let g = graph_of(&[("a.rs", src)]);
        assert!(g.lock_effect("a.rs", "read"));
        assert!(g.lock_effect("a.rs", "S::read"));
        assert!(g.lock_effect("a.rs", "use_it"));
    }

    #[test]
    fn test_mod_fns_are_excluded() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n fn fake(m: &M) { m.lock(); }\n}";
        let g = graph_of(&[("a.rs", src)]);
        assert_eq!(g.nodes().len(), 1);
        assert!(!g.lock_effect("a.rs", "fake"));
    }

    #[test]
    fn generic_names_only_resolve_qualified() {
        let src = "impl Pool {\n fn new(s: u64) -> Self { let x = GLOBAL.lock(); Pool }\n}\n\
                   fn a() { let r = Pool::new(1); }\n\
                   fn b() { let v = Vec::new(); }";
        let g = graph_of(&[("a.rs", src)]);
        assert!(g.lock_effect("a.rs", "a"), "qualified Pool::new resolves");
        assert!(
            !g.lock_effect("a.rs", "b"),
            "Vec::new does not hit Pool::new"
        );
    }

    #[test]
    fn graph_is_input_order_independent() {
        let files = [
            ("a.rs", "pub fn f(s: &S) -> f64 { g(s) }"),
            ("b.rs", "pub fn g(s: &S) -> f64 { *s.m.lock() }"),
        ];
        let fwd = graph_of(&files);
        let rev = graph_of(&[files[1], files[0]]);
        let names = |g: &CallGraph| {
            g.nodes()
                .iter()
                .map(|n| (n.file.clone(), n.name.clone(), n.lock_effect))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&fwd), names(&rev));
        assert!(fwd.lock_effect("c.rs", "f"));
    }

    #[test]
    fn binary_target_fns_link_only_within_their_file() {
        let bin = "crates/bench/src/bin/drops.rs";
        let g = graph_of(&[
            (
                "crates/simnet/src/sim.rs",
                "fn draw(rng: &mut R) -> f64 { rng.gen() }",
            ),
            (
                bin,
                "fn gen(s: &S) -> f64 { *s.m.lock() }\nfn main() { let s = S; gen(&s); }",
            ),
        ]);
        assert!(
            !g.lock_effect("crates/simnet/src/sim.rs", "draw"),
            "rng.gen() in a library must not reach the binary's fn gen"
        );
        assert!(!g.lock_effect("crates/simnet/src/sim.rs", "gen"));
        assert!(
            g.lock_effect(bin, "main"),
            "the binary's own calls still link"
        );
        assert!(is_binary_target("src/main.rs"));
        assert!(is_binary_target("crates/analyzer/src/main.rs"));
        assert!(!is_binary_target("crates/bench/src/lib.rs"));
    }
}
