//! Workspace-wide call graph with per-function effect inference.
//!
//! The RN2xx concurrency rules ([`crate::concurrency`]) need cross-file
//! answers — "does the function called inside this `scope.spawn` closure
//! touch an RNG, anywhere down its call chain?" — that no single-file token
//! pass can give. This module builds that context in three steps:
//!
//! 1. **Symbol table**: every function item in the analyzed file set, keyed
//!    by simple name and, where the declaring `impl` block names a type, by
//!    `Type::name` too. Functions inside `#[cfg(test)]` modules are excluded
//!    so test-only helpers never poison production call chains.
//! 2. **Call-site resolution**: plain calls (`helper(..)`), path calls
//!    (`Type::helper(..)`), and method calls (`x.helper(..)`) inside each
//!    function body, resolved by name against the symbol table. Name-based
//!    resolution is deliberately conservative: an ambiguous name unions the
//!    effects of every candidate, so the rules over-approximate rather than
//!    miss a hazard.
//! 3. **Effect inference**: direct effects per body (touches-RNG,
//!    seeds-own-RNG, locks), then a fixed-point pass that propagates RNG and lock effects through
//!    resolved calls. A function that *seeds its own RNG* from explicit
//!    state (`seed_from_u64`, `from_seed`, ...) is a derivation boundary:
//!    its stream is a pure function of its arguments, so neither its own
//!    RNG use nor its callees' propagates to callers.
//!
//! Everything is stored in sorted `Vec`s keyed by `(file, name, line)` —
//! never a hash map — so the graph, and every report built on it, is
//! byte-identical across runs and input orderings.

use crate::lexer::{Token, TokenKind};

/// Direct (single-body) effects of one function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effects {
    /// Body calls an RNG method (`gen_range`, `shuffle`, `sample`, ...).
    pub uses_rng: bool,
    /// Body seeds an RNG from explicit state (`seed_from_u64`,
    /// `from_seed`, ...) — a per-call derived stream, not an ambient one.
    pub seeds_own_rng: bool,
    /// Body acquires a lock (`.lock(..)`).
    pub locks: bool,
}

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
    /// Effects of this body alone.
    pub direct: Effects,
    /// Callee names (simple or `Type::name`), sorted and deduplicated.
    pub calls: Vec<String>,
    /// RNG hazard after propagation: this function draws from an RNG stream
    /// it did not derive itself, directly or through any callee.
    pub rng_hazard: bool,
    /// Acquires a lock, directly or through any callee.
    pub lock_effect: bool,
}

/// The workspace call graph: function nodes sorted by `(file, sig_line)`.
#[derive(Debug, Default)]
pub struct CallGraph {
    nodes: Vec<FnNode>,
}

/// RNG draw methods: using one on a receiver advances a random stream.
pub const RNG_METHODS: &[&str] = &[
    "gen",
    "gen_range",
    "gen_bool",
    "sample",
    "shuffle",
    "choose",
    "choose_multiple",
    "fill",
];

/// Constructors that derive an RNG stream from explicit state. A body that
/// calls one owns its stream: callers see no RNG hazard through it.
pub const RNG_SEEDERS: &[&str] = &["seed_from_u64", "from_seed", "from_state", "from_os_rng"];

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

    /// Indices of every node matching `name` (simple or `Type::name`).
    fn candidates(&self, name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.name == name || n.qualified.as_deref() == Some(name))
            .map(|(i, _)| i)
            .collect()
    }

    /// Does any function matching `name` carry a propagated RNG hazard?
    /// Unknown names resolve to `false`: the graph only ever adds evidence.
    pub fn rng_hazard(&self, name: &str) -> bool {
        self.candidates(name)
            .iter()
            .any(|&i| self.nodes[i].rng_hazard)
    }

    /// Does any function matching `name` acquire a lock, transitively?
    pub fn lock_effect(&self, name: &str) -> bool {
        self.candidates(name)
            .iter()
            .any(|&i| self.nodes[i].lock_effect)
    }

    /// Fixed-point propagation of RNG and lock effects through resolved
    /// calls. Both flags only ever turn on, so iteration terminates and the
    /// result is independent of visit order.
    fn propagate(&mut self) {
        for n in &mut self.nodes {
            n.rng_hazard = n.direct.uses_rng && !n.direct.seeds_own_rng;
            n.lock_effect = n.direct.locks;
        }
        loop {
            let mut changed = false;
            for i in 0..self.nodes.len() {
                let mut rng = self.nodes[i].rng_hazard;
                let mut lock = self.nodes[i].lock_effect;
                for callee in &self.nodes[i].calls {
                    for &j in &self.candidates(callee) {
                        if j == i {
                            continue;
                        }
                        // A self-seeding body owns every stream below it.
                        if !self.nodes[i].direct.seeds_own_rng {
                            rng |= self.nodes[j].rng_hazard;
                        }
                        lock |= self.nodes[j].lock_effect;
                    }
                }
                if rng != self.nodes[i].rng_hazard || lock != self.nodes[i].lock_effect {
                    self.nodes[i].rng_hazard = rng;
                    self.nodes[i].lock_effect = lock;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }
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
            direct: direct_effects(body),
            calls: call_sites(body),
            rng_hazard: false,
            lock_effect: false,
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

/// Scan one body's tokens for direct effects.
fn direct_effects(body: &[Token]) -> Effects {
    let mut e = Effects::default();
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| body.get(p));
        let is_call = body.get(i + 1).is_some_and(|n| n.text == "(");
        let is_method = is_call && prev.is_some_and(|p| p.text == ".");
        match t.text.as_str() {
            m if is_method && RNG_METHODS.contains(&m) => e.uses_rng = true,
            s if is_call && RNG_SEEDERS.contains(&s) => e.seeds_own_rng = true,
            "lock" if is_method => e.locks = true,
            _ => {}
        }
    }
    e
}

/// Is `text` a compound assignment operator?
pub(crate) fn is_compound_assign(text: &str) -> bool {
    matches!(
        text,
        "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>="
    )
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
            // Method-call RNG draws (`rng.gen(..)`) are already a *direct*
            // effect; linking them by name would wire any free function that
            // happens to be called `gen`/`sample`/`fill` into the chain.
            Some(".")
                if UNRESOLVABLE_NAMES.contains(&t.text.as_str())
                    || RNG_METHODS.contains(&t.text.as_str()) => {}
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
    fn direct_effects_detected() {
        let g = graph_of(&[(
            "a.rs",
            "fn f(rng: &mut R) -> f64 { let v = vec![1]; rng.gen_range(0.0..1.0) }",
        )]);
        let n = &g.nodes()[0];
        assert!(n.direct.uses_rng);
        assert!(!n.direct.seeds_own_rng && !n.direct.locks);
        assert!(n.rng_hazard);
    }

    #[test]
    fn self_seeding_cuts_rng_hazard() {
        let src = "fn draw(rng: &mut R) -> f64 { rng.gen_range(0.0..1.0) }\n\
                   fn sample(i: u64) -> f64 { let mut rng = StdRng::seed_from_u64(i); draw(&mut rng) }\n\
                   fn caller(i: u64) -> f64 { sample(i) }";
        let g = graph_of(&[("a.rs", src)]);
        let by_name = |n: &str| g.nodes().iter().find(|f| f.name == n).unwrap().clone();
        assert!(by_name("draw").rng_hazard);
        assert!(!by_name("sample").rng_hazard, "seeding blesses the chain");
        assert!(!by_name("caller").rng_hazard);
        assert!(g.rng_hazard("draw"));
        assert!(!g.rng_hazard("caller"));
    }

    #[test]
    fn rng_hazard_propagates_across_files() {
        let g = graph_of(&[
            ("a.rs", "pub fn noisy(rng: &mut R) -> f64 { rng.sample(D) }"),
            ("b.rs", "pub fn wrapper(rng: &mut R) -> f64 { noisy(rng) }"),
            ("c.rs", "pub fn outer(rng: &mut R) -> f64 { wrapper(rng) }"),
        ]);
        assert!(g.rng_hazard("outer"));
    }

    #[test]
    fn lock_effect_propagates_through_methods() {
        let src = "struct S;\nimpl S {\n fn read(&self) -> f64 { let g = self.m.lock(); g }\n}\n\
                   fn use_it(s: &S) -> f64 { s.read() }";
        let g = graph_of(&[("a.rs", src)]);
        assert!(g.lock_effect("read"));
        assert!(g.lock_effect("S::read"));
        assert!(g.lock_effect("use_it"));
    }

    #[test]
    fn test_mod_fns_are_excluded() {
        let src =
            "fn real() {}\n#[cfg(test)]\nmod tests {\n fn fake(rng: &mut R) { rng.shuffle(v); }\n}";
        let g = graph_of(&[("a.rs", src)]);
        assert_eq!(g.nodes().len(), 1);
        assert!(!g.rng_hazard("fake"));
    }

    #[test]
    fn generic_names_only_resolve_qualified() {
        let src = "impl Rng {\n fn new(s: u64) -> Self { let x = OS.sample(D); Rng }\n}\n\
                   fn a() { let r = Rng::new(1); }\n\
                   fn b() { let v = Vec::new(); }";
        let g = graph_of(&[("a.rs", src)]);
        let by_name = |n: &str| g.nodes().iter().find(|f| f.name == n).unwrap().clone();
        assert!(by_name("a").rng_hazard, "qualified Rng::new resolves");
        assert!(!by_name("b").rng_hazard, "Vec::new does not hit Rng::new");
    }

    #[test]
    fn graph_is_input_order_independent() {
        let files = [
            ("a.rs", "pub fn f(rng: &mut R) -> f64 { g(rng) }"),
            (
                "b.rs",
                "pub fn g(rng: &mut R) -> f64 { rng.gen_range(0.0..1.0) }",
            ),
        ];
        let fwd = graph_of(&files);
        let rev = graph_of(&[files[1], files[0]]);
        let names = |g: &CallGraph| {
            g.nodes()
                .iter()
                .map(|n| (n.file.clone(), n.name.clone(), n.rng_hazard, n.lock_effect))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&fwd), names(&rev));
    }
}
