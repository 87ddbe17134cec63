//! RN2xx concurrency/determinism rules, built on [`crate::callgraph`].
//!
//! The repo's two load-bearing guarantees — bit-identical resume (training)
//! and byte-identical dataset generation — are exactly what naive
//! parallelism breaks: thread-order-dependent float reduction and shared RNG
//! streams produce runs that differ under identical seeds. These rules
//! police the blessed pattern instead (see DESIGN.md "Parallelism safety
//! contract"): deterministic strided work assignment, per-worker result
//! slots reduced sequentially in worker order, and per-worker RNG streams
//! derived from explicit seeds. Racing writes to a captured binding are the
//! borrow checker's job (with `unsafe_code` denied workspace-wide), not a
//! rule here: each rule below flags code that compiles.
//!
//! | rule | id | flags |
//! |------|----|-------|
//! | `parallel-float-reduce`  | RN202 | accumulation into a shared `Mutex`/atomic inside a spawn body — reduction order then depends on scheduling |
//! | `parallel-rng`           | RN203 | RNG use inside a spawn body unless the stream is derived per-worker (`seed_from_u64` & co.), directly or through calls |
//! | `hot-loop-lock`          | RN204 | lock acquisition inside a hot loop ([`crate::HOT_PATHS`] files), directly or through calls |
//! | `relaxed-publish`        | RN205 | `Ordering::Relaxed` used to publish data (`store`/`compare_exchange`) rather than count (`fetch_add`/`load`) |

use crate::callgraph::{is_compound_assign, CallGraph, RNG_METHODS, RNG_SEEDERS};
use crate::lexer::{Token, TokenKind};
use crate::parse::{self, Parsed};
use crate::rules::{skip_attr, skip_balanced, Diagnostic, RuleSet};

/// One `scope.spawn(..)` argument span: `tokens[open..close]` including the
/// parens.
struct SpawnRegion {
    open: usize,
    close: usize,
}

/// Run every enabled RN2xx pass over one file.
pub(crate) fn concurrency_rules(
    file: &str,
    tokens: &[Token],
    parsed: &Parsed,
    graph: Option<&CallGraph>,
    rules: RuleSet,
    out: &mut Vec<Diagnostic>,
) {
    for region in spawn_regions(tokens) {
        float_reduce_rule(file, tokens, &region, out);
        parallel_rng_rule(file, tokens, &region, graph, out);
    }
    relaxed_publish_rule(file, tokens, out);
    if rules.hot_loop_lock {
        hot_loop_lock_rule(file, tokens, parsed, graph, out);
    }
}

/// Every `.spawn(..)` call's argument span.
fn spawn_regions(tokens: &[Token]) -> Vec<SpawnRegion> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Ident
            && t.text == "spawn"
            && i > 0
            && tokens[i - 1].text == "."
            && matches!(tokens.get(i + 1), Some(p) if p.text == "(")
        {
            out.push(SpawnRegion {
                open: i + 1,
                close: skip_balanced(tokens, i + 1, "(", ")"),
            });
        }
    }
    out
}

/// Names bound *inside* the spawn region: closure parameters, `let`
/// patterns, and `for` loop variables. An RNG bound here is worker-local.
fn declared_inside(tokens: &[Token], region: &SpawnRegion) -> Vec<String> {
    let mut names = Vec::new();
    let mut push = |n: &str| {
        if !names.iter().any(|x: &String| x == n) {
            names.push(n.to_string());
        }
    };
    let mut i = region.open;
    while i < region.close.min(tokens.len()) {
        let t = &tokens[i];
        // Closure parameter list: `|a, b|` after `(`, `,`, `move`, or `=`.
        if t.text == "|" {
            let starts_closure = i
                .checked_sub(1)
                .and_then(|p| tokens.get(p))
                .is_some_and(|p| matches!(p.text.as_str(), "(" | "," | "move" | "=" | "{" | ";"));
            if starts_closure {
                let mut j = i + 1;
                while j < region.close.min(tokens.len()) && tokens[j].text != "|" {
                    if tokens[j].kind == TokenKind::Ident {
                        push(&tokens[j].text);
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        // `let <pattern> =` / `let <pattern>;` — every identifier in the
        // pattern is a local binding (type ascriptions add type names too;
        // extra names only make the rule more conservative).
        if t.kind == TokenKind::Ident && t.text == "let" {
            let mut j = i + 1;
            while j < region.close.min(tokens.len()) {
                match tokens[j].text.as_str() {
                    "=" | ";" => break,
                    _ => {
                        if tokens[j].kind == TokenKind::Ident {
                            push(&tokens[j].text);
                        }
                    }
                }
                j += 1;
            }
            i = j;
            continue;
        }
        // `for <pattern> in ..`
        if t.kind == TokenKind::Ident && t.text == "for" {
            let mut j = i + 1;
            while j < region.close.min(tokens.len()) {
                let tj = &tokens[j];
                if tj.kind == TokenKind::Ident && tj.text == "in" {
                    break;
                }
                if tj.kind == TokenKind::Ident {
                    push(&tj.text);
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    names
}

/// Token index of the start of the statement containing `i` within the
/// region (just after the previous `;`/`{`/`}` or the region open, and past
/// any outer attributes such as `#[expect(..)]`).
fn statement_start(tokens: &[Token], region: &SpawnRegion, i: usize) -> usize {
    let mut s = i;
    while s > region.open + 1 {
        match tokens[s - 1].text.as_str() {
            ";" | "{" | "}" => break,
            _ => s -= 1,
        }
    }
    while s < i && tokens[s].text == "#" {
        s = skip_attr(tokens, s);
    }
    s
}

/// Token index just past the end of the statement containing `i`.
fn statement_end(tokens: &[Token], region: &SpawnRegion, i: usize) -> usize {
    let mut j = i;
    let mut depth = 0i32;
    while j < region.close.min(tokens.len()) {
        match tokens[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Does the statement slice call one of `methods`?
fn statement_calls(tokens: &[Token], start: usize, end: usize, methods: &[&str]) -> bool {
    tokens[start..end.min(tokens.len())].windows(3).any(|w| {
        w[0].text == "."
            && w[1].kind == TokenKind::Ident
            && methods.contains(&w[1].text.as_str())
            && w[2].text == "("
    })
}

/// Root identifier of the receiver ending just before token `i` (the `.`
/// of a method call). Walks back over `a.b`, `a::b` and `a[..]`. Returns
/// `None` when the receiver is an expression (`f().x`).
fn lvalue_root(tokens: &[Token], region: &SpawnRegion, i: usize) -> Option<String> {
    let mut j = i;
    while j > region.open + 1 {
        let p = &tokens[j - 1];
        if p.kind == TokenKind::Ident || p.text == "." || p.text == "::" {
            j -= 1;
        } else if p.text == "]" {
            // Walk back over an index expression to its opening `[`.
            let mut depth = 0i32;
            let mut k = j - 1;
            loop {
                match tokens[k].text.as_str() {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            j = k;
        } else if p.text == ")" {
            return None;
        } else {
            break;
        }
    }
    tokens
        .get(j)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
}

/// RN202: order-dependent parallel float reduction — accumulating into a
/// shared `Mutex` or atomic inside a spawn body. Float addition is not
/// associative, so the reduction order (here: lock-acquisition order) must
/// not depend on thread scheduling.
fn float_reduce_rule(
    file: &str,
    tokens: &[Token],
    region: &SpawnRegion,
    out: &mut Vec<Diagnostic>,
) {
    let end = region.close.min(tokens.len());
    let mut flagged: Vec<u32> = Vec::new();
    for i in region.open + 1..end {
        let t = &tokens[i];
        if is_compound_assign(&t.text) {
            let start = statement_start(tokens, region, i);
            let stmt_end = statement_end(tokens, region, i);
            if statement_calls(tokens, start, stmt_end, &["lock"]) && !flagged.contains(&t.line) {
                flagged.push(t.line);
                out.push(Diagnostic::new(
                    "parallel-float-reduce",
                    file,
                    t.line,
                    "accumulating into a shared Mutex inside a spawn body — lock-acquisition order depends on scheduling, so float reduction is not reproducible; accumulate into per-worker slots and reduce sequentially in worker order".to_string(),
                ));
            }
        }
        // Atomic-float CAS loop: `fetch_update`/`compare_exchange` combined
        // with `to_bits`/`from_bits` — the classic shared float accumulator.
        if t.kind == TokenKind::Ident
            && (t.text == "fetch_update" || t.text.starts_with("compare_exchange"))
            && i > 0
            && tokens[i - 1].text == "."
        {
            let start = statement_start(tokens, region, i);
            let stmt_end = statement_end(tokens, region, i);
            let has_bits = tokens[start..stmt_end.min(tokens.len())]
                .iter()
                .any(|b| b.text == "to_bits" || b.text == "from_bits");
            if has_bits && !flagged.contains(&t.line) {
                flagged.push(t.line);
                out.push(Diagnostic::new(
                    "parallel-float-reduce",
                    file,
                    t.line,
                    "atomic CAS on float bits inside a spawn body — update order depends on scheduling, so float reduction is not reproducible; accumulate into per-worker slots and reduce sequentially in worker order".to_string(),
                ));
            }
        }
    }
}

/// RN203: RNG use inside a spawn body unless drawn from a per-worker
/// derived stream.
fn parallel_rng_rule(
    file: &str,
    tokens: &[Token],
    region: &SpawnRegion,
    graph: Option<&CallGraph>,
    out: &mut Vec<Diagnostic>,
) {
    let end = region.close.min(tokens.len());
    let inside = declared_inside(tokens, region);
    let region_seeds = tokens[region.open..end]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && RNG_SEEDERS.contains(&t.text.as_str()));
    let mut flagged: Vec<u32> = Vec::new();
    let mut flag = |line: u32, msg: String, out: &mut Vec<Diagnostic>| {
        if !flagged.contains(&line) {
            flagged.push(line);
            out.push(Diagnostic::new("parallel-rng", file, line, msg));
        }
    };
    for i in region.open + 1..end {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let is_method =
            tokens[i - 1].text == "." && matches!(tokens.get(i + 1), Some(p) if p.text == "(");
        // Direct draw: `<recv>.gen_range(..)` & co. Blessed only when the
        // receiver is a worker-local binding seeded inside the region.
        if is_method && RNG_METHODS.contains(&t.text.as_str()) {
            let root = lvalue_root(tokens, region, i - 1);
            let local_seeded =
                region_seeds && root.as_ref().is_some_and(|r| inside.iter().any(|n| n == r));
            if !local_seeded {
                flag(
                    t.line,
                    format!(
                        ".{}() inside a spawn body draws from a shared RNG stream — the draw order depends on scheduling; derive a per-worker stream with seed_from_u64 inside the closure",
                        t.text
                    ),
                    out,
                );
            }
            continue;
        }
        // Transitive draw: a call to a function whose chain reaches an RNG
        // it did not seed itself.
        if let Some(g) = graph {
            let is_call =
                matches!(tokens.get(i + 1), Some(p) if p.text == "(") && tokens[i - 1].text != "fn";
            if is_call {
                let name = if tokens[i - 1].text == "::" {
                    i.checked_sub(2)
                        .and_then(|p| tokens.get(p))
                        .filter(|q| q.kind == TokenKind::Ident)
                        .map_or_else(|| t.text.clone(), |q| format!("{}::{}", q.text, t.text))
                } else {
                    t.text.clone()
                };
                if g.rng_hazard(&name) {
                    flag(
                        t.line,
                        format!(
                            "{name}(..) draws from an RNG stream it did not derive (callgraph: transitive RNG use without seed_from_u64) — inside a spawn body the draw order depends on scheduling; pass a per-worker derived stream or seed inside the callee"
                        ),
                        out,
                    );
                }
            }
        }
    }
}

/// RN204: lock acquisition inside a hot loop — every iteration serializes
/// on the lock, and the kernel files are exactly where that throughput
/// cliff matters.
fn hot_loop_lock_rule(
    file: &str,
    tokens: &[Token],
    parsed: &Parsed,
    graph: Option<&CallGraph>,
    out: &mut Vec<Diagnostic>,
) {
    let mut flagged: Vec<u32> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !parse::in_ranges(i, &parsed.loop_ranges) {
            continue;
        }
        let is_method = i > 0
            && tokens[i - 1].text == "."
            && matches!(tokens.get(i + 1), Some(p) if p.text == "(");
        if is_method && t.text == "lock" && !flagged.contains(&t.line) {
            flagged.push(t.line);
            out.push(Diagnostic::new(
                "hot-loop-lock",
                file,
                t.line,
                ".lock() inside a hot loop serializes every iteration — hoist the acquisition out of the loop, use per-worker state, or justify with `// lint: allow(hot-loop-lock, reason = \"...\")`".to_string(),
            ));
            continue;
        }
        // Transitive: a call whose chain acquires a lock.
        if let Some(g) = graph {
            let is_call = matches!(tokens.get(i + 1), Some(p) if p.text == "(")
                && (i == 0 || tokens[i - 1].text != "fn")
                && (i == 0 || tokens[i - 1].text != ".");
            if is_call && g.lock_effect(&t.text) && !flagged.contains(&t.line) {
                flagged.push(t.line);
                out.push(Diagnostic::new(
                    "hot-loop-lock",
                    file,
                    t.line,
                    format!(
                        "{}(..) acquires a lock (callgraph: transitive .lock()) inside a hot loop — every iteration serializes; hoist the acquisition or restructure",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// RN205: `Ordering::Relaxed` on a publishing operation. Relaxed is the
/// right ordering for counters (`fetch_add`, `load`), but a relaxed
/// `store`/`compare_exchange` publishes data with no happens-before edge —
/// readers may observe the flag without the data it guards.
fn relaxed_publish_rule(file: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let publishes = t.text == "store"
            || t.text == "compare_exchange"
            || t.text == "compare_exchange_weak"
            || t.text == "fetch_update";
        if !publishes
            || i == 0
            || tokens[i - 1].text != "."
            || !matches!(tokens.get(i + 1), Some(p) if p.text == "(")
        {
            continue;
        }
        let args_end = skip_balanced(tokens, i + 1, "(", ")");
        let relaxed = tokens[i + 1..args_end.min(tokens.len())]
            .iter()
            .any(|a| a.kind == TokenKind::Ident && a.text == "Relaxed");
        if relaxed {
            out.push(Diagnostic::new(
                "relaxed-publish",
                file,
                t.line,
                format!(
                    ".{}(.., Ordering::Relaxed) publishes data without a happens-before edge — readers can observe the write out of order; use Release/Acquire (or SeqCst) for publication, Relaxed only for counters",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::{analyze_source, RuleSet};

    /// RN2xx findings only — RuleSet::all() also runs the core rules, and
    /// e.g. a NaN-unsound comparison in a snippet is `nan` territory, not a
    /// concurrency regression.
    fn run(src: &str) -> Vec<(&'static str, u32)> {
        analyze_source("test.rs", src, RuleSet::all())
            .diagnostics
            .into_iter()
            .filter(|d| d.id().starts_with("RN2") || d.rule == "hot-loop-lock")
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn mutex_float_accumulation_flagged() {
        let src = "fn f(scope: &S, acc: &Mutex<f64>, x: f64) {\n\
                       scope.spawn(move |_| {\n\
                           *acc.lock() += x;\n\
                       });\n\
                   }";
        assert_eq!(run(src), vec![("parallel-float-reduce", 3)]);
    }

    #[test]
    fn captured_rng_in_spawn_flagged() {
        let src = "fn f(scope: &S, rng: &mut R) {\n\
                       scope.spawn(move |_| {\n\
                           let x = rng.gen_range(1..9);\n\
                       });\n\
                   }";
        assert_eq!(run(src), vec![("parallel-rng", 3)]);
    }

    #[test]
    fn per_worker_seeded_rng_is_blessed() {
        let src = "fn f(scope: &S, seed: u64, w: u64) {\n\
                       scope.spawn(move |_| {\n\
                           let mut rng = StdRng::seed_from_u64(seed ^ w);\n\
                           let x = rng.gen_range(1..9);\n\
                       });\n\
                   }";
        assert_eq!(run(src), vec![]);
    }

    #[test]
    fn relaxed_store_flagged_relaxed_counter_not() {
        let src = "fn f(ready: &AtomicBool, hits: &AtomicUsize) {\n\
                       hits.fetch_add(1, Ordering::Relaxed);\n\
                       ready.store(true, Ordering::Relaxed);\n\
                       ready.store(true, Ordering::SeqCst);\n\
                   }";
        assert_eq!(run(src), vec![("relaxed-publish", 3)]);
    }

    #[test]
    fn lock_in_loop_flagged() {
        let src = "fn f(items: &[f64], m: &Mutex<f64>) -> f64 {\n\
                       let mut t = 0.0;\n\
                       for x in items {\n\
                           let g = m.lock();\n\
                           t += x;\n\
                       }\n\
                       t\n\
                   }";
        assert_eq!(run(src), vec![("hot-loop-lock", 4)]);
    }

    #[test]
    fn lock_outside_loop_not_flagged() {
        let src = "fn f(items: &[f64], m: &Mutex<f64>) -> f64 {\n\
                       let g = m.lock();\n\
                       let mut t = 0.0;\n\
                       for x in items {\n\
                           t += x;\n\
                       }\n\
                       t\n\
                   }";
        assert_eq!(run(src), vec![]);
    }

    #[test]
    fn allow_directive_suppresses_rn2xx() {
        let src = "fn f(scope: &S, rng: &mut R) {\n\
                       scope.spawn(move |_| {\n\
                           // lint: allow(parallel-rng, reason = \"single worker owns the stream in this branch\")\n\
                           let x = rng.gen_range(1..9);\n\
                       });\n\
                   }";
        // No finding of any rule: the directive is in force, not stale.
        let rep = analyze_source("test.rs", src, RuleSet::all());
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
        assert_eq!(rep.allows.len(), 1);
    }
}
