//! RN2xx concurrency rules, built on [`crate::callgraph`].
//!
//! Determinism of the parallel code itself is not a rule here. Every worker
//! split goes through `routenet_core::par::strided_map` (clippy's
//! `disallowed_methods` bars any other scoped-thread call in library code),
//! its `Fn + Sync` bound rejects shared mutable state at compile time, and
//! the 1-vs-N byte-identity tests pin its output. What remains are two
//! hazards that compile and pass those tests: a lock in a hot loop and a
//! relaxed store that publishes data.
//!
//! | rule | id | flags |
//! |------|----|-------|
//! | `hot-loop-lock`          | RN204 | lock acquisition inside a hot loop ([`crate::HOT_PATHS`] files), directly or through calls |
//! | `relaxed-publish`        | RN205 | `Ordering::Relaxed` used to publish data (`store`/`compare_exchange`) rather than count (`fetch_add`/`load`) |

use crate::callgraph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::parse::{self, Parsed};
use crate::rules::{skip_balanced, Diagnostic, RuleSet};

/// Run every enabled RN2xx pass over one file.
pub(crate) fn concurrency_rules(
    file: &str,
    tokens: &[Token],
    parsed: &Parsed,
    graph: Option<&CallGraph>,
    rules: RuleSet,
    out: &mut Vec<Diagnostic>,
) {
    relaxed_publish_rule(file, tokens, out);
    if rules.hot_loop_lock {
        hot_loop_lock_rule(file, tokens, parsed, graph, out);
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
            if is_call && g.lock_effect(file, &t.text) && !flagged.contains(&t.line) {
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
        let src = "fn f(ready: &AtomicBool) {\n\
                       // lint: allow(relaxed-publish, reason = \"the flag guards no data\")\n\
                       ready.store(true, Ordering::Relaxed);\n\
                   }";
        // No finding of any rule: the directive is in force, not stale.
        let rep = analyze_source("test.rs", src, RuleSet::all());
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
        assert_eq!(rep.allows.len(), 1);
    }
}
