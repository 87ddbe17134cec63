//! RN2xx concurrency rules.
//!
//! Determinism of the parallel code itself is not a rule here. Every worker
//! split goes through `routenet_core::par::strided_map` (clippy's
//! `disallowed_methods` bars any other scoped-thread call in library code),
//! its `Fn + Sync` bound rejects shared mutable state at compile time, and
//! the 1-vs-N byte-identity tests pin its output. Locks are clippy's too:
//! `disallowed_types` bars `std::sync::Mutex` and `RwLock` outside the four
//! modules that own one, and `tests/alloc_counts.rs` shows the hot loops
//! never call into the one lock they can reach, the telemetry registry.
//! What remains is a hazard that compiles and passes those tests: a relaxed
//! store that publishes data.
//!
//! | rule | id | flags |
//! |------|----|-------|
//! | `relaxed-publish`        | RN205 | `Ordering::Relaxed` used to publish data (`store`/`compare_exchange`) rather than count (`fetch_add`/`load`) |

use crate::lexer::{Token, TokenKind};
use crate::rules::{skip_balanced, Diagnostic};

/// RN205: `Ordering::Relaxed` on a publishing operation. Relaxed is the
/// right ordering for counters (`fetch_add`, `load`), but a relaxed
/// `store`/`compare_exchange` publishes data with no happens-before edge —
/// readers may observe the flag without the data it guards.
pub(crate) fn relaxed_publish_rule(file: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
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
            .filter(|d| d.id().starts_with("RN2"))
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
