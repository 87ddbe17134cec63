//! Lightweight structural parse layer over the [`crate::lexer`] token stream.
//!
//! The hot-loop rules only need an answer to one structural question — "is
//! this token inside a loop body?" — not a full AST. This module answers it
//! with a single forward pass each:
//!
//! - [`build_blocks`]: every brace-delimited block with a coarse
//!   [`BlockKind`], derived from the keyword that introduced it,
//! - [`loop_ranges`]: token ranges executed once per iteration — `for` /
//!   `while` / `loop` bodies plus the argument spans of iterator-adapter
//!   closures (`.map(..)`, `.for_each(..)`, ...).
//!
//! All results are conservative: when the heuristics cannot classify a
//! construct they fall back to "not a loop", so downstream rules
//! under-report rather than hallucinate.

use crate::lexer::{Token, TokenKind};

/// Coarse classification of a brace-delimited block by the keyword that
/// introduced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A function body.
    Fn,
    /// A `for` / `while` / `loop` body.
    Loop,
    /// A `match` body (the arm list; arm blocks are [`BlockKind::Other`]).
    Match,
    /// A `struct` / `enum` / `union` / `impl` / `mod` / `trait` body.
    Item,
    /// Anything else: `if` / `else` arms, bare blocks, closures, literals.
    Other,
}

/// One brace-delimited block.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// What introduced the block.
    pub kind: BlockKind,
    /// Token index of the opening `{`.
    pub open: usize,
    /// Token index of the matching `}` (`tokens.len()` when unbalanced).
    pub close: usize,
    /// Line of the opening `{`.
    pub start_line: u32,
    /// Line of the closing `}`.
    pub end_line: u32,
}

/// Structural facts for one file.
#[derive(Debug)]
pub struct Parsed {
    /// Every brace block, in closing order.
    pub blocks: Vec<Block>,
    /// Token ranges `(start, end)` executed once per loop iteration.
    pub loop_ranges: Vec<(usize, usize)>,
}

/// Run every structural pass over one file's tokens.
pub fn parse(tokens: &[Token]) -> Parsed {
    let blocks = build_blocks(tokens);
    let loop_ranges = loop_ranges(tokens, &blocks);
    Parsed {
        blocks,
        loop_ranges,
    }
}

/// Keywords that put a block kind "on deck" for the next `{`.
fn pending_kind(text: &str) -> Option<BlockKind> {
    match text {
        "fn" => Some(BlockKind::Fn),
        "for" | "while" | "loop" => Some(BlockKind::Loop),
        "match" => Some(BlockKind::Match),
        "struct" | "enum" | "union" | "impl" | "mod" | "trait" => Some(BlockKind::Item),
        _ => None,
    }
}

/// Scan the token stream once, classifying every `{ .. }` block.
///
/// A keyword sets a pending kind which the next `{` claims; `;` clears it
/// (`struct S;`, trait method declarations). Later keywords never override an
/// earlier pending kind, so `impl Trait for T {` stays [`BlockKind::Item`]
/// and `fn f<F: for<'a> Fn(..)>() {` stays [`BlockKind::Fn`].
pub fn build_blocks(tokens: &[Token]) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut stack: Vec<(BlockKind, usize)> = Vec::new();
    let mut pending: Option<BlockKind> = None;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Ident {
            if let Some(kind) = pending_kind(&t.text) {
                if pending.is_none() || kind == BlockKind::Fn {
                    pending = Some(kind);
                }
                continue;
            }
        }
        match t.text.as_str() {
            ";" => pending = None,
            "{" => stack.push((pending.take().unwrap_or(BlockKind::Other), i)),
            "}" => {
                if let Some((kind, open)) = stack.pop() {
                    blocks.push(Block {
                        kind,
                        open,
                        close: i,
                        start_line: tokens[open].line,
                        end_line: t.line,
                    });
                }
            }
            _ => {}
        }
    }
    // Unbalanced leftovers (lexer saw EOF first): close at end of stream.
    while let Some((kind, open)) = stack.pop() {
        blocks.push(Block {
            kind,
            open,
            close: tokens.len(),
            start_line: tokens[open].line,
            end_line: tokens.last().map_or(tokens[open].line, |t| t.line),
        });
    }
    blocks
}

/// Iterator adapters that take a closure executed once per element.
const ADAPTERS: &[&str] = &[
    "map",
    "for_each",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "try_fold",
    "scan",
    "retain",
    "map_while",
    "inspect",
];

/// Token ranges executed once per iteration: loop bodies plus the argument
/// spans of iterator-adapter calls.
pub fn loop_ranges(tokens: &[Token], blocks: &[Block]) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = blocks
        .iter()
        .filter(|b| b.kind == BlockKind::Loop)
        .map(|b| (b.open, b.close))
        .collect();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Ident
            && ADAPTERS.contains(&t.text.as_str())
            && i > 0
            && tokens[i - 1].text == "."
            && matches!(tokens.get(i + 1), Some(p) if p.text == "(")
        {
            let end = crate::rules::skip_balanced(tokens, i + 1, "(", ")");
            ranges.push((i + 1, end));
        }
    }
    ranges.sort_unstable();
    ranges
}

/// Is token index `i` inside any of `ranges` (exclusive of the delimiters)?
pub fn in_ranges(i: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(a, b)| i > a && i < b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Parsed {
        parse(&lex(src).tokens)
    }

    #[test]
    fn block_kinds_classified() {
        let p = parse_src(
            "fn f() { for x in v { match x { _ => { } } } } struct S { a: u32 } impl S { }",
        );
        let kinds: Vec<BlockKind> = {
            let mut bs = p.blocks.clone();
            bs.sort_by_key(|b| b.open);
            bs.iter().map(|b| b.kind).collect()
        };
        assert_eq!(
            kinds,
            vec![
                BlockKind::Fn,
                BlockKind::Loop,
                BlockKind::Match,
                BlockKind::Other,
                BlockKind::Item,
                BlockKind::Item,
            ]
        );
    }

    #[test]
    fn impl_trait_for_is_item_not_loop() {
        let p = parse_src("impl Display for S { fn fmt(&self) { } }");
        let mut bs = p.blocks.clone();
        bs.sort_by_key(|b| b.open);
        assert_eq!(bs[0].kind, BlockKind::Item);
        assert_eq!(bs[1].kind, BlockKind::Fn);
    }

    #[test]
    fn struct_with_semicolon_clears_pending() {
        let p = parse_src("struct S; fn f() { }");
        assert_eq!(p.blocks.len(), 1);
        assert_eq!(p.blocks[0].kind, BlockKind::Fn);
    }

    #[test]
    fn loop_ranges_cover_bodies_and_adapter_closures() {
        let src = "fn f(v: &[u32]) { for x in v { touch(x); } let s: u32 = v.iter().map(|x| x + 1).sum(); }";
        let tokens = lex(src).tokens;
        let p = parse(&tokens);
        let touch = tokens.iter().position(|t| t.text == "touch").unwrap();
        let plus = tokens.iter().position(|t| t.text == "+").unwrap();
        let sum = tokens.iter().position(|t| t.text == "sum").unwrap();
        assert!(in_ranges(touch, &p.loop_ranges));
        assert!(in_ranges(plus, &p.loop_ranges));
        assert!(!in_ranges(sum, &p.loop_ranges));
    }

    #[test]
    fn labeled_loop_is_a_loop() {
        let src = "fn f() { 'outer: while go() { step(); } }";
        let tokens = lex(src).tokens;
        let p = parse(&tokens);
        let step = tokens.iter().position(|t| t.text == "step").unwrap();
        assert!(in_ranges(step, &p.loop_ranges));
    }
}
