//! `liteworp-lint`: a std-only static-analysis pass for the workspace.
//!
//! The reproduction's headline guarantees — bit-identical reruns for the
//! runner cache, a byte-identical no-fault path for the chaos seam, and
//! honest metric reporting — rest on conventions `rustc` and clippy do not
//! check: no wall-clock time in simulation paths, no hash-order iteration
//! in protocol state, all randomness via the seeded PCG32 streams, no
//! panics in library crates. This crate is the automatic, offline gate for
//! those conventions.
//!
//! # Architecture
//!
//! * [`lexer`] — a lightweight Rust lexer (comment-, string-, and
//!   raw-string-aware, no external deps) producing spanned tokens.
//! * [`ast`] — a skeleton parser over the token stream: items, fn
//!   bodies, blocks, call/acquire events, `let` bindings, derives.
//! * [`callgraph`] — intra-workspace fn-name resolution and a bounded
//!   transitive "acquires a lock" closure.
//! * [`rules`] — the token-level rule families: **D-rules**
//!   (determinism), **P-rules** (panic hygiene), **S-rules**
//!   (structure), **L-rules** (lint-comment hygiene).
//! * [`structural`] — the structural families built on the parser and
//!   call graph: **C-rules** (lock discipline), **R-rules**
//!   (determinism taint; seed registry in [`seed_registry`]).
//! * [`allow`] — the `// lint: allow(<rule>) <reason>` escape hatch; a
//!   justification is mandatory and unused allows are themselves errors.
//! * [`scan`] — workspace walking, file classification (library, bin,
//!   test, bench, example), and the one serial scan.
//! * [`report`] — human-readable (`path:line:col: RULE message`) and JSON
//!   renderings of the diagnostic list.
//! * [`fix`] — the `--fix` rewriter for stale allows (L003).
//!
//! The `lint` binary wires these together and exits non-zero when any
//! diagnostic survives the allow pass, making it usable as a CI gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod ast;
pub mod callgraph;
pub mod diag;
pub mod fix;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod seed_registry;
pub mod structural;

pub use diag::{Diagnostic, FileClass, SourceFile};
pub use scan::check_workspace;

/// Runs every applicable rule on one in-memory source file and applies the
/// allow pass. The call graph is built from this file alone, so callee
/// resolution is intra-file; [`check_workspace`] passes a workspace-wide
/// graph instead. Structure rules that need cross-file context (S002,
/// S003) also run in [`check_workspace`].
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let lexed = lexer::Lexed::lex(&file.src);
    let parsed = ast::parse(&file.src, &lexed);
    let graph = callgraph::CallGraph::build(&[&parsed]);
    check_file_with(file, &lexed, &parsed, &graph)
}

/// [`check_file`] with the lex/parse/graph phases supplied by the
/// caller, so the workspace scan can share one cross-file call graph.
pub fn check_file_with(
    file: &SourceFile,
    lexed: &lexer::Lexed,
    parsed: &ast::FileAst,
    graph: &callgraph::CallGraph,
) -> Vec<Diagnostic> {
    let allows = allow::parse_allows(&file.src, lexed);
    let mut diags = Vec::new();
    diags.extend(allow::syntax_diagnostics(file, &allows));
    diags.extend(rules::token_rules(file, lexed));
    if file.is_crate_root {
        diags.extend(rules::crate_root_rules(file, lexed));
    }
    diags.extend(structural::structural_rules(file, lexed, parsed, graph));
    allow::apply(file, &allows, diags)
}
