//! The rule families, matched over the token stream.
//!
//! * **D-rules** — determinism: the invariants behind bit-identical
//!   reruns (runner cache) and the byte-identical no-fault path (chaos).
//! * **P-rules** — panic hygiene: library crates surface `Result`s, they
//!   do not abort the host.
//! * **S-rules** — structure: crate-root hardening and telemetry counter
//!   exhaustiveness.
//! * **L-rules** — hygiene of the `// lint: allow` escape hatch itself
//!   (implemented in [`crate::allow`]).

use crate::diag::{Diagnostic, FileClass, SourceFile};
use crate::lexer::{Kind, Lexed, Token};

/// Static description of one rule, for `--list-rules` and docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier (`D001`, …) used in diagnostics and allows.
    pub id: &'static str,
    /// One-line summary of what the rule forbids.
    pub summary: &'static str,
    /// The invariant the rule protects.
    pub invariant: &'static str,
}

/// Every rule the engine knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        summary: "wall-clock reads (SystemTime::now / Instant::now) outside profiling allows",
        invariant: "simulation time is SimTime only; reruns are bit-identical",
    },
    RuleInfo {
        id: "D002",
        summary: "default-hasher HashMap/HashSet in workspace source",
        invariant: "no hash-order iteration in protocol or aggregation state",
    },
    RuleInfo {
        id: "D003",
        summary: "ambient randomness (thread_rng, RandomState, getrandom, rand::)",
        invariant: "all randomness flows through the runner's seeded PCG32 streams",
    },
    RuleInfo {
        id: "P001",
        summary: ".unwrap() in non-test library code",
        invariant: "library crates return typed errors instead of aborting",
    },
    RuleInfo {
        id: "P002",
        summary: ".expect(...) in non-test library code",
        invariant: "library crates return typed errors instead of aborting",
    },
    RuleInfo {
        id: "P003",
        summary: "panic!/todo!/unimplemented! in non-test library code",
        invariant: "library crates return typed errors instead of aborting",
    },
    RuleInfo {
        id: "C001",
        summary: "nested lock acquisition while a guard is live (directly or via a callee)",
        invariant: "served/runner lock discipline is one lock at a time",
    },
    RuleInfo {
        id: "C002",
        summary:
            "blocking call (fsync, accept, frame IO, Condvar::wait on another lock) under a guard",
        invariant: "critical sections never park or block on IO",
    },
    RuleInfo {
        id: "C003",
        summary: "lock guard bound to `_` (drops immediately — a no-op critical section)",
        invariant: "every acquired guard protects an actual critical section",
    },
    RuleInfo {
        id: "R001",
        summary: "#[derive(Debug)] on a seed-hash registry type (Scenario, NodeParams)",
        invariant: "Debug strings that feed seed hashing are hand-written and stable",
    },
    RuleInfo {
        id: "R002",
        summary: "iteration over an unordered read_dir/vars stream feeding a digest or JSONL sink",
        invariant: "serialized and hashed output bytes are independent of OS enumeration order",
    },
    RuleInfo {
        id: "S001",
        summary: "crate root missing #![forbid(unsafe_code)]",
        invariant: "the whole workspace is forbid-unsafe",
    },
    RuleInfo {
        id: "S002",
        summary: "telemetry per-kind counters drifting from the EventKind variant list",
        invariant: "KIND_COUNT and KIND_NAMES stay exhaustive against EventKind",
    },
    RuleInfo {
        id: "S003",
        summary: "obs metric/span name literal missing from the crates/obs name registry",
        invariant: "every observable name is declared in names.rs and documented",
    },
    RuleInfo {
        id: "L001",
        summary: "lint: allow comment without a justification",
        invariant: "every exception carries a written reason",
    },
    RuleInfo {
        id: "L002",
        summary: "lint: allow naming an unknown rule id",
        invariant: "allows reference real rules only",
    },
    RuleInfo {
        id: "L003",
        summary: "lint: allow that suppresses nothing",
        invariant: "stale exceptions are removed when the violation is fixed",
    },
    RuleInfo {
        id: "L004",
        summary: "lint: allow(D001) outside the registered wall-clock boundary",
        invariant: "wall-clock reads stay confined to the registered profiling and timeout seams",
    },
    RuleInfo {
        id: "L005",
        summary: "lint: allow(C001) in library or binary code",
        invariant: "nested locking has no escape hatch: one lock at a time, everywhere",
    },
];

/// Whether `id` names a rule this engine implements.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Runs the token-level D- and P-rules applicable to `file`'s class.
pub fn token_rules(file: &SourceFile, lexed: &Lexed) -> Vec<Diagnostic> {
    let (determinism, panics) = match file.class {
        FileClass::Lib => (true, true),
        FileClass::Bin => (true, false),
        FileClass::Test | FileClass::Bench | FileClass::Example => (false, false),
    };
    if !determinism {
        return Vec::new();
    }
    let src = &file.src;
    let toks = &lexed.tokens;
    let regions = test_regions(src, toks);
    let in_test = |off: usize| regions.iter().any(|&(lo, hi)| (lo..hi).contains(&off));
    let mut out = Vec::new();
    let mut emit = |rule: &'static str, tok: Token, message: String| {
        let (line, col) = lexed.line_col(tok.lo);
        out.push(Diagnostic {
            rule,
            path: file.path.clone(),
            line,
            col,
            message,
        });
    };
    for i in 0..toks.len() {
        let t = toks[i];
        if t.kind != Kind::Ident || in_test(t.lo) {
            continue;
        }
        let word = &src[t.lo..t.hi];
        match word {
            "SystemTime" | "Instant" if path_call(src, toks, i, "now") => {
                emit(
                    "D001",
                    t,
                    format!(
                        "wall-clock read `{word}::now()`; simulation paths must use SimTime — \
                         registered wall-clock-boundary sites need \
                         `// lint: allow(D001) <reason>` (L004 rejects the allow elsewhere)"
                    ),
                );
            }
            "HashMap" | "HashSet" => {
                emit(
                    "D002",
                    t,
                    format!(
                        "`{word}` iterates in randomized hash order; use `BTreeMap`/`BTreeSet` \
                         (or a seeded hasher) so state walks are deterministic"
                    ),
                );
            }
            "thread_rng" | "RandomState" | "getrandom" | "from_entropy" => {
                emit(
                    "D003",
                    t,
                    format!(
                        "ambient randomness `{word}`; all randomness must flow through the \
                         runner's seeded PCG32 streams"
                    ),
                );
            }
            "rand" if followed_by_path_sep(toks, i) => {
                emit(
                    "D003",
                    t,
                    "external `rand::` randomness; all randomness must flow through the \
                     runner's seeded PCG32 streams"
                        .to_string(),
                );
            }
            "unwrap" if panics && method_call(src, toks, i) => {
                emit(
                    "P001",
                    t,
                    "`.unwrap()` in library code; return a typed error, or justify with \
                     `// lint: allow(P001) <reason>`"
                        .to_string(),
                );
            }
            "expect" if panics && method_call(src, toks, i) => {
                emit(
                    "P002",
                    t,
                    "`.expect(...)` in library code; return a typed error, or justify with \
                     `// lint: allow(P002) <reason>`"
                        .to_string(),
                );
            }
            "panic" | "todo" | "unimplemented" if panics && macro_bang(toks, i) => {
                emit(
                    "P003",
                    t,
                    format!(
                        "`{word}!` in library code; return a typed error, or justify with \
                         `// lint: allow(P003) <reason>`"
                    ),
                );
            }
            _ => {}
        }
    }
    out
}

/// S001: crate roots must carry `#![forbid(unsafe_code)]`.
pub fn crate_root_rules(file: &SourceFile, lexed: &Lexed) -> Vec<Diagnostic> {
    let toks = &lexed.tokens;
    let src = &file.src;
    for i in 0..toks.len() {
        if punct_at(toks, i, '#')
            && punct_at(toks, i + 1, '!')
            && punct_at(toks, i + 2, '[')
            && ident_at(src, toks, i + 3, "forbid")
            && punct_at(toks, i + 4, '(')
            && ident_at(src, toks, i + 5, "unsafe_code")
        {
            return Vec::new();
        }
    }
    vec![Diagnostic {
        rule: "S001",
        path: file.path.clone(),
        line: 1,
        col: 1,
        message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
    }]
}

/// S002: the telemetry `EventKind` enum, `KIND_COUNT`, and `KIND_NAMES`
/// must agree, so per-kind counter arrays stay exhaustive.
pub fn telemetry_rules(file: &SourceFile, lexed: &Lexed) -> Vec<Diagnostic> {
    let src = &file.src;
    let toks = &lexed.tokens;
    let mut problems = Vec::new();
    let variants = count_enum_variants(src, toks, "EventKind");
    let declared = const_usize_value(src, toks, "KIND_COUNT");
    let names = count_array_strings(src, toks, "KIND_NAMES");
    match (variants, declared, names) {
        (Some(v), Some(c), Some(n)) => {
            if v != c || v != n {
                problems.push(format!(
                    "EventKind has {v} variants but KIND_COUNT = {c} and KIND_NAMES lists {n} \
                     names; per-kind counters would silently drop or misattribute events"
                ));
            }
        }
        _ => problems.push(
            "could not locate EventKind / KIND_COUNT / KIND_NAMES — the telemetry \
             exhaustiveness contract moved; update the S002 checker"
                .to_string(),
        ),
    }
    problems
        .into_iter()
        .map(|message| Diagnostic {
            rule: "S002",
            path: file.path.clone(),
            line: 1,
            col: 1,
            message,
        })
        .collect()
}

/// The obs name registry as parsed from `crates/obs/src/names.rs` (S003).
#[derive(Debug, Clone, Default)]
pub struct ObsNames {
    /// Declared span names (`SPAN_NAMES`).
    pub spans: Vec<String>,
    /// Declared metric names (`METRIC_NAMES`).
    pub metrics: Vec<String>,
}

/// Extracts `SPAN_NAMES` and `METRIC_NAMES` from the obs names file.
/// `None` when either list cannot be located (the caller reports S003).
pub fn parse_obs_names(src: &str, toks: &[Token]) -> Option<ObsNames> {
    Some(ObsNames {
        spans: collect_array_strings(src, toks, "SPAN_NAMES")?,
        metrics: collect_array_strings(src, toks, "METRIC_NAMES")?,
    })
}

/// S003: every literal name at an `obs::span(…)` / `obs::counter(…)` /
/// `obs::gauge(…)` / `obs::histogram(…)` call site must appear in the
/// obs name registry, so no orphan time series can ship. Matches both
/// the `obs::` alias and the full `liteworp_obs::` path; names built at
/// runtime are out of scope (the registry covers their span component).
pub fn obs_name_rules(file: &SourceFile, lexed: &Lexed, names: &ObsNames) -> Vec<Diagnostic> {
    if !matches!(file.class, FileClass::Lib | FileClass::Bin) {
        return Vec::new();
    }
    let src = &file.src;
    let toks = &lexed.tokens;
    let regions = test_regions(src, toks);
    let in_test = |off: usize| regions.iter().any(|&(lo, hi)| (lo..hi).contains(&off));
    let mut out = Vec::new();
    for i in 3..toks.len() {
        let t = toks[i];
        if t.kind != Kind::Ident || in_test(t.lo) {
            continue;
        }
        let func = &src[t.lo..t.hi];
        if !matches!(func, "span" | "counter" | "gauge" | "histogram") {
            continue;
        }
        let qualified = punct_at(toks, i - 1, ':')
            && punct_at(toks, i - 2, ':')
            && (ident_at(src, toks, i - 3, "obs") || ident_at(src, toks, i - 3, "liteworp_obs"));
        if !qualified || !punct_at(toks, i + 1, '(') {
            continue;
        }
        let Some(lit) = toks.get(i + 2).filter(|t| t.kind == Kind::Str) else {
            continue;
        };
        let name = src[lit.lo..lit.hi].trim_matches('"');
        let (list, list_name) = if func == "span" {
            (&names.spans, "SPAN_NAMES")
        } else {
            (&names.metrics, "METRIC_NAMES")
        };
        if !list.iter().any(|n| n == name) {
            let (line, col) = lexed.line_col(lit.lo);
            out.push(Diagnostic {
                rule: "S003",
                path: file.path.clone(),
                line,
                col,
                message: format!(
                    "obs name \"{name}\" at `obs::{func}(…)` is not declared in {list_name} \
                     (crates/obs/src/names.rs); register it there and document it in \
                     EXPERIMENTS.md so no orphan time series ships"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.kind == Kind::Punct(c))
}

fn ident_at(src: &str, toks: &[Token], i: usize, name: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == Kind::Ident && &src[t.lo..t.hi] == name)
}

/// `toks[i]` then `::name` (e.g. `Instant :: now`).
fn path_call(src: &str, toks: &[Token], i: usize, name: &str) -> bool {
    punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':') && ident_at(src, toks, i + 3, name)
}

/// `toks[i]` is followed by `::`.
fn followed_by_path_sep(toks: &[Token], i: usize) -> bool {
    punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':')
}

/// `.name(` — a method call, not a free function or a field.
fn method_call(_src: &str, toks: &[Token], i: usize) -> bool {
    i > 0 && punct_at(toks, i - 1, '.') && punct_at(toks, i + 1, '(')
}

/// `name!` — a macro invocation.
fn macro_bang(toks: &[Token], i: usize) -> bool {
    punct_at(toks, i + 1, '!')
}

/// Byte ranges covered by `#[cfg(test)]` / `#[test]` items (the attribute
/// through the close of the following brace block). D-, P-, C- and
/// R-rules skip these: test code may unwrap, use wall-clock helpers,
/// and hold overlapping guards.
pub(crate) fn test_regions(src: &str, toks: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(punct_at(toks, i, '#') && punct_at(toks, i + 1, '[')) {
            i += 1;
            continue;
        }
        let (is_test_attr, after_attr) = attr_is_test(src, toks, i);
        if !is_test_attr {
            i = after_attr;
            continue;
        }
        // Skip any further attributes between the marker and the item.
        let mut j = after_attr;
        while punct_at(toks, j, '#') && punct_at(toks, j + 1, '[') {
            j = skip_bracket_group(toks, j + 1);
        }
        // The item body is the first `{ … }` before a `;`.
        let mut k = j;
        let mut body_end = None;
        while k < toks.len() {
            match toks[k].kind {
                Kind::Punct(';') => break,
                Kind::Punct('{') => {
                    body_end = Some(skip_brace_group(toks, k));
                    break;
                }
                _ => k += 1,
            }
        }
        match body_end {
            Some(end) => {
                let hi = toks
                    .get(end.saturating_sub(1))
                    .map(|t| t.hi)
                    .unwrap_or(src.len());
                regions.push((toks[i].lo, hi));
                i = end;
            }
            None => i = j,
        }
    }
    regions
}

/// Is the attribute starting at `#`-index `i` a test marker
/// (`#[test]`, or `#[cfg(...)]` mentioning `test`)? Returns the token
/// index just past the attribute either way.
fn attr_is_test(src: &str, toks: &[Token], i: usize) -> (bool, usize) {
    let end = skip_bracket_group(toks, i + 1);
    let body = &toks[i + 2..end.saturating_sub(1).max(i + 2)];
    let is_test = match body.first() {
        Some(t) if t.kind == Kind::Ident && &src[t.lo..t.hi] == "test" => body.len() == 1,
        Some(t) if t.kind == Kind::Ident && &src[t.lo..t.hi] == "cfg" => {
            let has = |word: &str| {
                body.iter()
                    .any(|t| t.kind == Kind::Ident && &src[t.lo..t.hi] == word)
            };
            // `cfg(not(test))` compiles *outside* tests: keep checking it.
            has("test") && !has("not")
        }
        _ => false,
    };
    (is_test, end)
}

/// `toks[open]` is `[`; returns the index just past the matching `]`.
fn skip_bracket_group(toks: &[Token], open: usize) -> usize {
    skip_group(toks, open, '[', ']')
}

/// `toks[open]` is `{`; returns the index just past the matching `}`.
fn skip_brace_group(toks: &[Token], open: usize) -> usize {
    skip_group(toks, open, '{', '}')
}

fn skip_group(toks: &[Token], open: usize, lo: char, hi: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            Kind::Punct(c) if c == lo => depth += 1,
            Kind::Punct(c) if c == hi => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

// ---------------------------------------------------------------------
// S002 micro-parsers
// ---------------------------------------------------------------------

/// Counts the variants of `enum <name> { … }` (attribute-aware).
fn count_enum_variants(src: &str, toks: &[Token], name: &str) -> Option<usize> {
    let mut i = 0usize;
    let open = loop {
        if i >= toks.len() {
            return None;
        }
        if ident_at(src, toks, i, "enum") && ident_at(src, toks, i + 1, name) {
            // generics are not used here; the body brace follows the name
            let mut j = i + 2;
            while j < toks.len() && !punct_at(toks, j, '{') {
                j += 1;
            }
            break j;
        }
        i += 1;
    };
    let end = skip_brace_group(toks, open);
    let mut count = 0usize;
    let mut j = open + 1;
    let mut expecting_variant = true;
    while j + 1 < end {
        match toks[j].kind {
            Kind::Punct('#') if punct_at(toks, j + 1, '[') => {
                j = skip_bracket_group(toks, j + 1);
            }
            Kind::Ident if expecting_variant => {
                count += 1;
                expecting_variant = false;
                j += 1;
            }
            Kind::Punct('{') => j = skip_brace_group(toks, j),
            Kind::Punct('(') => j = skip_group(toks, j, '(', ')'),
            Kind::Punct(',') => {
                expecting_variant = true;
                j += 1;
            }
            _ => j += 1,
        }
    }
    Some(count)
}

/// The literal value of `const <name>: usize = <n>;`.
fn const_usize_value(src: &str, toks: &[Token], name: &str) -> Option<usize> {
    for i in 0..toks.len() {
        if ident_at(src, toks, i, "const") && ident_at(src, toks, i + 1, name) {
            for j in i + 2..(i + 12).min(toks.len()) {
                if toks[j].kind == Kind::Num {
                    let text = src[toks[j].lo..toks[j].hi].replace('_', "");
                    return text.parse().ok();
                }
            }
        }
    }
    None
}

/// Counts the string literals in `<name>: [&str; _] = [ "…", … ];`.
fn count_array_strings(src: &str, toks: &[Token], name: &str) -> Option<usize> {
    collect_array_strings(src, toks, name).map(|v| v.len())
}

/// The string literals in `<name>: … = [ "…", … ];` (also behind a `&`
/// as in `&[&str] = &[ … ]`), unquoted, in declaration order.
fn collect_array_strings(src: &str, toks: &[Token], name: &str) -> Option<Vec<String>> {
    for i in 0..toks.len() {
        if !ident_at(src, toks, i, name) {
            continue;
        }
        // Find the `=` after the declaration, then the bracket group. The
        // type annotation `[&str; KIND_COUNT]` contains both brackets and
        // a `;`, so bracket groups are skipped whole.
        let mut j = i + 1;
        while j < toks.len() && !punct_at(toks, j, '=') && !punct_at(toks, j, ';') {
            if punct_at(toks, j, '[') {
                j = skip_bracket_group(toks, j);
            } else {
                j += 1;
            }
        }
        if !punct_at(toks, j, '=') {
            continue;
        }
        while j < toks.len() && !punct_at(toks, j, '[') {
            j += 1;
        }
        if j >= toks.len() {
            return None;
        }
        let end = skip_bracket_group(toks, j);
        let values = toks[j + 1..end.saturating_sub(1)]
            .iter()
            .filter(|t| t.kind == Kind::Str)
            .map(|t| src[t.lo..t.hi].trim_matches('"').to_string())
            .collect();
        return Some(values);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Lexed;

    fn lib_file(src: &str) -> SourceFile {
        SourceFile {
            path: "x.rs".to_string(),
            src: src.to_string(),
            class: FileClass::Lib,
            is_crate_root: false,
        }
    }

    fn rules_fired(src: &str) -> Vec<&'static str> {
        let f = lib_file(src);
        let lx = Lexed::lex(&f.src);
        token_rules(&f, &lx).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = r#"
            fn lib() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); }
            }
        "#;
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn violations_outside_test_regions_fire() {
        let src = r#"
            fn lib() { Some(1).unwrap(); }
            #[cfg(test)]
            mod tests {}
        "#;
        assert_eq!(rules_fired(src), vec!["P001"]);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(rules_fired("fn f() { g().unwrap_or(0); }").is_empty());
    }

    #[test]
    fn named_expect_method_definition_is_not_flagged() {
        // Defining (or calling free) `expect` is fine; only `.expect(` is.
        assert!(rules_fired("impl P { fn expect(&mut self, b: u8) {} }").is_empty());
        assert_eq!(rules_fired("fn f() { x.expect(\"msg\"); }"), vec!["P002"]);
    }

    #[test]
    fn enum_variant_count_handles_payloads_and_attrs() {
        let src = r#"
            pub enum EventKind {
                A,
                B { x: u32, y: u32 },
                #[doc = "hi"]
                C(u8),
            }
            pub const KIND_COUNT: usize = 3;
            pub const KIND_NAMES: [&str; KIND_COUNT] = ["a", "b", "c"];
        "#;
        let lx = Lexed::lex(src);
        assert_eq!(count_enum_variants(src, &lx.tokens, "EventKind"), Some(3));
        assert_eq!(const_usize_value(src, &lx.tokens, "KIND_COUNT"), Some(3));
        assert_eq!(count_array_strings(src, &lx.tokens, "KIND_NAMES"), Some(3));
        let f = lib_file(src);
        assert!(telemetry_rules(&f, &lx).is_empty());
    }

    #[test]
    fn s002_fires_on_drift() {
        let src = r#"
            pub enum EventKind { A, B }
            pub const KIND_COUNT: usize = 1;
            pub const KIND_NAMES: [&str; 1] = ["a"];
        "#;
        let f = lib_file(src);
        let lx = Lexed::lex(src);
        let diags = telemetry_rules(&f, &lx);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "S002");
    }
}
