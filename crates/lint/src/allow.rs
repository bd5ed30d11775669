//! The `// lint: allow(<rule>) <reason>` escape hatch.
//!
//! An allow suppresses matching diagnostics on its own line (trailing
//! form) or on the next line (standalone form). The reason is mandatory
//! (L001), the rule id must exist (L002), an allow that suppresses
//! nothing is itself an error (L003) so stale exceptions get removed,
//! a `D001` allow is only legitimate inside the registered wall-clock
//! boundary (L004) — see [`WALL_CLOCK_BOUNDARY`] — and a `C001` allow is
//! never legitimate in library or binary code (L005).

use crate::diag::{Diagnostic, FileClass, SourceFile};
use crate::lexer::Lexed;
use crate::rules::is_known_rule;

/// The registered wall-clock boundary: the only library/binary sources
/// where a `D001` allow is legitimate. Everything here is a host-side
/// seam — profiling that feeds run manifests, the bench timing harness,
/// or the daemon's socket-lifetime timeouts — and none of it feeds
/// simulation state. A `D001` allow anywhere else is L004: either route
/// the timing need through one of these seams, or (for a genuinely new
/// boundary) extend this registry in the same change that adds the read.
pub const WALL_CLOCK_BOUNDARY: &[&str] = &[
    "crates/bench/src/timing.rs",
    "crates/obs/src/clock.rs",
    "crates/runner/src/service.rs",
    "crates/served/src/net.rs",
];

/// One parsed allow comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule id the allow names (not yet validated).
    pub rule: String,
    /// Justification text after the closing parenthesis (may be empty —
    /// that is L001's job to reject).
    pub reason: String,
    /// 1-based line the comment sits on.
    pub line: u32,
    /// 1-based column of the comment start.
    pub col: u32,
    /// The line whose diagnostics this allow suppresses: its own line for
    /// a trailing allow, or the line of the next code token for a
    /// standalone one (continuation comment lines in between are fine).
    pub target_line: u32,
}

/// Extracts every `lint:` comment from a lexed file. Anything starting
/// with `lint:` is parsed strictly so typos surface as L-diagnostics
/// instead of silently failing to suppress.
pub fn parse_allows(src: &str, lexed: &Lexed) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let text = &src[c.lo..c.hi];
        let stripped = text
            .trim_start_matches('/')
            .trim_start_matches(['!', '*'])
            .trim_start();
        let Some(rest) = stripped.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let (line, col) = lexed.line_col(c.lo);
        let target_line = if is_line_start(src, c.lo) {
            lexed
                .tokens
                .iter()
                .find(|t| t.lo >= c.hi)
                .map(|t| lexed.line_col(t.lo).0)
                .unwrap_or(line + 1)
        } else {
            line
        };
        let (rule, reason) = match rest.strip_prefix("allow(") {
            Some(after) => match after.split_once(')') {
                Some((rule, reason)) => (rule.trim().to_string(), reason.trim().to_string()),
                None => (after.trim().to_string(), String::new()),
            },
            // `lint:` with anything other than `allow(` — treat the whole
            // remainder as a bogus rule name so L002 reports it.
            None => (rest.split_whitespace().next().unwrap_or("").to_string(), {
                String::new()
            }),
        };
        out.push(Allow {
            rule,
            reason,
            line,
            col,
            target_line,
        });
    }
    out
}

/// Whether only whitespace precedes `offset` on its line.
fn is_line_start(src: &str, offset: usize) -> bool {
    src[..offset]
        .bytes()
        .rev()
        .take_while(|&b| b != b'\n')
        .all(|b| b == b' ' || b == b'\t')
}

/// L001/L002/L004/L005: malformed or mis-sited allows are diagnostics
/// in their own right.
pub fn syntax_diagnostics(file: &SourceFile, allows: &[Allow]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for a in allows {
        if !is_known_rule(&a.rule) {
            out.push(Diagnostic {
                rule: "L002",
                path: file.path.clone(),
                line: a.line,
                col: a.col,
                message: format!(
                    "`lint: allow({})` names an unknown rule; run `lint --list-rules`",
                    a.rule
                ),
            });
            continue;
        }
        if a.reason.is_empty() {
            out.push(Diagnostic {
                rule: "L001",
                path: file.path.clone(),
                line: a.line,
                col: a.col,
                message: format!(
                    "`lint: allow({})` has no justification; write the reason after the \
                     closing parenthesis",
                    a.rule
                ),
            });
        }
        if a.rule == "D001"
            && matches!(file.class, FileClass::Lib | FileClass::Bin)
            && !WALL_CLOCK_BOUNDARY.contains(&file.path.as_str())
        {
            out.push(Diagnostic {
                rule: "L004",
                path: file.path.clone(),
                line: a.line,
                col: a.col,
                message: format!(
                    "`lint: allow(D001)` outside the registered wall-clock boundary \
                     ({}); route timing through an existing seam or register this \
                     file in WALL_CLOCK_BOUNDARY alongside the read it justifies",
                    WALL_CLOCK_BOUNDARY.join(", ")
                ),
            });
        }
        if a.rule == "C001" && matches!(file.class, FileClass::Lib | FileClass::Bin) {
            out.push(Diagnostic {
                rule: "L005",
                path: file.path.clone(),
                line: a.line,
                col: a.col,
                message: "`lint: allow(C001)` is not accepted in library or binary code: \
                          the workspace holds one lock at a time; restructure to drop the \
                          first guard (collect, then apply)"
                    .to_string(),
            });
        }
    }
    out
}

/// Applies the allow pass: drops diagnostics covered by a valid allow,
/// then reports unused allows (L003). L-diagnostics are never allowable.
pub fn apply(file: &SourceFile, allows: &[Allow], diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let valid: Vec<&Allow> = allows
        .iter()
        .filter(|a| is_known_rule(&a.rule) && !a.reason.is_empty())
        .collect();
    let mut used = vec![false; valid.len()];
    let mut out = Vec::new();
    for d in diags {
        let mut suppressed = false;
        if !d.rule.starts_with('L') {
            for (i, a) in valid.iter().enumerate() {
                if a.rule == d.rule && a.target_line == d.line {
                    used[i] = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            out.push(d);
        }
    }
    for (i, a) in valid.iter().enumerate() {
        if !used[i] {
            out.push(Diagnostic {
                rule: "L003",
                path: file.path.clone(),
                line: a.line,
                col: a.col,
                message: format!(
                    "`lint: allow({})` suppresses nothing on line {}; remove the stale allow",
                    a.rule, a.target_line
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::FileClass;

    fn file(src: &str) -> SourceFile {
        SourceFile {
            path: "x.rs".to_string(),
            src: src.to_string(),
            class: FileClass::Lib,
            is_crate_root: false,
        }
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        crate::check_file(&file(src))
    }

    #[test]
    fn trailing_allow_suppresses_same_line() {
        let src = "fn f() { x.unwrap(); } // lint: allow(P001) invariant: x checked above\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn standalone_allow_suppresses_next_line() {
        let src = "// lint: allow(P001) invariant: x checked above\nfn f() { x.unwrap(); }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_l001_and_does_not_suppress() {
        let src = "fn f() { x.unwrap(); } // lint: allow(P001)\n";
        let rules: Vec<&str> = run(src).iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"L001"), "{rules:?}");
        assert!(rules.contains(&"P001"), "{rules:?}");
    }

    #[test]
    fn unknown_rule_is_l002() {
        let src = "fn f() {} // lint: allow(Z999) because\n";
        let rules: Vec<&str> = run(src).iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["L002"]);
    }

    #[test]
    fn unused_allow_is_l003() {
        let src = "fn f() {} // lint: allow(P001) nothing here anymore\n";
        let rules: Vec<&str> = run(src).iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["L003"]);
    }

    #[test]
    fn wrong_rule_id_does_not_suppress() {
        let src = "fn f() { x.unwrap(); } // lint: allow(P002) wrong family\n";
        let rules: Vec<&str> = run(src).iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"P001"), "{rules:?}");
        assert!(rules.contains(&"L003"), "{rules:?}");
    }
}
