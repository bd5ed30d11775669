//! The structural rule families, built on the skeleton parser and the
//! call graph.
//!
//! * **C-rules** — concurrency discipline: C001 nested lock
//!   acquisition (directly or via a callee on the call graph), C002
//!   blocking calls while a guard is live, C003 guards bound to `_`.
//! * **R-rules** — determinism taint: R001 derived `Debug` on
//!   seed-hash registry types, R002 unordered directory iteration
//!   feeding a digest/serialization sink.
//!
//! The guard walker models Rust temporary lifetimes as parsed by
//! [`crate::ast`]: named `let` bindings persist to end of block,
//! chained acquisitions die at the statement, scrutinee temporaries of
//! `match` / `if let` / `while let` live through the body, and
//! `if`/`while` conditions are terminating scopes. `drop(name)`
//! releases the named guard early. All imprecision is conservative:
//! unresolved or ambiguous calls never flag.

use crate::ast::{Block, Event, FileAst, Pat, ScopeKind, Stmt};
use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, FileClass, SourceFile};
use crate::lexer::Lexed;
use crate::rules::test_regions;
use crate::seed_registry;

/// Call names that block the thread: fsync, socket accept, the served
/// frame IO helpers, and sleeps. Holding a guard across any of these
/// serializes every other client on the lock.
const BLOCKING_CALLS: &[&str] = &[
    "sync_data",
    "sync_all",
    "accept",
    "sleep",
    "read_frame",
    "write_frame",
];

/// Call names that serialize or digest state (R002 sinks).
const SINK_CALLS: &[&str] = &[
    "fnv64",
    "to_jsonl",
    "write_all",
    "write_fmt",
    "writeln",
    "write",
    "serialize",
];

/// Runs the C- and R-rules over one parsed library file. Non-library
/// classes are exempt (bins may hold locks across IO at their own risk;
/// tests and benches are out of scope like the other families).
pub fn structural_rules(
    file: &SourceFile,
    lexed: &Lexed,
    ast: &FileAst,
    graph: &CallGraph,
) -> Vec<Diagnostic> {
    if file.class != FileClass::Lib {
        return Vec::new();
    }
    let regions = test_regions(&file.src, &lexed.tokens);
    let mut w = Walker {
        file,
        lexed,
        graph,
        regions,
        out: Vec::new(),
    };
    for t in &ast.types {
        if !seed_registry::is_seed_hash_type(&t.name) {
            continue;
        }
        for d in &t.derives {
            if d.name == "Debug" && !w.in_test(d.lo) {
                w.emit(
                    "R001",
                    d.lo,
                    format!(
                        "`#[derive(Debug)]` on seed-hash type `{}`: its Debug string feeds \
                         experiment seed hashing, so the derive silently re-seeds every run \
                         when fields change; hand-write the impl (registry: \
                         crates/lint/src/seed_registry.rs)",
                        t.name
                    ),
                );
            }
        }
    }
    for f in &ast.fns {
        if w.in_test(f.lo) {
            continue;
        }
        let mut live = Vec::new();
        w.walk_block(&f.body, &mut live);
        w.r002_block(&f.body);
    }
    w.out
}

/// One live guard: its binding name (None for temporaries and
/// destructured bindings) and the byte offset it was acquired at.
struct Guard {
    name: Option<String>,
    lo: usize,
}

struct Walker<'a> {
    file: &'a SourceFile,
    lexed: &'a Lexed,
    graph: &'a CallGraph,
    regions: Vec<(usize, usize)>,
    out: Vec<Diagnostic>,
}

impl Walker<'_> {
    fn in_test(&self, off: usize) -> bool {
        self.regions.iter().any(|&(lo, hi)| (lo..hi).contains(&off))
    }

    fn emit(&mut self, rule: &'static str, lo: usize, message: String) {
        if self.in_test(lo) {
            return;
        }
        let (line, col) = self.lexed.line_col(lo);
        self.out.push(Diagnostic {
            rule,
            path: self.file.path.clone(),
            line,
            col,
            message,
        });
    }

    fn held_since(&self, live: &[Guard]) -> u32 {
        live.last().map(|g| self.lexed.line_of(g.lo)).unwrap_or(0)
    }

    fn walk_block(&mut self, b: &Block, live: &mut Vec<Guard>) {
        let mark = live.len();
        for s in &b.stmts {
            self.walk_stmt(s, live);
        }
        live.truncate(mark);
    }

    fn walk_stmt(&mut self, s: &Stmt, live: &mut Vec<Guard>) {
        match s {
            Stmt::Let {
                pat,
                init,
                else_block,
                ..
            } => {
                // Does the statement's tail event bind a fresh guard to
                // the pattern? Only an unchained, depth-0 acquisition
                // (or guard-returning call) can.
                let tail = match init.last() {
                    Some(Event::Acquire {
                        lo,
                        chained: false,
                        top: true,
                    }) => Some(*lo),
                    Some(Event::Call {
                        callee,
                        lo,
                        chained: false,
                        top: true,
                    }) if self.graph.is_guard_call(callee) => Some(*lo),
                    _ => None,
                };
                let mark = live.len();
                let head_len = init.len() - usize::from(tail.is_some());
                for e in &init[..head_len] {
                    self.process_event(e, live);
                }
                if let Some(lo) = tail {
                    self.check_nested(lo, live, None);
                }
                live.truncate(mark);
                if let Some(eb) = else_block {
                    self.walk_block(eb, live);
                }
                if let Some(lo) = tail {
                    match pat {
                        Pat::Underscore => self.emit(
                            "C003",
                            lo,
                            "guard bound to `_` drops before the semicolon — a silent no-op \
                             critical section; bind it to a name (`_guard`) if the scope is \
                             intended, or remove the locking"
                                .to_string(),
                        ),
                        Pat::Name(n) => live.push(Guard {
                            name: Some(n.clone()),
                            lo,
                        }),
                        Pat::Other => live.push(Guard { name: None, lo }),
                    }
                }
            }
            Stmt::Expr { events } => {
                let mark = live.len();
                for e in events {
                    self.process_event(e, live);
                }
                live.truncate(mark);
            }
            Stmt::Scope {
                head,
                head_lives,
                body,
                ..
            } => {
                let mark = live.len();
                for e in head {
                    self.process_event(e, live);
                }
                if !head_lives {
                    live.truncate(mark);
                }
                self.walk_block(body, live);
                live.truncate(mark);
            }
        }
    }

    fn process_event(&mut self, e: &Event, live: &mut Vec<Guard>) {
        match e {
            Event::Acquire { lo, .. } => {
                self.check_nested(*lo, live, None);
                live.push(Guard {
                    name: None,
                    lo: *lo,
                });
            }
            Event::Call { callee, lo, .. } => {
                if self.graph.is_guard_call(callee) {
                    self.check_nested(*lo, live, None);
                    live.push(Guard {
                        name: None,
                        lo: *lo,
                    });
                    return;
                }
                if live.is_empty() {
                    return;
                }
                let name = callee.name();
                if BLOCKING_CALLS.contains(&name) {
                    let since = self.held_since(live);
                    self.emit(
                        "C002",
                        *lo,
                        format!(
                            "blocking call `{name}` while a lock guard is live (held since \
                             line {since}); fsync/socket waits under a guard stall every \
                             other holder — move the IO outside the critical section, or \
                             justify with `// lint: allow(C002) <reason>`"
                        ),
                    );
                } else if self.graph.callee_acquires(callee) {
                    self.check_nested(*lo, live, Some(name));
                }
            }
            Event::Drop { name: Some(n) } => {
                live.retain(|g| g.name.as_deref() != Some(n.as_str()));
            }
            Event::Drop { name: None } => {}
            Event::Wait { arg, lo } => {
                let other = live.iter().find(|g| g.name.as_deref() != arg.as_deref());
                if let Some(g) = other {
                    let since = self.lexed.line_of(g.lo);
                    self.emit(
                        "C002",
                        *lo,
                        format!(
                            "`Condvar::wait` parks this thread while a different lock guard \
                             is live (held since line {since}); the wait only releases its \
                             own mutex, so the other lock stays held for the whole park"
                        ),
                    );
                }
            }
            Event::Block(b) => self.walk_block(b, live),
        }
    }

    /// C001: an acquisition at `lo` while `live` is non-empty.
    /// `via` names the callee when the acquisition is on the call graph
    /// rather than at this token.
    fn check_nested(&mut self, lo: usize, live: &[Guard], via: Option<&str>) {
        if live.is_empty() {
            return;
        }
        let since = self.held_since(live);
        let how = match via {
            Some(callee) => format!("`{callee}(…)` acquires a lock on the call graph"),
            None => "a second lock guard is acquired here".to_string(),
        };
        self.emit(
            "C001",
            lo,
            format!(
                "{how} while one is already live (held since line {since}); the workspace \
                 discipline is one lock at a time — restructure to drop the first guard \
                 (collect, then apply); L005 rejects `allow(C001)` in library code"
            ),
        );
    }

    /// R002: `for` over an unordered `read_dir`/`vars` stream whose body
    /// feeds a digest or serialization sink.
    fn r002_block(&mut self, b: &Block) {
        for s in &b.stmts {
            match s {
                Stmt::Scope {
                    kind: ScopeKind::For,
                    head,
                    body,
                    ..
                } => {
                    let unordered = head.iter().find_map(|e| match e {
                        Event::Call { callee, lo, .. }
                            if matches!(callee.name(), "read_dir" | "vars") =>
                        {
                            Some((callee.name().to_string(), *lo))
                        }
                        _ => None,
                    });
                    if let Some((src_name, lo)) = unordered {
                        if let Some(sink) = find_sink(body) {
                            self.emit(
                                "R002",
                                lo,
                                format!(
                                    "iteration over the unordered `{src_name}` stream feeds \
                                     the digest/serialization sink `{sink}`; the OS returns \
                                     entries in arbitrary order, so the output bytes are \
                                     nondeterministic — collect into a Vec, sort, then write"
                                ),
                            );
                        }
                    }
                    self.r002_block(body);
                }
                Stmt::Scope { body, .. } => self.r002_block(body),
                Stmt::Let {
                    init, else_block, ..
                } => {
                    self.r002_events(init);
                    if let Some(eb) = else_block {
                        self.r002_block(eb);
                    }
                }
                Stmt::Expr { events } => self.r002_events(events),
            }
        }
    }

    fn r002_events(&mut self, events: &[Event]) {
        for e in events {
            if let Event::Block(b) = e {
                self.r002_block(b);
            }
        }
    }
}

/// First digest/serialization sink called anywhere in `b`.
fn find_sink(b: &Block) -> Option<String> {
    fn in_events(events: &[Event]) -> Option<String> {
        for e in events {
            match e {
                Event::Call { callee, .. } => {
                    let name = callee.name();
                    if SINK_CALLS.contains(&name) || name.contains("digest") {
                        return Some(name.to_string());
                    }
                }
                Event::Block(inner) => {
                    if let Some(s) = find_sink(inner) {
                        return Some(s);
                    }
                }
                _ => {}
            }
        }
        None
    }
    for s in &b.stmts {
        let hit = match s {
            Stmt::Let {
                init, else_block, ..
            } => in_events(init).or_else(|| else_block.as_ref().and_then(find_sink)),
            Stmt::Expr { events } => in_events(events),
            Stmt::Scope { head, body, .. } => in_events(head).or_else(|| find_sink(body)),
        };
        if hit.is_some() {
            return hit;
        }
    }
    None
}
