//! Workspace walking, file classification, and the scan.
//!
//! The walk is deterministic: directory entries are sorted before
//! descending, and diagnostics get a final `(path, line, col, rule)`
//! sort — so two runs over the same tree emit diagnostics in the same
//! order. The lint engine obeys the determinism discipline it enforces.
//!
//! The scan is one serial pass in two phases: lex+parse every file,
//! then (after the cross-file call-graph build) evaluate every rule
//! family per file.

use crate::ast::FileAst;
use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, FileClass, SourceFile};
use crate::lexer::Lexed;
use crate::rules;
use std::path::{Path, PathBuf};

/// The event module carrying the `EventKind` exhaustiveness contract
/// (S002). Workspace-relative.
pub const TELEMETRY_EVENT_FILE: &str = "crates/obs/src/event.rs";

/// The obs name registry every `obs::span(…)`/`obs::counter(…)` literal
/// must appear in (S003). Workspace-relative.
pub const OBS_NAMES_FILE: &str = "crates/obs/src/names.rs";

/// Directories never scanned (fixture corpora contain deliberate
/// violations; `target` is build output).
const SKIP_DIRS: &[&str] = &["target", "corpus", ".git"];

/// Checks a whole workspace rooted at `root`. Returns the surviving
/// diagnostics (empty means the gate passes) plus the number of files
/// scanned, or an IO error description.
pub fn check_workspace(root: &Path) -> Result<(Vec<Diagnostic>, usize), String> {
    let files = collect_files(root)?;
    let count = files.len();
    // Phase 1: lex and skeleton-parse every file.
    let parsed: Vec<(Lexed, FileAst)> = files
        .iter()
        .map(|f| {
            let lexed = Lexed::lex(&f.src);
            let ast = crate::ast::parse(&f.src, &lexed);
            (lexed, ast)
        })
        .collect();
    // One call graph over every fn in the workspace, so C-rules resolve
    // callees across crate boundaries.
    let asts: Vec<&FileAst> = parsed.iter().map(|(_, a)| a).collect();
    let graph = CallGraph::build(&asts);
    let obs_names = files
        .iter()
        .zip(&parsed)
        .find(|(f, _)| f.path == OBS_NAMES_FILE)
        .and_then(|(f, (lexed, _))| rules::parse_obs_names(&f.src, &lexed.tokens));
    // Phase 2: every rule family, per file.
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut saw_event_file = false;
    for (file, (lexed, ast)) in files.iter().zip(&parsed) {
        diags.extend(crate::check_file_with(file, lexed, ast, &graph));
        if let Some(names) = &obs_names {
            diags.extend(rules::obs_name_rules(file, lexed, names));
        }
        if file.path == TELEMETRY_EVENT_FILE {
            saw_event_file = true;
            diags.extend(rules::telemetry_rules(file, lexed));
        }
    }
    if !saw_event_file {
        diags.push(Diagnostic {
            rule: "S002",
            path: TELEMETRY_EVENT_FILE.to_string(),
            line: 1,
            col: 1,
            message: "could not locate EventKind / KIND_COUNT / KIND_NAMES — the event \
                      module moved; update the S002 checker"
                .to_string(),
        });
    }
    if obs_names.is_none() {
        diags.push(Diagnostic {
            rule: "S003",
            path: OBS_NAMES_FILE.to_string(),
            line: 1,
            col: 1,
            message: "could not locate SPAN_NAMES / METRIC_NAMES — the obs name registry \
                      moved; update the S003 checker"
                .to_string(),
        });
    }
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok((diags, count))
}

/// Every `.rs` file the gate covers, classified, in sorted path order.
pub fn collect_files(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    for crate_dir in sorted_dirs(&crates_dir)? {
        walk(&crate_dir.join("src"), root, &mut out)?;
        walk(&crate_dir.join("tests"), root, &mut out)?;
        walk(&crate_dir.join("benches"), root, &mut out)?;
        walk(&crate_dir.join("examples"), root, &mut out)?;
    }
    walk(&root.join("src"), root, &mut out)?;
    walk(&root.join("tests"), root, &mut out)?;
    walk(&root.join("examples"), root, &mut out)?;
    Ok(out)
}

/// Sorted subdirectories of `dir` (empty when `dir` does not exist).
fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = Vec::new();
    if !dir.is_dir() {
        return Ok(dirs);
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            dirs.push(path);
        }
    }
    dirs.sort();
    Ok(dirs)
}

/// Recursively collects `.rs` files under `dir`, classifying each.
fn walk(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = relative(root, &path);
            let src = std::fs::read_to_string(&path).map_err(|e| format!("read {rel}: {e}"))?;
            out.push(SourceFile {
                class: classify(&rel),
                is_crate_root: is_crate_root(&rel),
                path: rel,
                src,
            });
        }
    }
    Ok(())
}

/// Workspace-relative display path with forward slashes.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Classifies a workspace-relative path into its build role.
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.contains(&"tests") {
        FileClass::Test
    } else if parts.contains(&"benches") {
        FileClass::Bench
    } else if parts.contains(&"examples") {
        FileClass::Example
    } else if parts.contains(&"bin") || rel.ends_with("src/main.rs") {
        FileClass::Bin
    } else {
        FileClass::Lib
    }
}

/// Crate roots: `crates/<name>/src/lib.rs` and the workspace `src/lib.rs`.
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        assert_eq!(classify("crates/core/src/watch.rs"), FileClass::Lib);
        assert_eq!(classify("crates/bench/src/bin/fig8.rs"), FileClass::Bin);
        assert_eq!(classify("crates/lint/src/main.rs"), FileClass::Bin);
        assert_eq!(classify("crates/core/tests/proptests.rs"), FileClass::Test);
        assert_eq!(
            classify("crates/bench/benches/microbench.rs"),
            FileClass::Bench
        );
        assert_eq!(classify("tests/determinism.rs"), FileClass::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Example);
    }

    #[test]
    fn crate_roots() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(!is_crate_root("crates/core/src/watch.rs"));
    }
}
