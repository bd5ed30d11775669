//! Fixture corpus for the lint engine.
//!
//! One known-bad and one known-clean file per rule, under
//! `tests/corpus/` (a directory the workspace scanner deliberately
//! skips, since the bad fixtures contain real violations). Each bad
//! fixture asserts the exact rule id and 1-based span it produces, so a
//! lexer or matcher regression shows up as a span drift, not just a
//! missing diagnostic.

use liteworp_lint::lexer::Lexed;
use liteworp_lint::{check_file, rules, Diagnostic, FileClass, SourceFile};
use std::path::Path;

/// Loads a fixture from `tests/corpus/` as an in-memory library file.
fn fixture(name: &str, is_crate_root: bool) -> SourceFile {
    let path = format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    SourceFile {
        path: format!("corpus/{name}"),
        src,
        class: FileClass::Lib,
        is_crate_root,
    }
}

/// Loads a fixture but presents it to the checker under `path` — for
/// rules like L004 whose verdict depends on where the file sits in the
/// workspace.
fn fixture_at(name: &str, path: &str) -> SourceFile {
    let mut f = fixture(name, false);
    f.path = path.to_string();
    f
}

fn spans(diags: &[Diagnostic]) -> Vec<(&str, u32, u32)> {
    diags.iter().map(|d| (d.rule, d.line, d.col)).collect()
}

fn assert_bad(name: &str, expected: &[(&str, u32, u32)]) {
    let diags = check_file(&fixture(name, false));
    assert_eq!(spans(&diags), expected, "{name}: {diags:?}");
}

fn assert_clean(name: &str) {
    let diags = check_file(&fixture(name, false));
    assert!(diags.is_empty(), "{name}: {diags:?}");
}

#[test]
fn d001_wall_clock() {
    assert_bad("D001_bad.rs", &[("D001", 4, 16)]);
    assert_clean("D001_clean.rs");
}

/// The supervisor's profiling pattern: a reasoned allow on a wall-clock
/// read suppresses D001 without tripping allow hygiene (L001–L004). The
/// fixture is presented under a registered wall-clock-boundary path,
/// since a D001 allow anywhere else is L004 by design.
#[test]
fn d001_profiling_allow_is_clean() {
    let diags = check_file(&fixture_at(
        "D001_allowed_clean.rs",
        "crates/runner/src/service.rs",
    ));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn d002_default_hasher() {
    assert_bad("D002_bad.rs", &[("D002", 3, 36)]);
    assert_clean("D002_clean.rs");
}

#[test]
fn d003_ambient_randomness() {
    assert_bad("D003_bad.rs", &[("D003", 4, 19)]);
    assert_clean("D003_clean.rs");
}

#[test]
fn p001_unwrap() {
    assert_bad("P001_bad.rs", &[("P001", 4, 17)]);
    assert_clean("P001_clean.rs");
}

#[test]
fn p002_expect() {
    assert_bad("P002_bad.rs", &[("P002", 4, 17)]);
    assert_clean("P002_clean.rs");
}

#[test]
fn p003_panic_macros() {
    assert_bad("P003_bad.rs", &[("P003", 5, 9)]);
    assert_clean("P003_clean.rs");
}

#[test]
fn s001_forbid_unsafe() {
    let diags = check_file(&fixture("S001_bad.rs", true));
    assert_eq!(spans(&diags), vec![("S001", 1, 1)], "{diags:?}");
    let diags = check_file(&fixture("S001_clean.rs", true));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn s002_telemetry_exhaustiveness() {
    let bad = fixture("S002_bad.rs", false);
    let lexed = Lexed::lex(&bad.src);
    let diags = rules::telemetry_rules(&bad, &lexed);
    assert_eq!(spans(&diags), vec![("S002", 1, 1)], "{diags:?}");

    let clean = fixture("S002_clean.rs", false);
    let lexed = Lexed::lex(&clean.src);
    let diags = rules::telemetry_rules(&clean, &lexed);
    assert!(diags.is_empty(), "{diags:?}");
}

/// S002 runs only on the file at `scan::TELEMETRY_EVENT_FILE`; a tree
/// without that file must say so instead of passing S002 silently.
#[test]
fn s002_reports_a_missing_event_file() {
    let root = std::env::temp_dir().join(format!("liteworp-lint-s002-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("crates/obs/src");
    std::fs::create_dir_all(&src).expect("create temp tree");
    std::fs::write(src.join("lib.rs"), "#![forbid(unsafe_code)]\n").expect("write lib.rs");
    std::fs::write(
        src.join("names.rs"),
        "pub const SPAN_NAMES: &[&str] = &[];\npub const METRIC_NAMES: &[&str] = &[];\n",
    )
    .expect("write names.rs");

    let (diags, _) = liteworp_lint::check_workspace(&root).expect("scan");
    let s002: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "S002").collect();
    assert_eq!(s002.len(), 1, "{diags:?}");
    assert_eq!(s002[0].path, liteworp_lint::scan::TELEMETRY_EVENT_FILE);
    assert!(s002[0].message.contains("could not locate"), "{s002:?}");

    let clean = fixture("S002_clean.rs", false);
    let event = root.join(liteworp_lint::scan::TELEMETRY_EVENT_FILE);
    std::fs::write(event, clean.src).expect("write event.rs");
    let (diags, _) = liteworp_lint::check_workspace(&root).expect("scan");
    std::fs::remove_dir_all(&root).expect("remove temp tree");
    assert!(diags.iter().all(|d| d.rule != "S002"), "{diags:?}");
}

/// S003 cross-checks `obs::` call-site literals against the obs name
/// registry. The corpus fixtures run against a synthetic registry so the
/// test does not chase the real names.rs contents.
#[test]
fn s003_obs_name_registry() {
    let names = rules::ObsNames {
        spans: vec!["event_loop".to_string()],
        metrics: vec![
            "served.jobs_total".to_string(),
            "served.queue_depth".to_string(),
        ],
    };

    let bad = fixture("S003_bad.rs", false);
    let lexed = Lexed::lex(&bad.src);
    let diags = rules::obs_name_rules(&bad, &lexed, &names);
    assert_eq!(
        spans(&diags),
        vec![("S003", 5, 28), ("S003", 6, 27)],
        "{diags:?}"
    );

    let clean = fixture("S003_clean.rs", false);
    let lexed = Lexed::lex(&clean.src);
    let diags = rules::obs_name_rules(&clean, &lexed, &names);
    assert!(diags.is_empty(), "{diags:?}");
}

/// The ISSUE's explicit requirement: an allow comment without a written
/// reason is rejected (L001) *and* fails to suppress the violation it
/// sits next to.
#[test]
fn l001_allow_without_reason_is_rejected() {
    assert_bad("L001_bad.rs", &[("L001", 4, 26), ("P001", 4, 17)]);
    assert_clean("L001_clean.rs");
}

#[test]
fn l002_unknown_rule() {
    assert_bad("L002_bad.rs", &[("L002", 3, 1)]);
    assert_clean("L002_clean.rs");
}

#[test]
fn l003_stale_allow() {
    assert_bad("L003_bad.rs", &[("L003", 3, 1)]);
    assert_clean("L003_clean.rs");
}

/// L004 binds the D001 escape hatch to the registered wall-clock
/// boundary: a fully reasoned, genuinely suppressing allow is still
/// rejected when the file is not a registered seam — and the identical
/// source is clean when it is.
#[test]
fn l004_d001_allow_outside_wall_clock_boundary() {
    assert_bad("L004_bad.rs", &[("L004", 6, 5)]);
    let diags = check_file(&fixture_at("L004_clean.rs", "crates/served/src/net.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

/// C001 both ways: a second `.lock()` while a named guard is live, and
/// a call to a helper that acquires on the call graph.
#[test]
fn c001_nested_lock_direct_and_via_callee() {
    assert_bad("C001_bad.rs", &[("C001", 17, 18), ("C001", 23, 5)]);
    assert_clean("C001_clean.rs");
}

/// C002 both ways: `sync_data` under a live file guard, and a
/// `Condvar::wait` that parks while a *different* lock is held.
#[test]
fn c002_blocking_under_guard() {
    assert_bad("C002_bad.rs", &[("C002", 15, 7), ("C002", 21, 24)]);
    assert_clean("C002_clean.rs");
}

#[test]
fn c003_guard_bound_to_underscore() {
    assert_bad("C003_bad.rs", &[("C003", 6, 15)]);
    assert_clean("C003_clean.rs");
}

#[test]
fn r001_derived_debug_on_seed_hash_type() {
    assert_bad("R001_bad.rs", &[("R001", 3, 10)]);
    assert_clean("R001_clean.rs");
}

#[test]
fn r002_unordered_iteration_into_sink() {
    assert_bad("R002_bad.rs", &[("R002", 8, 27)]);
    assert_clean("R002_clean.rs");
}

/// L005 closes the C001 escape hatch in library code: a reasoned,
/// genuinely suppressing allow is still rejected, and the one-lock-at-a-
/// time restructuring it asks for is clean.
#[test]
fn l005_c001_allow_in_library_code() {
    assert_bad("L005_bad.rs", &[("L005", 14, 5)]);
    assert_clean("L005_clean.rs");
}

/// The `--fix` round trip: stripping the stale allow from the L003
/// fixture leaves a file the checker accepts unchanged.
#[test]
fn fix_strips_stale_allows_round_trip() {
    let mut f = fixture("L003_bad.rs", false);
    let diags = check_file(&f);
    let stale: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "L003").collect();
    assert_eq!(stale.len(), 1, "{diags:?}");
    let (rewritten, removed) = liteworp_lint::fix::strip_stale_allows(&f.src, &stale);
    assert_eq!(removed, 1);
    f.src = rewritten;
    let diags = check_file(&f);
    assert!(diags.is_empty(), "after --fix: {diags:?}");
}

/// Every rule in the registry has both a bad and a clean fixture, so a
/// newly added rule cannot ship without corpus coverage.
#[test]
fn every_rule_has_fixture_coverage() {
    let dir = format!("{}/tests/corpus", env!("CARGO_MANIFEST_DIR"));
    for rule in rules::RULES {
        for suffix in ["bad", "clean"] {
            let path = format!("{dir}/{}_{suffix}.rs", rule.id);
            assert!(
                Path::new(&path).is_file(),
                "rule {} is missing its {suffix} fixture at {path}",
                rule.id
            );
        }
    }
}

/// The gate the CI lint step enforces, mirrored as a test: the workspace
/// itself must be clean.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let (diags, files) = liteworp_lint::check_workspace(&root).expect("workspace scan");
    assert!(files > 100, "scanned only {files} files — walk regressed?");
    let rendered: Vec<String> = diags.iter().map(Diagnostic::render).collect();
    assert!(diags.is_empty(), "workspace not lint-clean:\n{rendered:#?}");
}
