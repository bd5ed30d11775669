//! End-to-end check of `--observe DIR` against the real experiment
//! binaries: the three files appear with the documented shape, and
//! observing a run leaves its stdout byte-identical.

use liteworp_obs::names::SPAN_NAMES;
use liteworp_runner::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("liteworp-observe-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `bin` with `args` from `cwd` and returns its stdout.
fn run(bin: &str, args: &[&str], cwd: &Path) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn experiment binary");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Runs `bin` with and without `--observe`, checks the stdout identity,
/// checks the three files, and returns the parsed `metrics.json`.
fn observe(bin: &str, args: &[&str], tag: &str) -> Json {
    let cwd = temp_dir(tag);
    let plain = run(bin, args, &cwd);
    let dir = cwd.join("obs");
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let observed = run(bin, &[args, &["--observe", dir_arg]].concat(), &cwd);
    assert!(
        plain == observed,
        "{tag}: --observe changed stdout:\n{}\nvs\n{}",
        String::from_utf8_lossy(&plain),
        String::from_utf8_lossy(&observed)
    );

    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("{tag}: cannot read {name}: {e}"))
    };
    let trace = read("trace.jsonl");
    let metrics = read("metrics.json");
    let folded = read("profile.folded");

    let mut last_us = 0;
    let mut events = 0;
    for line in trace.lines() {
        let event = Json::parse(line).unwrap_or_else(|e| panic!("{tag}: bad trace line: {e:?}"));
        let t_us = event
            .get("t_us")
            .and_then(Json::as_u64)
            .expect("every event has t_us");
        assert!(t_us >= last_us, "{tag}: t_us went back: {line}");
        last_us = t_us;
        events += 1;
    }
    assert!(events > 0, "{tag}: empty trace");

    for line in folded.lines() {
        let (stack, _self_us) = line.rsplit_once(' ').expect("folded line has a count");
        for frame in stack.split(';') {
            assert!(
                SPAN_NAMES.contains(&frame),
                "{tag}: unregistered frame {frame:?}"
            );
        }
    }

    let doc = Json::parse(&metrics).expect("metrics.json parses");
    for key in ["events", "sim_metrics", "histograms"] {
        assert!(doc.get(key).is_some(), "{tag}: metrics.json lacks {key}");
    }
    let _ = std::fs::remove_dir_all(&cwd);
    doc
}

#[test]
fn timeline_exports_its_own_run() {
    let doc = observe(
        env!("CARGO_BIN_EXE_timeline"),
        &["--nodes", "20", "--duration", "100"],
        "timeline",
    );
    assert_eq!(doc.get("manifest"), Some(&Json::Null));
}

#[test]
fn fig8_exports_an_instrumented_seed_with_the_batch_manifest() {
    let doc = observe(
        env!("CARGO_BIN_EXE_fig8"),
        &[
            "--nodes",
            "20",
            "--seeds",
            "1",
            "--duration",
            "100",
            "--no-cache",
        ],
        "fig8",
    );
    let manifest = doc.get("manifest").expect("manifest key");
    assert_ne!(manifest, &Json::Null, "a batch bin embeds its manifest");
}
