//! Every workload once, at reduced size, on a second seed, traced: the
//! output checks must hold off the default seed, and both the
//! end-to-end and the per-layer metric sets must come out complete.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run_workload, Ctx};
use std::path::PathBuf;

/// The daemon binary the traced `served_mix` front probe spawns: `PERFBENCH_SERVED_BIN`, or
/// `liteworp-served` in this test binary's target directory
/// (`python3 perfbench/run.py --selftest` builds it there).
fn served_bin() -> PathBuf {
    if let Some(path) = std::env::var_os("PERFBENCH_SERVED_BIN") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("test binary path");
    exe.parent()
        .and_then(|deps| deps.parent())
        .expect("target profile directory")
        .join("liteworp-served")
}

fn check(workload: &str) {
    let ctx = Ctx {
        seed: 7,
        seconds: 0.0,
        trace: true,
        reduced: true,
        tmp: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload),
        served_bin: Some(served_bin()),
    };
    let report = run_workload(workload, &ctx).expect("workload runs");
    assert_eq!(
        report.failed, 0,
        "{workload} failed checks: {:?}",
        report.failures
    );
    assert!(report.attempted > 0);
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        let value = report.get(name);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: metric {name} missing or not finite: {value:?}"
        );
    }
}

#[test]
fn paper_batch_holds_on_a_second_seed() {
    check("paper_batch");
}

#[test]
fn scale_run_holds_on_a_second_seed() {
    check("scale_100k");
}

#[test]
fn served_mix_holds_on_a_second_seed() {
    check("served_mix");
}
