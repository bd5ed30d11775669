//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--served-bin PATH] [--tmp DIR]`
//!
//! Prints a table of every measured metric, then one JSON result line:
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). Usually launched through `run.py`, which builds first.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run_workload, Ctx};
use std::path::PathBuf;

fn parse() -> Result<(String, Ctx), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10.0,
        trace: false,
        reduced: false,
        tmp: PathBuf::from(".bench_tmp"),
        served_bin: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => ctx.seed = num(&value)?,
            "--seconds" => ctx.seconds = num(&value)? as f64,
            "--trace" => ctx.trace = num(&value)? != 0,
            "--served-bin" => ctx.served_bin = Some(PathBuf::from(value)),
            "--tmp" => ctx.tmp = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn main() {
    let (workload, ctx) = parse().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let mut report = run_workload(&workload, &ctx).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    report.print(&workload, if ctx.trace { PER_LAYER } else { END_TO_END });
}
