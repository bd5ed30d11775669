//! Figure 8: cumulative packets dropped by the wormhole vs simulation
//! time, 100 nodes, M in {2, 4}, with and without LITEWORP.
//!
//! Flags: --seeds N (default 10), --duration S (2000), --nodes N (100),
//!        --sample S (50), --jobs N (all cores), --no-cache,
//!        --cache-dir DIR, --observe DIR
//!
//! Supervision (see EXPERIMENTS.md): --max-retries N, --job-deadline
//! SIM_SECS, --journal PATH, --resume, --engine-faults P,
//! --engine-fault-seed N

use liteworp_bench::cli::Flags;
use liteworp_bench::exec::ExecOptions;
use liteworp_bench::experiments::fig8::{run_with, Fig8Config};
use liteworp_bench::observe::Observe;
use liteworp_bench::report::render_table;
use liteworp_bench::Scenario;
use liteworp_runner::Json;

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    let cfg = Fig8Config {
        nodes: flags.get_usize("nodes", 100),
        seeds: flags.get_u64("seeds", 10),
        duration: flags.get_f64("duration", 2000.0),
        sample_every: flags.get_f64("sample", 50.0),
        ..Fig8Config::default()
    };
    eprintln!("running fig8: {cfg:?}");
    let (series, manifest) = run_with(&cfg, &ExecOptions::from_flags(&flags));
    eprintln!("{}", manifest.summary_line());
    println!(
        "Figure 8: cumulative wormhole drops vs time ({} nodes, attack at 50 s, mean of {} runs)\n",
        cfg.nodes, cfg.seeds
    );
    let header_refs = [
        "t [s]",
        "M=2 baseline",
        "M=2 LITEWORP",
        "M=4 baseline",
        "M=4 LITEWORP",
    ];
    let find = |m: usize, p: bool| {
        series
            .iter()
            .find(|s| s.colluders == m && s.protected == p)
            .expect("series present")
    };
    let (b2, p2, b4, p4) = (find(2, false), find(2, true), find(4, false), find(4, true));
    let rows: Vec<Vec<String>> = b2
        .times
        .iter()
        .enumerate()
        .map(|(i, t)| {
            vec![
                format!("{t:.0}"),
                format!("{:.1}", b2.dropped[i]),
                format!("{:.1}", p2.dropped[i]),
                format!("{:.1}", b4.dropped[i]),
                format!("{:.1}", p4.dropped[i]),
            ]
        })
        .collect();
    print!("{}", render_table(&header_refs, &rows));
    println!(
        "\n{}",
        Json::Arr(series.iter().map(|s| s.to_json()).collect()).dump()
    );
    observe.finish_scenario(
        &Scenario {
            nodes: cfg.nodes,
            malicious: cfg.colluder_counts.first().copied().unwrap_or(2),
            protected: true,
            seed: 1,
            ..Scenario::default()
        },
        cfg.duration,
        Some(&manifest),
    );
}
