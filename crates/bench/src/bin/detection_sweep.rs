//! "Every wormhole is detected and isolated within a very short period of
//! time over a large range of scenarios": detection/isolation across
//! network sizes and densities.
//!
//! Flags: --seeds N (10), --duration S (800), --jobs N (all cores),
//!        --no-cache, --cache-dir DIR, --observe DIR
//!
//! Supervision (see EXPERIMENTS.md): --max-retries N, --job-deadline
//! SIM_SECS, --journal PATH, --resume, --engine-faults P,
//! --engine-fault-seed N

use liteworp_bench::cli::Flags;
use liteworp_bench::exec::ExecOptions;
use liteworp_bench::experiments::sweep::{run_with, SweepConfig};
use liteworp_bench::observe::Observe;
use liteworp_bench::report::render_table;
use liteworp_bench::Scenario;
use liteworp_runner::Json;

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    let cfg = SweepConfig {
        seeds: flags.get_u64("seeds", 10),
        duration: flags.get_f64("duration", 800.0),
        node_counts: vec![20, 50, 100, 150],
        densities: vec![6.0, 8.0, 10.0],
    };
    eprintln!("running detection sweep: {cfg:?}");
    let (rows, manifest) = run_with(&cfg, &ExecOptions::from_flags(&flags));
    eprintln!("{}", manifest.summary_line());
    println!(
        "Detection & isolation across scenarios (M = 2, {} runs per cell, {} s each)\n",
        cfg.seeds, cfg.duration
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                format!("{:.0}", r.avg_neighbors),
                format!("{:.2}", r.detection_rate),
                format!("{:.1}", r.first_detection_latency),
                format!("{:.1}", r.isolation_latency),
                format!("{:.2}", r.isolation_rate),
                format!("{:.1}", r.drops),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "N",
                "N_B",
                "detection",
                "1st detect [s]",
                "full isolation [s]",
                "isolation rate",
                "drops"
            ],
            &table
        )
    );
    println!(
        "\n{}",
        Json::Arr(rows.iter().map(|r| r.to_json()).collect()).dump()
    );
    observe.finish_scenario(
        &Scenario {
            nodes: cfg.node_counts.first().copied().unwrap_or(50),
            avg_neighbors: cfg.densities.first().copied().unwrap_or(8.0),
            malicious: 2,
            protected: true,
            seed: 1,
            ..Scenario::default()
        },
        cfg.duration,
        Some(&manifest),
    );
}
