//! Figure 10: detection probability (simulation + analytical) and
//! isolation latency vs the detection confidence index gamma
//! (N_B = 15, M = 2).
//!
//! Flags: --seeds N (10), --duration S (800), --nodes N (100),
//!        --jobs N (all cores), --no-cache, --cache-dir DIR,
//!        --observe DIR
//!
//! Supervision (see EXPERIMENTS.md): --max-retries N, --job-deadline
//! SIM_SECS, --journal PATH, --resume, --engine-faults P,
//! --engine-fault-seed N

use liteworp::config::Config;
use liteworp_bench::cli::Flags;
use liteworp_bench::exec::ExecOptions;
use liteworp_bench::experiments::fig10::{run_with, Fig10Config};
use liteworp_bench::observe::Observe;
use liteworp_bench::report::render_table;
use liteworp_bench::Scenario;
use liteworp_runner::Json;

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    let cfg = Fig10Config {
        nodes: flags.get_usize("nodes", 100),
        seeds: flags.get_u64("seeds", 10),
        duration: flags.get_f64("duration", 800.0),
        ..Fig10Config::default()
    };
    eprintln!("running fig10: {cfg:?}");
    let (rows, manifest) = run_with(&cfg, &ExecOptions::from_flags(&flags));
    eprintln!("{}", manifest.summary_line());
    println!(
        "Figure 10: detection probability and isolation latency vs gamma (N_B = {}, M = 2, {} runs each)\n",
        cfg.avg_neighbors, cfg.seeds
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.gamma.to_string(),
                format!("{:.2}", r.sim_detection),
                format!("{:.3}", r.analytic_detection),
                format!("{:.1}", r.isolation_latency),
                format!("{:.2}", r.isolation_completed),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "gamma",
                "P(detect) sim",
                "P(detect) analytic",
                "isolation latency [s]",
                "isolation completed",
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
            nodes: cfg.nodes,
            avg_neighbors: cfg.avg_neighbors,
            malicious: 2,
            protected: true,
            liteworp: Config {
                confidence_index: cfg.gammas.first().copied().unwrap_or(2),
                ..Config::default()
            },
            seed: 1,
            ..Scenario::default()
        },
        cfg.duration,
        Some(&manifest),
    );
}
