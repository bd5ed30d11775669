//! Figure 9: fraction of packets dropped and fraction of malicious routes
//! vs number of compromised nodes, baseline vs LITEWORP (snapshot at
//! t = 2000 s).
//!
//! Flags: --seeds N (10), --duration S (2000), --nodes N (100),
//!        --jobs N (all cores), --no-cache, --cache-dir DIR,
//!        --observe DIR
//!
//! Supervision (see EXPERIMENTS.md): --max-retries N, --job-deadline
//! SIM_SECS, --journal PATH, --resume, --engine-faults P,
//! --engine-fault-seed N

use liteworp_bench::cli::Flags;
use liteworp_bench::exec::ExecOptions;
use liteworp_bench::experiments::fig9::{run_with, Fig9Config};
use liteworp_bench::observe::Observe;
use liteworp_bench::report::render_table;
use liteworp_bench::Scenario;
use liteworp_runner::Json;

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    let cfg = Fig9Config {
        nodes: flags.get_usize("nodes", 100),
        seeds: flags.get_u64("seeds", 10),
        duration: flags.get_f64("duration", 2000.0),
        ..Fig9Config::default()
    };
    eprintln!("running fig9: {cfg:?}");
    let (rows, manifest) = run_with(&cfg, &ExecOptions::from_flags(&flags));
    eprintln!("{}", manifest.summary_line());
    println!(
        "Figure 9: wormhole impact at t = {:.0} s ({} nodes, mean of {} runs)\n",
        cfg.duration, cfg.nodes, cfg.seeds
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.colluders.to_string(),
                if r.protected { "LITEWORP" } else { "baseline" }.into(),
                format!("{:.4}", r.fraction_dropped),
                format!("{:.4}", r.fraction_malicious_routes),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["M", "system", "fr. dropped", "fr. malicious routes"],
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
            malicious: cfg
                .colluder_counts
                .iter()
                .copied()
                .find(|&m| m > 0)
                .unwrap_or(2),
            protected: true,
            seed: 1,
            ..Scenario::default()
        },
        cfg.duration,
        Some(&manifest),
    );
}
