//! Ablation study: perturb one design choice at a time and measure what
//! it costs (see `experiments::ablation` for the variant list).
//!
//! Flags: --seeds N (5), --duration S (800), --nodes N (50),
//!        --jobs N (all cores), --no-cache, --cache-dir DIR,
//!        --observe DIR
//!
//! Supervision (see EXPERIMENTS.md): --max-retries N, --job-deadline
//! SIM_SECS, --journal PATH, --resume, --engine-faults P,
//! --engine-fault-seed N

use liteworp_bench::cli::Flags;
use liteworp_bench::exec::ExecOptions;
use liteworp_bench::experiments::ablation::{run_with, AblationConfig};
use liteworp_bench::observe::Observe;
use liteworp_bench::report::render_table;
use liteworp_bench::Scenario;
use liteworp_runner::Json;

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    let cfg = AblationConfig {
        nodes: flags.get_usize("nodes", 50),
        seeds: flags.get_u64("seeds", 5),
        duration: flags.get_f64("duration", 800.0),
    };
    eprintln!("running ablations: {cfg:?}");
    let (rows, manifest) = run_with(&cfg, &ExecOptions::from_flags(&flags));
    eprintln!("{}", manifest.summary_line());
    println!(
        "Ablation study ({} nodes, M = 2, {} runs per variant, {} s each)\n",
        cfg.nodes, cfg.seeds, cfg.duration
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format!("{:.2}", r.detection_rate),
                format!("{:.1}", r.isolation_latency),
                format!("{:.2}", r.isolation_rate),
                format!("{:.1}", r.drops),
                format!("{:.2}", r.false_isolations),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "variant",
                "detection",
                "isolation [s]",
                "isolation rate",
                "drops",
                "false isolations"
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
            malicious: 2,
            protected: true,
            seed: 1,
            ..Scenario::default()
        },
        cfg.duration,
        Some(&manifest),
    );
}
