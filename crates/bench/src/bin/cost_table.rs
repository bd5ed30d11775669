//! Section 5.2 cost analysis: closed-form accounting plus live
//! measurements.
//!
//! Flags: --nodes N (100), --duration S (500), --seed N (4),
//!        --observe DIR

use liteworp_bench::cli::Flags;
use liteworp_bench::experiments::cost::{cost_table, CostConfig};
use liteworp_bench::observe::Observe;
use liteworp_bench::report::render_table;
use liteworp_bench::Scenario;

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    let cfg = CostConfig {
        nodes: flags.get_usize("nodes", 100),
        duration: flags.get_f64("duration", 500.0),
        seed: flags.get_u64("seed", 4),
        ..CostConfig::default()
    };
    eprintln!("running cost measurement: {cfg:?}");
    let rows = cost_table(&cfg);
    println!("Section 5.2: LITEWORP cost analysis\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.quantity.clone(), r.analytical.clone(), r.measured.clone()])
        .collect();
    print!(
        "{}",
        render_table(&["quantity", "analytical", "measured"], &table)
    );
    observe.finish_scenario(
        &Scenario {
            nodes: cfg.nodes,
            malicious: 2,
            protected: true,
            seed: cfg.seed,
            ..Scenario::default()
        },
        cfg.duration,
        None,
    );
}
