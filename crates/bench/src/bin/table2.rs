//! Table 2: simulation input parameters — the paper's values next to the
//! configuration this reproduction actually runs.
//!
//! Flags: --observe DIR (runs one instrumented simulation seed of
//! --duration S, default 400, at the tabulated parameters)

use liteworp_bench::cli::Flags;
use liteworp_bench::experiments::tables::table2;
use liteworp_bench::observe::Observe;
use liteworp_bench::report::render_table;
use liteworp_bench::Scenario;

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    println!("Table 2: input parameter values\n");
    let rows = table2();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.parameter.clone(), r.paper.clone(), r.ours.clone()])
        .collect();
    print!(
        "{}",
        render_table(&["parameter", "paper", "this repo"], &table)
    );
    observe.finish_scenario(
        &Scenario {
            malicious: 2,
            protected: true,
            seed: 1,
            ..Scenario::default()
        },
        flags.get_f64("duration", 400.0),
        None,
    );
}
