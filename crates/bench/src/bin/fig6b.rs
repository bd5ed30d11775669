//! Figure 6(b): probability of false alarm vs number of neighbors
//! (analytical model, Section 5.1).
//!
//! Flags: --observe DIR (runs one instrumented simulation seed of
//! --duration S, default 400, after the analytical sweep)

use liteworp_bench::cli::Flags;
use liteworp_bench::experiments::fig6;
use liteworp_bench::observe::Observe;
use liteworp_bench::report::{fmt_prob, render_table};
use liteworp_bench::Scenario;

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    let rows = fig6::sweep(fig6::paper_model(), fig6::default_grid());
    println!("Figure 6(b): P(false alarm) vs N_B (same parameters as 6(a))\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.n_b),
                r.guards.to_string(),
                format!("{:.3}", r.p_c),
                fmt_prob(r.p_false_alarm),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["N_B", "guards", "P_C", "P(false alarm)"], &table)
    );
    let worst = rows.iter().map(|r| r.p_false_alarm).fold(0.0, f64::max);
    println!(
        "\nworst case: {} (negligible, as the paper argues)",
        fmt_prob(worst)
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
