//! Figure 6(a): probability of wormhole detection vs number of neighbors
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
    println!("Figure 6(a): P(wormhole detection) vs N_B");
    println!("(T=7, k=5, gamma=3, M=2, P_C=0.05 at N_B=3 scaling linearly)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.n_b),
                r.guards.to_string(),
                format!("{:.3}", r.p_c),
                fmt_prob(r.p_detect),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["N_B", "guards", "P_C", "P(detect)"], &table)
    );

    // The Section 5.1 planning question: density needed for p% detection.
    println!("\nrequired density for a target detection probability:");
    let model = fig6::paper_model();
    for target in [0.90, 0.95, 0.99] {
        match model.required_neighbors(target) {
            Some(n_b) => println!("  P(detect) >= {target:.2}  ->  N_B >= {n_b:.1}"),
            None => println!("  P(detect) >= {target:.2}  ->  unattainable"),
        }
    }
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
