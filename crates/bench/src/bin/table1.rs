//! Table 1: the wormhole attack-mode taxonomy, each row verified by a
//! live protected simulation run.
//!
//! Flags: --nodes N (40), --duration S (400), --seed N (9),
//!        --observe DIR

use liteworp_bench::cli::Flags;
use liteworp_bench::experiments::tables::{table1, Table1Config};
use liteworp_bench::observe::Observe;
use liteworp_bench::report::render_table;
use liteworp_bench::Scenario;

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    let cfg = Table1Config {
        nodes: flags.get_usize("nodes", 40),
        duration: flags.get_f64("duration", 400.0),
        seed: flags.get_u64("seed", 9),
    };
    eprintln!("running table1 verification: {cfg:?}");
    let rows = table1(&cfg);
    println!("Table 1: wormhole attack modes (verified live)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                r.min_compromised.to_string(),
                r.special_requirement.clone(),
                if r.handled_by_liteworp {
                    "yes"
                } else {
                    "NO (par. 4.2.3)"
                }
                .into(),
                if r.verified_neutralized {
                    "verified"
                } else {
                    "NOT verified"
                }
                .into(),
                r.evidence.clone(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "mode",
                "min compromised",
                "special requirement",
                "handled",
                "live check",
                "evidence"
            ],
            &table
        )
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
