//! General-purpose scenario runner: configure a network, an attack, and
//! LITEWORP from the command line and get a run report.
//!
//! ```text
//! run_scenario [--nodes 100] [--neighbors 8] [--malicious 2]
//!              [--protected 1] [--attack wormhole|encapsulation|highpower|relay|rushing]
//!              [--duration 1000] [--seed 1] [--gamma 2] [--ct 6]
//!              [--monitor-data 0] [--sample 100]
//!              [--traffic-sources N] [--require-connected 1]
//!              [--observe DIR]
//! ```
//!
//! `--traffic-sources` caps the number of data-originating nodes and
//! `--require-connected 0` skips the connected-deployment retry — the
//! scale knobs large runs need (see the `scale_sweep` binary).
//! `--observe DIR` writes this run's trace, metrics and profile (see
//! `liteworp_bench::observe`).

use liteworp::config::Config;
use liteworp_bench::cli::Flags;
use liteworp_bench::observe::Observe;
use liteworp_bench::{Scenario, ScenarioAttack};

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    let attack_name = flags.get_str("attack").unwrap_or("wormhole");
    let (attack, tunnel_latency) = match attack_name {
        "wormhole" => (ScenarioAttack::Wormhole, 0.0),
        "encapsulation" => (ScenarioAttack::Wormhole, 0.1),
        "highpower" => (ScenarioAttack::HighPower(3.0), 0.0),
        "relay" => (ScenarioAttack::Relay, 0.0),
        "rushing" => (ScenarioAttack::Rushing { drop_data: true }, 0.0),
        other => panic!("unknown attack {other:?}"),
    };
    let scenario = Scenario {
        nodes: flags.get_usize("nodes", 100),
        avg_neighbors: flags.get_f64("neighbors", 8.0),
        malicious: flags.get_usize("malicious", 2),
        protected: flags.get_u64("protected", 1) != 0,
        seed: flags.get_u64("seed", 1),
        attack,
        tunnel_latency,
        liteworp: Config {
            confidence_index: flags.get_usize("gamma", 2),
            malc_threshold: flags.get_u64("ct", 6) as u32,
            monitor_data: flags.get_u64("monitor-data", 0) != 0,
            ..Config::default()
        },
        traffic_sources: flags.get_opt_usize("traffic-sources"),
        require_connected: flags.get_u64("require-connected", 1) != 0,
        ..Scenario::default()
    };
    let duration = flags.get_f64("duration", 1000.0);
    let sample = flags.get_f64("sample", 100.0);

    println!(
        "scenario: {} nodes (N_B = {}), {} malicious ({attack_name}), LITEWORP {}",
        scenario.nodes,
        scenario.avg_neighbors,
        scenario.malicious,
        if scenario.protected { "on" } else { "off" },
    );
    let mut run = scenario.build();
    println!("colluders: {:?}, attack starts at 50 s\n", run.malicious());
    println!(
        "{:>8}  {:>10}  {:>10}  {:>8}  {:>9}  {:>9}",
        "t [s]", "sent", "delivered", "drops", "routes", "detected"
    );
    let mut t = 0.0;
    while t < duration {
        t = (t + sample).min(duration);
        run.run_until_secs(t);
        let (routes, _) = run.route_counts();
        println!(
            "{:>8.0}  {:>10}  {:>10}  {:>8}  {:>9}  {:>9}",
            t,
            run.data_sent(),
            run.data_delivered(),
            run.wormhole_dropped(),
            routes,
            run.all_detected(),
        );
    }

    println!();
    let (routes, bad) = run.route_counts();
    println!("routes: {routes} total, {bad} through malicious relays");
    println!("fake-link routes: {}", run.fake_link_routes());
    match run.isolation_latency_secs() {
        Some(l) => println!("complete isolation {l:.1} s after attack start"),
        None => println!("isolation incomplete at end of run"),
    }
    let mal: Vec<u32> = run.malicious().iter().map(|m| m.0).collect();
    let honest: std::collections::BTreeSet<u32> = run
        .sim()
        .trace()
        .isolations()
        .filter(|i| !mal.contains(&i.suspect.0))
        .map(|i| i.suspect.0)
        .collect();
    println!("honest nodes falsely isolated: {}", honest.len());
    println!("\nmetrics:");
    for (k, v) in run.sim().metrics().iter_custom() {
        println!("  {k}: {v}");
    }
    let m = run.sim().metrics();
    println!(
        "  frames: {} sent, {} delivered, {} collided (P_C ~ {:.3})",
        m.frames_sent,
        m.frames_delivered,
        m.frames_collided,
        m.collision_fraction()
    );
    observe.finish_run(&run, None);
}
