//! Prints the chronology of one wormhole run: attack start, suspicions,
//! isolations, and the route milestones in between.
//!
//! Flags: --nodes 50 --duration 400 --seed 1 --malicious 2 --protected 1
//!        --observe DIR

use liteworp_bench::cli::Flags;
use liteworp_bench::observe::Observe;
use liteworp_bench::timeline::{render, timeline};
use liteworp_bench::Scenario;

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    let mut run = Scenario {
        nodes: flags.get_usize("nodes", 50),
        malicious: flags.get_usize("malicious", 2),
        protected: flags.get_u64("protected", 1) != 0,
        seed: flags.get_u64("seed", 1),
        ..Scenario::default()
    }
    .build();
    let duration = flags.get_f64("duration", 400.0);
    run.run_until_secs(duration);
    print!("{}", render(&timeline(&run)));
    println!(
        "\nat t = {duration:.0} s: {} data sent, {} delivered, {} swallowed by the wormhole",
        run.data_sent(),
        run.data_delivered(),
        run.wormhole_dropped()
    );
    observe.finish_run(&run, None);
}
