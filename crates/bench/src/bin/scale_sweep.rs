//! Scale sweep: detection-probability and guard-coverage closed forms
//! checked on 10³–10⁵-node deployments with active wormholes (see
//! `experiments::scale_sweep`). Exits nonzero if any size violates the
//! CI bounds.
//!
//! Flags: --nodes N[,N...] (default 1000,10000,100000), --seeds N (6),
//!        --duration S (150), --traffic-sources N (64),
//!        --guard-links N (2000), --smoke (one 10 000-node seed; also
//!        prints to stderr how many nodes the run built and the
//!        process's peak resident set, `VmHWM`, where
//!        `/proc/self/status` exists),
//!        --jobs N, --no-cache, --cache-dir DIR, --observe DIR
//!
//! Supervision (see EXPERIMENTS.md): --max-retries N, --job-deadline
//! SIM_SECS, --journal PATH, --resume, --engine-faults P,
//! --engine-fault-seed N

use liteworp_bench::cli::Flags;
use liteworp_bench::exec::ExecOptions;
use liteworp_bench::experiments::scale_sweep::{check, run_with, scenario_for, ScaleSweepConfig};
use liteworp_bench::observe::Observe;
use liteworp_bench::report::render_table;
use liteworp_runner::Json;

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    let mut cfg = ScaleSweepConfig {
        seeds: flags.get_u64("seeds", 6),
        duration: flags.get_f64("duration", 150.0),
        traffic_sources: flags.get_usize("traffic-sources", 64),
        guard_links: flags.get_usize("guard-links", 2_000),
        ..ScaleSweepConfig::default()
    };
    let smoke = flags.get_bool("smoke");
    if smoke {
        // The CI smoke: a single 10 000-node wormhole run, still checked
        // against both closed forms and digest-pinned by the caller.
        cfg.node_counts = vec![10_000];
        cfg.seeds = 1;
    }
    if let Some(list) = flags.get_str("nodes") {
        cfg.node_counts = list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("--nodes expects integers, got {s:?}"))
            })
            .collect();
    }
    eprintln!("running scale_sweep: {cfg:?}");
    let (rows, manifest) = run_with(&cfg, &ExecOptions::from_flags(&flags));
    eprintln!("{}", manifest.summary_line());
    if let Some(kb) = smoke.then(peak_rss_kb).flatten() {
        // scripts/scale_smoke.sh gates this line.
        eprintln!("scale smoke: VmHWM {kb} kB");
    }
    if smoke {
        // scripts/scale_smoke.sh pins this count: a reader that builds
        // every lazy node (a sweep of `Simulator::logic`) raises it.
        let built = liteworp_obs::counter("scenario.nodes_built").get();
        eprintln!("scale smoke: nodes built {built}");
    }
    println!(
        "Scale sweep: closed forms vs simulation, N_B = {}, {} traffic sources, attack at 50 s\n",
        cfg.avg_neighbors, cfg.traffic_sources
    );
    let header = [
        "N",
        "seeds",
        "N_B meas",
        "guards meas",
        "guards exact",
        "guards Eq(I)",
        "P_detect sim",
        "P_detect model",
        "P_C",
        "data",
        "drops",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.nodes),
                format!("{}", r.seeds),
                format!("{:.2}", r.geometry.measured_neighbors),
                format!("{:.2}", r.geometry.measured_guards),
                format!("{:.2}", r.geometry.predicted_guards_exact),
                format!("{:.2}", r.geometry.predicted_guards_paper),
                format!("{:.3}", r.detection_rate),
                format!("{:.3}", r.predicted_detection),
                format!("{:.4}", r.collision_fraction),
                format!("{:.0}", r.data_sent),
                format!("{:.1}", r.drops),
            ]
        })
        .collect();
    print!("{}", render_table(&header, &table));
    println!(
        "\n{}",
        Json::Arr(rows.iter().map(|r| r.to_json()).collect()).dump()
    );
    // Both the default and a parsed `--nodes` list hold at least one size.
    observe.finish_scenario(
        &scenario_for(&cfg, cfg.node_counts[0]),
        cfg.duration,
        Some(&manifest),
    );

    let violations = check(&rows);
    for v in &violations {
        eprintln!("BOUND VIOLATED: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

/// This process's peak resident set (`VmHWM`) in kB, where the OS
/// reports it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    value.trim().strip_suffix("kB")?.trim().parse().ok()
}
