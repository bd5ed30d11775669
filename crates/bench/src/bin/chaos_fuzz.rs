//! Scenario × fault-plan fuzzer with an invariant oracle and shrinking.
//!
//! Runs randomized fault plans against simulated deployments, replays
//! every run's event trace through the `liteworp-chaos` oracle, and — on
//! a violation — greedily shrinks the fault plan to a minimal violating
//! form and prints a `--replay` command line that reproduces it exactly.
//!
//! Modes:
//!
//! * sweep (default): `--runs N` randomized fault plans, one derived
//!   scenario seed each. Exits nonzero if any run violates an invariant.
//!   Flags: `--runs` (200), `--seed` (1), `--nodes` (25), `--malicious`
//!   (0), `--duration` (200), `--gamma` (protocol default), `--profile
//!   benign|harsh` (benign), `--jobs N`, `--no-cache`, plus the shared
//!   supervision flags (`--max-retries`, `--job-deadline`, `--journal`,
//!   `--resume`, `--engine-faults`, `--engine-fault-seed`; see
//!   EXPERIMENTS.md).
//! * `--smoke`: fixed-seed CI gate. Phase A sweeps benign fault plans at
//!   the protocol γ and requires zero violations; phase B weakens the
//!   deployment to γ=1, requires the sweep to surface an honest-immunity
//!   violation, shrinks it, and re-runs the emitted reproducer to prove
//!   the command line round-trips. Exits nonzero if either phase fails.
//! * `--replay`: re-executes one exact (scenario seed, fault plan) pair
//!   printed by the shrinker. Exits nonzero when the run violates, so a
//!   reproducer command "failing" means the bug is still there.
//!
//! Every mode takes `--observe DIR`, which writes only `DIR/profile.folded`:
//! a fuzz sweep has no single representative run to trace.

use liteworp_bench::chaos_exec::{execute_chaos, run_chaos_cells, ChaosCell, ChaosOutcome};
use liteworp_bench::cli::Flags;
use liteworp_bench::exec::ExecOptions;
use liteworp_bench::observe::Observe;
use liteworp_bench::Scenario;
use liteworp_chaos::{parse_crashes, parse_drifts, FaultPlan, FuzzProfile, Immunity};
use liteworp_runner::{JobSpec, Pcg32};

fn main() {
    let flags = Flags::from_env();
    let observe = Observe::from_flags(&flags);
    let code = if flags.get_bool("replay") {
        replay(&flags)
    } else if flags.get_bool("smoke") {
        smoke(&flags)
    } else {
        sweep(&flags)
    };
    observe.finish_profile();
    std::process::exit(code);
}

/// The scenario every fuzz run perturbs: attack-free (or `--malicious M`)
/// with the γ under test.
fn scenario_from(flags: &Flags, gamma: usize) -> Scenario {
    let mut scenario = Scenario {
        nodes: flags.get_usize("nodes", 25),
        malicious: flags.get_usize("malicious", 0),
        protected: true,
        ..Scenario::default()
    };
    scenario.liteworp.confidence_index = gamma;
    scenario
}

fn profile_from(flags: &Flags) -> FuzzProfile {
    match flags.get_str("profile").unwrap_or("benign") {
        "benign" => FuzzProfile::benign(),
        "harsh" => FuzzProfile::harsh(),
        other => panic!("--profile {other:?}: expected benign or harsh"),
    }
}

/// Honest nodes are only guaranteed immune from *network-wide* isolation
/// when the deployment is attack-free; under a wormhole the oracle still
/// checks quorum, provenance, and bounds but not immunity.
fn immunity_for(scenario: &Scenario) -> Immunity {
    if scenario.malicious == 0 {
        Immunity::NetworkWide
    } else {
        Immunity::Off
    }
}

/// One cell per sampled fault plan, a single derived seed each.
fn build_cells(
    label: &str,
    scenario: &Scenario,
    duration: f64,
    runs: u64,
    master_seed: u64,
    profile: &FuzzProfile,
) -> Vec<ChaosCell> {
    let mut rng = Pcg32::seed_from_u64(master_seed);
    let run_us = (duration * 1e6) as u64;
    (0..runs)
        .map(|i| ChaosCell {
            label: format!("{label} run={i}"),
            scenario: scenario.clone(),
            plan: FaultPlan::sample(&mut rng, scenario.nodes as u32, run_us, profile),
            seeds: 1,
            seed_base: i,
            duration,
            immunity: immunity_for(scenario),
        })
        .collect()
}

/// The scenario seed the runner derives for a one-seed cell, so direct
/// `execute_chaos` calls (shrinking, replay confirmation) reproduce the
/// pool's run bit-for-bit.
fn derived_seed_of(cell: &ChaosCell) -> u64 {
    JobSpec {
        label: cell.label.clone(),
        scenario: cell.descriptor(),
        seed: cell.seed_base,
    }
    .derived_seed()
}

/// Greedy shrink: keep applying the first candidate reduction that still
/// violates, at the *same* scenario seed. The injector's decision stream
/// draws once per reception regardless of the plan's probabilities, so
/// reductions only remove faults — they never reshuffle the survivors.
fn shrink(cell: &ChaosCell, seed: u64) -> (FaultPlan, ChaosOutcome) {
    let mut best = cell.plan.clone();
    let mut outcome = execute_chaos(cell, seed);
    assert!(!outcome.violations.is_empty(), "shrinking a passing run");
    loop {
        let mut improved = false;
        for candidate in best.shrink_candidates() {
            let mut trial = cell.clone();
            trial.plan = candidate.clone();
            let trial_outcome = execute_chaos(&trial, seed);
            if !trial_outcome.violations.is_empty() {
                best = candidate;
                outcome = trial_outcome;
                improved = true;
                break;
            }
        }
        if !improved {
            return (best, outcome);
        }
    }
}

/// The exact command line reproducing a (scenario, seed, plan) triple.
fn reproducer(scenario: &Scenario, duration: f64, seed: u64, plan: &FaultPlan) -> String {
    format!(
        "chaos_fuzz --replay --nodes {} --malicious {} --gamma {} --duration {} --cell-seed {} {}",
        scenario.nodes,
        scenario.malicious,
        scenario.liteworp.confidence_index,
        duration,
        seed,
        plan.cli_args()
    )
}

fn report_violation(label: &str, outcome: &ChaosOutcome) {
    eprintln!("{label}: {} violation(s)", outcome.violations.len());
    for v in &outcome.violations {
        eprintln!("  {v}");
    }
}

/// Sweeps cells through the pool; on the first violating run, shrinks it
/// and prints a reproducer. Returns the process exit code.
fn sweep_cells(cells: Vec<ChaosCell>, opts: &ExecOptions, expect_clean: bool) -> i32 {
    let run = run_chaos_cells(&cells, opts);
    eprintln!("{}", run.manifest.summary_line());
    let mut violating = None;
    let mut total_events = 0u64;
    for (cell, outcomes) in cells.iter().zip(&run.outcomes) {
        for outcome in outcomes {
            total_events += outcome.events;
            if !outcome.violations.is_empty() && violating.is_none() {
                violating = Some((cell, outcome.clone()));
            }
        }
    }
    let runs: usize = run.outcomes.iter().map(Vec::len).sum();
    eprintln!("{runs} runs, {total_events} events replayed through the oracle");
    match violating {
        None => {
            println!("ok: {runs} runs, zero invariant violations");
            0
        }
        Some((cell, outcome)) => {
            report_violation(&cell.label, &outcome);
            let seed = derived_seed_of(cell);
            eprintln!("shrinking plan at scenario seed {seed}...");
            let (minimal, min_outcome) = shrink(cell, seed);
            report_violation("shrunk", &min_outcome);
            println!(
                "reproducer: {}",
                reproducer(&cell.scenario, cell.duration, seed, &minimal)
            );
            if expect_clean {
                1
            } else {
                0
            }
        }
    }
}

fn sweep(flags: &Flags) -> i32 {
    let scenario = scenario_from(
        flags,
        flags.get_usize("gamma", Scenario::default().liteworp.confidence_index),
    );
    let cells = build_cells(
        "fuzz",
        &scenario,
        flags.get_f64("duration", 200.0),
        flags.get_u64("runs", 200),
        flags.get_u64("seed", 1),
        &profile_from(flags),
    );
    sweep_cells(cells, &ExecOptions::from_flags(flags), true)
}

/// Fixed-seed CI gate: benign sweep must be clean, γ=1 must break and
/// shrink to a re-runnable reproducer.
fn smoke(flags: &Flags) -> i32 {
    let opts = ExecOptions::from_flags(flags);
    let runs = flags.get_u64("runs", 200);
    let seed = flags.get_u64("seed", 42);
    let duration = flags.get_f64("duration", 200.0);

    eprintln!("smoke A: {runs} benign-fault runs at protocol gamma");
    let scenario = scenario_from(flags, Scenario::default().liteworp.confidence_index);
    let cells = build_cells(
        "smoke-benign",
        &scenario,
        duration,
        runs,
        seed,
        &FuzzProfile::benign(),
    );
    if sweep_cells(cells, &opts, true) != 0 {
        eprintln!("smoke FAILED: benign sweep violated an invariant");
        return 1;
    }

    eprintln!("smoke B: weakened gamma=1 must yield a shrinkable violation");
    let weakened = scenario_from(flags, 1);
    let cells = build_cells(
        "smoke-gamma1",
        &weakened,
        duration,
        runs,
        seed,
        &FuzzProfile::harsh(),
    );
    let run = run_chaos_cells(&cells, &opts);
    eprintln!("{}", run.manifest.summary_line());
    let violating = cells
        .iter()
        .zip(&run.outcomes)
        .find(|(_, outcomes)| outcomes.iter().any(|o| !o.violations.is_empty()));
    let Some((cell, _)) = violating else {
        eprintln!("smoke FAILED: gamma=1 sweep found no violation");
        return 1;
    };
    let cell_seed = derived_seed_of(cell);
    let (minimal, outcome) = shrink(cell, cell_seed);
    report_violation("shrunk gamma=1", &outcome);
    let line = reproducer(&weakened, cell.duration, cell_seed, &minimal);
    println!("reproducer: {line}");

    // Round-trip the reproducer through the replay front end: parsing
    // the printed flags must rebuild the same run and still violate.
    let replay_flags = Flags::parse(line.split_whitespace().skip(1));
    let replayed = replay_outcome(&replay_flags);
    if replayed.violations != outcome.violations {
        eprintln!("smoke FAILED: reproducer did not round-trip");
        report_violation("replayed", &replayed);
        return 1;
    }
    println!("ok: smoke passed (benign clean, gamma=1 reproducibly violates)");
    0
}

fn plan_from_flags(flags: &Flags) -> FaultPlan {
    let plan = FaultPlan {
        seed: flags.get_u64("plan-seed", 1),
        drop: flags.get_f64("drop", 0.0),
        corrupt: flags.get_f64("corrupt", 0.0),
        duplicate: flags.get_f64("duplicate", 0.0),
        delay: flags.get_f64("delay", 0.0),
        max_jitter_us: flags.get_u64("jitter-us", 0),
        crashes: parse_crashes(flags.get_str("crashes").unwrap_or(""))
            .unwrap_or_else(|e| panic!("--crashes: {e}")),
        drifts: parse_drifts(flags.get_str("drifts").unwrap_or(""))
            .unwrap_or_else(|e| panic!("--drifts: {e}")),
    };
    plan.validate().unwrap_or_else(|e| panic!("bad plan: {e}"));
    plan
}

fn replay_outcome(flags: &Flags) -> ChaosOutcome {
    let scenario = scenario_from(flags, flags.get_usize("gamma", 1));
    let cell = ChaosCell {
        label: "replay".into(),
        scenario: scenario.clone(),
        plan: plan_from_flags(flags),
        seeds: 1,
        seed_base: 0,
        duration: flags.get_f64("duration", 200.0),
        immunity: immunity_for(&scenario),
    };
    execute_chaos(&cell, flags.get_u64("cell-seed", 1))
}

fn replay(flags: &Flags) -> i32 {
    let outcome = replay_outcome(flags);
    if outcome.violations.is_empty() {
        println!("replay: no violations ({} events)", outcome.events);
        0
    } else {
        report_violation("replay", &outcome);
        1
    }
}
