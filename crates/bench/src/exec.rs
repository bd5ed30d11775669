//! Bridges [`Scenario`] to the `liteworp-runner` execution engine.
//!
//! Every multi-seed experiment describes its work as [`SimCell`]s (one
//! scenario configuration × a seed count) and hands them to [`run_cells`],
//! which executes all seeds of all cells as one sweep on a
//! [`SweepEngine`] with the result cache in front. A cell's per-seed RNG
//! seed is derived from the cell's canonical
//! [`descriptor`](SimCell::descriptor) and the seed index, so aggregates
//! are identical at any `--jobs` value and cache hits are exact.
//!
//! Batch bins, the daemon ([`run_cells_on`]) and the chaos fuzzer
//! ([`crate::chaos_exec`]) all go through one routine that flattens cells
//! into jobs, runs them, and groups the results back per cell.

use crate::scenario::{Scenario, ScenarioRun};
use liteworp_chaos::EngineFaultPlan;
use liteworp_obs as obs;
use liteworp_runner::supervisor::{JobContext, JobFailure, JobFaultHook, Supervision};
use liteworp_runner::{
    resolve_threads, CacheValue, JobSpec, Json, Manifest, ProgressObserver, ResultCache, Summary,
    SweepEngine, SweepExec,
};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// Version string folded into every cache key. Bump the suffix whenever
/// simulator or measurement behavior changes, so stale cached results are
/// never reused across code versions.
pub const SIM_CODE_VERSION: &str = concat!(env!("CARGO_PKG_VERSION"), "+sim2");

/// One experiment cell: a scenario configuration to run at many seeds.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// Label for manifests and error reports (e.g. `"fig9 m=2 liteworp"`).
    pub label: String,
    /// The configuration; its `seed` field is ignored (each job gets a
    /// derived seed).
    pub scenario: Scenario,
    /// Independent seeds to run.
    pub seeds: u64,
    /// Offset added to the seed index (kept from the serial harness for
    /// provenance; distinctness comes from the derived seed).
    pub seed_base: u64,
    /// Simulated duration in seconds.
    pub duration: f64,
    /// Instants (seconds, ascending, ≤ `duration`) at which cumulative
    /// wormhole drops are sampled into [`SeedOutcome::drops_at`].
    pub sample_times: Vec<f64>,
}

impl SimCell {
    /// A cell with no intermediate sampling.
    pub fn snapshot(
        label: impl Into<String>,
        scenario: Scenario,
        seeds: u64,
        seed_base: u64,
        duration: f64,
    ) -> Self {
        SimCell {
            label: label.into(),
            scenario,
            seeds,
            seed_base,
            duration,
            sample_times: Vec::new(),
        }
    }

    /// The canonical description this cell is cached and seeded under.
    pub fn descriptor(&self) -> String {
        let mut canon = self.scenario.clone();
        canon.seed = 0;
        format!(
            "{canon:?}|duration={}|samples={:?}",
            self.duration, self.sample_times
        )
    }
}

/// Everything a figure or table needs from one simulated seed.
///
/// Deliberately universal: every experiment extracts its metrics from the
/// same outcome type, so one cached run serves any experiment that asks
/// the same scenario question.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedOutcome {
    /// Cumulative wormhole drops at each of the cell's `sample_times`.
    pub drops_at: Vec<f64>,
    /// Final cumulative data packets swallowed by the wormhole.
    pub drops: f64,
    /// Data packets originated network-wide.
    pub data_sent: f64,
    /// Established routes, total.
    pub routes_total: f64,
    /// Established routes relayed by a colluder.
    pub routes_malicious: f64,
    /// Whether every colluder was detected somewhere.
    pub all_detected: bool,
    /// Seconds from attack start to the first isolation event.
    pub first_detection_latency: Option<f64>,
    /// Seconds from attack start to complete isolation, if it completed.
    pub isolation_latency: Option<f64>,
    /// Honest nodes falsely isolated anywhere in the network.
    pub false_isolations: f64,
    /// Fraction of frame receptions lost to collisions — the measured
    /// `P_C` the closed-form detection model takes as its one free
    /// parameter (see `tests/differential_detection.rs` and the
    /// `scale_sweep` experiment).
    pub collision_fraction: f64,
}

impl CacheValue for SeedOutcome {
    fn to_json(&self) -> Json {
        Json::object([
            (
                "drops_at",
                Json::Arr(self.drops_at.iter().map(|&d| Json::from(d)).collect()),
            ),
            ("drops", Json::from(self.drops)),
            ("data_sent", Json::from(self.data_sent)),
            ("routes_total", Json::from(self.routes_total)),
            ("routes_malicious", Json::from(self.routes_malicious)),
            ("all_detected", Json::from(self.all_detected)),
            (
                "first_detection_latency",
                Json::from(self.first_detection_latency),
            ),
            ("isolation_latency", Json::from(self.isolation_latency)),
            ("false_isolations", Json::from(self.false_isolations)),
            ("collision_fraction", Json::from(self.collision_fraction)),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        let f = |k: &str| json.get(k)?.as_f64();
        let opt = |k: &str| match json.get(k) {
            Some(Json::Null) | None => Some(None),
            Some(v) => v.as_f64().map(Some),
        };
        Some(SeedOutcome {
            drops_at: json
                .get("drops_at")?
                .as_arr()?
                .iter()
                .map(|v| v.as_f64())
                .collect::<Option<Vec<_>>>()?,
            drops: f("drops")?,
            data_sent: f("data_sent")?,
            routes_total: f("routes_total")?,
            routes_malicious: f("routes_malicious")?,
            all_detected: json.get("all_detected")?.as_bool()?,
            first_detection_latency: opt("first_detection_latency")?,
            isolation_latency: opt("isolation_latency")?,
            false_isolations: f("false_isolations")?,
            collision_fraction: f("collision_fraction")?,
        })
    }
}

/// Execution options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads (`None` = `LITEWORP_JOBS` env or all cores).
    pub jobs: Option<usize>,
    /// Use the on-disk result cache.
    pub cache: bool,
    /// Cache directory override (`None` = `results/cache`).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Retries after a job's first failed attempt (`--max-retries`).
    pub max_retries: u32,
    /// Per-job deadline in *simulated* seconds (`--job-deadline`).
    pub job_deadline_secs: Option<f64>,
    /// Write-ahead sweep journal path (`--journal`).
    pub journal: Option<std::path::PathBuf>,
    /// Resume finished jobs from the journal (`--resume`).
    pub resume: bool,
    /// Probability of injected transient engine faults per job
    /// (`--engine-faults`; exercises the supervisor, recovered by
    /// retries).
    pub engine_faults: f64,
    /// Seed of the engine-fault plan (`--engine-fault-seed`).
    pub engine_fault_seed: u64,
}

impl Default for ExecOptions {
    /// All supervision features off and no cache — the in-process
    /// default for library callers and tests. Binaries get the cache-on
    /// default via [`ExecOptions::from_flags`].
    fn default() -> Self {
        ExecOptions {
            jobs: None,
            cache: false,
            cache_dir: None,
            max_retries: 0,
            job_deadline_secs: None,
            journal: None,
            resume: false,
            engine_faults: 0.0,
            engine_fault_seed: 0,
        }
    }
}

impl ExecOptions {
    /// Reads the execution flags shared by every experiment binary:
    /// `--jobs N`, `--no-cache`, `--cache-dir <dir>`, `--max-retries N`,
    /// `--job-deadline <sim-secs>`, `--journal <path>`, `--resume`,
    /// `--engine-faults <p>`, `--engine-fault-seed N`. The cache is on by
    /// default for binaries (interrupted sweeps resume).
    pub fn from_flags(flags: &crate::cli::Flags) -> Self {
        let journal = flags.get_str("journal").map(std::path::PathBuf::from);
        let resume = flags.get_bool("resume");
        if resume && journal.is_none() {
            eprintln!("warning: --resume has no effect without --journal <path>");
        }
        ExecOptions {
            jobs: flags.get_opt_usize("jobs"),
            cache: !flags.get_bool("no-cache"),
            cache_dir: flags.get_str("cache-dir").map(std::path::PathBuf::from),
            max_retries: flags.get_u64("max-retries", 0) as u32,
            job_deadline_secs: flags.get_opt_f64("job-deadline"),
            journal,
            resume,
            engine_faults: flags.get_f64("engine-faults", 0.0),
            engine_fault_seed: flags.get_u64("engine-fault-seed", 0),
        }
    }

    /// Runs `cells` as one sweep on a one-shot engine built from these
    /// options. The engine gets `min(--jobs, job count)` workers, so no
    /// thread idles for the whole sweep.
    pub(crate) fn sweep<C: Cell>(&self, cells: &[C]) -> (Vec<Vec<C::Outcome>>, Manifest) {
        let jobs: usize = cells.iter().map(|c| c.seeds().count()).sum();
        let threads = resolve_threads(self.jobs).min(jobs.max(1));
        let cache = self.cache.then(|| {
            ResultCache::new(
                self.cache_dir
                    .clone()
                    .unwrap_or_else(ResultCache::default_dir),
            )
        });
        let engine = SweepEngine::new(Some(threads), cache, SIM_CODE_VERSION);
        let hook = self
            .engine_fault_plan()
            .map(|plan| Arc::new(plan) as Arc<dyn JobFaultHook + Send + Sync>);
        sweep_cells(&engine, cells, &self.supervision(), hook, None)
    }

    pub(crate) fn supervision(&self) -> Supervision {
        Supervision {
            max_retries: self.max_retries,
            journal: self.journal.clone(),
            resume: self.resume,
            ..Supervision::default()
        }
        .with_deadline_secs(self.job_deadline_secs)
    }

    /// The engine-fault hook, when `--engine-faults` is positive.
    pub(crate) fn engine_fault_plan(&self) -> Option<EngineFaultPlan> {
        (self.engine_faults > 0.0)
            .then(|| EngineFaultPlan::transient(self.engine_fault_seed, self.engine_faults))
    }
}

/// A multi-seed cell [`sweep_cells`] can run: each seed becomes one job
/// under the cell's canonical descriptor.
pub(crate) trait Cell: Clone + Send + Sync + 'static {
    /// What one seed produces.
    type Outcome: CacheValue + Send + 'static;
    /// Label for manifests and error reports.
    fn label(&self) -> &str;
    /// The canonical description the cell is cached and seeded under.
    fn descriptor(&self) -> String;
    /// The seed indices to run.
    fn seeds(&self) -> Range<u64>;
    /// Simulates one seed under its derived RNG seed.
    fn execute(&self, derived_seed: u64, ctx: &JobContext) -> Result<Self::Outcome, JobFailure>;
}

/// Runs every seed of every cell as one sweep on `engine` and groups the
/// results back per cell, in seed order.
///
/// A seed that still fails after its retry budget (e.g. no connected
/// deployment found, or a deadline overrun) is quarantined: reported on
/// stderr with its reproducer seed and dropped from its cell's outcomes,
/// while the manifest's `failures` block records it.
pub(crate) fn sweep_cells<C: Cell>(
    engine: &SweepEngine,
    cells: &[C],
    sup: &Supervision,
    hook: Option<Arc<dyn JobFaultHook + Send + Sync>>,
    observer: Option<Arc<ProgressObserver>>,
) -> (Vec<Vec<C::Outcome>>, Manifest) {
    let mut specs = Vec::new();
    let mut lookup: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for (c, cell) in cells.iter().enumerate() {
        let descriptor = cell.descriptor();
        for seed in cell.seeds() {
            let spec = JobSpec {
                label: format!("{} seed={seed}", cell.label()),
                scenario: descriptor.clone(),
                seed,
            };
            lookup.insert((spec.scenario_hash(), spec.seed), c);
            specs.push(spec);
        }
    }
    let owned = cells.to_vec();
    let exec: Arc<SweepExec<C::Outcome>> = Arc::new(move |job, derived, ctx| {
        owned[lookup[&(job.scenario_hash(), job.seed)]].execute(derived, ctx)
    });
    let report = engine.run_sweep(sup, specs, hook, exec, observer);

    let mut results = report.results.into_iter();
    let outcomes = cells
        .iter()
        .map(|cell| {
            let mut kept = Vec::new();
            for result in results.by_ref().take(cell.seeds().count()) {
                match result {
                    Ok(outcome) => kept.push(outcome),
                    Err(e) => eprintln!("warning: {e}; excluded from aggregates"),
                }
            }
            kept
        })
        .collect();
    (outcomes, report.manifest)
}

impl Cell for SimCell {
    type Outcome = SeedOutcome;

    fn label(&self) -> &str {
        &self.label
    }

    fn descriptor(&self) -> String {
        SimCell::descriptor(self)
    }

    fn seeds(&self) -> Range<u64> {
        self.seed_base..self.seed_base + self.seeds
    }

    fn execute(&self, derived_seed: u64, ctx: &JobContext) -> Result<SeedOutcome, JobFailure> {
        execute(self, derived_seed, ctx)
    }
}

/// Results of a cell batch: the successful outcomes of cell `i` in seed
/// order at `outcomes[i]`, plus the run manifest.
#[derive(Debug)]
pub struct CellRun {
    /// Per-cell successful outcomes, in seed order.
    pub outcomes: Vec<Vec<SeedOutcome>>,
    /// What the runner did (timings, cache hits, utilization).
    pub manifest: Manifest,
}

/// Runs every seed of every cell on a one-shot [`SweepEngine`] built from
/// `opts` and groups the results back per cell.
///
/// Execution is supervised per [`ExecOptions`]: jobs get retries,
/// sim-time deadlines, optional journaling, and the `--engine-faults`
/// hook. A seed that still fails after its retry budget is reported on
/// stderr with its reproducer seed and dropped from its cell's outcomes;
/// the manifest's `failures` block records it.
pub fn run_cells(cells: &[SimCell], opts: &ExecOptions) -> CellRun {
    let (outcomes, manifest) = opts.sweep(cells);
    CellRun { outcomes, manifest }
}

/// Runs every seed of every cell on a warm [`SweepEngine`] — the service
/// path. The jobs, derived seeds, and cache keys are identical to
/// [`run_cells`], so a request served by a daemon reproduces the exact
/// `results_digest` of the batch bins. The observer, if any, sees each
/// job as it settles.
pub fn run_cells_on(
    engine: &SweepEngine,
    cells: &[SimCell],
    sup: &Supervision,
    observer: Option<Arc<ProgressObserver>>,
) -> CellRun {
    let (outcomes, manifest) = sweep_cells(engine, cells, sup, None, observer);
    CellRun { outcomes, manifest }
}

/// Summarizes one metric over a cell's outcomes.
pub fn summarize(outcomes: &[SeedOutcome], metric: impl Fn(&SeedOutcome) -> f64) -> Summary {
    let xs: Vec<f64> = outcomes.iter().map(metric).collect();
    Summary::of(&xs)
}

fn execute(cell: &SimCell, derived_seed: u64, ctx: &JobContext) -> Result<SeedOutcome, JobFailure> {
    let _job = obs::span("job");
    let mut scenario = cell.scenario.clone();
    scenario.seed = derived_seed;
    let mut run = {
        let _span = obs::span("neighbor_discovery");
        scenario.build()
    };
    let outcome = run_cell(cell, &mut run, ctx)?;
    // Counted after the outcome is read, so a reader that builds lazy
    // nodes shows in the count `scale_sweep --smoke` prints.
    obs::counter("scenario.nodes_built").add(run.sim().built_nodes() as u64);
    Ok(outcome)
}

/// Steps a built run through the cell's sample times and duration, then
/// reads its outcome.
fn run_cell(
    cell: &SimCell,
    run: &mut ScenarioRun,
    ctx: &JobContext,
) -> Result<SeedOutcome, JobFailure> {
    let mut drops_at = Vec::with_capacity(cell.sample_times.len());
    for &t in &cell.sample_times {
        ctx.charge_sim_to_secs(t)?;
        {
            let _span = obs::span("event_loop");
            run.run_until_secs(t);
        }
        drops_at.push(run.wormhole_dropped() as f64);
    }
    // Step the tail in chunks, charging sim time before each, so a
    // `--job-deadline` binds mid-run instead of only at the end. The
    // chunk boundaries are a pure function of the cell (duration / 8),
    // and the event queue processes identically under incremental
    // deadlines, so results stay byte-identical with or without a budget.
    let mut t = cell.sample_times.last().copied().unwrap_or(0.0);
    let chunk = (cell.duration / 8.0).max(1.0);
    while t < cell.duration {
        t = (t + chunk).min(cell.duration);
        ctx.charge_sim_to_secs(t)?;
        let _span = obs::span("event_loop");
        run.run_until_secs(t);
    }
    Ok(outcome(run, drops_at))
}

/// Reads a finished run's outcome. Builds no lazy node: every reader
/// looks at built nodes, the trace or the metrics only.
fn outcome(run: &ScenarioRun, drops_at: Vec<f64>) -> SeedOutcome {
    let (routes_total, routes_malicious) = run.route_counts();
    let first_detection_latency = run
        .sim()
        .trace()
        .first_isolation_time()
        .map(|t| t.saturating_since(run.attack_start()).as_secs_f64());
    let malicious: Vec<u32> = run.malicious().iter().map(|m| m.0).collect();
    let falsely_isolated: BTreeSet<u32> = run
        .sim()
        .trace()
        .isolations()
        .filter(|i| !malicious.contains(&i.suspect.0))
        .map(|i| i.suspect.0)
        .collect();
    SeedOutcome {
        drops_at,
        drops: run.wormhole_dropped() as f64,
        data_sent: run.data_sent() as f64,
        routes_total: routes_total as f64,
        routes_malicious: routes_malicious as f64,
        all_detected: run.all_detected(),
        first_detection_latency,
        isolation_latency: run.isolation_latency_secs(),
        false_isolations: falsely_isolated.len() as f64,
        collision_fraction: run.sim().metrics().collision_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_ignores_seed_but_not_config() {
        let cell = |seed, nodes| {
            SimCell::snapshot(
                "t",
                Scenario {
                    nodes,
                    seed,
                    ..Scenario::default()
                },
                1,
                0,
                100.0,
            )
        };
        assert_eq!(cell(1, 30).descriptor(), cell(2, 30).descriptor());
        assert_ne!(cell(1, 30).descriptor(), cell(1, 40).descriptor());
        let mut timed = cell(1, 30);
        timed.sample_times = vec![50.0];
        assert_ne!(timed.descriptor(), cell(1, 30).descriptor());
    }

    #[test]
    fn seed_outcome_round_trips_through_json() {
        let outcome = SeedOutcome {
            drops_at: vec![1.0, 2.5],
            drops: 2.5,
            data_sent: 100.0,
            routes_total: 12.0,
            routes_malicious: 3.0,
            all_detected: true,
            first_detection_latency: Some(4.25),
            isolation_latency: None,
            false_isolations: 0.0,
            collision_fraction: 0.125,
        };
        let json = outcome.to_json();
        let parsed = Json::parse(&json.dump()).unwrap();
        assert_eq!(SeedOutcome::from_json(&parsed), Some(outcome));
    }

    #[test]
    fn zero_cells_run_on_one_idle_thread() {
        let run = run_cells(&[], &ExecOptions::default());
        assert!(run.outcomes.is_empty());
        assert_eq!(run.manifest.jobs, 0);
        assert_eq!(run.manifest.threads, 1, "no point spawning idle workers");
    }

    #[test]
    fn small_batch_runs_and_groups_by_cell() {
        let base = Scenario {
            nodes: 20,
            malicious: 0,
            ..Scenario::default()
        };
        let cells = vec![
            SimCell::snapshot("clean a", base.clone(), 2, 0, 60.0),
            SimCell::snapshot("clean b", base, 1, 100, 60.0),
        ];
        let opts = ExecOptions {
            jobs: Some(16),
            ..ExecOptions::default()
        };
        let run = run_cells(&cells, &opts);
        assert_eq!(run.outcomes.len(), 2);
        assert_eq!(run.outcomes[0].len(), 2);
        assert_eq!(run.outcomes[1].len(), 1);
        assert_eq!(run.manifest.jobs, 3);
        assert_eq!(run.manifest.threads, 3, "threads clamp to the job count");
        assert_eq!(run.manifest.utilization.len(), 3);
        for o in run.outcomes.iter().flatten() {
            assert_eq!(o.drops, 0.0, "no attackers, no wormhole drops");
            assert!(o.data_sent > 0.0, "traffic should flow");
        }
    }

    /// Scale-sweep-style runs (2 000 nodes, 16 capped sources, TTL-scoped
    /// discovery) with their idle relays lazy give exactly the run of the
    /// same scenario with every node built before start: the same
    /// metrics, trace and outcome, clean and under a fault plan that
    /// drops, corrupts, duplicates and delays receptions, crashes nodes
    /// (some of them lazy relays) and skews clocks. The outcome readers
    /// build no node.
    #[test]
    fn lazy_relays_give_the_run_of_nodes_built_up_front() {
        use crate::experiments::scale_sweep::{scenario_for, ScaleSweepConfig};
        use liteworp_chaos::{ClockDrift, CrashWindow, FaultPlan, Injector};
        use liteworp_netsim::field::NodeId as SimId;

        const NODES: usize = 2_000;
        let cfg = ScaleSweepConfig {
            traffic_sources: 16,
            ..ScaleSweepConfig::default()
        };
        let cell = SimCell::snapshot("lazy", scenario_for(&cfg, NODES), 1, 0, 120.0);
        let crash = |node, from_s: u64, until_s: u64| CrashWindow {
            node,
            from_us: from_s * 1_000_000,
            until_us: until_s * 1_000_000,
        };
        let chaos = FaultPlan {
            seed: 5,
            drop: 0.02,
            corrupt: 0.02,
            duplicate: 0.02,
            delay: 0.02,
            max_jitter_us: 50_000,
            crashes: vec![crash(3, 20, 60), crash(700, 0, 80), crash(1_500, 55, 90)],
            drifts: vec![
                ClockDrift { node: 1, ppm: 150 },
                ClockDrift {
                    node: 900,
                    ppm: -150,
                },
            ],
        };
        chaos.validate().expect("plan within documented bounds");
        for seed in [3, 4, 5] {
            for plan in [None, Some(&chaos)] {
                let build = || {
                    let mut scenario = cell.scenario.clone();
                    scenario.seed = seed;
                    let mut run = scenario.build();
                    if let Some(plan) = plan {
                        run.sim_mut()
                            .set_fault_hook(Box::new(Injector::new(plan.clone())));
                    }
                    run
                };
                let mut eager = build();
                for i in 0..NODES {
                    eager.sim().logic(SimId(i as u32));
                }
                assert_eq!(eager.sim().built_nodes(), NODES);
                let eager_outcome = run_cell(&cell, &mut eager, &JobContext::unsupervised())
                    .expect("unsupervised runs have no deadline");

                let mut lazy = build();
                assert!(lazy.sim().built_nodes() < NODES / 10);
                lazy.run_until_secs(cell.duration);
                let built = lazy.sim().built_nodes();
                let lazy_outcome = outcome(&lazy, Vec::new());
                assert_eq!(
                    lazy.sim().built_nodes(),
                    built,
                    "an outcome reader built a node"
                );
                assert!(built < NODES, "seed {seed}: every relay was needed");

                let case = format!("seed {seed}, fault plan {}", plan.is_some());
                assert_eq!(eager.sim().metrics(), lazy.sim().metrics(), "{case}");
                assert!(
                    eager.sim().trace().events().eq(lazy.sim().trace().events()),
                    "{case}"
                );
                assert_eq!(eager_outcome, lazy_outcome, "{case}");
            }
        }
    }
}
