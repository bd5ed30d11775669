//! Bridges chaos runs (scenario × fault plan) to the runner engine.
//!
//! Mirrors [`crate::exec`]: a [`ChaosCell`] describes one scenario
//! configuration under one [`FaultPlan`](liteworp_chaos::FaultPlan) at
//! many seeds; [`run_chaos_cells`] executes all seeds through the same
//! sweep routine as [`crate::exec::run_cells`], behind the result cache.
//! The fault plan's descriptor is folded into the cell descriptor, so
//! cached outcomes are keyed by the *complete* (scenario, plan) identity
//! and any plan change re-runs.

use crate::exec::{Cell, ExecOptions};
use crate::scenario::Scenario;
use liteworp_chaos::{check, Immunity, Injector, OracleConfig, Violation};
use liteworp_runner::supervisor::{JobContext, JobFailure};
use liteworp_runner::{CacheValue, Json, Manifest};
use std::ops::Range;

/// One chaos cell: a scenario under a fault plan, at many seeds.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Label for manifests and reports.
    pub label: String,
    /// The scenario; its `seed` field is ignored (derived per job).
    pub scenario: Scenario,
    /// The fault plan injected into every seed of this cell.
    pub plan: liteworp_chaos::FaultPlan,
    /// Independent seeds to run.
    pub seeds: u64,
    /// Offset added to the seed index.
    pub seed_base: u64,
    /// Simulated duration in seconds.
    pub duration: f64,
    /// How strictly the oracle holds honest nodes immune in this cell.
    pub immunity: Immunity,
}

impl ChaosCell {
    /// The canonical description this cell is cached and seeded under.
    pub fn descriptor(&self) -> String {
        let mut canon = self.scenario.clone();
        canon.seed = 0;
        format!(
            "chaos|{canon:?}|plan={}|duration={}|immunity={:?}",
            self.plan.descriptor(),
            self.duration,
            self.immunity
        )
    }
}

/// Everything the fuzzer needs from one chaos-injected seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Invariant violations the oracle found, in event order.
    pub violations: Vec<Violation>,
    /// Events replayed by the oracle.
    pub events: u64,
    /// `Isolated` events (all flavors).
    pub isolations: u64,
    /// Honest suspects locally accused (tolerated noise under
    /// network-wide immunity).
    pub honest_local_accusations: u64,
    /// `MalcIncrement` events.
    pub malc_increments: u64,
    /// Watch-buffer expiry sweeps.
    pub watch_expiries: u64,
    /// Whether every colluder was detected (attack cells only).
    pub all_detected: bool,
}

impl CacheValue for ChaosOutcome {
    fn to_json(&self) -> Json {
        Json::object([
            (
                "violations",
                Json::Arr(self.violations.iter().map(|v| v.to_json()).collect()),
            ),
            ("events", Json::from(self.events)),
            ("isolations", Json::from(self.isolations)),
            (
                "honest_local_accusations",
                Json::from(self.honest_local_accusations),
            ),
            ("malc_increments", Json::from(self.malc_increments)),
            ("watch_expiries", Json::from(self.watch_expiries)),
            ("all_detected", Json::from(self.all_detected)),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        let u = |k: &str| json.get(k)?.as_u64();
        Some(ChaosOutcome {
            violations: json
                .get("violations")?
                .as_arr()?
                .iter()
                .map(Violation::from_json)
                .collect::<Option<Vec<_>>>()?,
            events: u("events")?,
            isolations: u("isolations")?,
            honest_local_accusations: u("honest_local_accusations")?,
            malc_increments: u("malc_increments")?,
            watch_expiries: u("watch_expiries")?,
            all_detected: json.get("all_detected")?.as_bool()?,
        })
    }
}

/// Results of a chaos batch, grouped per cell in seed order.
#[derive(Debug)]
pub struct ChaosRun {
    /// Per-cell successful outcomes.
    pub outcomes: Vec<Vec<ChaosOutcome>>,
    /// What the runner did.
    pub manifest: Manifest,
}

impl Cell for ChaosCell {
    type Outcome = ChaosOutcome;

    fn label(&self) -> &str {
        &self.label
    }

    fn descriptor(&self) -> String {
        ChaosCell::descriptor(self)
    }

    fn seeds(&self) -> Range<u64> {
        self.seed_base..self.seed_base + self.seeds
    }

    fn execute(&self, derived_seed: u64, ctx: &JobContext) -> Result<ChaosOutcome, JobFailure> {
        execute_chaos_supervised(self, derived_seed, ctx)
    }
}

/// Runs every seed of every chaos cell as one sweep, grouped per cell.
pub fn run_chaos_cells(cells: &[ChaosCell], opts: &ExecOptions) -> ChaosRun {
    let (outcomes, manifest) = opts.sweep(cells);
    ChaosRun { outcomes, manifest }
}

/// Builds, faults, runs, and oracle-checks one seed of a chaos cell.
///
/// Public so the shrinking loop can re-execute single candidates
/// synchronously without going through a sweep.
pub fn execute_chaos(cell: &ChaosCell, derived_seed: u64) -> ChaosOutcome {
    match execute_chaos_supervised(cell, derived_seed, &JobContext::unsupervised()) {
        Ok(outcome) => outcome,
        // Invariant: an unsupervised context has no deadline, so the
        // supervised body cannot fail.
        Err(failure) => unreachable!("unsupervised chaos run failed: {failure}"),
    }
}

/// The supervised job body: like [`execute_chaos`] but charging simulated
/// time to `ctx` in chunks, so a `--job-deadline` can cut a hung or
/// oversized chaos run short deterministically.
pub fn execute_chaos_supervised(
    cell: &ChaosCell,
    derived_seed: u64,
    ctx: &JobContext,
) -> Result<ChaosOutcome, JobFailure> {
    let mut scenario = cell.scenario.clone();
    scenario.seed = derived_seed;
    let mut run = scenario.build();
    if !cell.plan.is_null() {
        run.sim_mut()
            .set_fault_hook(Box::new(Injector::new(cell.plan.clone())));
    }
    // Chunked stepping mirrors `exec::execute`: boundaries are a pure
    // function of the cell, and the event queue behaves identically under
    // incremental deadlines, so results are unchanged.
    let chunk = (cell.duration / 8.0).max(1.0);
    let mut t = 0.0;
    while t < cell.duration {
        t = (t + chunk).min(cell.duration);
        ctx.charge_sim_to_secs(t)?;
        run.run_until_secs(t);
    }
    let malicious: Vec<u32> = run.malicious().iter().map(|m| m.0).collect();
    let oracle = OracleConfig::from_protocol(&scenario.liteworp, &malicious, cell.immunity);
    let (violations, stats) = check(run.sim().trace().log(), &oracle);
    Ok(ChaosOutcome {
        violations,
        events: stats.events,
        isolations: stats.isolations,
        honest_local_accusations: stats.honest_local_accusations,
        malc_increments: stats.malc_increments,
        watch_expiries: stats.watch_expiries,
        all_detected: run.all_detected(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteworp_chaos::{FaultPlan, Invariant};

    fn cell(malicious: usize, plan: FaultPlan, immunity: Immunity) -> ChaosCell {
        ChaosCell {
            label: "test".into(),
            scenario: Scenario {
                nodes: 25,
                malicious,
                protected: true,
                ..Scenario::default()
            },
            plan,
            seeds: 1,
            seed_base: 0,
            duration: 200.0,
            immunity,
        }
    }

    #[test]
    fn descriptor_covers_the_plan() {
        let a = cell(0, FaultPlan::default(), Immunity::Strict);
        let mut b = cell(0, FaultPlan::default(), Immunity::Strict);
        b.plan.drop = 0.01;
        assert_ne!(a.descriptor(), b.descriptor());
        let mut c = cell(0, FaultPlan::default(), Immunity::Strict);
        c.immunity = Immunity::Off;
        assert_ne!(a.descriptor(), c.descriptor());
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let outcome = ChaosOutcome {
            violations: vec![Violation {
                invariant: Invariant::AlertQuorum,
                time_us: 12,
                node: 3,
                detail: "example".into(),
            }],
            events: 100,
            isolations: 2,
            honest_local_accusations: 1,
            malc_increments: 5,
            watch_expiries: 4,
            all_detected: false,
        };
        let parsed = Json::parse(&outcome.to_json().dump()).unwrap();
        assert_eq!(ChaosOutcome::from_json(&parsed), Some(outcome));
    }

    #[test]
    fn attack_run_with_null_plan_is_invariant_clean() {
        // End-to-end oracle check of a real wormhole detection run: the
        // full protocol event stream must be legal.
        let outcome = execute_chaos(&cell(2, FaultPlan::default(), Immunity::Off), 42);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert!(outcome.events > 0);
        assert!(outcome.isolations > 0, "wormhole should be detected");
    }

    #[test]
    fn attack_free_run_is_strictly_clean() {
        let outcome = execute_chaos(&cell(0, FaultPlan::default(), Immunity::Strict), 7);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert_eq!(outcome.isolations, 0);
    }
}
