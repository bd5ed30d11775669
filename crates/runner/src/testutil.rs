//! Fixtures shared by the runner's unit tests: a cacheable value, a job
//! batch, and one-call sweeps on a fresh [`SweepEngine`].

use crate::cache::ResultCache;
use crate::engine::{CacheValue, JobSpec, RunReport};
use crate::json::Json;
use crate::service::{SweepEngine, SweepExec};
use crate::supervisor::{JobContext, JobFailure, JobFaultHook, Supervision};
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Val(pub(crate) f64);

impl CacheValue for Val {
    fn to_json(&self) -> Json {
        Json::object([("v", Json::from(self.0))])
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.get("v")?.as_f64().map(Val)
    }
}

/// `n` jobs of one scenario, labelled `cell seed=<seed>`.
pub(crate) fn jobs(scenario: &str, n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|seed| JobSpec {
            label: format!("cell seed={seed}"),
            scenario: scenario.into(),
            seed,
        })
        .collect()
}

/// Wraps a job body as the engine's shared executor.
pub(crate) fn exec(
    f: impl Fn(&JobSpec, u64, &JobContext) -> Result<Val, JobFailure> + Send + Sync + 'static,
) -> Arc<SweepExec<Val>> {
    Arc::new(f)
}

/// A body whose value depends on both the seed and the derived seed.
pub(crate) fn val_exec() -> Arc<SweepExec<Val>> {
    exec(|j, derived, _| Ok(Val((j.seed as f64) + (derived % 7) as f64)))
}

/// Runs one sweep on a fresh engine with `threads` workers.
pub(crate) fn sweep(
    threads: usize,
    cache: Option<ResultCache>,
    sup: &Supervision,
    jobs: &[JobSpec],
    hook: Option<Arc<dyn JobFaultHook + Send + Sync>>,
    exec: &Arc<SweepExec<Val>>,
) -> RunReport<Val> {
    SweepEngine::new(Some(threads), cache, "test-v1").run_sweep(
        sup,
        jobs.to_vec(),
        hook,
        Arc::clone(exec),
        None,
    )
}
