//! Integration tests of the execution engine: determinism across thread
//! counts, cache round-trips on disk, and failure isolation — the three
//! contracts the experiment harness builds on.

use liteworp_runner::{
    CacheValue, JobContext, JobFailure, JobSpec, Json, Pcg32, ResultCache, Rng, RunReport, Summary,
    Supervision, SweepEngine,
};
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq)]
struct Sample {
    value: f64,
}

impl CacheValue for Sample {
    fn to_json(&self) -> Json {
        Json::Obj(vec![("value".to_string(), Json::Num(self.value))])
    }
    fn from_json(json: &Json) -> Option<Self> {
        Some(Sample {
            value: json.get("value")?.as_f64()?,
        })
    }
}

fn jobs(n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|seed| JobSpec {
            label: format!("job {seed}"),
            scenario: "scenario-x".to_string(),
            seed,
        })
        .collect()
}

/// A pseudo-experiment: derive the job's RNG exactly as a real
/// simulation would and draw from it.
fn execute(spec: &JobSpec, derived_seed: u64) -> Sample {
    assert_eq!(derived_seed, spec.derived_seed());
    let mut rng = Pcg32::seed_from_u64(derived_seed);
    Sample {
        value: rng.gen_f64(),
    }
}

/// Runs `jobs` as one sweep on a fresh engine of `threads` workers.
fn run(
    threads: usize,
    cache: Option<ResultCache>,
    jobs: Vec<JobSpec>,
    body: impl Fn(&JobSpec, u64) -> Sample + Send + Sync + 'static,
) -> RunReport<Sample> {
    let exec =
        move |spec: &JobSpec, seed: u64, _: &JobContext| Ok::<_, JobFailure>(body(spec, seed));
    SweepEngine::new(Some(threads), cache, "it-1").run_sweep(
        &Supervision::default(),
        jobs,
        None,
        Arc::new(exec),
        None,
    )
}

#[test]
fn aggregates_are_identical_across_thread_counts() {
    let values_at = |threads| {
        let report = run(threads, None, jobs(16), execute);
        let values: Vec<f64> = report.successes().map(|s| s.value).collect();
        (values.clone(), Summary::of(&values))
    };
    let (v1, s1) = values_at(1);
    let (v4, s4) = values_at(4);
    assert_eq!(v1, v4, "per-job results must not depend on thread count");
    assert_eq!(s1.mean.to_bits(), s4.mean.to_bits());
    assert_eq!(s1.std_dev.to_bits(), s4.std_dev.to_bits());
    assert_eq!(s1.ci95.to_bits(), s4.ci95.to_bits());
}

#[test]
fn cache_round_trip_hits_every_job_on_rerun() {
    let dir = std::env::temp_dir().join(format!("liteworp-runner-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = || Some(ResultCache::new(&dir));
    let first = run(2, cache(), jobs(8), execute);
    assert_eq!(first.manifest.cache_hits, 0);
    assert_eq!(first.manifest.cache_misses, 8);

    let second = run(2, cache(), jobs(8), |spec, seed| -> Sample {
        panic!("must not execute on a warm cache: {spec:?} {seed}")
    });
    assert_eq!(second.manifest.cache_hits, 8);
    assert_eq!(second.manifest.cache_misses, 0);
    let a: Vec<f64> = first.successes().map(|s| s.value).collect();
    let b: Vec<f64> = second.successes().map(|s| s.value).collect();
    assert_eq!(a, b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_jobs_are_isolated_and_reported() {
    let report = run(3, None, jobs(9), |spec, seed| {
        if spec.seed % 3 == 1 {
            panic!("seed {} refuses to run", spec.seed);
        }
        execute(spec, seed)
    });
    assert_eq!(report.manifest.failed, 3);
    assert_eq!(report.successes().count(), 6);
    for (i, res) in report.results.iter().enumerate() {
        if i as u64 % 3 == 1 {
            let err = res.as_ref().expect_err("job should have failed");
            assert!(err.message().contains("refuses to run"), "{err}");
        } else {
            assert!(res.is_ok());
        }
    }
}
