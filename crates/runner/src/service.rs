//! The sweep engine: the one place jobs execute.
//!
//! [`SweepEngine`] owns a [`TaskPool`] plus an optional result cache and
//! multiplexes any number of concurrent [`SweepEngine::run_sweep`] calls
//! over them: every sweep's jobs land on the same workers, hit the same
//! content-addressed cache, and journal to their own WAL for crash
//! resume. A daemon keeps one warm engine for its whole life; a one-shot
//! experiment bin builds an engine sized to its batch and drops it after
//! one sweep.
//!
//! Each job runs inside the [`crate::supervisor`] envelope, and each
//! sweep's report is assembled in its own job order, so a sweep's
//! `results_digest` is the same at any thread count and regardless of
//! what else the engine is serving.

use crate::cache::ResultCache;
use crate::engine::{CacheValue, JobSpec, RunReport};
use crate::journal::{sweep_id, JournalEntry, SweepJournal};
use crate::supervisor::{
    build_report, job_keys, open_journal, supervise_one, FinishedJob, JobContext, JobFailure,
    JobFaultHook, Source, Supervision,
};
use crate::task_pool::{panic_message, resolve_threads, TaskPool};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Progress of one job inside a sweep, reported to the observer as soon
/// as the job settles (in completion order, not job order).
#[derive(Debug, Clone)]
pub struct JobProgress {
    /// Index of the job within its sweep.
    pub index: usize,
    /// Total jobs in the sweep.
    pub total: usize,
    /// The job's label.
    pub label: String,
    /// Seed index of the job.
    pub seed: u64,
    /// Whether the job produced a result (false = quarantined).
    pub ok: bool,
    /// Whether the result came from the shared cache.
    pub cached: bool,
    /// Whether the result was replayed from the resume journal.
    pub journaled: bool,
}

/// The type a sweep observer must have: called once per settled job,
/// possibly from several worker threads at once.
pub type ProgressObserver = dyn Fn(JobProgress) + Send + Sync;

/// The job body a service sweep executes, shared across worker threads.
pub type SweepExec<T> = dyn Fn(&JobSpec, u64, &JobContext) -> Result<T, JobFailure> + Send + Sync;

/// The execution engine: one pool, one cache, many sweeps.
pub struct SweepEngine {
    pool: TaskPool,
    cache: Option<ResultCache>,
    code_version: String,
}

impl SweepEngine {
    /// Builds an engine with `threads` workers (`None` resolves via
    /// `LITEWORP_JOBS` / core count), an optional shared result cache,
    /// and the code version folded into every cache key.
    pub fn new(threads: Option<usize>, cache: Option<ResultCache>, code_version: &str) -> Self {
        SweepEngine {
            pool: TaskPool::new(resolve_threads(threads)),
            cache,
            code_version: code_version.to_string(),
        }
    }

    /// Worker threads the engine multiplexes sweeps over.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The code version folded into cache keys.
    pub fn code_version(&self) -> &str {
        &self.code_version
    }

    /// Executes one sweep on the pool and blocks until it drains.
    ///
    /// Per job, in order: resume-journal replay, verified cache lookup
    /// (corrupt entries quarantined and recomputed), then up to
    /// `1 + max_retries` attempts of `exec(job, derived_seed, ctx)` with
    /// deterministic backoff between attempts. Jobs that exhaust their
    /// retries are quarantined as [`crate::JobError`]s; the sweep always
    /// completes and the manifest accounts for every failure.
    ///
    /// Safe to call from many threads at once: jobs from concurrent
    /// sweeps interleave on the workers, but each sweep's report is
    /// assembled in its own job order. `sup.journal` names this sweep's
    /// own WAL (unlike the shared cache). The observer, if any, is
    /// invoked once per settled job from worker threads.
    ///
    /// The manifest times this sweep alone: a job's queue wait runs from
    /// the start of the call until a worker picks the job up, and a
    /// worker's utilization is the time it spent on this sweep's jobs
    /// over the sweep's wall-clock.
    pub fn run_sweep<T>(
        &self,
        sup: &Supervision,
        jobs: Vec<JobSpec>,
        hook: Option<Arc<dyn JobFaultHook + Send + Sync>>,
        exec: Arc<SweepExec<T>>,
        observer: Option<Arc<ProgressObserver>>,
    ) -> RunReport<T>
    where
        T: CacheValue + Send + 'static,
    {
        // lint: allow(D001) sweep wall-clock for the manifest profile
        // block; results, retries and deadlines never depend on it
        let started = Instant::now();
        let keys = job_keys(&self.code_version, &jobs);
        let sweep = sweep_id(&keys, &self.code_version);
        let (journal, resumed) = open_journal(sup, sweep, jobs.len());

        let total = jobs.len();
        let shared = Arc::new(SweepShared {
            jobs,
            keys,
            resumed,
            journal,
            cache: self.cache.clone(),
            sup: sup.clone(),
            hook,
            started,
            busy_ns: (0..self.threads()).map(|_| AtomicU64::new(0)).collect(),
            slots: (0..total).map(|_| Mutex::new(None)).collect(),
            remaining: Mutex::new(total),
            drained: Condvar::new(),
        });

        for i in 0..total {
            let shared = Arc::clone(&shared);
            let exec = Arc::clone(&exec);
            let observer = observer.clone();
            self.pool.spawn(move |worker| {
                shared.run_job(i, worker, &*exec, observer.as_deref());
            });
        }

        // Wait for every job to settle. The per-job tasks always fill
        // their slot and decrement the counter, even if the supervision
        // body itself panics.
        let mut remaining = shared
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *remaining > 0 {
            remaining = shared
                .drained
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(remaining);

        let wall = started.elapsed().as_secs_f64().max(1e-9);
        let utilization = shared
            .busy_ns
            .iter()
            .map(|ns| (ns.load(Ordering::Relaxed) as f64 / 1e9 / wall).min(1.0))
            .collect();
        let finished: Vec<FinishedJob<T>> = shared
            .slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    // lint: allow(P002) invariant: run_job writes every
                    // slot before the drained counter reaches zero
                    .expect("every sweep job settled exactly once")
            })
            .collect();

        build_report(
            &shared.jobs,
            &shared.keys,
            finished,
            self.threads(),
            wall * 1000.0,
            utilization,
        )
    }
}

/// Per-sweep state shared between the submitting thread and the pool
/// workers running the sweep's jobs.
struct SweepShared<T> {
    jobs: Vec<JobSpec>,
    keys: Vec<u64>,
    resumed: BTreeMap<u64, JournalEntry>,
    journal: Option<Mutex<SweepJournal>>,
    cache: Option<ResultCache>,
    sup: Supervision,
    hook: Option<Arc<dyn JobFaultHook + Send + Sync>>,
    /// When the sweep was submitted; queue waits count from here.
    started: Instant,
    /// Nanoseconds each worker spent on this sweep's jobs.
    busy_ns: Vec<AtomicU64>,
    slots: Vec<Mutex<Option<FinishedJob<T>>>>,
    remaining: Mutex<usize>,
    drained: Condvar,
}

impl<T: CacheValue> SweepShared<T> {
    fn run_job(
        &self,
        i: usize,
        worker: usize,
        exec: &SweepExec<T>,
        observer: Option<&ProgressObserver>,
    ) {
        // lint: allow(D001) per-job host wall time and queue wait for the
        // manifest profile only
        let t0 = Instant::now();
        let supervised = catch_unwind(AssertUnwindSafe(|| {
            supervise_one(
                &self.jobs[i],
                self.keys[i],
                &self.resumed,
                self.cache.as_ref(),
                &self.sup,
                self.hook.as_deref().map(|h| h as &dyn JobFaultHook),
                &self.journal,
                &|job, derived, ctx| exec(job, derived, ctx),
            )
        }))
        .map_err(|payload| format!("job {i}: {}", panic_message(payload)));

        if let (Some(observer), Ok(s)) = (observer, supervised.as_ref()) {
            observer(JobProgress {
                index: i,
                total: self.jobs.len(),
                label: self.jobs[i].label.clone(),
                seed: self.jobs[i].seed,
                ok: s.outcome.is_ok(),
                cached: matches!(s.outcome, Ok(Source::Cache(_))),
                journaled: matches!(s.outcome, Ok(Source::Journal(_))),
            });
        }

        let elapsed = t0.elapsed();
        self.busy_ns[worker].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        *self.slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(FinishedJob {
            result: supervised,
            wall_ms: elapsed.as_secs_f64() * 1000.0,
            queue_wait_ms: t0.duration_since(self.started).as_secs_f64() * 1000.0,
            worker,
        });
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *remaining -= 1;
        if *remaining == 0 {
            self.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::digest_results;
    use crate::testutil::{exec, jobs, val_exec, Val};
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn engine_digest_matches_serial_execution() {
        let js = jobs("svc-parity", 12);
        let serial: Vec<Result<Val, crate::engine::JobError>> = js
            .iter()
            .map(|j| Ok(Val((j.seed as f64) + (j.derived_seed() % 7) as f64)))
            .collect();
        let engine = SweepEngine::new(Some(3), None, "svc-test-v1");
        let report = engine.run_sweep(&Supervision::default(), js, None, val_exec(), None);
        assert_eq!(report.manifest.failed, 0);
        assert_eq!(
            report.manifest.results_digest,
            digest_results(&serial),
            "a parallel sweep digests like the jobs run one by one in order"
        );
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let body = exec(move |j, _, _| {
            counted.fetch_add(1, Ordering::SeqCst);
            Ok(Val(j.seed as f64 * 2.0))
        });
        let engine = SweepEngine::new(Some(4), None, "svc-test-v1");
        let report = engine.run_sweep(
            &Supervision::default(),
            jobs("svc-once", 100),
            None,
            body,
            None,
        );
        assert_eq!(calls.load(Ordering::SeqCst), 100);
        assert_eq!(report.results.len(), 100);
        let m = &report.manifest;
        for (i, (r, rec)) in report.results.iter().zip(&m.per_job).enumerate() {
            assert_eq!(r.as_ref().unwrap().0, i as f64 * 2.0, "job order preserved");
            assert!(rec.worker < m.threads);
            assert!(
                rec.queue_wait_ms <= m.wall_ms,
                "queue wait is bounded by the sweep wall-clock"
            );
        }
    }

    #[test]
    fn panicking_job_is_reported_under_its_own_identity() {
        let body = exec(|j, _, _| {
            if j.seed == 4 {
                panic!("boom at {}", j.seed);
            }
            Ok(Val(j.seed as f64))
        });
        let engine = SweepEngine::new(Some(3), None, "svc-test-v1");
        let report = engine.run_sweep(
            &Supervision::default(),
            jobs("svc-boom", 10),
            None,
            body,
            None,
        );
        assert_eq!(report.results.len(), 10);
        for (i, r) in report.results.iter().enumerate() {
            if i == 4 {
                let msg = r.as_ref().unwrap_err().to_string();
                assert!(msg.contains("boom"), "{msg}");
                assert!(msg.contains("cell seed=4"), "panicking job named: {msg}");
            } else {
                assert_eq!(r.as_ref().unwrap().0, i as f64);
            }
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let engine = SweepEngine::new(Some(4), None, "svc-test-v1");
        let report = engine.run_sweep(&Supervision::default(), vec![], None, val_exec(), None);
        assert!(report.results.is_empty());
        assert_eq!(report.manifest.jobs, 0);
        assert!(report.manifest.utilization.iter().all(|&u| u == 0.0));
    }

    #[test]
    fn a_sweep_beside_another_reports_its_own_queue_wait_and_utilization() {
        let engine = Arc::new(SweepEngine::new(Some(2), None, "svc-test-v1"));
        let (started, running) = std::sync::mpsc::channel();
        let slow = exec(move |j, _, _| {
            let _ = started.send(());
            std::thread::sleep(Duration::from_millis(30));
            Ok(Val(j.seed as f64))
        });
        let fast = exec(|j, _, _| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(Val(j.seed as f64))
        });
        let report = std::thread::scope(|scope| {
            let first = {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    engine.run_sweep(
                        &Supervision::default(),
                        jobs("svc-busy", 4),
                        None,
                        slow,
                        None,
                    )
                })
            };
            running.recv().expect("the first sweep starts a job");
            let second = engine.run_sweep(
                &Supervision::default(),
                jobs("svc-beside", 4),
                None,
                fast,
                None,
            );
            first.join().unwrap();
            second
        });
        let m = &report.manifest;
        assert_eq!(m.utilization.len(), engine.threads());
        for &u in &m.utilization {
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
        assert!(
            m.utilization.iter().sum::<f64>() > 0.0,
            "this sweep's own busy time is attributed"
        );
        for job in &m.per_job {
            assert!(
                (0.0..=m.wall_ms).contains(&job.queue_wait_ms),
                "queue wait {} of {} ms",
                job.queue_wait_ms,
                m.wall_ms
            );
        }
        assert!(
            m.per_job.iter().any(|j| j.queue_wait_ms > 0.0),
            "jobs queued behind the in-flight sweep report their wait"
        );
    }

    #[test]
    fn concurrent_sweeps_share_the_engine_deterministically() {
        let engine = Arc::new(SweepEngine::new(Some(4), None, "svc-test-v1"));
        let solo: Vec<u64> = (0..4)
            .map(|k| {
                let report = engine.run_sweep(
                    &Supervision::default(),
                    jobs(&format!("svc-conc-{k}"), 8),
                    None,
                    val_exec(),
                    None,
                );
                report.manifest.results_digest
            })
            .collect();
        let concurrent: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    let engine = Arc::clone(&engine);
                    scope.spawn(move || {
                        engine
                            .run_sweep(
                                &Supervision::default(),
                                jobs(&format!("svc-conc-{k}"), 8),
                                None,
                                val_exec(),
                                None,
                            )
                            .manifest
                            .results_digest
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(solo, concurrent, "interleaving does not perturb digests");
    }

    #[test]
    fn shared_cache_answers_repeat_sweeps() {
        let dir = std::env::temp_dir().join(format!("liteworp-svc-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = SweepEngine::new(Some(2), Some(ResultCache::new(&dir)), "svc-test-v1");
        let executions = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&executions);
        let exec: Arc<SweepExec<Val>> = Arc::new(move |j, _, _| {
            counted.fetch_add(1, Ordering::SeqCst);
            Ok(Val(j.seed as f64))
        });
        let first = engine.run_sweep(
            &Supervision::default(),
            jobs("svc-cache", 6),
            None,
            Arc::clone(&exec),
            None,
        );
        assert_eq!(first.manifest.cache_misses, 6);
        let second = engine.run_sweep(
            &Supervision::default(),
            jobs("svc-cache", 6),
            None,
            exec,
            None,
        );
        assert_eq!(second.manifest.cache_hits, 6, "second request is all hits");
        assert_eq!(executions.load(Ordering::SeqCst), 6, "no re-execution");
        assert_eq!(
            first.manifest.results_digest,
            second.manifest.results_digest
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observer_sees_every_job_with_provenance() {
        let dir = std::env::temp_dir().join(format!("liteworp-svc-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = SweepEngine::new(Some(2), Some(ResultCache::new(&dir)), "svc-test-v1");
        let seen: Arc<Mutex<Vec<JobProgress>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let observer: Arc<ProgressObserver> = Arc::new(move |p| sink.lock().unwrap().push(p));
        engine.run_sweep(
            &Supervision::default(),
            jobs("svc-obs", 5),
            None,
            val_exec(),
            Some(Arc::clone(&observer)),
        );
        {
            let events = seen.lock().unwrap();
            assert_eq!(events.len(), 5);
            assert!(events.iter().all(|p| p.ok && !p.cached && p.total == 5));
        }
        seen.lock().unwrap().clear();
        engine.run_sweep(
            &Supervision::default(),
            jobs("svc-obs", 5),
            None,
            val_exec(),
            Some(observer),
        );
        let events = seen.lock().unwrap();
        assert_eq!(events.len(), 5);
        assert!(
            events.iter().all(|p| p.ok && p.cached),
            "second run is hits"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_survives_a_panicking_job_body() {
        let engine = SweepEngine::new(Some(2), None, "svc-test-v1");
        let exec: Arc<SweepExec<Val>> = Arc::new(|j, _, _| {
            if j.seed == 1 {
                panic!("svc boom");
            }
            Ok(Val(j.seed as f64))
        });
        let report = engine.run_sweep(
            &Supervision::default(),
            jobs("svc-panic", 4),
            None,
            exec,
            None,
        );
        assert_eq!(report.manifest.failed, 1);
        assert_eq!(report.successes().count(), 3);
        // The engine is still serviceable afterwards.
        let after = engine.run_sweep(
            &Supervision::default(),
            jobs("svc-after", 3),
            None,
            val_exec(),
            None,
        );
        assert_eq!(after.manifest.failed, 0);
    }

    #[test]
    fn per_request_journal_resumes_on_a_warm_engine() {
        let dir = std::env::temp_dir().join(format!("liteworp-svc-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("req.jsonl");
        let engine = SweepEngine::new(Some(2), None, "svc-test-v1");
        let sup = Supervision {
            journal: Some(journal.clone()),
            ..Supervision::default()
        };
        let full = engine.run_sweep(&sup, jobs("svc-journal", 6), None, val_exec(), None);

        // Keep the header plus 3 completions, as if the daemon died.
        let text = std::fs::read_to_string(&journal).unwrap();
        let keep: Vec<&str> = text.lines().take(4).collect();
        std::fs::write(&journal, format!("{}\n", keep.join("\n"))).unwrap();

        let resume = Supervision {
            journal: Some(journal.clone()),
            resume: true,
            ..Supervision::default()
        };
        let resumed = engine.run_sweep(&resume, jobs("svc-journal", 6), None, val_exec(), None);
        assert_eq!(resumed.manifest.journal_hits, 3);
        assert_eq!(
            resumed.manifest.results_digest, full.manifest.results_digest,
            "resumed request matches the uninterrupted one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
