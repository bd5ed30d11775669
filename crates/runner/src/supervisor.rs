//! Failure-domain supervision for sweep execution.
//!
//! [`crate::service::SweepEngine`] runs every job inside a supervision
//! envelope:
//!
//! * a typed [`JobFailure`] taxonomy instead of stringly panics — panics,
//!   sim-time deadline overruns, corrupt cache entries, I/O errors, and
//!   protocol-invariant violations each land in their own failure class;
//! * a per-job **deadline** in *simulated* time, enforced through the
//!   [`JobContext`] clock seam the job charges its progress to — no
//!   wall-clock is read (lint D001), so deadline verdicts are
//!   deterministic and identical on any host;
//! * **bounded deterministic retries** with capped exponential backoff
//!   whose jitter is drawn from the job's own PCG32 stream, so a rerun of
//!   the sweep retries identically and aggregates stay byte-identical;
//! * **quarantine, not abort**: a job that still fails after its retries
//!   becomes a [`JobError`] entry in the report while the rest of the
//!   sweep completes, and the manifest's [`FailureReport`] records every
//!   failure class, the retry histogram, and the quarantined job ids so
//!   degraded aggregates are never silent;
//! * optional **write-ahead journaling** ([`crate::journal`]): each
//!   completion is fsync'd to a JSONL journal, and a resumed sweep
//!   replays finished jobs from it instead of re-executing them.
//!
//! The [`JobFaultHook`] seam injects failures between the supervisor and
//! the job body, letting the chaos crate exercise every path above
//! deterministically.

use crate::cache::{fnv64, CacheLoad};
use crate::engine::{CacheValue, JobError, JobRecord, JobSpec, Manifest, RunReport};
use crate::journal::{JournalEntry, JournalStatus, SweepJournal};
use crate::json::Json;
use crate::rng::{derive_seed, Pcg32, Rng};
use crate::stats::Percentiles;
use crate::task_pool::panic_message;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Salt mixed into a job's derived seed to produce its private backoff
/// stream (distinct from the simulation stream, so retries never perturb
/// simulated behavior).
const BACKOFF_SALT: u64 = 0x4241_434b_4f46_4621; // "BACKOFF!"

/// Why a job failed. Every failure in the engine is one of these classes;
/// the manifest aggregates per-class counts so no degradation is silent.
#[derive(Debug, Clone, PartialEq)]
pub enum JobFailure {
    /// The job body panicked; carries the panic message.
    Panic(String),
    /// The job exceeded its simulated-time budget.
    Deadline {
        /// The configured budget, in simulated microseconds.
        budget_us: u64,
        /// The sim time the job tried to charge when it was cut off.
        attempted_us: u64,
    },
    /// A cache entry failed checksum verification (it has been
    /// quarantined; the job recomputes).
    CacheCorrupt(String),
    /// A filesystem or OS error surfaced by the job.
    Io(String),
    /// The chaos oracle found a protocol-invariant violation in the run.
    InvariantViolation(String),
}

impl JobFailure {
    /// Stable lowercase class name, used in manifests and journals.
    pub fn class(&self) -> &'static str {
        match self {
            JobFailure::Panic(_) => "panic",
            JobFailure::Deadline { .. } => "deadline",
            JobFailure::CacheCorrupt(_) => "cache_corrupt",
            JobFailure::Io(_) => "io",
            JobFailure::InvariantViolation(_) => "invariant",
        }
    }

    /// Whether a retry can plausibly change the outcome. Deadlines are
    /// deterministic in sim time — the rerun would overrun identically —
    /// so they quarantine immediately instead of burning retries.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, JobFailure::Deadline { .. })
    }

    /// Serializes for journals and manifests.
    pub fn to_json(&self) -> Json {
        let detail = match self {
            JobFailure::Deadline {
                budget_us,
                attempted_us,
            } => {
                return Json::object([
                    ("class", Json::from(self.class())),
                    ("budget_us", Json::from(*budget_us)),
                    ("attempted_us", Json::from(*attempted_us)),
                ])
            }
            JobFailure::Panic(d)
            | JobFailure::CacheCorrupt(d)
            | JobFailure::Io(d)
            | JobFailure::InvariantViolation(d) => d.clone(),
        };
        Json::object([
            ("class", Json::from(self.class())),
            ("detail", Json::from(detail)),
        ])
    }

    /// Parses a serialized failure back; `None` marks a corrupt record.
    pub fn from_json(json: &Json) -> Option<JobFailure> {
        let class = json.get("class")?.as_str()?;
        if class == "deadline" {
            return Some(JobFailure::Deadline {
                budget_us: json.get("budget_us")?.as_u64()?,
                attempted_us: json.get("attempted_us")?.as_u64()?,
            });
        }
        let detail = json.get("detail")?.as_str()?.to_string();
        match class {
            "panic" => Some(JobFailure::Panic(detail)),
            "cache_corrupt" => Some(JobFailure::CacheCorrupt(detail)),
            "io" => Some(JobFailure::Io(detail)),
            "invariant" => Some(JobFailure::InvariantViolation(detail)),
            _ => None,
        }
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Panic(m) => write!(f, "panic: {m}"),
            JobFailure::Deadline {
                budget_us,
                attempted_us,
            } => write!(
                f,
                "sim-time deadline exceeded: budget {budget_us} us, attempted {attempted_us} us"
            ),
            JobFailure::CacheCorrupt(m) => write!(f, "corrupt cache entry: {m}"),
            JobFailure::Io(m) => write!(f, "io error: {m}"),
            JobFailure::InvariantViolation(m) => write!(f, "invariant violation: {m}"),
        }
    }
}

/// The deterministic clock seam a supervised job runs against.
///
/// The job *charges* its simulated progress to the context before
/// simulating each segment: `charge_sim_to_us(t)` asks "may I advance to
/// sim time `t`?" and answers [`JobFailure::Deadline`] once `t` exceeds
/// the budget. Because the ledger is simulated time, not wall-clock, the
/// same job always hits (or never hits) its deadline, on any machine, at
/// any thread count.
#[derive(Debug)]
pub struct JobContext {
    budget_us: Option<u64>,
    charged_us: AtomicU64,
    attempt: u32,
}

impl JobContext {
    fn new(budget_us: Option<u64>, attempt: u32) -> JobContext {
        JobContext {
            budget_us,
            charged_us: AtomicU64::new(0),
            attempt,
        }
    }

    /// A context with no deadline, for callers that run job bodies
    /// outside the supervisor (e.g. chaos shrinking/replay).
    pub fn unsupervised() -> JobContext {
        JobContext::new(None, 0)
    }

    /// Which attempt this is (0 on the first try, `n` on the n-th retry).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The configured budget, if any, in simulated microseconds.
    pub fn budget_us(&self) -> Option<u64> {
        self.budget_us
    }

    /// The highest sim time charged so far, in microseconds.
    pub fn charged_us(&self) -> u64 {
        self.charged_us.load(Ordering::Relaxed)
    }

    /// Asks to advance simulated time to `target_us` (absolute, from job
    /// start). Fails with [`JobFailure::Deadline`] when the target
    /// exceeds the budget; the job should return that error unmodified.
    pub fn charge_sim_to_us(&self, target_us: u64) -> Result<(), JobFailure> {
        self.charged_us.fetch_max(target_us, Ordering::Relaxed);
        match self.budget_us {
            Some(budget) if target_us > budget => Err(JobFailure::Deadline {
                budget_us: budget,
                attempted_us: target_us,
            }),
            _ => Ok(()),
        }
    }

    /// [`JobContext::charge_sim_to_us`] with the target in seconds, for
    /// simulation code that works in `f64` sim seconds.
    pub fn charge_sim_to_secs(&self, target_secs: f64) -> Result<(), JobFailure> {
        self.charge_sim_to_us((target_secs.max(0.0) * 1e6).round() as u64)
    }
}

/// Fault-injection seam between the supervisor and the job body. A hook
/// decides, per `(job, attempt)`, whether the attempt fails before the
/// body runs — the chaos crate implements this to test the supervisor's
/// retry, quarantine, and reporting paths deterministically.
pub trait JobFaultHook: Sync {
    /// Returns the failure to inject for this attempt, or `None` to let
    /// the attempt run. Must be a pure function of the job's identity and
    /// `attempt` (plus the hook's own seed) so reruns are identical.
    fn inject(&self, job: &JobSpec, attempt: u32) -> Option<JobFailure>;
}

/// Supervision policy for a batch.
#[derive(Debug, Clone)]
pub struct Supervision {
    /// Retries after the first attempt (0 = fail fast). Only retryable
    /// failure classes consume retries; see [`JobFailure::is_retryable`].
    pub max_retries: u32,
    /// Base host backoff before retry `n`, in wall microseconds; the
    /// actual pause is jittered within `[base·2ⁿ/2, base·2ⁿ]` from the
    /// job's own PCG32 stream. 0 disables backoff. The pause only spaces
    /// out host-side work (it is never observable by the simulation).
    pub backoff_base_us: u64,
    /// Upper bound on a single backoff pause, in wall microseconds.
    pub backoff_cap_us: u64,
    /// Per-job deadline in simulated microseconds, enforced through
    /// [`JobContext::charge_sim_to_us`]. `None` = no deadline.
    pub job_deadline_us: Option<u64>,
    /// Write-ahead journal path; `None` disables journaling.
    pub journal: Option<PathBuf>,
    /// Resume from `journal` if it records this exact sweep: journaled
    /// completions are replayed instead of re-executed.
    pub resume: bool,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            max_retries: 0,
            backoff_base_us: 1_000,
            backoff_cap_us: 50_000,
            job_deadline_us: None,
            journal: None,
            resume: false,
        }
    }
}

impl Supervision {
    /// Converts a deadline in sim seconds (the unit experiment flags use)
    /// into this policy's microsecond budget.
    pub fn with_deadline_secs(mut self, secs: Option<f64>) -> Self {
        self.job_deadline_us = secs.map(|s| (s.max(0.0) * 1e6).round() as u64);
        self
    }
}

/// The deterministic backoff pause before retry `attempt` (0-based) of a
/// job, in microseconds: capped exponential with jitter drawn from the
/// job's private backoff stream, so a rerun backs off identically.
pub fn backoff_us(derived_seed: u64, attempt: u32, base_us: u64, cap_us: u64) -> u64 {
    if base_us == 0 {
        return 0;
    }
    let exp = base_us
        .saturating_mul(1u64 << attempt.min(20))
        .min(cap_us.max(base_us));
    let mut rng = Pcg32::seed_from_u64(derive_seed(derived_seed, BACKOFF_SALT ^ attempt as u64));
    rng.gen_range(exp / 2..=exp)
}

/// A bounded, seeded restart budget: the reusable face of [`backoff_us`]
/// for supervisors that restart *processes* (or any failure domain)
/// rather than jobs. Each draw consumes one attempt and yields the
/// deterministic pause before that attempt; once `max_restarts` draws
/// have been taken the budget is exhausted and the caller should
/// quarantine the domain instead of restarting it.
///
/// Two budgets built from the same `(derived_seed, max_restarts, base,
/// cap)` yield identical pause sequences, so a rerun of a supervised
/// fabric restarts on the same schedule.
#[derive(Debug, Clone)]
pub struct RestartBudget {
    derived_seed: u64,
    max_restarts: u32,
    used: u32,
    base_us: u64,
    cap_us: u64,
}

impl RestartBudget {
    /// A budget of `max_restarts` attempts paced by
    /// [`backoff_us`]`(derived_seed, attempt, base_us, cap_us)`.
    pub fn new(derived_seed: u64, max_restarts: u32, base_us: u64, cap_us: u64) -> RestartBudget {
        RestartBudget {
            derived_seed,
            max_restarts,
            used: 0,
            base_us,
            cap_us,
        }
    }

    /// Attempts consumed so far.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Attempts left before the budget is exhausted.
    pub fn remaining(&self) -> u32 {
        self.max_restarts.saturating_sub(self.used)
    }

    /// Draws the next attempt: `Some(pause_us)` to restart after that
    /// pause, `None` when the budget is exhausted.
    pub fn next_backoff_us(&mut self) -> Option<u64> {
        if self.used >= self.max_restarts {
            return None;
        }
        let pause = backoff_us(self.derived_seed, self.used, self.base_us, self.cap_us);
        self.used += 1;
        Some(pause)
    }
}

/// Aggregated failure accounting for one batch, embedded in the
/// [`Manifest`] as the `failures` block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureReport {
    /// Attempts that panicked (counted per failing attempt).
    pub panics: u64,
    /// Attempts cut off by the sim-time deadline.
    pub deadlines: u64,
    /// Corrupt cache entries detected (quarantined and recomputed; these
    /// usually do *not* fail the job).
    pub cache_corrupt: u64,
    /// Attempts that hit an I/O failure.
    pub io: u64,
    /// Attempts rejected by the protocol-invariant oracle.
    pub invariant: u64,
    /// Histogram of retries needed by jobs that eventually succeeded:
    /// `retries -> job count` (jobs that needed no retry are omitted).
    pub retry_histogram: BTreeMap<u32, u64>,
    /// Jobs answered from the resume journal instead of executing.
    pub journal_hits: u64,
    /// Ids (`label (seed N)`) of jobs that failed even after retries and
    /// were excluded from aggregates.
    pub quarantined: Vec<String>,
}

impl FailureReport {
    /// Counts one failing attempt in its class bucket.
    fn record_attempt(&mut self, failure: &JobFailure) {
        match failure {
            JobFailure::Panic(_) => self.panics += 1,
            JobFailure::Deadline { .. } => self.deadlines += 1,
            JobFailure::CacheCorrupt(_) => self.cache_corrupt += 1,
            JobFailure::Io(_) => self.io += 1,
            JobFailure::InvariantViolation(_) => self.invariant += 1,
        }
    }

    /// True when nothing failed, nothing was retried, and nothing was
    /// quarantined — the batch was entirely healthy.
    pub fn is_empty(&self) -> bool {
        *self == FailureReport::default()
    }

    /// Serializes as the manifest's `failures` block.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("panics", Json::from(self.panics)),
            ("deadlines", Json::from(self.deadlines)),
            ("cache_corrupt", Json::from(self.cache_corrupt)),
            ("io", Json::from(self.io)),
            ("invariant", Json::from(self.invariant)),
            (
                "retry_histogram",
                Json::Obj(
                    self.retry_histogram
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::from(*v)))
                        .collect(),
                ),
            ),
            ("journal_hits", Json::from(self.journal_hits)),
            (
                "quarantined",
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(|q| Json::from(q.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Where a job's result came from.
pub(crate) enum Source<T> {
    /// Replayed from the resume journal.
    Journal(T),
    /// Answered by the verified result cache.
    Cache(T),
    /// Executed in this batch.
    Fresh(T),
}

/// Per-job outcome of the supervision loop, before collection.
pub(crate) struct Supervised<T> {
    pub(crate) outcome: Result<Source<T>, JobFailure>,
    pub(crate) retries: u32,
    pub(crate) corrupt_cache: bool,
}

/// One job after execution, with host-side timing attached. The
/// `result` is `Err` only when the supervision envelope itself
/// panicked (a supervisor bug), never for job-body failures — those
/// are typed inside [`Supervised`].
pub(crate) struct FinishedJob<T> {
    pub(crate) result: Result<Supervised<T>, String>,
    pub(crate) wall_ms: f64,
    pub(crate) queue_wait_ms: f64,
    pub(crate) worker: usize,
}

/// Cache keys for a sweep, in job order: the identity the cache, the
/// journal, and the sweep id all agree on.
pub(crate) fn job_keys(code_version: &str, jobs: &[JobSpec]) -> Vec<u64> {
    jobs.iter()
        .map(|j| crate::cache::ResultCache::key(&j.scenario, j.seed, code_version))
        .collect()
}

/// Opens (or resumes) the sweep journal named by the policy, returning
/// the journal handle plus any entries replayable from a previous run.
/// Journal problems degrade to warnings — a sweep never fails because
/// its WAL is unavailable.
pub(crate) fn open_journal(
    sup: &Supervision,
    sweep: u64,
    jobs: usize,
) -> (Option<Mutex<SweepJournal>>, BTreeMap<u64, JournalEntry>) {
    let mut resumed: BTreeMap<u64, JournalEntry> = BTreeMap::new();
    let journal = match &sup.journal {
        None => None,
        Some(path) => {
            let mut opened = None;
            if sup.resume && path.exists() {
                match SweepJournal::resume(path, sweep, jobs) {
                    Ok((j, rec)) => {
                        if rec.torn_bytes > 0 {
                            eprintln!(
                                "warning: journal {}: dropped {} bytes of torn tail \
                                 (crash mid-append); resuming from the last complete entry",
                                path.display(),
                                rec.torn_bytes
                            );
                        }
                        resumed = rec.entries;
                        opened = Some(j);
                    }
                    Err(e) => {
                        eprintln!(
                            "warning: cannot resume journal {}: {e}; starting the sweep fresh",
                            path.display()
                        );
                    }
                }
            }
            let opened = match opened {
                Some(j) => Some(j),
                None => match SweepJournal::create(path, sweep, jobs) {
                    Ok(j) => Some(j),
                    Err(e) => {
                        eprintln!(
                            "warning: cannot create journal {}: {e}; running without a journal",
                            path.display()
                        );
                        None
                    }
                },
            };
            opened.map(Mutex::new)
        }
    };
    (journal, resumed)
}

/// Appends one entry to the sweep journal, if there is one.
pub(crate) fn record_entry(journal: &Option<Mutex<SweepJournal>>, entry: JournalEntry) {
    if let Some(j) = journal {
        let mut guard = j.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = guard.append(&entry) {
            eprintln!("warning: journal append failed: {e}");
        }
    }
}

/// The per-job supervision body: resume-journal replay, verified cache
/// lookup, then up to `1 + max_retries` attempts with deterministic
/// backoff. Identical inputs produce identical outcomes on any worker.
// Each argument is one supervision facility; bundling them into a
// context struct would just move the same list one hop away from the
// one call site that destructures it anyway.
#[allow(clippy::too_many_arguments)]
pub(crate) fn supervise_one<T: CacheValue>(
    job: &JobSpec,
    key: u64,
    resumed: &BTreeMap<u64, JournalEntry>,
    cache: Option<&crate::cache::ResultCache>,
    sup: &Supervision,
    hook: Option<&dyn JobFaultHook>,
    journal: &Option<Mutex<SweepJournal>>,
    exec: &(dyn Fn(&JobSpec, u64, &JobContext) -> Result<T, JobFailure> + Sync),
) -> Supervised<T> {
    let derived = job.derived_seed();

    // 1. Resume journal: a completed job replays its recorded value.
    if let Some(entry) = resumed.get(&key) {
        if entry.status == JournalStatus::Done {
            if let Some(value) = entry.value.as_ref().and_then(T::from_json) {
                return Supervised {
                    outcome: Ok(Source::Journal(value)),
                    retries: entry.retries,
                    corrupt_cache: false,
                };
            }
            eprintln!(
                "warning: journal entry for '{}' (seed {}) no longer decodes; re-executing",
                job.label, job.seed
            );
        }
        // Failed entries get a fresh chance on resume.
    }

    // 2. Verified cache lookup.
    let mut corrupt_cache = false;
    if let Some(cache) = cache {
        match cache.load_checked(key) {
            CacheLoad::Hit(json) => {
                if let Some(value) = T::from_json(&json) {
                    record_entry(
                        journal,
                        JournalEntry::done(key, &job.label, job.seed, 0, json),
                    );
                    return Supervised {
                        outcome: Ok(Source::Cache(value)),
                        retries: 0,
                        corrupt_cache: false,
                    };
                }
                // Stale schema: valid bytes, old shape — plain miss.
            }
            CacheLoad::Miss => {}
            CacheLoad::Corrupt(reason) => {
                corrupt_cache = true;
                eprintln!(
                    "warning: quarantined corrupt cache entry for '{}' (seed {}, key \
                     {key:016x}): {reason}; recomputing",
                    job.label, job.seed
                );
            }
        }
    }

    // 3. Supervised attempts.
    let mut retries = 0;
    let mut last_failure: Option<JobFailure> = None;
    for attempt in 0..=sup.max_retries {
        if attempt > 0 {
            retries = attempt;
            let pause = backoff_us(
                derived,
                attempt - 1,
                sup.backoff_base_us,
                sup.backoff_cap_us,
            );
            if pause > 0 {
                std::thread::sleep(std::time::Duration::from_micros(pause));
            }
        }
        let ctx = JobContext::new(sup.job_deadline_us, attempt);
        let attempt_result = match hook.and_then(|h| h.inject(job, attempt)) {
            Some(injected) => Err(injected),
            None => match catch_unwind(AssertUnwindSafe(|| exec(job, derived, &ctx))) {
                Ok(r) => r,
                Err(payload) => Err(JobFailure::Panic(panic_message(payload))),
            },
        };
        match attempt_result {
            Ok(value) => {
                let json = value.to_json();
                if let Some(cache) = cache {
                    if let Err(e) = cache.store(key, &json) {
                        eprintln!("warning: cache store failed for {}: {e}", job.label);
                    }
                }
                record_entry(
                    journal,
                    JournalEntry::done(key, &job.label, job.seed, retries, json),
                );
                return Supervised {
                    outcome: Ok(Source::Fresh(value)),
                    retries,
                    corrupt_cache,
                };
            }
            Err(failure) => {
                let retryable = failure.is_retryable();
                last_failure = Some(failure);
                if !retryable {
                    break;
                }
            }
        }
    }
    let failure = last_failure
        .unwrap_or_else(|| JobFailure::Io("supervisor ran no attempt (impossible)".into()));
    record_entry(
        journal,
        JournalEntry::failed(key, &job.label, job.seed, retries, failure.to_json()),
    );
    Supervised {
        outcome: Err(failure),
        retries,
        corrupt_cache,
    }
}

/// Folds per-job outcomes into the ordered result vector, the failure
/// accounting, and the manifest. `finished` must be in job order.
pub(crate) fn build_report<T: CacheValue>(
    jobs: &[JobSpec],
    keys: &[u64],
    finished: Vec<FinishedJob<T>>,
    threads: usize,
    wall_ms: f64,
    utilization: Vec<f64>,
) -> RunReport<T> {
    let mut results: Vec<Result<T, JobError>> = Vec::with_capacity(jobs.len());
    let mut per_job = Vec::with_capacity(jobs.len());
    let mut failures = FailureReport::default();
    let (mut cache_hits, mut journal_hits, mut misses, mut failed) = (0, 0, 0, 0);
    for ((job, run), key) in jobs.iter().zip(finished).zip(keys) {
        // The supervision body catches job panics itself, so the Err
        // path only fires if the supervisor has a bug.
        let supervised = match run.result {
            Ok(s) => s,
            Err(msg) => Supervised {
                outcome: Err(JobFailure::Panic(msg)),
                retries: 0,
                corrupt_cache: false,
            },
        };
        if supervised.corrupt_cache {
            failures.cache_corrupt += 1;
        }
        if supervised.retries > 0 {
            // Each completed retry implies that many failed attempts
            // preceded the outcome; the histogram tracks the successful
            // jobs' retry counts (quarantined jobs appear separately).
            if supervised.outcome.is_ok() {
                *failures
                    .retry_histogram
                    .entry(supervised.retries)
                    .or_insert(0) += 1;
            }
        }
        let (outcome, cached, journaled) = match supervised.outcome {
            Ok(Source::Journal(v)) => {
                journal_hits += 1;
                (Ok(v), false, true)
            }
            Ok(Source::Cache(v)) => {
                cache_hits += 1;
                (Ok(v), true, false)
            }
            Ok(Source::Fresh(v)) => {
                misses += 1;
                (Ok(v), false, false)
            }
            Err(failure) => {
                failed += 1;
                failures.record_attempt(&failure);
                failures
                    .quarantined
                    .push(format!("{} (seed {})", job.label, job.seed));
                (
                    Err(JobError {
                        label: job.label.clone(),
                        seed: job.seed,
                        derived_seed: job.derived_seed(),
                        failure,
                    }),
                    false,
                    false,
                )
            }
        };
        per_job.push(JobRecord {
            label: job.label.clone(),
            seed: job.seed,
            key: *key,
            cached,
            journaled,
            retries: supervised.retries,
            failure: outcome.as_ref().err().map(|e| e.failure.class()),
            failed: outcome.is_err(),
            wall_ms: run.wall_ms,
            queue_wait_ms: run.queue_wait_ms,
            worker: run.worker,
        });
        results.push(outcome);
    }
    failures.journal_hits = journal_hits as u64;

    let results_digest = digest_results(&results);

    let walls = |pred: &dyn Fn(&JobRecord) -> bool| -> Vec<f64> {
        per_job
            .iter()
            .filter(|j| pred(j))
            .map(|j| j.wall_ms)
            .collect()
    };
    let job_duration_ms = Percentiles::of(&walls(&|_| true));
    let queue_wait_ms =
        Percentiles::of(&per_job.iter().map(|j| j.queue_wait_ms).collect::<Vec<_>>());
    let cache_hit_ms = Percentiles::of(&walls(&|j| j.cached));
    let cache_miss_ms = Percentiles::of(&walls(&|j| !j.cached && !j.journaled && !j.failed));

    RunReport {
        results,
        manifest: Manifest {
            threads,
            jobs: jobs.len(),
            cache_hits,
            journal_hits,
            cache_misses: misses,
            failed,
            wall_ms,
            utilization,
            job_duration_ms,
            queue_wait_ms,
            cache_hit_ms,
            cache_miss_ms,
            results_digest,
            failures,
            per_job,
        },
    }
}

/// The order-sensitive FNV digest of a batch's results: successful
/// results contribute their canonical JSON dump, quarantined slots a
/// fixed marker. Two sweeps agree on this digest iff they produced
/// byte-identical results in the same job order — the equality CI's
/// retry/resume proofs assert.
pub fn digest_results<T: CacheValue>(results: &[Result<T, JobError>]) -> u64 {
    let mut bytes = Vec::new();
    for r in results {
        match r {
            Ok(v) => {
                bytes.extend_from_slice(v.to_json().dump().as_bytes());
                bytes.push(b'\n');
            }
            Err(_) => bytes.extend_from_slice(b"!quarantined\n"),
        }
    }
    fnv64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::testutil::{exec, sweep, val_exec, Val};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn jobs(n: u64) -> Vec<JobSpec> {
        crate::testutil::jobs("sup-test-scenario", n)
    }

    #[test]
    fn restart_budget_is_deterministic_and_bounded() {
        let draws = |seed: u64| -> Vec<u64> {
            let mut b = RestartBudget::new(seed, 3, 1_000, 50_000);
            std::iter::from_fn(|| b.next_backoff_us()).collect()
        };
        let a = draws(7);
        assert_eq!(a.len(), 3, "budget of 3 yields exactly 3 draws");
        assert_eq!(a, draws(7), "same seed, same pause schedule");
        assert_ne!(a, draws(8), "different seed, different jitter");
        for (attempt, pause) in a.iter().enumerate() {
            assert_eq!(*pause, backoff_us(7, attempt as u32, 1_000, 50_000));
        }

        let mut b = RestartBudget::new(7, 3, 1_000, 50_000);
        assert_eq!((b.used(), b.remaining()), (0, 3));
        b.next_backoff_us();
        assert_eq!((b.used(), b.remaining()), (1, 2));
    }

    #[test]
    fn restart_budget_edge_cases() {
        // A zero budget quarantines immediately.
        let mut none = RestartBudget::new(1, 0, 1_000, 50_000);
        assert_eq!(none.next_backoff_us(), None);
        assert_eq!(none.remaining(), 0);
        // A zero base means restart immediately (backoff_us contract).
        let mut eager = RestartBudget::new(1, 2, 0, 50_000);
        assert_eq!(eager.next_backoff_us(), Some(0));
        assert_eq!(eager.next_backoff_us(), Some(0));
        assert_eq!(eager.next_backoff_us(), None);
    }

    /// Fails the first `faulty` attempts of every job whose seed is in
    /// `targets`, deterministically.
    struct Transient {
        targets: Vec<u64>,
        faulty: u32,
    }

    impl JobFaultHook for Transient {
        fn inject(&self, job: &JobSpec, attempt: u32) -> Option<JobFailure> {
            (self.targets.contains(&job.seed) && attempt < self.faulty)
                .then(|| JobFailure::Io(format!("injected transient io (attempt {attempt})")))
        }
    }

    #[test]
    fn failure_json_round_trips() {
        for f in [
            JobFailure::Panic("boom".into()),
            JobFailure::Deadline {
                budget_us: 10,
                attempted_us: 55,
            },
            JobFailure::CacheCorrupt("bad checksum".into()),
            JobFailure::Io("disk on fire".into()),
            JobFailure::InvariantViolation("alert quorum".into()),
        ] {
            let parsed = Json::parse(&f.to_json().dump()).unwrap();
            assert_eq!(JobFailure::from_json(&parsed), Some(f));
        }
    }

    #[test]
    fn deadline_is_deterministic_in_sim_time() {
        let ctx = JobContext::new(Some(1_000_000), 0);
        assert!(ctx.charge_sim_to_us(500_000).is_ok());
        assert!(ctx.charge_sim_to_secs(1.0).is_ok(), "exactly at budget");
        let err = ctx.charge_sim_to_us(1_000_001).unwrap_err();
        assert_eq!(
            err,
            JobFailure::Deadline {
                budget_us: 1_000_000,
                attempted_us: 1_000_001
            }
        );
        assert_eq!(ctx.charged_us(), 1_000_001);
        assert!(!err.is_retryable(), "deadlines repeat identically");
        let free = JobContext::unsupervised();
        assert!(free.charge_sim_to_secs(1e9).is_ok());
    }

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let a = backoff_us(42, 0, 1_000, 50_000);
        assert_eq!(a, backoff_us(42, 0, 1_000, 50_000), "same job, same pause");
        assert!((500..=1_000).contains(&a), "{a}");
        let late = backoff_us(42, 10, 1_000, 50_000);
        assert!((25_000..=50_000).contains(&late), "capped: {late}");
        assert_eq!(backoff_us(42, 0, 0, 50_000), 0, "base 0 disables backoff");
        assert_ne!(
            backoff_us(1, 3, 1_000, 50_000),
            backoff_us(2, 3, 1_000, 50_000),
            "jitter decorrelates jobs"
        );
    }

    #[test]
    fn transient_failures_are_retried_to_the_same_digest() {
        let js = jobs(8);
        let clean = sweep(4, None, &Supervision::default(), &js, None, &val_exec());
        assert!(clean.manifest.failures.is_empty());

        let hook = Arc::new(Transient {
            targets: vec![1, 4, 6],
            faulty: 2,
        });
        let sup = Supervision {
            max_retries: 2,
            backoff_base_us: 10,
            ..Supervision::default()
        };
        let faulty = sweep(4, None, &sup, &js, Some(hook), &val_exec());
        assert_eq!(faulty.manifest.failed, 0, "all jobs recovered");
        assert_eq!(
            faulty.manifest.results_digest, clean.manifest.results_digest,
            "retried sweep is byte-identical to the clean one"
        );
        assert_eq!(faulty.manifest.failures.io, 0, "recovered attempts");
        assert_eq!(faulty.manifest.failures.retry_histogram.get(&2), Some(&3));
        assert_eq!(faulty.manifest.per_job[1].retries, 2);
        assert_eq!(faulty.manifest.per_job[0].retries, 0);
    }

    #[test]
    fn exhausted_retries_quarantine_without_sinking_the_batch() {
        let js = jobs(6);
        let hook = Arc::new(Transient {
            targets: vec![2],
            faulty: 5,
        });
        let sup = Supervision {
            max_retries: 1,
            backoff_base_us: 10,
            ..Supervision::default()
        };
        let body = exec(|j, _, _| Ok(Val(j.seed as f64)));
        let report = sweep(3, None, &sup, &js, Some(hook), &body);
        assert_eq!(report.manifest.failed, 1);
        assert_eq!(report.successes().count(), 5);
        assert_eq!(report.manifest.failures.io, 1);
        assert_eq!(
            report.manifest.failures.quarantined,
            vec!["cell seed=2 (seed 2)".to_string()]
        );
        let err = report.results[2].as_ref().unwrap_err();
        assert_eq!(err.failure.class(), "io");
        assert_eq!(err.derived_seed, js[2].derived_seed(), "reproducer seed");
        assert_eq!(report.manifest.per_job[2].failure, Some("io"));
        assert_eq!(report.manifest.per_job[2].retries, 1);
    }

    #[test]
    fn deadline_quarantines_without_retrying() {
        let js = jobs(3);
        let calls = Arc::new(AtomicUsize::new(0));
        let sup = Supervision {
            max_retries: 3,
            backoff_base_us: 0,
            job_deadline_us: Some(1_000_000),
            ..Supervision::default()
        };
        let counted = Arc::clone(&calls);
        let body = exec(move |j, _, ctx| {
            counted.fetch_add(1, Ordering::SeqCst);
            // Seed 1 simulates 2 s against a 1 s budget.
            let target = if j.seed == 1 { 2.0 } else { 0.5 };
            ctx.charge_sim_to_secs(target)?;
            Ok(Val(j.seed as f64))
        });
        let report = sweep(2, None, &sup, &js, None, &body);
        assert_eq!(report.manifest.failed, 1);
        assert_eq!(report.manifest.failures.deadlines, 1);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            3,
            "deadline did not consume retries: 2 clean jobs + 1 single overrun attempt"
        );
        let err = report.results[1].as_ref().unwrap_err();
        assert!(matches!(err.failure, JobFailure::Deadline { .. }), "{err}");
    }

    #[test]
    fn corrupt_cache_entry_heals_and_is_reported() {
        let dir = std::env::temp_dir().join(format!("liteworp-sup-heal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = || Some(ResultCache::new(&dir));
        let sup = Supervision::default();
        let js = jobs(4);
        let body = exec(|j, _, _| Ok(Val(j.seed as f64 * 3.0)));
        let first = sweep(2, cache(), &sup, &js, None, &body);
        assert_eq!(first.manifest.cache_misses, 4);

        // Flip a byte in job 2's entry without breaking its JSON shape.
        let key = ResultCache::key(&js[2].scenario, js[2].seed, "test-v1");
        let path = dir.join(format!("{key:016x}.json"));
        let tampered = std::fs::read_to_string(&path).unwrap().replace("6", "7");
        std::fs::write(&path, tampered).unwrap();

        let second = sweep(2, cache(), &sup, &js, None, &body);
        assert_eq!(second.manifest.cache_hits, 3);
        assert_eq!(second.manifest.cache_misses, 1, "corrupt entry recomputed");
        assert_eq!(second.manifest.failed, 0);
        assert_eq!(second.manifest.failures.cache_corrupt, 1);
        assert_eq!(
            second.manifest.results_digest, first.manifest.results_digest,
            "healed sweep matches the original"
        );
        assert!(dir
            .join(".quarantine")
            .join(format!("{key:016x}.json"))
            .exists());
        // Third run: fully healed, all hits.
        let third = sweep(2, cache(), &sup, &js, None, &body);
        assert_eq!(third.manifest.cache_hits, 4);
        assert!(third.manifest.failures.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_resume_replays_completed_jobs() {
        let dir = std::env::temp_dir().join(format!("liteworp-sup-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("sweep.jsonl");
        let js = jobs(6);
        let executions = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&executions);
        let body = exec(move |j, _, _| {
            counted.fetch_add(1, Ordering::SeqCst);
            Ok(Val(j.seed as f64 + 0.5))
        });
        let sup = Supervision {
            journal: Some(journal.clone()),
            ..Supervision::default()
        };
        let full = sweep(2, None, &sup, &js, None, &body);
        assert_eq!(executions.load(Ordering::SeqCst), 6);

        // Simulate a crash after 3 completions: keep header + 3 entries
        // plus a torn partial line.
        let text = std::fs::read_to_string(&journal).unwrap();
        let keep: Vec<&str> = text.lines().take(4).collect();
        std::fs::write(&journal, format!("{}\n{{\"key\":\"00", keep.join("\n"))).unwrap();

        let resume = Supervision {
            journal: Some(journal.clone()),
            resume: true,
            ..Supervision::default()
        };
        let resumed = sweep(2, None, &resume, &js, None, &body);
        assert_eq!(resumed.manifest.journal_hits, 3);
        assert_eq!(resumed.manifest.cache_misses, 3);
        assert_eq!(
            executions.load(Ordering::SeqCst),
            9,
            "only the 3 lost jobs re-executed"
        );
        assert_eq!(
            resumed.manifest.results_digest, full.manifest.results_digest,
            "resumed sweep is byte-identical to the uninterrupted one"
        );
        assert_eq!(resumed.manifest.failures.journal_hits, 3);

        // A third resume replays everything.
        let third = sweep(2, None, &resume, &js, None, &body);
        assert_eq!(third.manifest.journal_hits, 6);
        assert_eq!(executions.load(Ordering::SeqCst), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_against_a_different_sweep_starts_fresh() {
        let dir = std::env::temp_dir().join(format!("liteworp-sup-sweepid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("sweep.jsonl");
        let body = exec(|j, _, _| Ok(Val(j.seed as f64)));
        let sup = Supervision {
            journal: Some(journal.clone()),
            resume: true,
            ..Supervision::default()
        };
        sweep(1, None, &sup, &jobs(3), None, &body);
        // Different job set: the stale journal must not be replayed.
        let other: Vec<JobSpec> = jobs(3)
            .into_iter()
            .map(|mut j| {
                j.scenario = "different-scenario".into();
                j
            })
            .collect();
        let report = sweep(1, None, &sup, &other, None, &body);
        assert_eq!(report.manifest.journal_hits, 0);
        assert_eq!(report.manifest.cache_misses, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_failures_block_serializes() {
        let js = jobs(3);
        let hook = Arc::new(Transient {
            targets: vec![0],
            faulty: 9,
        });
        let sup = Supervision {
            max_retries: 1,
            backoff_base_us: 0,
            ..Supervision::default()
        };
        let body = exec(|j, _, _| Ok(Val(j.seed as f64)));
        let report = sweep(2, None, &sup, &js, Some(hook), &body);
        let json = report.manifest.to_json();
        let failures = json.get("failures").expect("failures block");
        assert_eq!(failures.get("io").and_then(Json::as_u64), Some(1));
        assert_eq!(
            failures
                .get("quarantined")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(1)
        );
        assert!(json.get("results_digest").is_some());
        let line = report.manifest.summary_line();
        assert!(line.contains("digest"), "{line}");
        assert!(line.contains("1 quarantined"), "{line}");
    }
}
