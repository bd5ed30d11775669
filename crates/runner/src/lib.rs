//! `liteworp-runner`: parallel, deterministic, cache-aware experiment
//! execution for the LITEWORP reproduction.
//!
//! Every headline result of the paper replays tens of independent seeded
//! simulations. This crate turns that embarrassingly parallel workload
//! into an execution engine with four guarantees:
//!
//! 1. **Determinism** — each job's RNG seed is derived purely from the
//!    job's identity (`(scenario_hash, seed)`, mixed with splitmix64), so
//!    aggregates are byte-identical at any thread count ([`engine`],
//!    [`rng`]).
//! 2. **Resumability** — job results are stored in a content-addressed
//!    on-disk cache keyed by `fnv64(scenario + seed + code_version)`;
//!    re-running a sweep only executes missing or changed cells
//!    ([`cache`]).
//! 3. **Observability** — every run produces a [`engine::Manifest`]
//!    recording per-job wall-clock and queue wait, cache hit/miss counts,
//!    and per-worker utilization.
//! 4. **Survivability** — every job runs under a supervision envelope
//!    (typed [`supervisor::JobFailure`] taxonomy, deterministic bounded
//!    retries, sim-time deadlines), sweeps journal completions to an
//!    fsync'd write-ahead log for crash resume ([`journal`]), and cache
//!    entries carry checksums so corruption is quarantined and
//!    recomputed, never parsed ([`cache`]).
//!
//! One executor runs every sweep: [`SweepEngine`] on a [`TaskPool`].
//! The daemon keeps one warm engine; experiment bins build a one-shot
//! engine per batch ([`service`]).
//!
//! The crate is dependency-free (std only) and also hosts the workspace's
//! shared deterministic RNG ([`rng`]) and a minimal JSON reader/writer
//! ([`json`]) so no crate in the default build needs the network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod journal;
pub mod json;
pub mod rng;
pub mod service;
pub mod stats;
pub mod supervisor;
pub mod task_pool;
#[cfg(test)]
mod testutil;

pub use cache::{CacheLoad, ResultCache};
pub use engine::{CacheValue, JobError, JobSpec, Manifest, RunReport};
pub use json::Json;
pub use rng::{Pcg32, Rng};
pub use service::{JobProgress, ProgressObserver, SweepEngine, SweepExec};
pub use stats::{Percentiles, Summary};
pub use supervisor::{FailureReport, JobContext, JobFailure, JobFaultHook, Supervision};
pub use task_pool::{resolve_threads, TaskPool};
