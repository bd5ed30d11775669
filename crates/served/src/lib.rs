//! `liteworp-served`: a long-lived sweep-service daemon for the LITEWORP
//! reproduction.
//!
//! Instead of one process per experiment, the daemon keeps a warm
//! [`liteworp_runner::SweepEngine`] — persistent worker pool, shared
//! content-addressed result cache, per-request resume journals — and
//! serves experiment sweeps to many concurrent clients over a
//! length-delimited JSONL socket protocol (`submit`, `status`, `cancel`,
//! `subscribe`, `stats`, `ping`, `shutdown`; see `EXPERIMENTS.md`
//! §"Served mode").
//!
//! Determinism contract: a sweep served by the daemon produces the
//! byte-identical `results_digest` the batch binaries produce for the
//! same experiment, regardless of concurrency, cache state, duplicate
//! submissions, cancellations, or a crash + `--resume` restart in
//! between. The `liteworp-load` companion binary drives a daemon with
//! thousands of mixed requests and checks exactly that.
//!
//! For horizontal scale and fault isolation, `liteworp-served --front`
//! runs the same binary as a *shard front*: it spawns N worker daemons
//! (each a failure domain with its own pool, cache, and journals),
//! routes submits by the content-addressed request key, supervises the
//! workers (bounded seeded-backoff restarts, quarantine + deterministic
//! rerouting beyond the budget), and degrades onto an in-process engine
//! rather than refuse work. See [`front`] and [`shard`], and
//! DESIGN.md §13.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod front;
pub mod net;
pub mod proto;
pub mod server;
pub mod shard;
pub mod state;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the data from a poisoned lock: a panicked
/// connection or drainer thread must not take the daemon down with it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
