//! Typed protocol telemetry for the LITEWORP reproduction.
//!
//! Three pieces, all std-only:
//!
//! - [`Event`] / [`EventKind`]: a sim-time-stamped, typed record of every
//!   analysis-relevant protocol occurrence (hello broadcasts, neighbor
//!   additions, watch-buffer expiries, `MalC` increments, alerts,
//!   suspicions, isolations, tunnel relays, route establishment). This is
//!   the single source of truth the experiments read — no parallel
//!   string-tagged bookkeeping.
//! - [`EventLog`]: a bounded ring-buffer sink with per-kind counters that
//!   stay exact even after the ring starts dropping old events.
//! - [`Histogram`]: log2-bucket histograms with `p50`/`p95`/`max`,
//!   mergeable across seeds and serializable through the runner's JSON
//!   writer, plus [`AtomicHistogram`], its lock-free shared recorder.
//!
//! Events serialize to one JSON object per line (JSONL) so traces stream
//! to disk and diff cleanly between runs.

#![forbid(unsafe_code)]

pub mod event;
pub mod hist;
pub mod log;

pub use event::{Event, EventKind, MalcReason};
pub use hist::{AtomicHistogram, Histogram};
pub use log::EventLog;

pub use liteworp_runner::json::Json;
