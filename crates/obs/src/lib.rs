//! `liteworp-obs`: observability for the LITEWORP reproduction, of the
//! *protocol* in sim-time and of the *runtime* in wall-clock. Everything
//! recorded here is output-only and every wall-clock read goes through
//! [`clock`] (the lint gate's registered D001 boundary for this crate),
//! so instrumented runs stay bit-identical to uninstrumented ones.
//!
//! * **Events** ([`Event`], [`EventLog`]) — a typed, sim-time-stamped
//!   record of every analysis-relevant protocol occurrence (hellos,
//!   neighbor additions, watch expiries, `MalC` increments, alerts,
//!   suspicions, isolations, tunnel relays, routes), kept in a bounded
//!   ring whose per-kind counts stay exact after eviction, and written
//!   as one flat JSON object per line (JSONL).
//! * **Simulator counters** ([`SimCounter`]) — the names of the per-run
//!   counters protocols bump through `netsim::Metrics`, declared once in
//!   [`names`] so a misspelled counter does not compile.
//! * **Spans** ([`mod@span`]) — hierarchical wall-clock scopes with
//!   deterministic identifiers, gated by a single process-global switch:
//!   with the plane disabled a span costs one relaxed atomic load and a
//!   branch (proved by the `obs/span_disabled` microbench).
//! * **Metrics registry** ([`registry`]) — named counters, gauges, and
//!   [`AtomicHistogram`]s behind cheap atomic handles, not gated by the
//!   span switch, so the served daemon's `stats` op always has live
//!   figures.
//! * **Folded-stack profiler** ([`profile`]) — span closings aggregate
//!   into flamegraph-compatible `frame;frame;frame self_us` lines,
//!   written to `DIR/profile.folded` by `--observe DIR`.
//!
//! Both halves share one log2-bucket [`Histogram`]. Every metric and span
//! name used with a literal at an `obs::counter(…)` / `obs::span(…)` call
//! site must be listed in [`names`] — lint rule S003 enforces the
//! registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod hist;
pub mod log;
pub mod names;
pub mod profile;
pub mod registry;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};

pub use event::{Event, EventKind, MalcReason};
pub use hist::{AtomicHistogram, Histogram};
pub use log::EventLog;
pub use names::SimCounter;
pub use registry::{counter, gauge, histogram, snapshot, Counter, Gauge, Hist, Snapshot};
pub use span::{current_span_id, span, SpanGuard};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the span/profile plane on, process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the span/profile plane off, process-wide. Metric handles keep
/// working (they are plain atomics); only spans become inert.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the span/profile plane is on. This is the whole cost of a
/// disabled span: one relaxed load and the branch on it.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
