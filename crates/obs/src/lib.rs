//! `liteworp-obs`: the runtime observability plane.
//!
//! The `liteworp-telemetry` crate observes *protocol* events in
//! sim-time; this crate observes the *runtime* — pool, cache, daemon,
//! and the simulate hot path — in wall-clock. It deliberately never
//! feeds simulation state: every clock read goes through [`clock`] (the
//! lint gate's registered D001 wall-clock boundary for this crate), and
//! everything recorded here is output-only, so instrumented runs stay
//! bit-identical to uninstrumented ones.
//!
//! Three planes, one crate:
//!
//! * **Spans** ([`mod@span`]) — hierarchical wall-clock scopes with
//!   deterministic identifiers, gated by a single process-global switch:
//!   with the plane disabled a span costs one relaxed atomic load and a
//!   branch (proved by the `obs/span_disabled` microbench).
//! * **Metrics registry** ([`registry`]) — named counters, gauges, and
//!   log2 histograms behind cheap atomic handles. A histogram handle
//!   wraps `liteworp_telemetry::AtomicHistogram`, so a snapshot holds
//!   plain `liteworp_telemetry::Histogram`s. Handles are *not* gated: a
//!   counter is a relaxed `fetch_add` whether or not the span plane is
//!   enabled, so the served daemon's `stats` op always has live figures.
//! * **Folded-stack profiler** ([`profile`]) — span closings aggregate
//!   into flamegraph-compatible `frame;frame;frame self_us` lines,
//!   written to `DIR/profile.folded` by the experiment binaries'
//!   `--observe DIR` flag.
//!
//! Every metric and span name used with a literal at an
//! `obs::counter(…)` / `obs::span(…)` call site must be listed in
//! [`names`] — lint rule S003 enforces the registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod names;
pub mod profile;
pub mod registry;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};

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
