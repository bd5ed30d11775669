//! Deterministic fault injection and protocol invariant checking.
//!
//! This crate turns the test suite from example-based into an executable
//! specification of LITEWORP: inject seeded faults into a simulated run
//! and machine-check that the protocol's event stream stays legal.
//!
//! Three pieces:
//!
//! * [`plan::FaultPlan`] — pure data describing what to break:
//!   probabilistic frame drop, corruption, duplication, bounded
//!   reorder/jitter, node crash/reboot windows, and per-node clock drift.
//!   Plans sample from a [`plan::FuzzProfile`], shrink toward minimal
//!   counterexamples, and round-trip through a reproducer command line.
//! * [`inject::Injector`] — a [`liteworp_netsim::fault::FaultHook`]
//!   executing a plan from its own PCG32 streams, fully deterministic
//!   per `(scenario seed, plan)` pair.
//! * [`engine_faults::EngineFaultPlan`] — chaos for the *runner* itself:
//!   a [`liteworp_runner::supervisor::JobFaultHook`] injecting transient
//!   per-attempt job failures (io / panic / invariant) so the
//!   supervisor's retry, quarantine, and journal paths are exercised
//!   deterministically.
//! * [`process_faults::ProcessFaultPlan`] — chaos for the *service
//!   fabric*: kill -9 a shard worker mid-drain, stop it with SIGSTOP,
//!   or tear its request-WAL tail, sampled from a seed and validated.
//!   The shard front (`liteworp-served --front`) must drain to
//!   byte-identical digests under any sampled plan.
//! * [`oracle`] — replays a [`liteworp_obs::EventLog`] and asserts
//!   the protocol invariants (alert quorum, `MalC` provenance, watch
//!   bound, absorbing isolation, honest immunity). See the module docs
//!   for the precise statement of each.
//!
//! The `chaos_fuzz` binary in `liteworp-bench` drives scenario × plan
//! sweeps through the runner's job pool and shrinks any violation it
//! finds; `EXPERIMENTS.md` documents the workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine_faults;
pub mod inject;
pub mod oracle;
pub mod plan;
pub mod process_faults;

pub use engine_faults::EngineFaultPlan;
pub use inject::Injector;
pub use oracle::{check, Immunity, Invariant, OracleConfig, ReplayStats, Violation};
pub use plan::{parse_crashes, parse_drifts, ClockDrift, CrashWindow, FaultPlan, FuzzProfile};
pub use process_faults::{ProcessFault, ProcessFaultPlan};
