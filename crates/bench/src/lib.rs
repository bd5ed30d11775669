//! Experiment harness for the LITEWORP reproduction: scenario builder and
//! the code that regenerates every table and figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod chaos_exec;
pub mod cli;
pub mod exec;
pub mod experiments;
pub mod observe;
pub mod report;
pub mod scenario;
pub mod timeline;
pub mod timing;

pub use scenario::{Scenario, ScenarioAttack, ScenarioRun};
