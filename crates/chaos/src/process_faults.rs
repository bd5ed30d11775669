//! Process-level fault plans for the shard fabric.
//!
//! [`FaultPlan`](crate::plan::FaultPlan) breaks *frames inside a
//! simulation*; [`ProcessFaultPlan`] breaks the *service processes that
//! run simulations*: kill -9 a worker daemon mid-drain, stop one with
//! SIGSTOP (alive process, silent socket — exactly what a protocol ping
//! catches and an exit-status check misses), or corrupt the tail of a
//! worker's request WAL before it resumes. The shard front must
//! survive every sampled plan with a byte-identical sorted digest set —
//! the `shard` integration tests and `scripts/shard_smoke.sh` assert
//! exactly that.
//!
//! A [`ProcessFaultPlan`] is pure data: sampled deterministically from a
//! seed and validated, and its `Debug` form is the reproducer a failing
//! test prints. The *mechanics* live next to the victims — `kill -9`
//! and `kill -STOP` by the pid the front's `shards` op reports, a file
//! truncation/garbage append for WAL corruption — so this module stays
//! dependency-free data.

use liteworp_runner::rng::{Pcg32, Rng};

/// One process-level fault against a shard worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessFault {
    /// SIGKILL the worker once it has drained `after_done` requests —
    /// no flush, no goodbye; the supervisor finds out via exit status
    /// and a failed ping.
    Kill {
        /// The victim shard's ring index.
        shard: usize,
        /// How many completed requests to wait for before the kill
        /// (0 = kill as soon as the worker is up).
        after_done: u64,
    },
    /// SIGSTOP the worker once it has drained `after_done` requests:
    /// the process stays alive and its socket keeps accepting, but
    /// nothing answers, so only the protocol ping can catch it.
    Stop {
        /// The victim shard's ring index.
        shard: usize,
        /// How many completed requests to wait for before the stop
        /// (0 = stop as soon as the worker is up).
        after_done: u64,
    },
    /// Append a torn, garbage tail to the worker's `requests.jsonl`
    /// after killing it, before the supervisor restarts it with
    /// `--resume` — the WAL loader must truncate it back to the last
    /// clean record.
    CorruptWalTail {
        /// The victim shard's ring index.
        shard: usize,
        /// How many garbage bytes to append (no trailing newline).
        bytes: usize,
    },
}

impl ProcessFault {
    /// The victim shard's ring index.
    pub fn shard(&self) -> usize {
        match self {
            ProcessFault::Kill { shard, .. }
            | ProcessFault::Stop { shard, .. }
            | ProcessFault::CorruptWalTail { shard, .. } => *shard,
        }
    }
}

/// A complete process-level fault plan against a front with `shards`
/// workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessFaultPlan {
    /// Seed the plan was sampled from (kept for the reproducer line).
    pub seed: u64,
    /// Ring size the plan was sampled for.
    pub shards: usize,
    /// The faults, in injection order.
    pub faults: Vec<ProcessFault>,
}

impl ProcessFaultPlan {
    /// Draws a plan with up to `max_faults` faults against a ring of
    /// `shards` workers. Deterministic per `(seed, shards, max_faults)`.
    /// At most one fault per shard, so a plan never asks for the same
    /// victim twice (a killed worker cannot also be stopped).
    pub fn sample(seed: u64, shards: usize, max_faults: usize) -> ProcessFaultPlan {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut faults = Vec::new();
        let budget = max_faults.min(shards);
        let count = if budget > 0 {
            rng.gen_range(1..=budget as u64) as usize
        } else {
            0
        };
        let mut victims: Vec<usize> = (0..shards).collect();
        for _ in 0..count {
            let pick = rng.gen_range(0..victims.len() as u64) as usize;
            let shard = victims.swap_remove(pick);
            let fault = match rng.gen_range(0..3u64) {
                0 => ProcessFault::Kill {
                    shard,
                    after_done: rng.gen_range(0..=4u64),
                },
                1 => ProcessFault::Stop {
                    shard,
                    after_done: rng.gen_range(0..=4u64),
                },
                _ => ProcessFault::CorruptWalTail {
                    shard,
                    bytes: rng.gen_range(1..=64u64) as usize,
                },
            };
            faults.push(fault);
        }
        let plan = ProcessFaultPlan {
            seed,
            shards,
            faults,
        };
        debug_assert!(plan.validate().is_ok());
        plan
    }

    /// Validates shard indices, per-shard uniqueness, and fault shapes.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.shards];
        for fault in &self.faults {
            let shard = fault.shard();
            if shard >= self.shards {
                return Err(format!("fault targets shard {shard} of {}", self.shards));
            }
            if std::mem::replace(&mut seen[shard], true) {
                return Err(format!("shard {shard} targeted twice"));
            }
            if let ProcessFault::CorruptWalTail { bytes: 0, .. } = fault {
                return Err("zero-byte WAL corruption injects nothing".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_valid() {
        for seed in 0..50 {
            let plan = ProcessFaultPlan::sample(seed, 3, 2);
            plan.validate().expect("sampled plan must validate");
            assert!(
                !plan.faults.is_empty(),
                "max_faults >= 1 draws at least one"
            );
            assert!(plan.faults.len() <= 2);
            assert_eq!(plan, ProcessFaultPlan::sample(seed, 3, 2));
        }
        assert_ne!(
            ProcessFaultPlan::sample(1, 3, 2),
            ProcessFaultPlan::sample(2, 3, 2)
        );
    }

    #[test]
    fn each_shard_is_targeted_at_most_once() {
        for seed in 0..50 {
            let plan = ProcessFaultPlan::sample(seed, 2, 5);
            let mut shards: Vec<usize> = plan.faults.iter().map(ProcessFault::shard).collect();
            shards.sort_unstable();
            shards.dedup();
            assert_eq!(shards.len(), plan.faults.len(), "{plan:?}");
        }
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let plan = ProcessFaultPlan {
            seed: 0,
            shards: 2,
            faults: vec![ProcessFault::Kill {
                shard: 2,
                after_done: 0,
            }],
        };
        assert!(plan.validate().is_err(), "out-of-range shard");
        let plan = ProcessFaultPlan {
            seed: 0,
            shards: 2,
            faults: vec![
                ProcessFault::Kill {
                    shard: 0,
                    after_done: 0,
                },
                ProcessFault::Stop {
                    shard: 0,
                    after_done: 0,
                },
            ],
        };
        assert!(plan.validate().is_err(), "double-targeted shard");
        let plan = ProcessFaultPlan {
            seed: 0,
            shards: 2,
            faults: vec![ProcessFault::CorruptWalTail { shard: 0, bytes: 0 }],
        };
        assert!(plan.validate().is_err(), "null corruption");
    }
}
