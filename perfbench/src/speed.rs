//! Host speed, measured with a fixed reference kernel.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves
//! by up to 2× from one minute to the next: other tenants' load changes
//! the clock and the share of its physical core a vCPU gets, and almost
//! none of it shows in the guest as steal time (a vCPU's own CPU time
//! doubles with its wall time). A run's wall times follow that
//! drift, so two runs of the same code can differ by more than any
//! sensible regression bound.
//!
//! Each iteration of a run is therefore bracketed by samples of a
//! reference kernel — a small event-queue and random-access loop owned by
//! the benchmark, which no change to the program touches — once on as
//! many threads as the workload's pools use and once on one thread. An
//! iteration's speed factor is the reference time over the mean of its
//! two brackets, and every timed metric is reported as measured × factor
//! (a rate: ÷ factor), in seconds at the reference speed. Work on one
//! thread (builds, daemon starts) takes the serial factor, the rest the
//! parallel one. The raw values are printed beside them in the table.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// About the seconds a sample on 2 threads takes on a quiet 2-vCPU
/// 2.1 GHz Xeon VM: its time in a slow spell scaled by the workloads'
/// quiet-to-slow wall-time ratio there (1 : 2.1). Only ratios matter to
/// the gate; the constants anchor the normalized times near the wall
/// times of that host when quiet.
pub const PARALLEL_REFERENCE_S: f64 = 0.066;

/// The same for a sample on one thread.
pub const SERIAL_REFERENCE_S: f64 = 0.064;

/// Table slots of the random-access part: 64 KiB of `u64` per thread,
/// past the L1 and inside the L2. The reference host's slowdowns are
/// per-core (a tiny interpreter loop slows as much as the simulator); a
/// 4 MiB table, spilling into the shared cache, made the samples nearly
/// twice as noisy and tracked the workloads no better.
const SLOTS: usize = 1 << 13;

/// Pending events the queue part keeps.
const QUEUE: usize = 4096;

/// Rounds of one chunk.
const ROUNDS: u64 = 100_000;

/// Chunks of one sample per thread, shared out to the threads as they
/// free up, the way the runner's pool hands out jobs. A third as many
/// made each sample noisier than the iteration it scales.
const CHUNKS_PER_THREAD: u64 = 24;

/// One chunk of the kernel: a xorshift stream drives a binary-heap event
/// queue and dependent reads and writes into `table`. Returns a checksum
/// of `seed` and the table's contents.
fn kernel(table: &mut [u64], seed: u64) -> u64 {
    let mask = table.len() - 1;
    let mut queue = BinaryHeap::with_capacity(QUEUE + 1);
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = x as usize & mask;
        table[slot] = table[slot].wrapping_add(x);
        acc ^= table[(acc as usize ^ slot) & mask];
        queue.push(Reverse(x >> 40));
        if queue.len() > QUEUE {
            let Reverse(t) = queue.pop().expect("queue is not empty");
            acc = acc.rotate_left(5).wrapping_add(t);
        }
    }
    acc
}

/// Runs [`CHUNKS_PER_THREAD`] chunks per thread of the kernel on
/// `threads` threads, each thread taking the next chunk when it finishes
/// one, and returns the wall seconds until the last chunk is done.
pub fn sample(threads: usize) -> f64 {
    let threads = threads.max(1);
    let chunks = CHUNKS_PER_THREAD * threads as u64;
    let next = AtomicU64::new(0);
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut table = vec![0u64; SLOTS];
                let mut acc = 0u64;
                loop {
                    let chunk = next.fetch_add(1, Ordering::Relaxed);
                    if chunk >= chunks {
                        break;
                    }
                    acc ^= kernel(&mut table, black_box(0x5EED + chunk));
                }
                black_box(acc);
            });
        }
    });
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_seed_dependent() {
        let run = |seed| kernel(&mut vec![0; 1 << 10], seed);
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn a_sample_takes_measurable_time() {
        let s = sample(2);
        assert!(s > 0.0 && s < 10.0, "{s} s");
    }
}
