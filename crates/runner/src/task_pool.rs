//! The std-only thread pool every sweep runs on.
//!
//! [`TaskPool`] keeps `n` workers alive for the pool's whole lifetime
//! and feeds them boxed closures through a shared FIFO queue. A daemon
//! keeps one warm pool and multiplexes jobs from many concurrent
//! requests onto it; a one-shot experiment bin builds a pool sized to
//! its batch and drops it when the batch drains. Either way the jobs run
//! through [`crate::service::SweepEngine`].
//!
//! Tasks are `'static` (they outlive the submitting call); each task
//! receives the index of the worker running it. Panicking tasks are
//! caught so a bad job never kills a worker. Dropping the pool signals
//! shutdown and joins every worker; tasks still queued at that point are
//! dropped unrun, so owners must drain their own completion counters
//! before letting the pool go.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A queued unit of work: called once with the running worker's index.
type Task = Box<dyn FnOnce(usize) + Send>;

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
}

struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// A fixed-size pool of persistent workers draining a shared task queue.
pub struct TaskPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl TaskPool {
    /// Spawns `threads` workers (clamped to at least 1) that live until
    /// the pool is dropped.
    pub fn new(threads: usize) -> TaskPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(w, &shared))
            })
            .collect();
        TaskPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one task; some worker will run it with its own index.
    /// Tasks submitted after shutdown began are silently dropped (the
    /// pool is already on its way down; owners gate their own submits).
    pub fn spawn(&self, task: impl FnOnce(usize) + Send + 'static) {
        let mut queue = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if !queue.shutdown {
            queue.tasks.push_back(Box::new(task));
            drop(queue);
            self.shared.available.notify_one();
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            queue.shutdown = true;
            queue.tasks.clear();
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Resolves the worker count: an explicit request, else the
/// `LITEWORP_JOBS` environment variable, else all available cores.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    requested
        .or_else(|| {
            std::env::var("LITEWORP_JOBS")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Extracts the human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

fn worker_loop(worker: usize, shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // A panicking task must not take its worker down with it; the
        // submitter observes the panic through its own completion slot.
        let _ = catch_unwind(AssertUnwindSafe(|| task(worker)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_spawned_task() {
        let pool = TaskPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        for _ in 0..100 {
            let done = Arc::clone(&done);
            let gate = Arc::clone(&gate);
            pool.spawn(move |w| {
                assert!(w < 4);
                done.fetch_add(1, Ordering::SeqCst);
                let (count, cv) = &*gate;
                *count.lock().unwrap() += 1;
                cv.notify_all();
            });
        }
        let (count, cv) = &*gate;
        let mut finished = count.lock().unwrap();
        while *finished < 100 {
            finished = cv.wait(finished).unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let pool = TaskPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        pool.spawn(|_| panic!("task boom"));
        let after = Arc::clone(&gate);
        pool.spawn(move |_| {
            let (done, cv) = &*after;
            *done.lock().unwrap() = true;
            cv.notify_all();
        });
        let (done, cv) = &*gate;
        let mut ran = done.lock().unwrap();
        while !*ran {
            ran = cv.wait(ran).unwrap();
        }
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = TaskPool::new(2);
        assert_eq!(pool.threads(), 2);
        drop(pool); // must not hang
    }
}
