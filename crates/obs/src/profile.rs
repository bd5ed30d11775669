//! The folded-stack self-profiler.
//!
//! Span closings feed this module their full semicolon-joined path and
//! *self* time (inclusive minus children) in microseconds. Aggregated
//! output is the folded format every flamegraph renderer eats directly:
//!
//! ```text
//! job;event_loop 41830
//! job;event_loop;watch_buffer 1201
//! job;neighbor_discovery 922
//! ```
//!
//! Because counts are self-times, a span's *inclusive* time is the sum
//! of the self times of every stack with its path as a prefix (its own
//! line included), so a parent's inclusive time always bounds its
//! children's — the invariant `scripts/obs_smoke.sh` asserts against a
//! live run.
//!
//! Threads buffer locally and publish under the global lock only when a
//! root span closes, so the hot path never contends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, PoisonError};

thread_local! {
    static LOCAL: RefCell<BTreeMap<String, u64>> = const { RefCell::new(BTreeMap::new()) };
}

fn global() -> &'static Mutex<BTreeMap<String, u64>> {
    static GLOBAL: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, BTreeMap<String, u64>> {
    global().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Adds `self_us` to `path`'s bucket in the calling thread's buffer.
pub(crate) fn record(path: &str, self_us: u64) {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        match local.get_mut(path) {
            Some(total) => *total += self_us,
            None => {
                local.insert(path.to_string(), self_us);
            }
        }
    });
}

/// Publishes the calling thread's buffer into the global profile.
/// Called automatically when a root span closes.
pub(crate) fn flush_thread() {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        if local.is_empty() {
            return;
        }
        let mut map = lock();
        for (path, us) in std::mem::take(&mut *local) {
            *map.entry(path).or_insert(0) += us;
        }
    });
}

/// The aggregated profile as folded text: one `path count_us` line per
/// distinct stack, sorted by path, trailing newline. Empty string when
/// nothing was recorded. Includes the calling thread's unflushed buffer.
pub fn folded() -> String {
    flush_thread();
    let map = lock();
    let mut out = String::new();
    for (path, us) in map.iter() {
        out.push_str(path);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

/// Clears the global profile and the calling thread's buffer.
pub fn reset() {
    LOCAL.with(|local| local.borrow_mut().clear());
    lock().clear();
}
