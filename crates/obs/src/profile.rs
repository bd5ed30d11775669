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
//! Because counts are self-times, summing a stack's own line with all
//! lines it prefixes recovers the span's *inclusive* time (see
//! [`inclusive_times`]), and a parent's inclusive time always bounds its
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

/// Parses folded text back into `stack frames → self-time` pairs.
/// Malformed lines (no count, empty stack) are skipped.
pub fn parse_folded(text: &str) -> BTreeMap<Vec<String>, u64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some((stack, count)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(count) = count.parse::<u64>() else {
            continue;
        };
        if stack.is_empty() {
            continue;
        }
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        *out.entry(frames).or_insert(0) += count;
    }
    out
}

/// Recovers each stack's *inclusive* time from parsed self-times: every
/// stack's count is credited to itself and all of its proper prefixes.
/// This is the span tree with aggregate durations — the parent ≥ sum of
/// children invariant holds by construction.
pub fn inclusive_times(profile: &BTreeMap<Vec<String>, u64>) -> BTreeMap<Vec<String>, u64> {
    let mut out: BTreeMap<Vec<String>, u64> = BTreeMap::new();
    for (frames, us) in profile {
        for depth in 1..=frames.len() {
            *out.entry(frames[..depth].to_vec()).or_insert(0) += us;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_inclusive_round_trip() {
        let text =
            "job 10\njob;event_loop 40\njob;event_loop;watch_buffer 5\njob;neighbor_discovery 2\n";
        let parsed = parse_folded(text);
        assert_eq!(parsed.len(), 4);
        let inclusive = inclusive_times(&parsed);
        assert_eq!(inclusive[&vec!["job".to_string()]], 57);
        assert_eq!(
            inclusive[&vec!["job".to_string(), "event_loop".to_string()]],
            45
        );
        assert_eq!(
            inclusive[&vec![
                "job".to_string(),
                "event_loop".to_string(),
                "watch_buffer".to_string()
            ]],
            5
        );
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let parsed = parse_folded("nocount\n 12\nok 3\nbad notanum\n");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[&vec!["ok".to_string()]], 3);
    }
}
