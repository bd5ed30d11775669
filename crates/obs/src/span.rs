//! Hierarchical wall-clock spans with deterministic identifiers.
//!
//! A span is an RAII scope: [`span("name")`](span) pushes a frame onto a
//! thread-local stack and the returned [`SpanGuard`] pops it on drop,
//! recording the frame's inclusive duration into the `span_us.<name>`
//! registry histogram and its *self* time (inclusive minus children)
//! into the folded-stack profile under the full `a;b;c` path.
//!
//! Identifiers are deterministic: a root span's id is `fnv64(name)` and
//! a child's id hashes `(parent_id, name, child_index)`, so the same
//! call tree yields the same ids on every run — wall-clock readings
//! color the tree but never shape it.
//!
//! With the plane disabled ([`crate::enabled`] false) a span is inert:
//! one relaxed atomic load, one branch, no clock read, no TLS touch.

use crate::{clock, profile, registry};
use liteworp_runner::cache::fnv64;
use std::cell::RefCell;
use std::marker::PhantomData;

struct Frame {
    name: &'static str,
    id: u64,
    /// Semicolon-joined ancestor names ending in `name` (the folded key).
    path: String,
    start_us: u64,
    /// Summed inclusive time of already-closed direct children.
    child_us: u64,
    /// Number of direct children opened so far (feeds child ids).
    child_count: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Derives a child span id from its parent id, name, and birth index.
fn child_id(parent_id: u64, name: &str, index: u64) -> u64 {
    let mut bytes = Vec::with_capacity(16 + name.len());
    bytes.extend_from_slice(&parent_id.to_le_bytes());
    bytes.extend_from_slice(name.as_bytes());
    bytes.extend_from_slice(&index.to_le_bytes());
    fnv64(&bytes)
}

/// Opens a span named `name` under the current thread's innermost open
/// span (or as a root). Returns the guard that closes it on drop.
///
/// `name` should be listed in [`crate::names::SPAN_NAMES`] — lint rule
/// S003 checks literal call sites against that registry.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard(false, PhantomData);
    }
    open(name)
}

/// The enabled half of [`span`], kept out of line so the inlined
/// disabled path stays one load and one branch.
#[inline(never)]
fn open(name: &'static str) -> SpanGuard {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let (id, path) = match stack.last_mut() {
            Some(parent) => {
                let id = child_id(parent.id, name, parent.child_count);
                parent.child_count += 1;
                (id, format!("{};{}", parent.path, name))
            }
            None => (fnv64(name.as_bytes()), name.to_string()),
        };
        stack.push(Frame {
            name,
            id,
            path,
            start_us: clock::now_micros(),
            child_us: 0,
            child_count: 0,
        });
    });
    SpanGuard(true, PhantomData)
}

/// The deterministic id of the current thread's innermost open span, or
/// `None` outside any span (or with the plane disabled).
pub fn current_span_id() -> Option<u64> {
    STACK.with(|stack| stack.borrow().last().map(|f| f.id))
}

/// Closes its span on drop. Not `Send`: a span belongs to the thread
/// that opened it (the stack is thread-local), and a guard dropped on
/// another thread would pop that thread's innermost frame instead.
///
/// ```compile_fail
/// let guard = liteworp_obs::span("job");
/// std::thread::spawn(move || drop(guard));
/// ```
///
/// The fields are whether the span is live and a zero-sized marker that
/// makes the guard `!Send` and `!Sync`.
#[must_use = "a span measures the scope that holds its guard"]
pub struct SpanGuard(bool, PhantomData<*const ()>);

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.0 {
            close();
        }
    }
}

/// Pops and records the innermost open span: the out-of-line half of
/// dropping a live [`SpanGuard`].
#[inline(never)]
fn close() {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let Some(frame) = stack.pop() else {
            return;
        };
        let inclusive_us = clock::now_micros().saturating_sub(frame.start_us);
        let self_us = inclusive_us.saturating_sub(frame.child_us);
        profile::record(&frame.path, self_us);
        registry::record_span_us(frame.name, inclusive_us);
        match stack.last_mut() {
            Some(parent) => parent.child_us += inclusive_us,
            // Root closed: publish this thread's profile buffer.
            None => profile::flush_thread(),
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_ids_are_deterministic_and_positional() {
        let root = fnv64(b"job");
        assert_eq!(
            child_id(root, "event_loop", 0),
            child_id(root, "event_loop", 0)
        );
        assert_ne!(
            child_id(root, "event_loop", 0),
            child_id(root, "event_loop", 1)
        );
        assert_ne!(
            child_id(root, "event_loop", 0),
            child_id(root, "detection", 0)
        );
    }

    #[test]
    fn disabled_span_leaves_no_trace() {
        crate::disable();
        let guard = span("job");
        assert_eq!(current_span_id(), None);
        drop(guard);
    }
}
