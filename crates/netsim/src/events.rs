//! The indexed event queue: a binary min-heap keyed by `(sim_time, seq)`.
//!
//! Determinism contract: events at the same simulated time pop in the order
//! they were pushed. The queue stamps every push with a strictly increasing
//! sequence number and orders entries by `(time, seq)`, so ties never fall
//! through to heap-internal (unstable) ordering. This is the total order
//! the pre-index simulator enforced with its inline `Scheduled` struct,
//! extracted so it can be property-tested on its own.
//!
//! The heap holds 24-byte `(time, seq, slot)` keys; the events themselves
//! sit still in a slab of `Option<E>` slots (vacated slots are reused
//! through a free list). A sift moves keys only, so its cost does not grow
//! with the event type. The slab keeps its peak size, so the simulator's
//! own events stay at 16 bytes and leave frames outside the queue.

use crate::time::SimTime;
use std::collections::BinaryHeap;

/// A heap entry: when, in which push order, and where the event sits.
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted so the std max-heap pops the earliest (time, seq) first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// # Example
///
/// ```
/// use liteworp_netsim::events::EventQueue;
/// use liteworp_netsim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// let t = SimTime::from_micros(5);
/// q.push(t, "first");
/// q.push(SimTime::from_micros(1), "early");
/// q.push(t, "second");
/// assert_eq!(q.pop(), Some((SimTime::from_micros(1), "early")));
/// assert_eq!(q.pop(), Some((t, "first")), "ties pop in push order");
/// assert_eq!(q.pop(), Some((t, "second")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Event storage; `Some` exactly at the slots the heap's keys name.
    slab: Vec<Option<E>>,
    /// Vacated slab slots, reused last-in first-out.
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`. Events pushed at the same time pop in
    /// push order.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(time, seq, event);
    }

    /// Schedules `event` at `time` in the tie rank of an earlier push,
    /// the one [`EventQueue::pop_ranked`] returned `seq` for: among
    /// same-time events it pops where an event pushed right after that
    /// one would. This is how a periodic timer keeps its place among ties
    /// when it skips periods: it pops as if it had been re-pushed at
    /// every one. `seq` must name a push that has already popped and that
    /// no other queued event reuses, so every queued `seq` stays unique.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was never handed out.
    pub fn push_ranked(&mut self, time: SimTime, seq: u64, event: E) {
        assert!(seq < self.next_seq, "rank {seq} was never pushed");
        self.insert(time, seq, event);
    }

    fn insert(&mut self, time: SimTime, seq: u64, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                assert!(self.slab.len() < u32::MAX as usize, "event slab is full");
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Key { time, seq, slot });
    }

    /// The timestamp of the next event without removing it.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the earliest `(time, event)` pair.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_ranked().map(|(time, _, event)| (time, event))
    }

    /// [`EventQueue::pop`], also returning the event's tie rank (its push
    /// sequence number) for [`EventQueue::push_ranked`].
    pub fn pop_ranked(&mut self) -> Option<(SimTime, u64, E)> {
        let key = self.heap.pop()?;
        let event = self.slab[key.slot as usize].take();
        assert!(event.is_some(), "heap key names an empty slot");
        self.free.push(key.slot);
        event.map(|e| (key.time, key.seq, e))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_keys_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    fn simulator_event_slots_are_small() {
        // The slab keeps its peak slot count for the whole run, so the
        // simulator's events carry no frame inline, whatever its payload.
        type Slot = Option<crate::sim::EventKind<[u8; 112]>>;
        assert!(
            std::mem::size_of::<Slot>() <= 16,
            "{} bytes",
            std::mem::size_of::<Slot>()
        );
    }

    #[test]
    fn a_ranked_push_pops_in_its_rank_among_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(10);
        q.push(SimTime::from_micros(1), "periodic");
        let (_, rank, _) = q.pop_ranked().unwrap();
        q.push(t, "pushed later");
        // Re-armed for 10 µs in its original rank: ahead of the tie that
        // was pushed after it, behind none.
        q.push_ranked(t, rank, "re-armed");
        assert_eq!(q.pop_ranked(), Some((t, rank, "re-armed")));
        assert_eq!(q.pop(), Some((t, "pushed later")));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "never pushed")]
    fn a_rank_must_have_been_handed_out() {
        EventQueue::new().push_ranked(SimTime::from_micros(1), 0, ());
    }

    #[test]
    fn popped_slots_are_reused() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        for i in 0..4u32 {
            q.push(t, i);
        }
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        q.push(t, 4);
        q.push(t, 5);
        assert_eq!(q.slab.len(), 4, "two freed slots took the two pushes");
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 3, 4, 5]);
    }

    #[test]
    fn orders_by_time_then_push_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 'c');
        q.push(SimTime::from_micros(5), 'a');
        q.push(SimTime::from_micros(10), 'd');
        q.push(SimTime::from_micros(5), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn len_and_peek_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
        q.push(SimTime::from_micros(3), ());
        q.push(SimTime::from_micros(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_time(), Some(SimTime::from_micros(1)));
        q.pop();
        assert_eq!(q.next_time(), Some(SimTime::from_micros(3)));
    }

    #[test]
    fn interleaved_push_pop_keeps_tie_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        q.push(t, 0u32);
        q.push(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }
}
