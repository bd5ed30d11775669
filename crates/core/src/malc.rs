//! Malicious counters (`MalC`, Section 4.2.1).
//!
//! Each guard node `i` maintains `MalC(i, j)` for every node `j` at the
//! receiving end of a link it monitors. The counter is incremented by
//! `V_f` for a fabricated packet and `V_d` for a dropped one; when it
//! crosses `C_t` the guard accuses `j`.
//!
//! An optional sliding window `T` makes contributions expire, matching the
//! analysis ("assume that packet fabrications occur within a certain time
//! window, T"). The paper's static-network deployment uses an unbounded
//! counter (window = 0).

use crate::types::{Micros, NodeId};
use std::collections::{BTreeMap, VecDeque};

/// Per-neighbor malicious counters with an optional sliding window.
///
/// # Example
///
/// ```
/// use liteworp::malc::MalcTable;
/// use liteworp::types::{Micros, NodeId};
///
/// let mut t = MalcTable::new(0); // no window: contributions never expire
/// assert_eq!(t.record(NodeId(9), 2, Micros(0)), 2);
/// assert_eq!(t.record(NodeId(9), 2, Micros(10)), 4);
/// assert_eq!(t.value(NodeId(9), Micros(1_000_000)), 4);
/// ```
#[derive(Debug, Clone)]
pub struct MalcTable {
    window_us: u64,
    counters: BTreeMap<NodeId, Counter>,
}

/// One node's contributions, oldest first, and their running sum (the
/// window trim subtracts what it drops).
#[derive(Debug, Clone, Default)]
struct Counter {
    log: VecDeque<(Micros, u32)>,
    sum: u32,
}

impl MalcTable {
    /// Creates a table. `window_us == 0` disables expiry (the default
    /// static-network behavior); otherwise contributions older than the
    /// window are discarded.
    pub fn new(window_us: u64) -> Self {
        MalcTable {
            window_us,
            counters: BTreeMap::new(),
        }
    }

    /// Adds a contribution of `weight` against `node` at time `now` and
    /// returns the counter's new value.
    pub fn record(&mut self, node: NodeId, weight: u32, now: Micros) -> u32 {
        let counter = self.counters.entry(node).or_default();
        counter.log.push_back((now, weight));
        counter.sum += weight;
        if self.window_us > 0 {
            let cutoff = now.0.saturating_sub(self.window_us);
            while let Some(&(t, w)) = counter.log.front() {
                if t.0 >= cutoff {
                    break;
                }
                counter.log.pop_front();
                counter.sum -= w;
            }
        }
        counter.sum
    }

    /// Current counter value for `node` at time `now`.
    pub fn value(&self, node: NodeId, now: Micros) -> u32 {
        match self.counters.get(&node) {
            None => 0,
            Some(counter) if self.window_us == 0 => counter.sum,
            Some(counter) => {
                let cutoff = now.0.saturating_sub(self.window_us);
                counter
                    .log
                    .iter()
                    .filter(|&&(t, _)| t.0 >= cutoff)
                    .map(|&(_, w)| w)
                    .sum()
            }
        }
    }

    /// Clears the counter for `node` (used after the node is revoked —
    /// its entry no longer needs tracking).
    pub fn clear(&mut self, node: NodeId) {
        self.counters.remove(&node);
    }

    /// Nodes with a nonzero counter, in ascending id order.
    pub fn suspects(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.counters
            .iter()
            .filter(|(_, counter)| !counter.log.is_empty())
            .map(|(&n, _)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_counters_accumulate_forever() {
        let mut t = MalcTable::new(0);
        for i in 0..10 {
            t.record(NodeId(1), 1, Micros(i * 1_000_000));
        }
        assert_eq!(t.value(NodeId(1), Micros(u64::MAX)), 10);
    }

    #[test]
    fn windowed_counters_forget_old_contributions() {
        let mut t = MalcTable::new(1_000_000); // 1 s window
        t.record(NodeId(1), 3, Micros(0));
        assert_eq!(t.record(NodeId(1), 2, Micros(500_000)), 5);
        // At t = 1.4 s the first contribution (t=0) has aged out.
        assert_eq!(t.record(NodeId(1), 1, Micros(1_400_000)), 3);
        assert_eq!(t.value(NodeId(1), Micros(1_400_000)), 3);
    }

    #[test]
    fn value_applies_window_without_mutation() {
        let mut t = MalcTable::new(1_000_000);
        t.record(NodeId(1), 4, Micros(0));
        assert_eq!(t.value(NodeId(1), Micros(2_000_000)), 0);
        // Still 4 when asked about a time inside the window.
        assert_eq!(t.value(NodeId(1), Micros(900_000)), 4);
    }

    #[test]
    fn counters_are_per_node() {
        let mut t = MalcTable::new(0);
        t.record(NodeId(1), 2, Micros(0));
        t.record(NodeId(2), 5, Micros(0));
        assert_eq!(t.value(NodeId(1), Micros(0)), 2);
        assert_eq!(t.value(NodeId(2), Micros(0)), 5);
        assert_eq!(t.value(NodeId(3), Micros(0)), 0);
        assert_eq!(t.suspects().collect::<Vec<_>>(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn clear_resets() {
        let mut t = MalcTable::new(0);
        t.record(NodeId(1), 2, Micros(0));
        t.clear(NodeId(1));
        assert_eq!(t.value(NodeId(1), Micros(0)), 0);
        assert_eq!(t.suspects().count(), 0);
    }
}
