//! Bounded ring-buffer event sink with exact per-kind counters.

use crate::event::{Event, EventKind, KIND_COUNT, KIND_NAMES};
use liteworp_runner::json::Json;
use std::collections::VecDeque;

/// Default ring capacity: enough for every event of a paper-scale run,
/// small enough that a runaway emitter cannot exhaust memory.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// An append-mostly event sink.
///
/// Events are kept in a bounded ring: when full, the oldest event is
/// dropped and counted in [`EventLog::dropped`]. Per-kind counters are
/// incremented on *record*, so [`EventLog::count`] stays exact even after
/// the ring has wrapped — aggregates never silently undercount.
#[derive(Debug, Clone)]
pub struct EventLog {
    ring: VecDeque<Event>,
    capacity: usize,
    counts: [u64; KIND_COUNT],
    dropped: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::with_capacity(DEFAULT_CAPACITY)
    }
}

impl EventLog {
    /// A log holding at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            counts: [0; KIND_COUNT],
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn record(&mut self, event: Event) {
        self.counts[event.kind.index()] += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> + '_ {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted from the ring (recorded minus retained).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact number of events of this kind ever recorded, including any
    /// the ring has since evicted. Matches on the variant only.
    pub fn count(&self, kind: &EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Per-kind totals as a JSON object (all kinds, zero or not, so two
    /// runs' counter objects always diff field-by-field).
    pub fn counts_json(&self) -> Json {
        let pairs = KIND_NAMES.iter().zip(self.counts);
        Json::object(pairs.map(|(&name, count)| (name, Json::from(count))))
    }

    /// Serializes retained events as JSONL, one event per line, oldest
    /// first, with a trailing newline when non-empty.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&event.to_json().dump());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello(t: u64, node: u32) -> Event {
        Event {
            time_us: t,
            node,
            kind: EventKind::HelloSent,
        }
    }

    #[test]
    fn counts_survive_ring_eviction() {
        let mut log = EventLog::with_capacity(2);
        for t in 0..5 {
            log.record(hello(t, 0));
        }
        log.record(Event {
            time_us: 5,
            node: 1,
            kind: EventKind::Suspected { suspect: 3 },
        });
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 4);
        assert_eq!(log.count(&EventKind::HelloSent), 5);
        assert_eq!(log.count(&EventKind::Suspected { suspect: 999 }), 1);
        let retained: Vec<u64> = log.events().map(|e| e.time_us).collect();
        assert_eq!(retained, vec![4, 5], "oldest evicted first");
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_event() {
        let mut log = EventLog::default();
        log.record(hello(1, 0));
        log.record(hello(2, 1));
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, node) in lines.into_iter().zip(0u64..) {
            let parsed = Json::parse(line).unwrap();
            assert_eq!(
                parsed.get("event").and_then(Json::as_str),
                Some("hello_sent")
            );
            assert_eq!(parsed.get("node").and_then(Json::as_u64), Some(node));
        }
    }

    #[test]
    fn counts_json_lists_every_kind() {
        let log = EventLog::default();
        let json = log.counts_json();
        for name in KIND_NAMES {
            assert_eq!(json.get(name).and_then(Json::as_u64), Some(0), "{name}");
        }
    }
}
