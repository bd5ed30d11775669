//! Run metrics and the typed trace of notable protocol events.

use crate::field::NodeId;
use crate::time::SimTime;
use liteworp_telemetry::{Event, EventKind, EventLog};
use std::collections::BTreeMap;

/// Counters accumulated over a simulation run.
///
/// The radio layer maintains the built-in fields; protocols add their own
/// named counters through [`Metrics::incr`] / [`Metrics::add`].
///
/// # Example
///
/// ```
/// use liteworp_netsim::metrics::Metrics;
///
/// let mut m = Metrics::default();
/// m.incr("routes_established");
/// m.add("routes_established", 2);
/// assert_eq!(m.get("routes_established"), 3);
/// assert_eq!(m.get("never_touched"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Frames put on the air.
    pub frames_sent: u64,
    /// Frame receptions delivered to node logic (one per receiver).
    pub frames_delivered: u64,
    /// Frame receptions destroyed by a collision.
    pub frames_collided: u64,
    /// Frame receptions lost to channel noise.
    pub frames_lost_noise: u64,
    /// Messages carried over out-of-band tunnels.
    pub tunnel_messages: u64,
    /// MAC deferrals due to a busy channel.
    pub mac_deferrals: u64,
    custom: BTreeMap<&'static str, u64>,
}

impl Metrics {
    /// Increments a named counter by one.
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Adds `n` to a named counter.
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.custom.entry(key).or_insert(0) += n;
    }

    /// Reads a named counter (zero if never written).
    pub fn get(&self, key: &str) -> u64 {
        self.custom.get(key).copied().unwrap_or(0)
    }

    /// Iterates over all named counters in key order.
    pub fn iter_custom(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.custom.iter().map(|(&k, &v)| (k, v))
    }

    /// Fraction of frame receptions destroyed by collisions — the empirical
    /// counterpart of the analysis parameter `P_C`.
    pub fn collision_fraction(&self) -> f64 {
        let attempts = self.frames_delivered + self.frames_collided + self.frames_lost_noise;
        if attempts == 0 {
            0.0
        } else {
            self.frames_collided as f64 / attempts as f64
        }
    }
}

/// One isolation event, decoded from the typed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isolation {
    /// When the isolation took effect.
    pub time: SimTime,
    /// Node that removed the suspect from its neighbor view.
    pub guard: NodeId,
    /// The isolated node.
    pub suspect: NodeId,
    /// Whether γ guard alerts (rather than a local `MalC` threshold)
    /// confirmed it.
    pub by_alerts: bool,
}

/// The typed protocol event trace of one run.
///
/// A thin simulator-facing wrapper over [`liteworp_telemetry::EventLog`]:
/// it stamps events with [`SimTime`] / [`NodeId`] at the edge and offers
/// decoded queries for the events experiments read most (suspicions,
/// isolations). Protocols record rare, analysis-relevant events here
/// (detections, isolations, route establishment), not per-packet chatter.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    log: EventLog,
}

impl Trace {
    /// Appends an event.
    pub fn record(&mut self, time: SimTime, node: NodeId, kind: EventKind) {
        self.log.record(Event {
            time_us: time.as_micros(),
            node: node.0,
            kind,
        });
    }

    /// The underlying event log (ring buffer, counters, JSONL export).
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Retained events in chronological order.
    pub fn events(&self) -> impl Iterator<Item = &Event> + '_ {
        self.log.events()
    }

    /// Exact number of events of this kind ever recorded (ring eviction
    /// does not affect it). Matches on the variant only.
    pub fn count(&self, kind: &EventKind) -> u64 {
        self.log.count(kind)
    }

    /// Decoded isolation events, in order.
    pub fn isolations(&self) -> impl Iterator<Item = Isolation> + '_ {
        self.events().filter_map(|e| match e.kind {
            EventKind::Isolated { suspect, by_alerts } => Some(Isolation {
                time: SimTime::from_micros(e.time_us),
                guard: NodeId(e.node),
                suspect: NodeId(suspect),
                by_alerts,
            }),
            _ => None,
        })
    }

    /// Decoded local suspicions as `(time, guard, suspect)`, in order.
    pub fn suspicions(&self) -> impl Iterator<Item = (SimTime, NodeId, NodeId)> + '_ {
        self.events().filter_map(|e| match e.kind {
            EventKind::Suspected { suspect } => Some((
                SimTime::from_micros(e.time_us),
                NodeId(e.node),
                NodeId(suspect),
            )),
            _ => None,
        })
    }

    /// Time of the first isolation anywhere in the network, if any.
    pub fn first_isolation_time(&self) -> Option<SimTime> {
        self.isolations().map(|i| i.time).next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custom_counters() {
        let mut m = Metrics::default();
        m.incr("a");
        m.incr("a");
        m.add("b", 5);
        assert_eq!(m.get("a"), 2);
        assert_eq!(m.get("b"), 5);
        assert_eq!(m.get("c"), 0);
        let all: Vec<_> = m.iter_custom().collect();
        assert_eq!(all, vec![("a", 2), ("b", 5)]);
    }

    #[test]
    fn collision_fraction_safe_when_empty() {
        assert_eq!(Metrics::default().collision_fraction(), 0.0);
    }

    #[test]
    fn collision_fraction_counts_all_outcomes() {
        let m = Metrics {
            frames_delivered: 6,
            frames_collided: 3,
            frames_lost_noise: 1,
            ..Metrics::default()
        };
        assert!((m.collision_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn trace_decodes_typed_queries() {
        let mut t = Trace::default();
        t.record(
            SimTime::from_micros(5),
            NodeId(1),
            EventKind::Isolated {
                suspect: 9,
                by_alerts: false,
            },
        );
        t.record(
            SimTime::from_micros(7),
            NodeId(1),
            EventKind::RouteEstablished { dest: 3, hops: 2 },
        );
        t.record(
            SimTime::from_micros(9),
            NodeId(2),
            EventKind::Isolated {
                suspect: 9,
                by_alerts: true,
            },
        );
        assert_eq!(t.events().count(), 3);
        let isolations: Vec<Isolation> = t.isolations().collect();
        assert_eq!(isolations.len(), 2);
        assert_eq!(isolations[0].guard, NodeId(1));
        assert_eq!(isolations[1].suspect, NodeId(9));
        assert!(isolations[1].by_alerts);
        assert_eq!(t.first_isolation_time(), Some(SimTime::from_micros(5)));
        assert_eq!(
            t.count(&EventKind::Isolated {
                suspect: 0,
                by_alerts: false
            }),
            2
        );
        assert_eq!(Trace::default().first_isolation_time(), None);
    }
}
