//! Run metrics and the typed trace of notable protocol events.

use crate::field::NodeId;
use crate::time::SimTime;
use liteworp_obs::names::SIM_COUNTER_NAMES;
pub use liteworp_obs::SimCounter;
use liteworp_obs::{Event, EventKind, EventLog};
use std::fmt;

/// Counters accumulated over a simulation run.
///
/// The radio layer maintains the built-in fields; protocols bump the
/// named [`SimCounter`]s through [`Metrics::incr`] / [`Metrics::add`].
/// Each simulator owns its counters, so parallel runs never share one.
///
/// # Example
///
/// ```
/// use liteworp_netsim::metrics::{Metrics, SimCounter};
///
/// let mut m = Metrics::default();
/// m.incr(SimCounter::RoutesEstablished);
/// m.add(SimCounter::RoutesEstablished, 2);
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
    custom: Custom,
}

/// One `u64` per [`SimCounter`]. `Debug` prints only the nonzero ones, as
/// a name-ordered `{"name": n, …}` map: pinned counter digests hash a
/// `Metrics`' `{:?}` text, so that text must not change.
#[derive(Clone, Default, PartialEq, Eq)]
struct Custom([u64; SimCounter::COUNT]);

impl Custom {
    fn nonzero(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        SIM_COUNTER_NAMES
            .iter()
            .zip(self.0)
            .filter(|&(_, v)| v > 0)
            .map(|(&k, v)| (k, v))
    }
}

impl fmt::Debug for Custom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.nonzero()).finish()
    }
}

impl Metrics {
    /// Increments a named counter by one.
    #[inline]
    pub fn incr(&mut self, counter: SimCounter) {
        self.add(counter, 1);
    }

    /// Adds `n` to a named counter.
    #[inline]
    pub fn add(&mut self, counter: SimCounter, n: u64) {
        self.custom.0[counter.index()] += n;
    }

    /// Reads a named counter by name (zero if never written or unknown).
    pub fn get(&self, key: &str) -> u64 {
        SIM_COUNTER_NAMES
            .binary_search(&key)
            .map_or(0, |i| self.custom.0[i])
    }

    /// Iterates over the nonzero named counters in name order.
    pub fn iter_custom(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.custom.nonzero()
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
/// A thin simulator-facing wrapper over [`liteworp_obs::EventLog`]:
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
        m.incr(SimCounter::WatchExpiries);
        m.incr(SimCounter::WatchExpiries);
        m.add(SimCounter::AlertsSent, 5);
        assert_eq!(m.get("watch_expiries"), 2);
        assert_eq!(m.get("alerts_sent"), 5);
        assert_eq!(m.get("isolations"), 0);
        let all: Vec<_> = m.iter_custom().collect();
        assert_eq!(all, vec![("alerts_sent", 5), ("watch_expiries", 2)]);
    }

    /// Pinned counter digests hash the `{:?}` text: these strings are what
    /// a derived `Debug` over a `BTreeMap<&str, u64>` of the nonzero
    /// counters prints.
    #[test]
    fn debug_text_matches_the_derived_map_form() {
        let mut m = Metrics {
            frames_sent: 11,
            frames_delivered: 22,
            frames_collided: 3,
            frames_lost_noise: 0,
            tunnel_messages: 4,
            mac_deferrals: 5,
            ..Metrics::default()
        };
        m.add(SimCounter::WormholeDropped, 7);
        m.add(SimCounter::AlertsSent, 3);
        m.incr(SimCounter::RouteRequests);
        m.incr(SimCounter::RoutesEstablished);
        m.add(SimCounter::DataSent, 40);
        assert_eq!(
            format!("{m:?}"),
            "Metrics { frames_sent: 11, frames_delivered: 22, frames_collided: 3, \
             frames_lost_noise: 0, tunnel_messages: 4, mac_deferrals: 5, \
             custom: {\"alerts_sent\": 3, \"data_sent\": 40, \"route_requests\": 1, \
             \"routes_established\": 1, \"wormhole_dropped\": 7} }"
        );
        let order: Vec<&str> = m.iter_custom().map(|(k, _)| k).collect();
        assert_eq!(
            order,
            [
                "alerts_sent",
                "data_sent",
                "route_requests",
                "routes_established",
                "wormhole_dropped"
            ]
        );
        assert_eq!(m.get("no_such_counter"), 0);
        assert_eq!(
            format!("{m:#?}"),
            "Metrics {\n    frames_sent: 11,\n    frames_delivered: 22,\n    \
             frames_collided: 3,\n    frames_lost_noise: 0,\n    tunnel_messages: 4,\n    \
             mac_deferrals: 5,\n    custom: {\n        \"alerts_sent\": 3,\n        \
             \"data_sent\": 40,\n        \"route_requests\": 1,\n        \
             \"routes_established\": 1,\n        \"wormhole_dropped\": 7,\n    },\n}"
        );
        assert_eq!(
            format!("{:?}", Metrics::default()),
            "Metrics { frames_sent: 0, frames_delivered: 0, frames_collided: 0, \
             frames_lost_noise: 0, tunnel_messages: 0, mac_deferrals: 0, custom: {} }"
        );
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
