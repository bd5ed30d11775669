//! The typed protocol event vocabulary.
//!
//! One [`Event`] is recorded per analysis-relevant protocol occurrence.
//! Node identifiers are raw `u32` indices so the crate stays independent
//! of any particular simulator's id newtype; hosts convert at the edge.

use liteworp_runner::json::Json;

/// Why a guard incremented a suspect's `MalC` counter (paper §5.3:
/// fabrication carries weight `V_f`, dropping weight `V_d`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MalcReason {
    /// The suspect forwarded a packet it was never sent (fabrication or
    /// modification detected against the watch buffer).
    Fabrication,
    /// A watched packet expired unforwarded (malicious drop).
    Drop,
}

impl MalcReason {
    /// Stable lowercase name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            MalcReason::Fabrication => "fabrication",
            MalcReason::Drop => "drop",
        }
    }
}

/// What happened. Field conventions: `suspect`/`peer`/`dest` are node
/// indices; counters are cumulative values *after* the event applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A HELLO discovery broadcast left this node.
    HelloSent,
    /// Neighbor discovery added `peer` to this node's neighbor table.
    NeighborAdded {
        /// The newly added first-hop neighbor.
        peer: u32,
    },
    /// `expired` watch-buffer entries timed out unforwarded at a guard
    /// during one expiry sweep (paper §5.3: each is a detected drop).
    WatchBufferExpired {
        /// Entries that expired in this sweep (≥ 1).
        expired: u32,
    },
    /// A guard raised a suspect's malicious-behavior counter.
    MalcIncrement {
        /// Whose counter rose.
        suspect: u32,
        /// Weight added (`V_f` or `V_d`).
        delta: u32,
        /// Counter value after the increment.
        malc: u32,
        /// Which misbehavior was observed.
        reason: MalcReason,
    },
    /// This node sent an authenticated alert accusing `suspect`.
    AlertSent {
        /// The accused node.
        suspect: u32,
        /// Neighbor the alert was addressed to.
        recipient: u32,
    },
    /// This node received an alert from `guard` accusing `suspect`.
    AlertReceived {
        /// The accusing guard.
        guard: u32,
        /// The accused node.
        suspect: u32,
        /// Whether the alert counted toward the γ quorum (false for
        /// duplicates, unknown guards, or already-isolated suspects).
        accepted: bool,
    },
    /// This node locally crossed the `C_t` threshold for `suspect`.
    Suspected {
        /// The locally suspected node.
        suspect: u32,
    },
    /// This node removed `suspect` from its neighbor view for good.
    Isolated {
        /// The isolated node.
        suspect: u32,
        /// `true` when γ distinct guard alerts confirmed the isolation;
        /// `false` when the node's own `MalC` threshold triggered it.
        by_alerts: bool,
    },
    /// The out-of-band wormhole tunnel relayed a frame.
    TunnelRelay {
        /// Tunnel endpoint that captured the frame.
        from: u32,
        /// Tunnel endpoint that replayed it.
        to: u32,
    },
    /// A route to `dest` was installed at this node.
    RouteEstablished {
        /// Route destination.
        dest: u32,
        /// Hop count of the installed route.
        hops: u32,
    },
}

/// Number of distinct [`EventKind`] variants (size of the counter array).
pub const KIND_COUNT: usize = 10;

/// Stable names for each kind, indexed by [`EventKind::index`].
pub const KIND_NAMES: [&str; KIND_COUNT] = [
    "hello_sent",
    "neighbor_added",
    "watch_buffer_expired",
    "malc_increment",
    "alert_sent",
    "alert_received",
    "suspected",
    "isolated",
    "tunnel_relay",
    "route_established",
];

impl EventKind {
    /// Dense index of this variant into [`KIND_NAMES`] / counter arrays.
    pub fn index(&self) -> usize {
        match self {
            EventKind::HelloSent => 0,
            EventKind::NeighborAdded { .. } => 1,
            EventKind::WatchBufferExpired { .. } => 2,
            EventKind::MalcIncrement { .. } => 3,
            EventKind::AlertSent { .. } => 4,
            EventKind::AlertReceived { .. } => 5,
            EventKind::Suspected { .. } => 6,
            EventKind::Isolated { .. } => 7,
            EventKind::TunnelRelay { .. } => 8,
            EventKind::RouteEstablished { .. } => 9,
        }
    }

    /// The stable JSON name of this variant.
    pub fn name(&self) -> &'static str {
        KIND_NAMES[self.index()]
    }
}

/// One recorded protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// Simulation time in microseconds.
    pub time_us: u64,
    /// Node that reported the event.
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Serializes to one flat JSON object (the JSONL trace record shape):
    /// always `t_us`, `node`, `event`, plus the kind's own fields.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("t_us".into(), Json::from(self.time_us)),
            ("node".into(), Json::from(self.node as u64)),
            ("event".into(), Json::from(self.kind.name())),
        ];
        let mut push = |k: &str, v: Json| pairs.push((k.to_string(), v));
        match self.kind {
            EventKind::HelloSent => {}
            EventKind::NeighborAdded { peer } => push("peer", Json::from(peer as u64)),
            EventKind::WatchBufferExpired { expired } => {
                push("expired", Json::from(expired as u64))
            }
            EventKind::MalcIncrement {
                suspect,
                delta,
                malc,
                reason,
            } => {
                push("suspect", Json::from(suspect as u64));
                push("delta", Json::from(delta as u64));
                push("malc", Json::from(malc as u64));
                push("reason", Json::from(reason.name()));
            }
            EventKind::AlertSent { suspect, recipient } => {
                push("suspect", Json::from(suspect as u64));
                push("recipient", Json::from(recipient as u64));
            }
            EventKind::AlertReceived {
                guard,
                suspect,
                accepted,
            } => {
                push("guard", Json::from(guard as u64));
                push("suspect", Json::from(suspect as u64));
                push("accepted", Json::from(accepted));
            }
            EventKind::Suspected { suspect } => push("suspect", Json::from(suspect as u64)),
            EventKind::Isolated { suspect, by_alerts } => {
                push("suspect", Json::from(suspect as u64));
                push("by_alerts", Json::from(by_alerts));
            }
            EventKind::TunnelRelay { from, to } => {
                push("from", Json::from(from as u64));
                push("to", Json::from(to as u64));
            }
            EventKind::RouteEstablished { dest, hops } => {
                push("dest", Json::from(dest as u64));
                push("hops", Json::from(hops as u64));
            }
        }
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        let kinds = vec![
            EventKind::HelloSent,
            EventKind::NeighborAdded { peer: 7 },
            EventKind::WatchBufferExpired { expired: 3 },
            EventKind::MalcIncrement {
                suspect: 9,
                delta: 2,
                malc: 14,
                reason: MalcReason::Drop,
            },
            EventKind::AlertSent {
                suspect: 9,
                recipient: 4,
            },
            EventKind::AlertReceived {
                guard: 2,
                suspect: 9,
                accepted: true,
            },
            EventKind::Suspected { suspect: 9 },
            EventKind::Isolated {
                suspect: 9,
                by_alerts: true,
            },
            EventKind::TunnelRelay { from: 30, to: 31 },
            EventKind::RouteEstablished { dest: 5, hops: 4 },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                time_us: 1000 * i as u64,
                node: i as u32,
                kind,
            })
            .collect()
    }

    /// Pins the `trace.jsonl` record shape to the README's trace-format
    /// table: every kind carries `t_us`, `node`, `event`, then exactly
    /// its own fields, in this order.
    #[test]
    fn every_kind_serializes_the_documented_fields() {
        let expected: [&[&str]; KIND_COUNT] = [
            &[],
            &["peer"],
            &["expired"],
            &["suspect", "delta", "malc", "reason"],
            &["suspect", "recipient"],
            &["guard", "suspect", "accepted"],
            &["suspect"],
            &["suspect", "by_alerts"],
            &["from", "to"],
            &["dest", "hops"],
        ];
        for event in samples() {
            let json = Json::parse(&event.to_json().dump()).unwrap();
            let Json::Obj(pairs) = &json else {
                panic!("not an object: {}", json.dump());
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            let own = expected[event.kind.index()];
            assert_eq!(keys[..3], ["t_us", "node", "event"], "{}", json.dump());
            assert_eq!(keys[3..], *own, "{}", json.dump());
            assert_eq!(json.get("t_us").and_then(Json::as_u64), Some(event.time_us));
            assert_eq!(
                json.get("node").and_then(Json::as_u64),
                Some(event.node as u64)
            );
            assert_eq!(
                json.get("event").and_then(Json::as_str),
                Some(event.kind.name())
            );
        }
        let malc = samples()[3].to_json();
        assert_eq!(malc.get("reason").and_then(Json::as_str), Some("drop"));
        assert_eq!(malc.get("malc").and_then(Json::as_u64), Some(14));
        let isolated = samples()[7].to_json();
        assert_eq!(
            isolated.get("by_alerts").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn indices_are_dense_and_names_match() {
        let mut seen = [false; KIND_COUNT];
        for event in samples() {
            let idx = event.kind.index();
            assert!(!seen[idx], "duplicate index {idx}");
            seen[idx] = true;
            assert_eq!(event.kind.name(), KIND_NAMES[idx]);
        }
        assert!(seen.iter().all(|&s| s), "all indices covered");
    }
}
