//! The protocol invariant oracle: replays a [`EventLog`] and checks that
//! the recorded behavior is one LITEWORP could legally have produced.
//!
//! The invariants, and how each maps onto the telemetry vocabulary:
//!
//! 1. **Alert quorum** — network-wide isolation (`Isolated` with
//!    `by_alerts: true`) requires `γ` accepted alerts from *distinct*
//!    guards at that node, and local isolation (`by_alerts: false`)
//!    requires a prior `MalC` threshold crossing for that suspect at that
//!    node. No alert from the same guard may be accepted twice.
//! 2. **MalC provenance** — every `MalcIncrement` carries the configured
//!    weight for its reason (`V_f` for fabrication, `V_d` for drop), a
//!    drop-reason increment is only legal in the same expiry sweep as a
//!    `WatchBufferExpired` at the same guard and timestamp, and the
//!    post-increment counter is at least the weight just added.
//! 3. **Watch bound** — every expiry sweep releases between 1 and
//!    `watch_capacity` entries, so the watch buffer never grew past its
//!    configured bound.
//! 4. **Isolation is absorbing** — once a node isolates a suspect it
//!    never re-adds it as a neighbor, never accepts another alert about
//!    it, and never network-isolates it a second time. (This is the
//!    observable footprint of "isolated nodes source and sink no further
//!    frames": every neighbor that isolated the suspect refuses all
//!    subsequent protocol interaction with it.)
//! 5. **Honest immunity** — in attack-free runs below a configured fault
//!    intensity, no honest node is ever network-isolated; with no faults
//!    at all, no honest node is isolated even locally. Local false
//!    accusations under benign faults are tolerated noise (the paper's
//!    Section 5.1 point: the γ quorum absorbs them) and are only counted.
//!
//! The oracle is strictly an observer: it never touches protocol state,
//! so it can machine-check any run the simulator can produce.

use liteworp::config::Config;
use liteworp_obs::{EventKind, EventLog, MalcReason};
use liteworp_runner::json::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Which invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Isolation without the required quorum or threshold crossing, or a
    /// double-counted guard.
    AlertQuorum,
    /// A `MalC` increment with the wrong weight or no matching cause.
    MalcProvenance,
    /// A watch-buffer expiry sweep outside `[1, watch_capacity]`.
    WatchBounded,
    /// Interaction with an already-isolated suspect.
    IsolationAbsorbing,
    /// An honest node isolated in an attack-free run.
    HonestImmunity,
    /// The event log overflowed its ring, so the history is incomplete
    /// and the other invariants cannot be decided.
    LogTruncated,
}

impl Invariant {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::AlertQuorum => "alert_quorum",
            Invariant::MalcProvenance => "malc_provenance",
            Invariant::WatchBounded => "watch_bounded",
            Invariant::IsolationAbsorbing => "isolation_absorbing",
            Invariant::HonestImmunity => "honest_immunity",
            Invariant::LogTruncated => "log_truncated",
        }
    }

    /// Parses the stable name back.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "alert_quorum" => Invariant::AlertQuorum,
            "malc_provenance" => Invariant::MalcProvenance,
            "watch_bounded" => Invariant::WatchBounded,
            "isolation_absorbing" => Invariant::IsolationAbsorbing,
            "honest_immunity" => Invariant::HonestImmunity,
            "log_truncated" => Invariant::LogTruncated,
            _ => return None,
        })
    }
}

/// One invariant violation found in a replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// Simulation time of the offending event, microseconds.
    pub time_us: u64,
    /// Node at which the offending event was recorded.
    pub node: u32,
    /// Human-readable explanation.
    pub detail: String,
}

impl Violation {
    /// Serializes to a flat JSON object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("invariant", Json::from(self.invariant.name())),
            ("t_us", Json::from(self.time_us)),
            ("node", Json::from(self.node as u64)),
            ("detail", Json::from(self.detail.as_str())),
        ])
    }

    /// Parses the [`Violation::to_json`] shape back.
    pub fn from_json(json: &Json) -> Option<Self> {
        Some(Violation {
            invariant: Invariant::from_name(json.get("invariant")?.as_str()?)?,
            time_us: json.get("t_us")?.as_u64()?,
            node: json.get("node")?.as_u64()? as u32,
            detail: json.get("detail")?.as_str()?.to_string(),
        })
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] t={}us node={}: {}",
            self.invariant.name(),
            self.time_us,
            self.node,
            self.detail
        )
    }
}

/// How strictly honest nodes must be protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Immunity {
    /// Attack present (or fault intensity above the benign ceiling):
    /// honest-immunity checks are off; the structural invariants still
    /// apply.
    Off,
    /// Attack-free run under benign faults: an honest node must never be
    /// *network*-isolated (γ accepted alerts), though a single confused
    /// guard may locally accuse one.
    NetworkWide,
    /// Attack-free, fault-free run: any isolation of an honest node, even
    /// local, is a violation.
    Strict,
}

/// Oracle parameters, mirroring the protocol [`Config`] plus run context.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleConfig {
    /// γ: accepted alerts from distinct guards needed for isolation.
    pub confidence_index: u32,
    /// `V_f`: the fabrication `MalC` weight.
    pub fabrication_weight: u32,
    /// `V_d`: the drop `MalC` weight.
    pub drop_weight: u32,
    /// `C_t`: the local accusation threshold.
    pub malc_threshold: u32,
    /// Maximum live watch-buffer entries per guard.
    pub watch_capacity: u32,
    /// Nodes that actually are malicious in this run (exempt from the
    /// honest-immunity invariant).
    pub malicious: Vec<u32>,
    /// Honest-immunity strictness for this run.
    pub immunity: Immunity,
}

impl OracleConfig {
    /// Builds oracle parameters from the protocol configuration.
    pub fn from_protocol(cfg: &Config, malicious: &[u32], immunity: Immunity) -> Self {
        OracleConfig {
            confidence_index: cfg.confidence_index as u32,
            fabrication_weight: cfg.fabrication_weight,
            drop_weight: cfg.drop_weight,
            malc_threshold: cfg.malc_threshold,
            watch_capacity: cfg.watch_capacity as u32,
            malicious: malicious.to_vec(),
            immunity,
        }
    }
}

/// Summary counters of one replay — context for interpreting violations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Events replayed.
    pub events: u64,
    /// `Isolated` events seen (all flavors).
    pub isolations: u64,
    /// Honest suspects locally accused (tolerated noise under
    /// [`Immunity::NetworkWide`]).
    pub honest_local_accusations: u64,
    /// `MalcIncrement` events seen.
    pub malc_increments: u64,
    /// `WatchBufferExpired` sweeps seen.
    pub watch_expiries: u64,
}

/// Replays `log` against `cfg` and returns every violation found, in
/// event order, plus summary counters.
pub fn check(log: &EventLog, cfg: &OracleConfig) -> (Vec<Violation>, ReplayStats) {
    let mut violations = Vec::new();
    let mut stats = ReplayStats::default();
    if log.dropped() > 0 {
        violations.push(Violation {
            invariant: Invariant::LogTruncated,
            time_us: 0,
            node: 0,
            detail: format!(
                "event ring dropped {} events; invariants undecidable",
                log.dropped()
            ),
        });
        return (violations, stats);
    }
    let malicious: BTreeSet<u32> = cfg.malicious.iter().copied().collect();
    // Replay state, all keyed by (observer node, suspect).
    let mut accepted_guards: BTreeMap<(u32, u32), BTreeSet<u32>> = BTreeMap::new();
    let mut crossed: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut isolated: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut net_isolated: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut last_expiry: BTreeMap<u32, u64> = BTreeMap::new();
    for e in log.events() {
        stats.events += 1;
        let (t, n) = (e.time_us, e.node);
        let mut flag = |invariant: Invariant, detail: String| {
            violations.push(Violation {
                invariant,
                time_us: t,
                node: n,
                detail,
            });
        };
        match e.kind {
            EventKind::WatchBufferExpired { expired } => {
                stats.watch_expiries += 1;
                if expired == 0 || expired > cfg.watch_capacity {
                    flag(
                        Invariant::WatchBounded,
                        format!(
                            "expiry sweep released {expired} entries (capacity {})",
                            cfg.watch_capacity
                        ),
                    );
                }
                last_expiry.insert(n, t);
            }
            EventKind::MalcIncrement {
                suspect,
                delta,
                malc,
                reason,
            } => {
                stats.malc_increments += 1;
                let expected = match reason {
                    MalcReason::Fabrication => cfg.fabrication_weight,
                    MalcReason::Drop => cfg.drop_weight,
                };
                if delta != expected {
                    flag(
                        Invariant::MalcProvenance,
                        format!(
                            "{} increment of {delta} (configured weight {expected})",
                            reason.name()
                        ),
                    );
                }
                if malc < delta {
                    flag(
                        Invariant::MalcProvenance,
                        format!("counter {malc} below the delta {delta} just added"),
                    );
                }
                if reason == MalcReason::Drop && last_expiry.get(&n) != Some(&t) {
                    flag(
                        Invariant::MalcProvenance,
                        format!(
                            "drop charge against {suspect} without a watch expiry \
                             at this guard and timestamp"
                        ),
                    );
                }
                if malc >= cfg.malc_threshold {
                    crossed.insert((n, suspect));
                    if !malicious.contains(&suspect) {
                        stats.honest_local_accusations += 1;
                    }
                }
            }
            EventKind::AlertReceived {
                guard,
                suspect,
                accepted: true,
            } => {
                if isolated.contains(&(n, suspect)) {
                    flag(
                        Invariant::IsolationAbsorbing,
                        format!("accepted an alert about already-isolated {suspect}"),
                    );
                }
                let guards = accepted_guards.entry((n, suspect)).or_default();
                if !guards.insert(guard) {
                    flag(
                        Invariant::AlertQuorum,
                        format!("alert from guard {guard} about {suspect} counted twice"),
                    );
                }
            }
            EventKind::Isolated { suspect, by_alerts } => {
                stats.isolations += 1;
                if by_alerts {
                    let quorum = accepted_guards
                        .get(&(n, suspect))
                        .map_or(0, |g| g.len() as u32);
                    if quorum < cfg.confidence_index {
                        flag(
                            Invariant::AlertQuorum,
                            format!(
                                "network isolation of {suspect} on {quorum} accepted \
                                 guard alerts (γ = {})",
                                cfg.confidence_index
                            ),
                        );
                    }
                    if !net_isolated.insert((n, suspect)) {
                        flag(
                            Invariant::IsolationAbsorbing,
                            format!("{suspect} network-isolated twice"),
                        );
                    }
                } else if !crossed.contains(&(n, suspect)) {
                    flag(
                        Invariant::AlertQuorum,
                        format!(
                            "local isolation of {suspect} without a MalC threshold \
                             crossing (C_t = {})",
                            cfg.malc_threshold
                        ),
                    );
                }
                if !malicious.contains(&suspect) {
                    let broken = match cfg.immunity {
                        Immunity::Off => false,
                        Immunity::NetworkWide => by_alerts,
                        Immunity::Strict => true,
                    };
                    if broken {
                        flag(
                            Invariant::HonestImmunity,
                            format!(
                                "honest node {suspect} {} in an attack-free run",
                                if by_alerts {
                                    "network-isolated"
                                } else {
                                    "locally isolated"
                                }
                            ),
                        );
                    }
                }
                isolated.insert((n, suspect));
            }
            EventKind::NeighborAdded { peer } if isolated.contains(&(n, peer)) => {
                flag(
                    Invariant::IsolationAbsorbing,
                    format!("re-added isolated node {peer} as a neighbor"),
                );
            }
            _ => {}
        }
    }
    (violations, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteworp_obs::Event;

    fn cfg(immunity: Immunity) -> OracleConfig {
        OracleConfig::from_protocol(&Config::default(), &[7], immunity)
    }

    fn log_of(events: &[(u64, u32, EventKind)]) -> EventLog {
        let mut log = EventLog::default();
        for &(time_us, node, kind) in events {
            log.record(Event {
                time_us,
                node,
                kind,
            });
        }
        log
    }

    /// A legal detection sequence: two fabrications and two drop charges
    /// cross C_t = 6 at guard 1, then guard 2's and guard 1's alerts
    /// network-isolate the suspect at node 3.
    fn legal_events() -> Vec<(u64, u32, EventKind)> {
        let m = |delta, malc, reason| EventKind::MalcIncrement {
            suspect: 7,
            delta,
            malc,
            reason,
        };
        vec![
            (1, 1, EventKind::NeighborAdded { peer: 7 }),
            (10, 1, m(2, 2, MalcReason::Fabrication)),
            (20, 1, EventKind::WatchBufferExpired { expired: 2 }),
            (20, 1, m(1, 3, MalcReason::Drop)),
            (20, 1, m(1, 4, MalcReason::Drop)),
            (30, 1, m(2, 6, MalcReason::Fabrication)),
            (30, 1, EventKind::Suspected { suspect: 7 }),
            (
                30,
                1,
                EventKind::Isolated {
                    suspect: 7,
                    by_alerts: false,
                },
            ),
            (
                40,
                3,
                EventKind::AlertReceived {
                    guard: 1,
                    suspect: 7,
                    accepted: true,
                },
            ),
            (
                45,
                3,
                EventKind::AlertReceived {
                    guard: 2,
                    suspect: 7,
                    accepted: true,
                },
            ),
            (
                45,
                3,
                EventKind::Isolated {
                    suspect: 7,
                    by_alerts: true,
                },
            ),
        ]
    }

    #[test]
    fn legal_sequence_passes() {
        let (violations, stats) = check(&log_of(&legal_events()), &cfg(Immunity::Strict));
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(stats.isolations, 2);
        assert_eq!(stats.malc_increments, 4);
        assert_eq!(stats.honest_local_accusations, 0);
    }

    #[test]
    fn quorum_shortfall_is_flagged() {
        let mut events = legal_events();
        events.remove(9); // drop guard 2's alert: only 1 accepted, γ = 2
        let (violations, _) = check(&log_of(&events), &cfg(Immunity::Strict));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].invariant, Invariant::AlertQuorum);
    }

    #[test]
    fn duplicate_guard_does_not_satisfy_quorum() {
        let mut events = legal_events();
        // Guard 1 accepted twice instead of two distinct guards.
        events[9] = (
            45,
            3,
            EventKind::AlertReceived {
                guard: 1,
                suspect: 7,
                accepted: true,
            },
        );
        let (violations, _) = check(&log_of(&events), &cfg(Immunity::Strict));
        let kinds: Vec<Invariant> = violations.iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&Invariant::AlertQuorum), "{violations:?}");
    }

    #[test]
    fn drop_charge_needs_matching_expiry() {
        let mut events = legal_events();
        events.remove(2); // the WatchBufferExpired backing the drop charges
        let (violations, _) = check(&log_of(&events), &cfg(Immunity::Strict));
        assert!(
            violations
                .iter()
                .all(|v| v.invariant == Invariant::MalcProvenance),
            "{violations:?}"
        );
        assert_eq!(violations.len(), 2, "one per orphaned drop charge");
    }

    #[test]
    fn wrong_weight_is_flagged() {
        let events = vec![(
            5,
            1,
            EventKind::MalcIncrement {
                suspect: 7,
                delta: 3,
                malc: 3,
                reason: MalcReason::Fabrication,
            },
        )];
        let (violations, _) = check(&log_of(&events), &cfg(Immunity::Off));
        assert_eq!(violations[0].invariant, Invariant::MalcProvenance);
    }

    #[test]
    fn watch_bound_is_enforced() {
        let over = Config::default().watch_capacity as u32 + 1;
        let events = vec![
            (5, 1, EventKind::WatchBufferExpired { expired: over }),
            (6, 1, EventKind::WatchBufferExpired { expired: 0 }),
        ];
        let (violations, _) = check(&log_of(&events), &cfg(Immunity::Off));
        assert_eq!(violations.len(), 2);
        assert!(violations
            .iter()
            .all(|v| v.invariant == Invariant::WatchBounded));
    }

    #[test]
    fn isolation_is_absorbing() {
        let mut events = legal_events();
        events.push((50, 3, EventKind::NeighborAdded { peer: 7 }));
        events.push((
            55,
            3,
            EventKind::AlertReceived {
                guard: 4,
                suspect: 7,
                accepted: true,
            },
        ));
        events.push((
            60,
            3,
            EventKind::Isolated {
                suspect: 7,
                by_alerts: true,
            },
        ));
        let (violations, _) = check(&log_of(&events), &cfg(Immunity::Strict));
        let kinds: Vec<Invariant> = violations.iter().map(|v| v.invariant).collect();
        assert_eq!(
            kinds,
            vec![
                Invariant::IsolationAbsorbing, // re-added neighbor
                Invariant::IsolationAbsorbing, // alert accepted post-isolation
                Invariant::IsolationAbsorbing, // isolated twice
            ],
            "{violations:?}"
        );
    }

    #[test]
    fn honest_immunity_scales_with_strictness() {
        // Node 9 is honest (only 7 is malicious); it gets locally
        // isolated after a legitimate-looking crossing.
        let events = vec![
            (
                10,
                1,
                EventKind::MalcIncrement {
                    suspect: 9,
                    delta: 2,
                    malc: 6,
                    reason: MalcReason::Fabrication,
                },
            ),
            (
                10,
                1,
                EventKind::Isolated {
                    suspect: 9,
                    by_alerts: false,
                },
            ),
        ];
        let log = log_of(&events);
        let (strict, stats) = check(&log, &cfg(Immunity::Strict));
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].invariant, Invariant::HonestImmunity);
        assert_eq!(stats.honest_local_accusations, 1);
        let (network, _) = check(&log, &cfg(Immunity::NetworkWide));
        assert!(
            network.is_empty(),
            "local accusations tolerated: {network:?}"
        );
        let (off, _) = check(&log, &cfg(Immunity::Off));
        assert!(off.is_empty());
    }

    #[test]
    fn honest_network_isolation_breaks_networkwide_immunity() {
        let events = vec![
            (
                10,
                3,
                EventKind::AlertReceived {
                    guard: 1,
                    suspect: 9,
                    accepted: true,
                },
            ),
            (
                11,
                3,
                EventKind::AlertReceived {
                    guard: 2,
                    suspect: 9,
                    accepted: true,
                },
            ),
            (
                11,
                3,
                EventKind::Isolated {
                    suspect: 9,
                    by_alerts: true,
                },
            ),
        ];
        let (violations, _) = check(&log_of(&events), &cfg(Immunity::NetworkWide));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].invariant, Invariant::HonestImmunity);
    }

    #[test]
    fn truncated_log_short_circuits() {
        let mut log = EventLog::with_capacity(4);
        for i in 0..10 {
            log.record(Event {
                time_us: i,
                node: 0,
                kind: EventKind::HelloSent,
            });
        }
        let (violations, _) = check(&log, &cfg(Immunity::Strict));
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, Invariant::LogTruncated);
    }
}
