//! The [`Liteworp`] facade: one object per node bundling neighbor
//! knowledge, discovery, local monitoring, alert handling, and the
//! admission checks the data path must apply.
//!
//! A host (the routing protocol node) wires it up as follows:
//!
//! * run discovery at deployment (or bootstrap tables directly);
//! * call [`Liteworp::observe_packet`] for every control packet overheard
//!   (including its own receptions — wireless reception *is* overhearing)
//!   and transmit an authenticated alert for every returned
//!   [`Effect::SendAlert`]; the [`Admission`] it also returns, judged
//!   from the same lookups, says whether a received packet may be
//!   processed;
//! * ask [`Liteworp::admit`] before accepting a packet the monitor does
//!   not see;
//! * call [`Liteworp::handle_alert`] for received alert messages;
//! * call [`Liteworp::expire`] once the watch buffer's oldest entry is
//!   due: [`crate::watch::WatchBuffer::head_deadline`] says when. Nothing
//!   expires before it, so a host may sleep until then (the routing node
//!   fires its expiry timer only at the ticks of its grid where the head
//!   has expired), or simply call it on a periodic timer.

use crate::alert::{AlertBuffer, AlertOutcome};
use crate::config::{Config, ConfigSource, InvalidConfig};
use crate::discovery::Discovery;
use crate::keys::{KeyStore, Mac};
use crate::monitor::{alert_recipients, LocalMonitor, PacketObs};
use crate::neighbor::NeighborTable;
use crate::types::{Micros, Misbehavior, NodeId};
use std::sync::Arc;

/// Why a packet was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The announced transmitter is not in the neighbor list at all —
    /// this is what stops high-power (mode 3) and relay (mode 4)
    /// wormholes.
    NotNeighbor,
    /// The announced transmitter has been revoked/isolated.
    Revoked,
    /// The announced previous hop is not a neighbor of the transmitter
    /// per stored second-hop knowledge — stops a colluder naming its
    /// distant partner as the previous hop.
    ImplausiblePrev,
}

/// Admission verdict for a received packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Process the packet.
    Accept,
    /// Discard the packet.
    Reject(RejectReason),
}

impl Admission {
    /// Whether the packet should be processed.
    pub fn is_accept(&self) -> bool {
        matches!(self, Admission::Accept)
    }
}

/// Disposition of a received alert message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertDisposition {
    /// γ distinct guards have now accused the suspect: it was isolated.
    Isolated,
    /// Counted; more accusations are needed.
    Counted,
    /// Ignored (already isolated, or a duplicate accuser).
    Ignored,
    /// Rejected: bad tag, unknown suspect, or the sender is not a
    /// plausible guard of the suspect.
    Rejected,
}

/// Side effects the host must perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Transmit an authenticated alert accusing `suspect` to `recipient`.
    SendAlert {
        /// Accused node.
        suspect: NodeId,
        /// Neighbor of the suspect to inform.
        recipient: NodeId,
        /// Tag binding (guard, suspect) under the pairwise key with the
        /// recipient.
        mac: Mac,
    },
    /// `suspect` is now isolated at this node (revoked everywhere the
    /// host keeps state; informational for metrics/trace).
    Isolated {
        /// The isolated node.
        suspect: NodeId,
    },
    /// Misbehavior was observed and counted (informational).
    Suspected {
        /// Misbehaving node.
        suspect: NodeId,
        /// What it did.
        kind: Misbehavior,
        /// Counter value after the increment.
        malc: u32,
    },
    /// Watch-buffer entries timed out unforwarded during this expiry
    /// sweep (informational; the drop charges, if any, arrive as
    /// [`Effect::Suspected`] in the same batch).
    WatchExpired {
        /// Entries that expired in this sweep (≥ 1).
        expired: u32,
    },
}

/// Per-node LITEWORP instance.
///
/// # Example
///
/// ```
/// use liteworp::prelude::*;
///
/// let keys = KeyStore::new(7, NodeId(0));
/// let mut lw = Liteworp::new(Config::default(), keys);
/// // Bootstrap: we neighbor 1 and 2; R_1 = {0, 2}; R_2 = {0, 1}.
/// lw.table_mut().add_neighbor(NodeId(1));
/// lw.table_mut().add_neighbor(NodeId(2));
/// lw.table_mut().set_neighbor_list(NodeId(1), [NodeId(0), NodeId(2)]);
/// lw.table_mut().set_neighbor_list(NodeId(2), [NodeId(0), NodeId(1)]);
///
/// // A packet from a stranger is refused outright.
/// assert_eq!(
///     lw.admit(NodeId(9), None),
///     Admission::Reject(RejectReason::NotNeighbor)
/// );
/// // A neighbor forwarding from a plausible previous hop is accepted.
/// assert_eq!(lw.admit(NodeId(1), Some(NodeId(2))), Admission::Accept);
/// ```
#[derive(Debug, Clone)]
pub struct Liteworp {
    keys: KeyStore,
    table: NeighborTable,
    monitor: LocalMonitor,
    alerts: AlertBuffer,
    discovery: Discovery,
}

impl Liteworp {
    /// Creates the instance for the owner of `keys`, reading its
    /// parameters from `config`: a [`Config`], or a shared
    /// `Arc<dyn ConfigSource>` that any number of nodes may point at.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`Liteworp::try_new`] to handle the error instead.
    pub fn new(config: impl Into<Arc<dyn ConfigSource>>, keys: KeyStore) -> Self {
        // lint: allow(P002) documented panic; Self::try_new is the
        // fallible variant for callers with untrusted configs
        Self::try_new(config, keys).expect("invalid LITEWORP config")
    }

    /// Creates the instance, returning [`InvalidConfig`] instead of
    /// panicking when the configuration is inconsistent.
    pub fn try_new(
        config: impl Into<Arc<dyn ConfigSource>>,
        keys: KeyStore,
    ) -> Result<Self, InvalidConfig> {
        let monitor = LocalMonitor::new(config.into())?;
        let alerts = AlertBuffer::new(monitor.config().confidence_index);
        let me = keys.owner();
        Ok(Liteworp {
            monitor,
            alerts,
            table: NeighborTable::new(me),
            discovery: Discovery::new(keys),
            keys,
        })
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.keys.owner()
    }

    /// The configuration in force (read through the monitor's shared
    /// source).
    pub fn config(&self) -> &Config {
        self.monitor.config()
    }

    /// Neighbor knowledge (read).
    pub fn table(&self) -> &NeighborTable {
        &self.table
    }

    /// Neighbor knowledge (write) — for oracle bootstrap in tests and
    /// experiments that skip message-level discovery.
    pub fn table_mut(&mut self) -> &mut NeighborTable {
        &mut self.table
    }

    /// The discovery state machine together with the table it populates.
    /// Host glue calls this to route discovery messages.
    pub fn discovery_mut(&mut self) -> (&mut Discovery, &mut NeighborTable) {
        (&mut self.discovery, &mut self.table)
    }

    /// The local monitor (read access, for diagnostics).
    pub fn monitor(&self) -> &LocalMonitor {
        &self.monitor
    }

    /// Admission check for a packet announced as transmitted by `sender`
    /// with previous hop `claimed_prev`.
    pub fn admit(&self, sender: NodeId, claimed_prev: Option<NodeId>) -> Admission {
        let prev = self.judged_prev(sender, claimed_prev);
        self.admission(
            self.table.find(sender),
            prev.map(|p| (p, self.table.find(p))),
        )
    }

    /// The claimed previous hop admission judges: not the sender itself
    /// and not this node.
    fn judged_prev(&self, sender: NodeId, claimed_prev: Option<NodeId>) -> Option<NodeId> {
        claimed_prev.filter(|&p| p != sender && p != self.id())
    }

    /// The admission verdict over ids already looked up: the sender's
    /// slot index, and the judged previous hop with its slot index.
    fn admission(&self, sender: Option<usize>, prev: Option<(NodeId, Option<usize>)>) -> Admission {
        let Some(s) = sender else {
            return Admission::Reject(RejectReason::NotNeighbor);
        };
        if self.table.revoked_at(s) {
            return Admission::Reject(RejectReason::Revoked);
        }
        if let Some((prev, at)) = prev {
            if at.is_some_and(|p| self.table.revoked_at(p)) {
                return Admission::Reject(RejectReason::Revoked);
            }
            // `NeighborTable::link_plausible(prev, sender)`, whose other
            // conditions (a known, unrevoked sender; `prev` not this
            // node) already hold here.
            if !self.table.lists_at(s, prev) {
                return Admission::Reject(RejectReason::ImplausiblePrev);
            }
        }
        Admission::Accept
    }

    /// Feeds one overheard control-packet transmission to the monitor,
    /// and judges it as [`Liteworp::admit`]`(obs.sender, obs.claimed_prev)`
    /// would right after, from the ids the observation already looked up.
    /// A sender the observation accuses is refused. A host that only
    /// overheard the packet, or sent it, ignores the verdict.
    pub fn observe_packet(&mut self, obs: &PacketObs, now: Micros) -> (Vec<Effect>, Admission) {
        let mut out = Lowering::new(&self.keys, &mut self.alerts);
        let look = self
            .monitor
            .observe_into(&mut self.table, obs, now, &mut out);
        let effects = out.effects;
        let verdict = if look.charged {
            // A charge may have revoked or inserted an id: look again.
            self.admit(obs.sender, obs.claimed_prev)
        } else {
            let prev = self.judged_prev(obs.sender, obs.claimed_prev);
            self.admission(look.sender, prev.map(|p| (p, look.prev)))
        };
        (effects, verdict)
    }

    /// Waives `forwarder`'s pending forward obligation for `sig` — call
    /// when it broadcast a route error for that packet (data-plane
    /// monitoring extension).
    pub fn absolve(&mut self, forwarder: NodeId, sig: &crate::types::PacketSig) {
        self.monitor.absolve(forwarder, sig);
    }

    /// Records that this node's radio lost a frame to a collision at
    /// `now`. Within the configured grace window the guard abstains from
    /// fabrication judgments, and drop accusations whose watch entry
    /// overlaps a collision are suppressed.
    pub fn note_collision(&mut self, now: Micros) {
        self.monitor.note_collision(now);
    }

    /// Runs watch-buffer expiry (drop detection). Call at least once per
    /// watch timeout δ. When entries expired, the first effect is a
    /// single [`Effect::WatchExpired`] carrying the sweep's expiry count.
    pub fn expire(&mut self, now: Micros) -> Vec<Effect> {
        let mut out = Lowering::new(&self.keys, &mut self.alerts);
        let expired = self.monitor.expire_into(&mut self.table, now, &mut out);
        let mut effects = out.effects;
        if expired > 0 {
            effects.insert(
                0,
                Effect::WatchExpired {
                    expired: expired.min(u32::MAX as u64) as u32,
                },
            );
        }
        effects
    }

    /// Canonical byte encoding of an alert, bound to the accusing guard
    /// and the suspect.
    pub fn alert_bytes(guard: NodeId, suspect: NodeId) -> Vec<u8> {
        let mut v = Vec::with_capacity(14);
        v.extend_from_slice(b"alert:");
        v.extend_from_slice(&guard.0.to_le_bytes());
        v.extend_from_slice(&suspect.0.to_le_bytes());
        v
    }

    /// Handles an alert from `guard` accusing `suspect`, authenticated by
    /// `mac` under the guard–us pairwise key.
    pub fn handle_alert(
        &mut self,
        guard: NodeId,
        suspect: NodeId,
        mac: Mac,
        _now: Micros,
    ) -> AlertDisposition {
        // Authenticity.
        if !self
            .keys
            .verify(guard, &Self::alert_bytes(guard, suspect), mac)
        {
            return AlertDisposition::Rejected;
        }
        // The suspect must be our neighbor (otherwise the alert is not
        // ours to act on) — unless we already isolated it.
        if self.alerts.is_isolated(suspect) {
            return AlertDisposition::Ignored;
        }
        if !self.table.is_neighbor(suspect) {
            return AlertDisposition::Rejected;
        }
        // The guard must plausibly guard the suspect: it must be in the
        // suspect's announced neighbor list.
        let plausible_guard = self
            .table
            .neighbor_list_of(suspect)
            .is_some_and(|l| l.binary_search(&guard).is_ok());
        if !plausible_guard {
            return AlertDisposition::Rejected;
        }
        match self.alerts.record(suspect, guard) {
            AlertOutcome::Isolate => {
                self.table.revoke(suspect);
                self.monitor
                    .note_external_suspicion(&mut self.table, suspect);
                AlertDisposition::Isolated
            }
            AlertOutcome::Counted { .. } => {
                self.monitor
                    .note_external_suspicion(&mut self.table, suspect);
                AlertDisposition::Counted
            }
            AlertOutcome::Duplicate | AlertOutcome::AlreadyIsolated => AlertDisposition::Ignored,
        }
    }

    /// Whether this node has isolated `n` (either by its own accusation
    /// or by collecting γ alerts).
    pub fn is_isolated(&self, n: NodeId) -> bool {
        self.alerts.is_isolated(n) || self.table.is_revoked(n)
    }

    /// Total LITEWORP state footprint in bytes per the Section 5.2
    /// accounting (neighbor storage + watch buffer + alert buffer).
    pub fn storage_bytes(&self) -> usize {
        self.table.storage_bytes()
            + self.monitor.watch().storage_bytes()
            + self.alerts.storage_bytes()
    }
}

/// Turns the monitor's findings into effects as they are made: a
/// suspicion into [`Effect::Suspected`]; an accusation into this node's
/// isolation of the suspect, one signed [`Effect::SendAlert`] per
/// recipient and [`Effect::Isolated`].
pub(crate) struct Lowering<'a> {
    keys: &'a KeyStore,
    alerts: &'a mut AlertBuffer,
    /// The effects so far, in the order they were found.
    pub(crate) effects: Vec<Effect>,
}

impl<'a> Lowering<'a> {
    pub(crate) fn new(keys: &'a KeyStore, alerts: &'a mut AlertBuffer) -> Self {
        Lowering {
            keys,
            alerts,
            effects: Vec::new(),
        }
    }

    /// `suspect` misbehaved (`kind`); its `MalC` is now `malc`.
    pub(crate) fn suspected(&mut self, suspect: NodeId, kind: Misbehavior, malc: u32) {
        self.effects.push(Effect::Suspected {
            suspect,
            kind,
            malc,
        });
    }

    /// An alert round about `suspect` is due; its recipients are
    /// [`alert_recipients`] over `table`.
    pub(crate) fn accuse(&mut self, table: &NeighborTable, suspect: NodeId) {
        self.alerts.force_isolate(suspect);
        let bytes = Liteworp::alert_bytes(self.keys.owner(), suspect);
        for recipient in alert_recipients(table, suspect) {
            let mac = self.keys.tag(recipient, &bytes);
            self.effects.push(Effect::SendAlert {
                suspect,
                recipient,
                mac,
            });
        }
        self.effects.push(Effect::Isolated { suspect });
    }
}

/// Convenience re-exports for hosts embedding LITEWORP.
pub mod prelude {
    pub use super::{Admission, AlertDisposition, Effect, Liteworp, RejectReason};
    pub use crate::config::Config;
    pub use crate::keys::{KeyStore, Mac};
    pub use crate::monitor::PacketObs;
    pub use crate::types::{Micros, Misbehavior, NodeId, PacketKind, PacketSig};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PacketKind, PacketSig};

    const SEED: u64 = 7;

    fn sig(seq: u64) -> PacketSig {
        PacketSig {
            kind: PacketKind::RouteRequest,
            origin: NodeId(10),
            target: NodeId(11),
            seq,
        }
    }

    /// Node 0 with neighbors 1, 2; R_1 = {0,2}; R_2 = {0,1,3}.
    fn instance() -> Liteworp {
        let mut lw = Liteworp::new(Config::default(), KeyStore::new(SEED, NodeId(0)));
        lw.table_mut().add_neighbor(NodeId(1));
        lw.table_mut().add_neighbor(NodeId(2));
        lw.table_mut()
            .set_neighbor_list(NodeId(1), [NodeId(0), NodeId(2)]);
        lw.table_mut()
            .set_neighbor_list(NodeId(2), [NodeId(0), NodeId(1), NodeId(3)]);
        lw
    }

    fn fabricated_forward(seq: u64) -> PacketObs {
        PacketObs {
            sender: NodeId(2),
            claimed_prev: Some(NodeId(1)),
            link_dst: None,
            sig: sig(seq),
            terminal: false,
        }
    }

    #[test]
    fn admission_matrix() {
        let lw = instance();
        assert!(lw.admit(NodeId(1), None).is_accept());
        assert!(lw.admit(NodeId(2), Some(NodeId(1))).is_accept());
        assert!(lw.admit(NodeId(2), Some(NodeId(3))).is_accept());
        assert_eq!(
            lw.admit(NodeId(9), None),
            Admission::Reject(RejectReason::NotNeighbor)
        );
        assert_eq!(
            lw.admit(NodeId(2), Some(NodeId(9))),
            Admission::Reject(RejectReason::ImplausiblePrev)
        );
    }

    #[test]
    fn fabrications_produce_signed_alerts_and_isolation() {
        let mut lw = instance();
        let (e1, verdict) = lw.observe_packet(&fabricated_forward(1), Micros(0));
        assert_eq!(e1.len(), 1, "first fabrication only suspected");
        assert!(verdict.is_accept(), "a suspect is still admitted");
        let (e, _) = lw.observe_packet(&fabricated_forward(2), Micros(2));
        assert_eq!(e.len(), 1, "not yet accused after two fabrications");
        let (e2, verdict) = lw.observe_packet(&fabricated_forward(3), Micros(10));
        assert_eq!(
            verdict,
            Admission::Reject(RejectReason::Revoked),
            "the frame that gets its sender accused is refused"
        );
        // Suspected + alerts to R_2 \ {0, 2} = {1, 3} + Isolated.
        let alerts: Vec<_> = e2
            .iter()
            .filter_map(|e| match e {
                Effect::SendAlert {
                    suspect, recipient, ..
                } => Some((*suspect, *recipient)),
                _ => None,
            })
            .collect();
        assert_eq!(alerts, vec![(NodeId(2), NodeId(1)), (NodeId(2), NodeId(3))]);
        assert!(e2
            .iter()
            .any(|e| matches!(e, Effect::Isolated { suspect: NodeId(2) })));
        assert!(lw.is_isolated(NodeId(2)));
        assert_eq!(
            lw.admit(NodeId(2), None),
            Admission::Reject(RejectReason::Revoked)
        );
    }

    #[test]
    fn alerts_verify_and_isolate_at_gamma() {
        // Node 0 receives alerts about its neighbor 2 from guards 1 and 3.
        let mut lw = instance();
        let g1 = KeyStore::new(SEED, NodeId(1));
        let g3 = KeyStore::new(SEED, NodeId(3));
        let m1 = g1.tag(NodeId(0), &Liteworp::alert_bytes(NodeId(1), NodeId(2)));
        let m3 = g3.tag(NodeId(0), &Liteworp::alert_bytes(NodeId(3), NodeId(2)));
        assert_eq!(
            lw.handle_alert(NodeId(1), NodeId(2), m1, Micros(0)),
            AlertDisposition::Counted
        );
        // gamma = 2 by default: the second distinct guard isolates.
        assert_eq!(
            lw.handle_alert(NodeId(3), NodeId(2), m3, Micros(1)),
            AlertDisposition::Isolated
        );
        assert!(lw.is_isolated(NodeId(2)));
    }

    #[test]
    fn forged_alert_is_rejected() {
        let mut lw = instance();
        let outsider = KeyStore::new(999, NodeId(1));
        let bad = outsider.tag(NodeId(0), &Liteworp::alert_bytes(NodeId(1), NodeId(2)));
        assert_eq!(
            lw.handle_alert(NodeId(1), NodeId(2), bad, Micros(0)),
            AlertDisposition::Rejected
        );
    }

    #[test]
    fn alert_about_non_neighbor_is_rejected() {
        let mut lw = instance();
        let g1 = KeyStore::new(SEED, NodeId(1));
        let mac = g1.tag(NodeId(0), &Liteworp::alert_bytes(NodeId(1), NodeId(7)));
        assert_eq!(
            lw.handle_alert(NodeId(1), NodeId(7), mac, Micros(0)),
            AlertDisposition::Rejected
        );
    }

    #[test]
    fn alert_from_implausible_guard_is_rejected() {
        // Node 9 is not in R_2, so it cannot be guarding node 2.
        let mut lw = instance();
        let g9 = KeyStore::new(SEED, NodeId(9));
        let mac = g9.tag(NodeId(0), &Liteworp::alert_bytes(NodeId(9), NodeId(2)));
        assert_eq!(
            lw.handle_alert(NodeId(9), NodeId(2), mac, Micros(0)),
            AlertDisposition::Rejected
        );
    }

    #[test]
    fn duplicate_accuser_is_ignored() {
        let mut lw = instance();
        let g1 = KeyStore::new(SEED, NodeId(1));
        let mac = g1.tag(NodeId(0), &Liteworp::alert_bytes(NodeId(1), NodeId(2)));
        assert_eq!(
            lw.handle_alert(NodeId(1), NodeId(2), mac, Micros(0)),
            AlertDisposition::Counted
        );
        assert_eq!(
            lw.handle_alert(NodeId(1), NodeId(2), mac, Micros(1)),
            AlertDisposition::Ignored
        );
        assert!(!lw.is_isolated(NodeId(2)));
    }

    #[test]
    fn drop_detection_flows_through_expire() {
        let mut lw = instance();
        // Node 1 unicasts a reply to node 2; 2 never forwards. V_d = 1,
        // C_t = 6: six drops isolate.
        for seq in 0..6u64 {
            let tx = PacketObs {
                sender: NodeId(1),
                claimed_prev: None,
                link_dst: Some(NodeId(2)),
                sig: PacketSig {
                    kind: PacketKind::RouteReply,
                    origin: NodeId(10),
                    target: NodeId(11),
                    seq,
                },
                terminal: false,
            };
            lw.observe_packet(&tx, Micros(seq * 1_000_000));
        }
        let effects = lw.expire(Micros(60_000_000));
        assert!(
            effects
                .iter()
                .any(|e| matches!(e, Effect::Isolated { suspect: NodeId(2) })),
            "six dropped replies should isolate: {effects:?}"
        );
        assert_eq!(
            effects.first(),
            Some(&Effect::WatchExpired { expired: 6 }),
            "the sweep reports its expiry count first: {effects:?}"
        );
    }

    #[test]
    fn storage_stays_small() {
        let lw = instance();
        // 2 first-hop entries (10 B) + 5 second-hop ids (20 B) = 30 B.
        assert_eq!(lw.storage_bytes(), 30);
    }
}
