//! Local monitoring (Section 4.2.1) — the guard-side engine.
//!
//! Every overheard control packet is described to the monitor as a
//! [`PacketObs`]. The monitor, consulting the node's [`NeighborTable`]:
//!
//! 1. **Checks forwards for fabrication** — if this node guards the link
//!    `claimed_prev → sender`, the watch buffer must contain the matching
//!    transmission by `claimed_prev`; otherwise `MalC(sender)` rises by
//!    `V_f`.
//! 2. **Arms the watch** for the packet just transmitted — unicasts to a
//!    guarded receiver get a forwarding deadline δ (drop detection),
//!    broadcasts are recorded for future fabrication checks.
//! 3. **Accuses** — when a neighbor's `MalC` crosses `C_t`, revokes the
//!    suspect locally and starts one alert round about it.
//!
//! The monitor is sans-IO and crate-private to drive: [`crate::Liteworp`]
//! feeds it every observation and expiry sweep and turns what it finds
//! into [`crate::protocol::Effect`]s as it finds them.

use crate::config::{Config, ConfigSource, InvalidConfig};
use crate::malc::MalcTable;
use crate::neighbor::{NeighborTable, ACCUSED, REVOKED, SUSPECTED};
use crate::protocol::Lowering;
use crate::types::{Micros, Misbehavior, NodeId, PacketKind, PacketSig};
use crate::watch::WatchBuffer;
use std::fmt;
use std::sync::Arc;

/// A control-packet transmission as observed on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketObs {
    /// The node announcing itself as this frame's transmitter.
    pub sender: NodeId,
    /// The previous hop the sender announces (`None` when the sender
    /// originated the packet itself).
    pub claimed_prev: Option<NodeId>,
    /// The unicast next hop, or `None` for a broadcast.
    pub link_dst: Option<NodeId>,
    /// Hop-independent packet identity.
    pub sig: PacketSig,
    /// `true` when `link_dst` is the packet's final destination, so no
    /// further forwarding is expected.
    pub terminal: bool,
}

/// The suspect's neighbors per stored second-hop knowledge — the
/// recipients of an alert round (falling back to our own active
/// neighbors when no list was ever announced), in ascending order.
pub(crate) fn alert_recipients(
    table: &NeighborTable,
    suspect: NodeId,
) -> impl Iterator<Item = NodeId> + '_ {
    let me = table.owner();
    let listed = table.neighbor_list_of(suspect);
    let fallback = listed.is_none().then(|| table.active_neighbors());
    listed
        .into_iter()
        .flatten()
        .copied()
        .filter(move |&n| n != me)
        .chain(fallback.into_iter().flatten())
        .filter(move |&n| n != suspect)
}

/// What one observation looked up, so the frame's admission verdict
/// needs no second search: the table indices of the sender and of the
/// claimed previous hop (`None`: not a known neighbor), valid unless the
/// frame got someone charged.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lookup {
    pub(crate) sender: Option<usize>,
    pub(crate) prev: Option<usize>,
    /// A charge was made, which may have accused (and so revoked, or
    /// even inserted) an id: the indices may be stale.
    pub(crate) charged: bool,
}

/// The guard's parameters, shared with every node that runs the same
/// ones. `Debug` prints the [`Config`] itself.
#[derive(Clone)]
struct SharedConfig(Arc<dyn ConfigSource>);

impl fmt::Debug for SharedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.config().fmt(f)
    }
}

/// The guard-side monitoring engine of one node, built and driven by
/// [`crate::Liteworp`] (read it through [`crate::Liteworp::monitor`]).
///
/// The monitor's standing judgment of each neighbor (accused, suspected
/// by another guard, last alert round) lives in that neighbor's slot of
/// the [`NeighborTable`] it is handed, so one lookup per id serves every
/// per-frame check.
#[derive(Debug, Clone)]
pub struct LocalMonitor {
    config: SharedConfig,
    watch: WatchBuffer,
    malc: MalcTable,
    last_collision: Option<Micros>,
    watch_expiries: u64,
}

impl LocalMonitor {
    /// Creates a monitor reading its parameters from `source`, or
    /// [`InvalidConfig`] when they are inconsistent.
    pub(crate) fn new(source: Arc<dyn ConfigSource>) -> Result<Self, InvalidConfig> {
        let config = source.config();
        config.validate()?;
        let watch = WatchBuffer::new(config.watch_capacity);
        let malc = MalcTable::new(config.malc_window_us);
        Ok(LocalMonitor {
            config: SharedConfig(source),
            watch,
            malc,
            last_collision: None,
            watch_expiries: 0,
        })
    }

    /// Records that another guard's alert named `node` as a suspect
    /// (even before γ alerts arrive). The monitor then gives receivers of
    /// `node`'s packets the benefit of the doubt: pending drop
    /// expectations for its transmissions are cancelled, no new ones are
    /// armed, and forwards claiming `node` as previous hop are not judged
    /// (neighbors that already isolated `node` legitimately refuse its
    /// packets, which would otherwise look like drops here). The mark is
    /// kept in `node`'s slot of `table`, so only known neighbors carry it.
    pub(crate) fn note_external_suspicion(&mut self, table: &mut NeighborTable, node: NodeId) {
        table.mark_suspected(node);
        self.watch.cancel_expectations_from(node);
    }

    /// Records that this node's radio lost a frame to a collision at
    /// `now`. Within the configured grace window the guard abstains from
    /// fabrication judgments, and drop accusations whose watch entry
    /// overlaps a collision are suppressed — the lost frame may have been
    /// the very transmission whose absence would be punished.
    pub(crate) fn note_collision(&mut self, now: Micros) {
        self.last_collision = Some(now);
    }

    fn in_collision_grace(&self, now: Micros) -> bool {
        match (self.last_collision, self.config().collision_grace_us) {
            (Some(t), grace) if grace > 0 => now.0.saturating_sub(t.0) < grace,
            _ => false,
        }
    }

    fn collision_since(&self, t: Micros) -> bool {
        self.config().collision_grace_us > 0 && self.last_collision.is_some_and(|c| c >= t)
    }

    /// The configuration in force.
    pub fn config(&self) -> &Config {
        self.config.0.config()
    }

    /// Read access to the watch buffer (diagnostics, cost accounting).
    pub fn watch(&self) -> &WatchBuffer {
        &self.watch
    }

    /// Current `MalC` for a node.
    pub fn malc(&self, node: NodeId, now: Micros) -> u32 {
        self.malc.value(node, now)
    }

    /// Processes one overheard transmission, reporting to `out` and
    /// returning what it looked up. Mutates `table` only to revoke a
    /// freshly accused suspect.
    pub(crate) fn observe_into(
        &mut self,
        table: &mut NeighborTable,
        obs: &PacketObs,
        now: Micros,
        out: &mut Lowering<'_>,
    ) -> Lookup {
        let config = self.config.0.config();
        // The sender as a link end (`None`: a stranger), looked up once
        // and again only if this frame gets it accused.
        let mut look = Lookup {
            sender: table.find(obs.sender),
            prev: None,
            charged: false,
        };
        let mut sender = table.end_at(obs.sender, look.sender);

        // 0. Re-alert: an accused node still transmitting means some of
        // its neighbors have not isolated it yet (or it simply refuses to
        // stop) — refresh the alert round, rate-limited.
        if sender.is_some_and(|f| f & ACCUSED != 0)
            && config.realert_interval_us > 0
            && table.realert_due(obs.sender, now, config.realert_interval_us)
        {
            out.accuse(table, obs.sender);
        }

        // 1. Fabrication check on the forward we just overheard: judged
        // when we guard the link prev -> sender (we know both ends), the
        // sender is not accused yet and prev is not under suspicion.
        if let Some(prev) = obs.claimed_prev {
            look.prev = table.find(prev);
            let guarded = NeighborTable::guarded_link(
                (prev, table.end_at(prev, look.prev)),
                (obs.sender, sender),
            );
            if guarded.is_some_and(|(prev_f, sender_f)| {
                sender_f & ACCUSED == 0 && prev_f & SUSPECTED == 0
            }) && !self.watch.confirm_forward(prev, &obs.sig, obs.sender)
                && !self.in_collision_grace(now)
            {
                Self::punish(
                    &mut self.malc,
                    config,
                    table,
                    obs.sender,
                    Misbehavior::Fabrication,
                    now,
                    out,
                );
                look.charged = true;
                sender = table.link_end(obs.sender);
            }
        }

        // 2. Arm the watch for this transmission.
        let deadline = now.saturating_add(config.watch_timeout_us);
        match obs.link_dst {
            Some(dst) if !obs.terminal => {
                // Unicast that must be forwarded: watch it if we guard the
                // link sender -> dst (i.e., we can hear dst's forward).
                // No expectation is armed for transmissions of revoked,
                // accused or suspected nodes — receivers rightly discard
                // those.
                let guarded =
                    NeighborTable::guarded_link((obs.sender, sender), (dst, table.link_end(dst)));
                if guarded
                    .is_some_and(|(sender_f, _)| sender_f & (REVOKED | ACCUSED | SUSPECTED) == 0)
                {
                    self.watch
                        .note_transmission(obs.sender, obs.sig, Some(dst), deadline, now);
                }
            }
            Some(_) => {
                // Terminal unicast: nothing to forward, nothing to watch.
            }
            None => {
                // Broadcast (flood): record for fabrication checking when
                // the sender is someone we can monitor.
                if obs.sig.kind == PacketKind::RouteRequest && sender.is_some() {
                    self.watch
                        .note_transmission(obs.sender, obs.sig, None, deadline, now);
                }
            }
        }
        look
    }

    /// Runs drop detection: expires watch entries whose deadline passed
    /// and charges the receivers that failed to forward, reporting to
    /// `out`; returns how many entries expired.
    pub(crate) fn expire_into(
        &mut self,
        table: &mut NeighborTable,
        now: Micros,
        out: &mut Lowering<'_>,
    ) -> u64 {
        let mut expired = 0;
        for (dropper, _, armed_at) in self.watch.expire(now) {
            expired += 1;
            // A node never charges itself: its own unforwarded receptions
            // are either terminal or already rejected at admission. And a
            // guard that suffered a collision while the entry was armed
            // gives the benefit of the doubt — it may have missed the
            // forward.
            if dropper != table.owner()
                && !table.is_accused(dropper)
                && !self.collision_since(armed_at)
            {
                Self::punish(
                    &mut self.malc,
                    self.config.0.config(),
                    table,
                    dropper,
                    Misbehavior::Drop,
                    now,
                    out,
                );
            }
        }
        self.watch_expiries += expired;
        expired
    }

    /// Records that `forwarder` announced (via a route error) that it
    /// cannot forward `sig`: its pending forward obligation is waived.
    pub(crate) fn absolve(&mut self, forwarder: NodeId, sig: &PacketSig) {
        self.watch.absolve(forwarder, sig);
    }

    /// Cumulative count of watch-buffer entries that timed out
    /// unforwarded (drop candidates), whether or not a charge followed.
    pub fn watch_expiries(&self) -> u64 {
        self.watch_expiries
    }

    fn punish(
        malc: &mut MalcTable,
        config: &Config,
        table: &mut NeighborTable,
        suspect: NodeId,
        kind: Misbehavior,
        now: Micros,
        out: &mut Lowering<'_>,
    ) {
        let weight = match kind {
            Misbehavior::Fabrication => config.fabrication_weight,
            Misbehavior::Drop => config.drop_weight,
        };
        let value = malc.record(suspect, weight, now);
        out.suspected(suspect, kind, value);
        if value >= config.malc_threshold {
            malc.clear(suspect);
            // Revoke locally (the guard stops trusting the suspect now).
            table.accuse(suspect, now);
            out.accuse(table, suspect);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertBuffer;
    use crate::keys::KeyStore;
    use crate::protocol::Effect;

    fn sig(kind: PacketKind, seq: u64) -> PacketSig {
        PacketSig {
            kind,
            origin: NodeId(10),
            target: NodeId(11),
            seq,
        }
    }

    /// A monitor with its table, reporting through the facade's
    /// lowering, so findings read as the host's effects.
    struct Guard {
        table: NeighborTable,
        mon: LocalMonitor,
        keys: KeyStore,
        alerts: AlertBuffer,
    }

    impl Guard {
        fn observe(&mut self, obs: &PacketObs, now: Micros) -> Vec<Effect> {
            let mut out = Lowering::new(&self.keys, &mut self.alerts);
            self.mon.observe_into(&mut self.table, obs, now, &mut out);
            out.effects
        }

        fn expire(&mut self, now: Micros) -> Vec<Effect> {
            let mut out = Lowering::new(&self.keys, &mut self.alerts);
            self.mon.expire_into(&mut self.table, now, &mut out);
            out.effects
        }
    }

    /// Guard 0 neighbors X=1 and A=2; R_2 = {0, 1, 3, 4}.
    fn setup() -> Guard {
        let mut table = NeighborTable::new(NodeId(0));
        table.add_neighbor(NodeId(1));
        table.add_neighbor(NodeId(2));
        table.set_neighbor_list(NodeId(1), [NodeId(0), NodeId(2)]);
        table.set_neighbor_list(NodeId(2), [NodeId(0), NodeId(1), NodeId(3), NodeId(4)]);
        let config = Config::default();
        Guard {
            alerts: AlertBuffer::new(config.confidence_index),
            mon: LocalMonitor::new(Arc::new(config)).unwrap(),
            keys: KeyStore::new(7, NodeId(0)),
            table,
        }
    }

    fn forward_obs(seq: u64) -> PacketObs {
        PacketObs {
            sender: NodeId(2),
            claimed_prev: Some(NodeId(1)),
            link_dst: None,
            sig: sig(PacketKind::RouteRequest, seq),
            terminal: false,
        }
    }

    #[test]
    fn legitimate_forward_is_clean() {
        let mut g = setup();
        // X=1 broadcasts the request...
        let x_tx = PacketObs {
            sender: NodeId(1),
            claimed_prev: None,
            link_dst: None,
            sig: sig(PacketKind::RouteRequest, 1),
            terminal: false,
        };
        assert!(g.observe(&x_tx, Micros(0)).is_empty());
        // ...then A=2 forwards claiming prev = 1: matches the watch buffer.
        let events = g.observe(&forward_obs(1), Micros(10));
        assert!(events.is_empty(), "no misbehavior: {events:?}");
    }

    #[test]
    fn fabricated_forward_raises_malc_and_eventually_accuses() {
        let mut g = setup();
        // Defaults: V_f = 2, C_t = 6 -> three fabrications to accuse.
        let e1 = g.observe(&forward_obs(1), Micros(0));
        assert_eq!(
            e1,
            vec![Effect::Suspected {
                suspect: NodeId(2),
                kind: Misbehavior::Fabrication,
                malc: 2
            }]
        );
        let e = g.observe(&forward_obs(2), Micros(2));
        assert_eq!(e.len(), 1, "not yet accused after two fabrications");
        let e2 = g.observe(&forward_obs(3), Micros(10));
        assert_eq!(e2.len(), 5, "suspected, three alerts, isolated: {e2:?}");
        let recipients: Vec<NodeId> = e2
            .iter()
            .filter_map(|e| match e {
                Effect::SendAlert {
                    suspect: NodeId(2),
                    recipient,
                    ..
                } => Some(*recipient),
                _ => None,
            })
            .collect();
        // Neighbors of 2 per R_2, minus self and suspect.
        assert_eq!(recipients, vec![NodeId(1), NodeId(3), NodeId(4)]);
        assert_eq!(e2[4], Effect::Isolated { suspect: NodeId(2) });
        assert!(g.table.is_revoked(NodeId(2)), "guard revokes immediately");
        assert!(g.table.is_accused(NodeId(2)));
    }

    #[test]
    fn accused_node_is_not_accused_twice() {
        let mut g = setup();
        for seq in 1..=3u64 {
            g.observe(&forward_obs(seq), Micros(seq));
        }
        assert!(g.table.is_accused(NodeId(2)));
        let e = g.observe(&forward_obs(4), Micros(6));
        assert!(e.is_empty(), "no further events after accusation: {e:?}");
    }

    #[test]
    fn non_guard_does_not_judge() {
        let mut g = setup();
        // Forward claims prev = 7, whom we do not neighbor: not our link.
        let obs = PacketObs {
            claimed_prev: Some(NodeId(7)),
            ..forward_obs(1)
        };
        assert!(g.observe(&obs, Micros(0)).is_empty());
    }

    #[test]
    fn unicast_drop_detection_accuses_receiver() {
        let mut g = setup();
        // X=1 unicasts a reply to A=2 (we guard 1 -> 2). A never forwards.
        let tx = PacketObs {
            sender: NodeId(1),
            claimed_prev: None,
            link_dst: Some(NodeId(2)),
            sig: sig(PacketKind::RouteReply, 5),
            terminal: false,
        };
        assert!(g.observe(&tx, Micros(0)).is_empty());
        // Before the deadline: nothing.
        assert!(g.expire(Micros(100)).is_empty());
        // After delta (2 s default): a drop is charged (V_d = 1).
        let events = g.expire(Micros(2_000_000));
        assert_eq!(
            events,
            vec![Effect::Suspected {
                suspect: NodeId(2),
                kind: Misbehavior::Drop,
                malc: 1
            }]
        );
    }

    #[test]
    fn forwarded_unicast_is_not_a_drop() {
        let mut g = setup();
        let tx = PacketObs {
            sender: NodeId(1),
            claimed_prev: None,
            link_dst: Some(NodeId(2)),
            sig: sig(PacketKind::RouteReply, 5),
            terminal: false,
        };
        g.observe(&tx, Micros(0));
        // A=2 forwards to 3 in time.
        let fwd = PacketObs {
            sender: NodeId(2),
            claimed_prev: Some(NodeId(1)),
            link_dst: Some(NodeId(3)),
            sig: sig(PacketKind::RouteReply, 5),
            terminal: false,
        };
        assert!(g.observe(&fwd, Micros(1000)).is_empty());
        assert!(g.expire(Micros(600_000)).is_empty());
    }

    #[test]
    fn terminal_delivery_expects_no_forward() {
        let mut g = setup();
        let tx = PacketObs {
            sender: NodeId(1),
            claimed_prev: None,
            link_dst: Some(NodeId(2)),
            sig: sig(PacketKind::RouteReply, 5),
            terminal: true,
        };
        g.observe(&tx, Micros(0));
        assert!(g.expire(Micros(600_000)).is_empty());
    }

    #[test]
    fn repeated_drops_accumulate_to_accusation() {
        let mut g = setup();
        // V_d = 1, C_t = 6: six dropped replies.
        for seq in 0..6u64 {
            let tx = PacketObs {
                sender: NodeId(1),
                claimed_prev: None,
                link_dst: Some(NodeId(2)),
                sig: sig(PacketKind::RouteReply, seq),
                terminal: false,
            };
            g.observe(&tx, Micros(seq * 1_000_000));
        }
        let events = g.expire(Micros(30_000_000));
        assert!(
            events.contains(&Effect::Isolated { suspect: NodeId(2) }),
            "6 drops should accuse: {events:?}"
        );
    }

    #[test]
    fn collision_grace_suppresses_fabrication_judgment() {
        let mut g = setup();
        // A collision just happened at this guard: the "missing" upstream
        // transmission may simply have been lost here.
        g.mon.note_collision(Micros(1_000));
        let e = g.observe(&forward_obs(1), Micros(2_000));
        assert!(e.is_empty(), "graced: {e:?}");
        // Past the grace window (2 s default) judgment resumes.
        let e = g.observe(&forward_obs(2), Micros(4_000_000));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn collision_during_watch_suppresses_drop_accusation() {
        let mut g = setup();
        let tx = PacketObs {
            sender: NodeId(1),
            claimed_prev: None,
            link_dst: Some(NodeId(2)),
            sig: sig(PacketKind::RouteReply, 5),
            terminal: false,
        };
        g.observe(&tx, Micros(0));
        // A collision while the entry is armed: the forward may have been
        // transmitted and lost here.
        g.mon.note_collision(Micros(100_000));
        let events = g.expire(Micros(3_000_000));
        assert!(events.is_empty(), "graced drop: {events:?}");
    }

    #[test]
    fn collision_before_arming_does_not_excuse_drops() {
        let mut g = setup();
        g.mon.note_collision(Micros(0));
        let tx = PacketObs {
            sender: NodeId(1),
            claimed_prev: None,
            link_dst: Some(NodeId(2)),
            sig: sig(PacketKind::RouteReply, 6),
            terminal: false,
        };
        // Armed *after* the collision: the old collision is irrelevant.
        g.observe(&tx, Micros(10));
        let events = g.expire(Micros(3_000_000));
        assert_eq!(events.len(), 1, "drop must still be charged: {events:?}");
    }

    #[test]
    fn external_suspicion_gives_receivers_benefit_of_the_doubt() {
        let mut g = setup();
        // An alert names node 1 as a suspect. Receivers refusing node 1's
        // packets must not be charged with drops.
        let tx = PacketObs {
            sender: NodeId(1),
            claimed_prev: None,
            link_dst: Some(NodeId(2)),
            sig: sig(PacketKind::RouteReply, 7),
            terminal: false,
        };
        g.observe(&tx, Micros(0));
        g.mon.note_external_suspicion(&mut g.table, NodeId(1));
        let events = g.expire(Micros(3_000_000));
        assert!(
            events.is_empty(),
            "pending expectation not cancelled: {events:?}"
        );
        // And no new expectations are armed for its transmissions.
        let tx2 = PacketObs {
            sig: sig(PacketKind::RouteReply, 8),
            ..tx
        };
        g.observe(&tx2, Micros(4_000_000));
        let events = g.expire(Micros(8_000_000));
        assert!(events.is_empty(), "armed for a suspect: {events:?}");
    }

    #[test]
    fn watch_expiries_accumulate_even_when_charges_are_suppressed() {
        let mut g = setup();
        let tx = |seq| PacketObs {
            sender: NodeId(1),
            claimed_prev: None,
            link_dst: Some(NodeId(2)),
            sig: sig(PacketKind::RouteReply, seq),
            terminal: false,
        };
        g.observe(&tx(1), Micros(0));
        assert_eq!(g.mon.watch_expiries(), 0, "nothing expired yet");
        g.expire(Micros(3_000_000));
        assert_eq!(g.mon.watch_expiries(), 1);
        // A collision overlapping the armed window suppresses the charge,
        // but the expiry itself is still counted.
        g.observe(&tx(2), Micros(4_000_000));
        g.mon.note_collision(Micros(4_500_000));
        let events = g.expire(Micros(8_000_000));
        assert!(events.is_empty(), "charge graced: {events:?}");
        assert_eq!(g.mon.watch_expiries(), 2);
    }

    #[test]
    fn own_transmissions_are_not_self_fabrications() {
        let mut g = setup();
        // A forward where claimed_prev == sender is degenerate; ignore.
        let obs = PacketObs {
            sender: NodeId(2),
            claimed_prev: Some(NodeId(2)),
            link_dst: None,
            sig: sig(PacketKind::RouteRequest, 1),
            terminal: false,
        };
        assert!(g.observe(&obs, Micros(0)).is_empty());
    }
}
