//! The honest protocol node: on-demand routing + traffic generation +
//! LITEWORP integration.
//!
//! This is the "data exchange protocol" of Section 6: a generic on-demand
//! shortest-path routing protocol that floods route requests, unicasts
//! route replies along the reverse path, caches routes for `TOut_Route`,
//! and announces the previous hop of every forwarded control packet so
//! guards can monitor.
//!
//! With LITEWORP enabled the node additionally:
//!
//! * runs (or is preloaded with) secure two-hop neighbor discovery,
//! * refuses packets from non-neighbors, revoked nodes, or with an
//!   implausible previous hop,
//! * feeds every overheard control packet to the local monitor and sends
//!   the resulting authenticated alerts,
//! * isolates nodes on γ distinct guard alerts and purges routes through
//!   them.

use crate::expiry::ExpiryChain;
use crate::flood::FloodTable;
use crate::packet::Packet;
use crate::params::{
    DiscoveryMode, NodeParams, RouteSelection, EXPIRE_TICK, PENDING_QUEUE_CAP, REP_FORWARD_JITTER,
    REQUEST_RETRY, REQ_FORWARD_JITTER,
};
use crate::stats::{NodeStats, RouteRecord};
use liteworp::config::ConfigSource;
use liteworp::discovery::{DiscoveryMsg, DiscoveryOut};
use liteworp::monitor::PacketObs;
use liteworp::prelude::{Admission, AlertDisposition, Effect, KeyStore, Liteworp};
use liteworp::types::{Micros, Misbehavior, NodeId, PacketKind, PacketSig};
use liteworp_netsim::prelude::{
    Context, Dest, Frame, FrameSpec, MalcReason, NodeLogic, SimCounter, SimDuration, SimTime,
    TraceKind,
};
use liteworp_netsim::rng::Rng;
use liteworp_obs as obs;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Converts a core node id to the simulator's id type.
pub fn sim_id(n: NodeId) -> liteworp_netsim::field::NodeId {
    liteworp_netsim::field::NodeId(n.0)
}

/// Converts a simulator node id to the core id type.
pub fn core_id(n: liteworp_netsim::field::NodeId) -> NodeId {
    NodeId(n.0)
}

/// Converts simulator time to the core crate's local-clock microseconds.
pub fn micros(t: SimTime) -> Micros {
    Micros(t.as_micros())
}

/// Timer token kinds (encoded in the top byte of the `u64` token).
mod timer {
    pub const ANNOUNCE: u64 = 1;
    pub const EXPIRE: u64 = 2;
    pub const TRAFFIC: u64 = 3;
    pub const DEST_CHANGE: u64 = 4;
    pub const REQ_RETRY: u64 = 5;
    pub const FORWARD_REQ: u64 = 6;

    pub fn encode(kind: u64, payload: u64) -> u64 {
        (kind << 56) | (payload & 0x00ff_ffff_ffff_ffff)
    }
    pub fn kind(token: u64) -> u64 {
        token >> 56
    }
    pub fn payload(token: u64) -> u64 {
        token & 0x00ff_ffff_ffff_ffff
    }
}

#[derive(Debug, Clone)]
struct RouteEntry {
    next: NodeId,
    hops: u8,
    established: SimTime,
    relays: Vec<NodeId>,
}

/// What only a traffic source keeps. Most nodes of a large deployment
/// never originate data, so a node allocates this on its first use.
#[derive(Debug, Default)]
struct SourceState {
    /// Data waiting for a route, per destination.
    pending_data: BTreeMap<NodeId, VecDeque<u64>>,
    /// Destinations with a discovery in flight.
    discovering: BTreeSet<NodeId>,
    /// Consecutive failed discoveries per destination (retry backoff).
    retry_attempts: BTreeMap<NodeId, u32>,
    /// Routes established at this node as a source, in order.
    route_log: Vec<RouteRecord>,
}

/// The honest protocol node.
///
/// Implements [`NodeLogic<Packet>`]; the processing methods are `pub` so
/// the attack crate can wrap a `ProtocolNode` and keep honest behavior for
/// everything it does not subvert.
pub struct ProtocolNode {
    me: NodeId,
    /// Shared by every node built with equal parameters.
    params: Arc<NodeParams>,
    lw: Option<Liteworp>,
    monitoring: bool,
    /// When the EXPIRE timer fires: only at the ticks of the node's
    /// [`EXPIRE_TICK`] grid where the watch buffer's oldest entry has
    /// expired (see [`crate::expiry`]). A chain starts when an
    /// observation makes an idle buffer non-empty and lapses when the
    /// buffer empties, so idle nodes (most of a large network, most of
    /// the time) schedule no timer at all, and busy ones one per
    /// expiring batch rather than one per tick.
    expiry: ExpiryChain,
    seq: u64,
    /// Every route-request flood seen (own ones included), with the hop
    /// each first arrived from.
    floods: FloodTable,
    routes: BTreeMap<NodeId, RouteEntry>,
    source: Option<Box<SourceState>>,
    pending_forwards: PendingForwards,
    current_dest: Option<NodeId>,
    stats: NodeStats,
}

impl ProtocolNode {
    /// Creates a node. When `params.liteworp` is `Some`, a fresh LITEWORP
    /// instance is built (tables empty — use message discovery or
    /// [`ProtocolNode::liteworp_mut`] to preload). Nodes built from one
    /// `Arc<NodeParams>` share it; a plain `NodeParams` works too.
    pub fn new(me: NodeId, params: impl Into<Arc<NodeParams>>) -> Self {
        let params = params.into();
        // The guard reads its config from the shared parameters.
        let lw = params.liteworp.is_some().then(|| {
            let source: Arc<dyn ConfigSource> = Arc::clone(&params) as _;
            Liteworp::new(source, KeyStore::new(params.key_seed, me))
        });
        ProtocolNode {
            me,
            params,
            lw,
            monitoring: true,
            expiry: ExpiryChain::default(),
            seq: 0,
            floods: FloodTable::new(me),
            routes: BTreeMap::new(),
            source: None,
            pending_forwards: PendingForwards::default(),
            current_dest: None,
            stats: NodeStats::default(),
        }
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The parameters this node runs with.
    pub fn params(&self) -> &NodeParams {
        &self.params
    }

    /// Per-node statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Routes established at this node as a source, in order.
    pub fn route_log(&self) -> &[RouteRecord] {
        self.source.as_ref().map_or(&[], |s| &s.route_log)
    }

    /// The traffic-source state, allocated on first use.
    fn source_mut(&mut self) -> &mut SourceState {
        self.source.get_or_insert_with(Box::default)
    }

    /// The embedded LITEWORP instance, if protection is enabled.
    pub fn liteworp(&self) -> Option<&Liteworp> {
        self.lw.as_ref()
    }

    /// Mutable access to LITEWORP (oracle bootstrap of neighbor tables).
    pub fn liteworp_mut(&mut self) -> Option<&mut Liteworp> {
        self.lw.as_mut()
    }

    /// Enables or disables the *guard* role (local monitoring, drop
    /// detection, alerting). Admission checks and alert handling keep
    /// working. Attack wrappers switch this off: a compromised node does
    /// not volunteer to run the defense, and its half-informed monitor
    /// would otherwise accuse its own honest neighbors for refusing the
    /// packets its attack layer injects.
    pub fn set_monitoring(&mut self, on: bool) {
        self.monitoring = on;
    }

    /// The next hop this node would use toward `dest` right now, if any.
    pub fn route_next_hop(&self, dest: NodeId) -> Option<NodeId> {
        self.routes.get(&dest).map(|r| r.next)
    }

    /// Ground-truth relays of the currently installed route to `dest`
    /// (telemetry for experiments; honest logic never reads it).
    pub fn route_relays(&self, dest: NodeId) -> Option<&[NodeId]> {
        self.routes.get(&dest).map(|r| r.relays.as_slice())
    }

    /// The reverse-path next hop recorded for discovery `(src, seq)`.
    pub fn reverse_hop(&self, src: NodeId, seq: u64) -> Option<NodeId> {
        self.floods.reverse_hop(src, seq)
    }

    // ------------------------------------------------------------------
    // NodeLogic plumbing (public so wrappers can delegate).
    // ------------------------------------------------------------------

    /// Whether [`ProtocolNode::handle_start`] does nothing for a node with
    /// `params`: its tables are preloaded and it originates no traffic, so
    /// its start sends nothing, sets no timer and draws no randomness. Such
    /// a node may be left unbuilt until its first event (a lazy node, see
    /// `Simulator::push_lazy_node`).
    pub fn start_is_idle(params: &NodeParams) -> bool {
        params.discovery == DiscoveryMode::Preloaded && params.data_interval_mean.is_none()
    }

    /// Start-of-life behavior: discovery, expiry tick, traffic timers.
    pub fn handle_start(&mut self, ctx: &mut Context<'_, Packet>) {
        if let (
            DiscoveryMode::Messages { collect } | DiscoveryMode::LateJoin { collect },
            Some(lw),
        ) = (self.params.discovery, self.lw.as_mut())
        {
            let (disc, _table) = lw.discovery_mut();
            let out = disc.begin();
            self.emit_discovery(ctx, out);
            ctx.set_timer(collect, timer::encode(timer::ANNOUNCE, 0));
        }
        // The EXPIRE timer is not armed here: the watch buffer starts
        // empty, and `monitor_packet` starts the expiry chain the moment
        // the first entry appears.
        if let Some(mean) = self.params.data_interval_mean {
            self.pick_new_destination(ctx);
            let warmup_us = self.params.traffic_warmup.as_micros();
            let warmup = SimDuration::from_micros(ctx.rng().gen_range(0..=warmup_us));
            let delay = warmup + exp_sample(ctx, mean);
            ctx.set_timer(delay, timer::encode(timer::TRAFFIC, 0));
            let change = exp_sample(ctx, self.params.dest_change_mean);
            ctx.set_timer(change, timer::encode(timer::DEST_CHANGE, 0));
        }
    }

    /// Frame reception (addressed or overheard).
    pub fn handle_frame(&mut self, ctx: &mut Context<'_, Packet>, frame: &Frame<Packet>) {
        // 1. Local monitoring sees *every* overheard control packet, and
        // answers admission for the packets it judges from the same
        // lookups.
        let verdict = self.monitor_packet(ctx, &frame.payload);

        // 2. Protocol processing of packets addressed to us.
        match &frame.payload {
            Packet::Discovery { sender, msg } => {
                self.handle_discovery(ctx, *sender, msg);
            }
            Packet::RouteRequest {
                sig,
                sender,
                prev,
                hops,
            } => {
                if !self.admitted(verdict, *sender, *prev) {
                    return;
                }
                self.handle_request(ctx, *sig, *sender, *hops);
            }
            Packet::RouteReply {
                sig,
                sender,
                prev,
                next,
                hops,
                relays,
            } => {
                if *next != self.me {
                    return; // merely overheard
                }
                if !self.admitted(verdict, *sender, *prev) {
                    return;
                }
                self.handle_reply(ctx, *sig, *sender, *hops, relays.clone());
            }
            Packet::Data {
                origin,
                target,
                seq,
                sender,
                prev,
                next,
            } => {
                if *next != self.me {
                    return;
                }
                if !self.admitted(verdict, *sender, *prev) {
                    return;
                }
                self.handle_data(ctx, *origin, *target, *seq, *sender);
            }
            Packet::RouteError { sender, sig } => {
                if let Some(lw) = self.lw.as_mut() {
                    lw.absolve(*sender, sig);
                }
                // Purge a stale route that points at the failing node.
                if self.route_next_hop(sig.target) == Some(*sender) {
                    self.routes.remove(&sig.target);
                }
            }
            Packet::Alert {
                guard,
                suspect,
                to,
                mac,
            } => {
                if *to != self.me {
                    // Relay an alert link-addressed to us toward its
                    // recipient if that recipient is our active neighbor
                    // (one relay hop only: guard -> relay -> recipient).
                    if self.params.relay_alerts && frame.dest == Dest::Unicast(sim_id(self.me)) {
                        if let Some(lw) = self.lw.as_ref() {
                            if lw.table().is_active_neighbor(*to) && *guard != self.me {
                                ctx.metrics().incr(SimCounter::AlertsRelayed);
                                let pkt = frame.payload.clone();
                                let bytes = pkt.wire_bytes();
                                ctx.send(FrameSpec::new(Dest::Unicast(sim_id(*to)), pkt, bytes));
                            }
                        }
                    }
                    return;
                }
                let Some(lw) = self.lw.as_mut() else { return };
                let now = micros(ctx.now());
                let disposition = lw.handle_alert(*guard, *suspect, *mac, now);
                let accepted = matches!(
                    disposition,
                    AlertDisposition::Isolated | AlertDisposition::Counted
                );
                // An accepted alert cancels the watch's expectations of
                // the suspect, which may drain the buffer between ticks.
                if accepted && self.expiry.armed() && lw.monitor().watch().is_empty() {
                    self.expiry.drained(now.0, EXPIRE_TICK.as_micros());
                }
                ctx.trace(TraceKind::AlertReceived {
                    guard: guard.0,
                    suspect: suspect.0,
                    accepted,
                });
                match disposition {
                    AlertDisposition::Isolated => {
                        self.stats.alerts_accepted += 1;
                        ctx.metrics().incr(SimCounter::Isolations);
                        ctx.trace(TraceKind::Isolated {
                            suspect: suspect.0,
                            by_alerts: true,
                        });
                        self.purge_routes_through(*suspect);
                    }
                    AlertDisposition::Counted => {
                        self.stats.alerts_accepted += 1;
                    }
                    AlertDisposition::Ignored | AlertDisposition::Rejected => {}
                }
            }
        }
    }

    /// Collision indication from the radio.
    pub fn handle_collision(&mut self, ctx: &mut Context<'_, Packet>) {
        if let Some(lw) = self.lw.as_mut() {
            lw.note_collision(micros(ctx.now()));
        }
    }

    /// Timer dispatch.
    pub fn handle_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
        match timer::kind(token) {
            timer::ANNOUNCE => {
                if let Some(lw) = self.lw.as_mut() {
                    let (disc, table) = lw.discovery_mut();
                    let out = disc.announce(table);
                    self.emit_discovery(ctx, out);
                    if matches!(self.params.discovery, DiscoveryMode::LateJoin { .. }) {
                        // Ask established neighbors for their lists so we
                        // gain second-hop knowledge despite missing their
                        // original announcements.
                        let me = self.me;
                        let pkt = Packet::Discovery {
                            sender: me,
                            msg: DiscoveryMsg::ListRequest,
                        };
                        let bytes = pkt.wire_bytes();
                        ctx.send(FrameSpec::new(Dest::Broadcast, pkt, bytes));
                    }
                }
            }
            timer::EXPIRE => {
                if !self.expiry.is_live(timer::payload(token) as u32) {
                    return; // a lapsed chain's timer
                }
                let now = micros(ctx.now());
                if self.monitoring {
                    if let Some(lw) = self.lw.as_mut() {
                        let effects = lw.expire(now);
                        self.apply_effects(ctx, effects);
                    }
                }
                // Re-arm only while entries remain (even with monitoring
                // paused, so a re-enabled monitor still expires them);
                // otherwise the chain lapses until the next observation.
                let head = self
                    .lw
                    .as_ref()
                    .and_then(|lw| lw.monitor().watch().head_deadline());
                let tick = EXPIRE_TICK.as_micros();
                if let Some(arm) =
                    self.expiry
                        .fired(now.0, tick, head.map(|d| d.0), self.monitoring)
                {
                    // In the tie rank of this tick, as if re-armed at
                    // every grid tick it skips.
                    ctx.rearm_timer(SimDuration::from_micros(arm.delay_us), expiry_token(arm));
                }
            }
            timer::TRAFFIC => {
                self.generate_data(ctx);
                if let Some(mean) = self.params.data_interval_mean {
                    let delay = exp_sample(ctx, mean);
                    ctx.set_timer(delay, timer::encode(timer::TRAFFIC, 0));
                }
            }
            timer::DEST_CHANGE => {
                self.pick_new_destination(ctx);
                let change = exp_sample(ctx, self.params.dest_change_mean);
                ctx.set_timer(change, timer::encode(timer::DEST_CHANGE, 0));
            }
            timer::FORWARD_REQ => {
                if let Some((dest, pkt)) = self.pending_forwards.take(timer::payload(token)) {
                    self.send_control(ctx, dest, pkt);
                }
            }
            timer::REQ_RETRY => {
                let dest = NodeId(timer::payload(token) as u32);
                let has_route = self.fresh_route(ctx.now(), dest).is_some();
                let source = self.source_mut();
                let has_pending = source
                    .pending_data
                    .get(&dest)
                    .is_some_and(|q| !q.is_empty());
                source.discovering.remove(&dest);
                if !has_route && has_pending {
                    self.start_discovery(ctx, dest);
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Discovery.
    // ------------------------------------------------------------------

    fn emit_discovery(&mut self, ctx: &mut Context<'_, Packet>, out: DiscoveryOut) {
        let me = self.me;
        let (dest, msg) = match out {
            DiscoveryOut::Broadcast(msg) => (Dest::Broadcast, msg),
            DiscoveryOut::Unicast(to, msg) => (Dest::Unicast(sim_id(to)), msg),
        };
        if matches!(msg, DiscoveryMsg::Hello) {
            ctx.trace(TraceKind::HelloSent);
        }
        let pkt = Packet::Discovery { sender: me, msg };
        let bytes = pkt.wire_bytes();
        ctx.send(FrameSpec::new(dest, pkt, bytes));
    }

    fn handle_discovery(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        sender: NodeId,
        msg: &DiscoveryMsg,
    ) {
        let Some(lw) = self.lw.as_mut() else { return };
        let was_neighbor = lw.table().is_neighbor(sender);
        let mut added = false;
        let now_outs: Vec<DiscoveryOut> = {
            let (disc, table) = lw.discovery_mut();
            match msg {
                DiscoveryMsg::Hello => vec![disc.on_hello(sender)],
                DiscoveryMsg::HelloReply { mac } => {
                    added = disc.on_hello_reply(table, sender, *mac);
                    vec![]
                }
                DiscoveryMsg::ListAnnounce { list, tags } => {
                    added = disc.on_list_announce(table, sender, list, tags);
                    vec![]
                }
                DiscoveryMsg::ListRequest => {
                    disc.on_list_request(table, sender).into_iter().collect()
                }
            }
        };
        if added && !was_neighbor {
            ctx.trace(TraceKind::NeighborAdded { peer: sender.0 });
        }
        for out in now_outs {
            self.emit_discovery(ctx, out);
        }
    }

    // ------------------------------------------------------------------
    // LITEWORP integration.
    // ------------------------------------------------------------------

    /// Feeds `pkt` to the local monitor; returns the admission verdict
    /// for its announced sender and previous hop when the monitor judged
    /// it (`None` when it did not look at the packet).
    fn monitor_packet(&mut self, ctx: &mut Context<'_, Packet>, pkt: &Packet) -> Option<Admission> {
        if !self.monitoring {
            return None;
        }
        let lw = self.lw.as_mut()?;
        let obs = match pkt {
            Packet::Data {
                origin,
                target,
                seq,
                sender,
                prev,
                next,
            } if lw.config().monitor_data => PacketObs {
                sender: *sender,
                claimed_prev: *prev,
                link_dst: Some(*next),
                sig: PacketSig {
                    kind: PacketKind::Data,
                    origin: *origin,
                    target: *target,
                    seq: *seq,
                },
                terminal: *next == *target,
            },
            Packet::RouteRequest {
                sig, sender, prev, ..
            } => PacketObs {
                sender: *sender,
                claimed_prev: *prev,
                link_dst: None,
                sig: *sig,
                terminal: false,
            },
            Packet::RouteReply {
                sig,
                sender,
                prev,
                next,
                ..
            } => PacketObs {
                sender: *sender,
                claimed_prev: *prev,
                link_dst: Some(*next),
                sig: *sig,
                terminal: *next == sig.target,
            },
            _ => return None,
        };
        let now = micros(ctx.now());
        let (effects, verdict) = {
            let _span = obs::span("watch_buffer");
            lw.observe_packet(&obs, now)
        };
        self.apply_effects(ctx, effects);
        let lw = self.lw.as_ref();
        let started = self
            .expiry
            .after_observe(now.0, EXPIRE_TICK.as_micros(), || {
                lw?.monitor().watch().head_deadline().map(|d| d.0)
            });
        if let Some(arm) = started {
            ctx.set_timer(SimDuration::from_micros(arm.delay_us), expiry_token(arm));
        }
        Some(verdict)
    }

    /// Defers a control send by a uniform random delay in `[0, jitter]`.
    fn send_control_jittered(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        dest: Dest,
        pkt: Packet,
        jitter: SimDuration,
    ) {
        let token = self.pending_forwards.push((dest, pkt));
        let delay = SimDuration::from_micros(ctx.rng().gen_range(0..=jitter.as_micros()));
        ctx.set_timer(delay, timer::encode(timer::FORWARD_REQ, token));
    }

    /// Sends a control packet and feeds it to our own monitor: per the
    /// paper, a node is the guard of all its outgoing links, so its own
    /// transmissions must be in its watch buffer (both to validate
    /// neighbors' forwards of them and to catch a next hop dropping them).
    fn send_control(&mut self, ctx: &mut Context<'_, Packet>, dest: Dest, pkt: Packet) {
        self.monitor_packet(ctx, &pkt);
        let bytes = pkt.wire_bytes();
        ctx.send(FrameSpec::new(dest, pkt, bytes));
    }

    fn apply_effects(&mut self, ctx: &mut Context<'_, Packet>, effects: Vec<Effect>) {
        if effects.is_empty() {
            return;
        }
        let _span = obs::span("detection");
        let (fabrication_weight, drop_weight) = self
            .lw
            .as_ref()
            .map(|lw| (lw.config().fabrication_weight, lw.config().drop_weight))
            .unwrap_or((0, 0));
        for effect in effects {
            match effect {
                Effect::SendAlert {
                    suspect,
                    recipient,
                    mac,
                } => {
                    self.stats.alerts_sent += 1;
                    ctx.metrics().incr(SimCounter::AlertsSent);
                    ctx.trace(TraceKind::AlertSent {
                        suspect: suspect.0,
                        recipient: recipient.0,
                    });
                    let pkt = Packet::Alert {
                        guard: self.me,
                        suspect,
                        to: recipient,
                        mac,
                    };
                    let link = self.alert_link_hop(recipient, suspect);
                    let bytes = pkt.wire_bytes();
                    ctx.send(FrameSpec::new(Dest::Unicast(sim_id(link)), pkt, bytes));
                }
                Effect::Isolated { suspect } => {
                    ctx.metrics().incr(SimCounter::Isolations);
                    ctx.trace(TraceKind::Isolated {
                        suspect: suspect.0,
                        by_alerts: false,
                    });
                    self.purge_routes_through(suspect);
                }
                Effect::Suspected {
                    suspect,
                    kind,
                    malc,
                } => {
                    let (counter, delta, reason) = match kind {
                        Misbehavior::Fabrication => (
                            SimCounter::SuspectedFabrication,
                            fabrication_weight,
                            MalcReason::Fabrication,
                        ),
                        Misbehavior::Drop => {
                            (SimCounter::SuspectedDrop, drop_weight, MalcReason::Drop)
                        }
                    };
                    ctx.metrics().incr(SimCounter::Suspicions);
                    ctx.metrics().incr(counter);
                    ctx.trace(TraceKind::MalcIncrement {
                        suspect: suspect.0,
                        delta,
                        malc,
                        reason,
                    });
                    ctx.trace(TraceKind::Suspected { suspect: suspect.0 });
                }
                Effect::WatchExpired { expired } => {
                    ctx.metrics().add(SimCounter::WatchExpiries, expired as u64);
                    ctx.trace(TraceKind::WatchBufferExpired { expired });
                }
            }
        }
    }

    /// Picks the link-layer next hop for an alert to `recipient` (a
    /// neighbor of `suspect`). Recipients beyond our own range — they can
    /// be up to two hops away — are reached through a common neighbor
    /// that neighbors the recipient (the paper's "multiple unicasts").
    fn alert_link_hop(&self, recipient: NodeId, suspect: NodeId) -> NodeId {
        let Some(lw) = self.lw.as_ref() else {
            return recipient;
        };
        if !self.params.relay_alerts {
            return recipient;
        }
        let table = lw.table();
        if table.is_active_neighbor(recipient) {
            return recipient;
        }
        for relay in table.active_neighbors() {
            if relay == suspect {
                continue;
            }
            if table
                .neighbor_list_of(relay)
                .is_some_and(|l| l.binary_search(&recipient).is_ok())
            {
                return relay;
            }
        }
        recipient // no relay known; try directly and hope for range
    }

    /// Admission of a received packet: `verdict` when the monitor already
    /// judged it, else the guard's check (everything passes unprotected).
    fn admitted(
        &mut self,
        verdict: Option<Admission>,
        sender: NodeId,
        prev: Option<NodeId>,
    ) -> bool {
        let Some(lw) = &self.lw else { return true };
        match verdict.unwrap_or_else(|| lw.admit(sender, prev)) {
            Admission::Accept => true,
            Admission::Reject(_) => {
                self.stats.frames_rejected += 1;
                false
            }
        }
    }

    fn purge_routes_through(&mut self, suspect: NodeId) {
        self.routes.retain(|_, r| r.next != suspect);
    }

    // ------------------------------------------------------------------
    // Routing.
    // ------------------------------------------------------------------

    fn handle_request(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        sig: PacketSig,
        sender: NodeId,
        hops: u8,
    ) {
        if !self.floods.insert(sig.origin, sig.seq, sender) {
            return;
        }
        if sig.target == self.me {
            // Destination: reply to the first copy (later ones stopped
            // at the seen check above).
            let reply_sig = PacketSig {
                kind: PacketKind::RouteReply,
                origin: self.me,
                target: sig.origin,
                seq: sig.seq,
            };
            let pkt = Packet::RouteReply {
                sig: reply_sig,
                sender: self.me,
                prev: None,
                next: sender,
                hops: hops.saturating_add(1),
                relays: vec![self.me],
            };
            let jitter = REP_FORWARD_JITTER;
            self.send_control_jittered(ctx, Dest::Unicast(sim_id(sender)), pkt, jitter);
            return;
        }
        // TTL-scoped discovery: a rebroadcast that would exceed the TTL
        // is consumed here (the reverse path above still stands, and a
        // destination at the edge already replied).
        if self
            .params
            .rreq_ttl
            .is_some_and(|ttl| hops.saturating_add(1) > ttl)
        {
            return;
        }
        // Rebroadcast the flood, announcing the hop we got it from —
        // after the protocol-mandated random backoff (Section 3.5), which
        // spreads the flood in time and keeps collisions rare.
        let pkt = Packet::RouteRequest {
            sig,
            sender: self.me,
            prev: Some(sender),
            hops: hops.saturating_add(1),
        };
        let jitter = REQ_FORWARD_JITTER;
        self.send_control_jittered(ctx, Dest::Broadcast, pkt, jitter);
    }

    fn handle_reply(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        sig: PacketSig,
        sender: NodeId,
        hops: u8,
        mut relays: Vec<NodeId>,
    ) {
        // The reply travels D -> ... -> S; sig.origin = D, sig.target = S.
        let dest = sig.origin;
        let am_source = sig.target == self.me;
        self.install_route(ctx, dest, sender, hops, relays.clone(), am_source);
        if am_source {
            return;
        }
        // Forward along the reverse path toward S.
        let Some(next) = self.floods.reverse_hop(sig.target, sig.seq) else {
            return; // no reverse entry (we never saw the request); drop silently
        };
        relays.push(self.me);
        let pkt = Packet::RouteReply {
            sig,
            sender: self.me,
            prev: Some(sender),
            next,
            hops,
            relays,
        };
        let jitter = REP_FORWARD_JITTER;
        self.send_control_jittered(ctx, Dest::Unicast(sim_id(next)), pkt, jitter);
    }

    fn install_route(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        dest: NodeId,
        next: NodeId,
        hops: u8,
        relays: Vec<NodeId>,
        am_source: bool,
    ) {
        if dest == self.me {
            return;
        }
        if let Some(lw) = &self.lw {
            if lw.is_isolated(next) {
                return;
            }
        }
        let now = ctx.now();
        let replace = match self.fresh_route(now, dest) {
            None => true,
            Some(existing) => match self.params.route_selection {
                RouteSelection::FirstReply => false,
                RouteSelection::ShortestHops => hops < existing.hops,
            },
        };
        if !replace {
            return;
        }
        if let Some(source) = self.source.as_mut() {
            source.discovering.remove(&dest);
        }
        self.routes.insert(
            dest,
            RouteEntry {
                next,
                hops,
                established: now,
                relays: relays.clone(),
            },
        );
        if am_source {
            self.source_mut().retry_attempts.remove(&dest);
            ctx.metrics().incr(SimCounter::RoutesEstablished);
            ctx.trace(TraceKind::RouteEstablished {
                dest: dest.0,
                hops: hops as u32,
            });
            self.source_mut().route_log.push(RouteRecord {
                time: now,
                dest,
                hops,
                relays,
            });
            self.flush_pending(ctx, dest);
        }
    }

    fn fresh_route(&self, now: SimTime, dest: NodeId) -> Option<&RouteEntry> {
        self.routes
            .get(&dest)
            .filter(|r| now.saturating_since(r.established) < self.params.route_timeout)
    }

    // ------------------------------------------------------------------
    // Data plane.
    // ------------------------------------------------------------------

    fn handle_data(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        origin: NodeId,
        target: NodeId,
        seq: u64,
        from: NodeId,
    ) {
        if target == self.me {
            self.stats.data_delivered += 1;
            ctx.metrics().incr(SimCounter::DataDelivered);
            return;
        }
        let next = self
            .fresh_route(ctx.now(), target)
            .map(|r| r.next)
            .filter(|&n| self.lw.as_ref().is_none_or(|lw| !lw.is_isolated(n)));
        match next {
            Some(next) => {
                self.stats.data_forwarded += 1;
                let pkt = Packet::Data {
                    origin,
                    target,
                    seq,
                    sender: self.me,
                    prev: Some(from),
                    next,
                };
                self.send_data(ctx, next, pkt);
            }
            None => {
                self.stats.data_no_route += 1;
                ctx.metrics().incr(SimCounter::DataNoRoute);
                // With data-plane monitoring on, tell the neighborhood
                // why we are not forwarding: guards waive our obligation
                // and the upstream node purges its stale route through
                // us. (Off by default — the paper's protocol has no
                // route-error signaling.)
                if self.lw.as_ref().is_some_and(|lw| lw.config().monitor_data) {
                    let pkt = Packet::RouteError {
                        sender: self.me,
                        sig: PacketSig {
                            kind: PacketKind::Data,
                            origin,
                            target,
                            seq,
                        },
                    };
                    let bytes = pkt.wire_bytes();
                    ctx.send(FrameSpec::new(Dest::Broadcast, pkt, bytes));
                }
            }
        }
    }

    /// Transmits a data packet, feeding it to our own monitor when
    /// data-plane monitoring is enabled (we guard our own outgoing links).
    fn send_data(&mut self, ctx: &mut Context<'_, Packet>, next: NodeId, pkt: Packet) {
        self.monitor_packet(ctx, &pkt);
        let bytes = pkt.wire_bytes();
        ctx.send(FrameSpec::new(Dest::Unicast(sim_id(next)), pkt, bytes));
    }

    fn generate_data(&mut self, ctx: &mut Context<'_, Packet>) {
        let Some(dest) = self.current_dest else {
            return;
        };
        self.seq += 1;
        let seq = self.seq;
        self.stats.data_originated += 1;
        ctx.metrics().incr(SimCounter::DataSent);
        if self.fresh_route(ctx.now(), dest).is_some() {
            let next = self.routes[&dest].next;
            let pkt = Packet::Data {
                origin: self.me,
                target: dest,
                seq,
                sender: self.me,
                prev: None,
                next,
            };
            self.send_data(ctx, next, pkt);
        } else {
            let cap = PENDING_QUEUE_CAP;
            let q = self.source_mut().pending_data.entry(dest).or_default();
            if q.len() >= cap {
                q.pop_front();
                ctx.metrics().incr(SimCounter::DataQueueOverflow);
            }
            q.push_back(seq);
            self.start_discovery(ctx, dest);
        }
    }

    fn flush_pending(&mut self, ctx: &mut Context<'_, Packet>, dest: NodeId) {
        let Some(queue) = self
            .source
            .as_mut()
            .and_then(|s| s.pending_data.remove(&dest))
        else {
            return;
        };
        let Some(next) = self.fresh_route(ctx.now(), dest).map(|r| r.next) else {
            self.source_mut().pending_data.insert(dest, queue);
            return;
        };
        for seq in queue {
            let pkt = Packet::Data {
                origin: self.me,
                target: dest,
                seq,
                sender: self.me,
                prev: None,
                next,
            };
            self.send_data(ctx, next, pkt);
        }
    }

    fn start_discovery(&mut self, ctx: &mut Context<'_, Packet>, dest: NodeId) {
        if !self.source_mut().discovering.insert(dest) {
            return;
        }
        self.stats.discoveries += 1;
        ctx.metrics().incr(SimCounter::RouteRequests);
        self.seq += 1;
        let sig = PacketSig {
            kind: PacketKind::RouteRequest,
            origin: self.me,
            target: dest,
            seq: self.seq,
        };
        self.floods.insert(self.me, self.seq, self.me);
        let pkt = Packet::RouteRequest {
            sig,
            sender: self.me,
            prev: None,
            hops: 0,
        };
        self.send_control(ctx, Dest::Broadcast, pkt);
        // Exponential backoff across consecutive failed discoveries for
        // the same destination keeps a partitioned or congested network
        // from locking itself into a flood storm.
        let retry = REQUEST_RETRY;
        let attempt = self.source_mut().retry_attempts.entry(dest).or_insert(0);
        let backoff = retry.mul_f64(f64::from(1 << (*attempt).min(4)));
        *attempt = attempt.saturating_add(1);
        ctx.set_timer(backoff, timer::encode(timer::REQ_RETRY, dest.0 as u64));
    }

    fn pick_new_destination(&mut self, ctx: &mut Context<'_, Packet>) {
        if let Some(pool) = &self.params.dest_pool {
            // A pool with no usable entry (empty, or only ourselves)
            // leaves the node destination-less: it relays and guards but
            // originates nothing.
            self.current_dest = None;
            if pool.iter().all(|&d| d == self.me) {
                return;
            }
            loop {
                let candidate = pool[ctx.rng().gen_range(0..pool.len())];
                if candidate != self.me {
                    self.current_dest = Some(candidate);
                    return;
                }
            }
        }
        let n = self.params.total_nodes;
        if n < 2 {
            self.current_dest = None;
            return;
        }
        loop {
            let candidate = NodeId(ctx.rng().gen_range(0..n));
            if candidate != self.me {
                self.current_dest = Some(candidate);
                return;
            }
        }
    }
}

/// The `EXPIRE` token of the expiry chain's timer `arm`.
fn expiry_token(arm: crate::expiry::Arm) -> u64 {
    timer::encode(timer::EXPIRE, u64::from(arm.gen))
}

/// Jittered control sends waiting for their `FORWARD_REQ` timer. Tokens
/// are handed out in order, so they index a ring: slot `k` holds token
/// `first + k`. Timers fire out of order (the jitter is random), so a
/// taken slot stays empty until every older one is taken too. The ring
/// gives its buffer back whenever it drains, so a node that forwarded
/// once keeps nothing.
#[derive(Debug, Default)]
struct PendingForwards {
    first: u64,
    slots: VecDeque<Option<(Dest, Packet)>>,
}

impl PendingForwards {
    /// Holds `send`; returns its token.
    fn push(&mut self, send: (Dest, Packet)) -> u64 {
        self.slots.push_back(Some(send));
        self.first + self.slots.len() as u64 - 1
    }

    /// Takes the send held under `token`, if any.
    fn take(&mut self, token: u64) -> Option<(Dest, Packet)> {
        let k = usize::try_from(token.checked_sub(self.first)?).ok()?;
        let send = self.slots.get_mut(k)?.take();
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.first += 1;
        }
        if self.slots.is_empty() {
            self.slots = VecDeque::new();
        }
        send
    }
}

/// Samples an exponential delay with the given mean, clamped to ≥ 1 µs.
fn exp_sample(ctx: &mut Context<'_, Packet>, mean: SimDuration) -> SimDuration {
    let u: f64 = ctx.rng().gen_range(f64::EPSILON..1.0);
    let secs = -mean.as_secs_f64() * u.ln();
    SimDuration::from_micros((secs * 1e6).max(1.0) as u64)
}

impl NodeLogic<Packet> for ProtocolNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        self.handle_start(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Context<'_, Packet>, frame: &Frame<Packet>) {
        self.handle_frame(ctx, frame);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
        self.handle_timer(ctx, token);
    }

    fn on_collision(&mut self, ctx: &mut Context<'_, Packet>) {
        self.handle_collision(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_token_round_trip() {
        let t = timer::encode(timer::REQ_RETRY, 42);
        assert_eq!(timer::kind(t), timer::REQ_RETRY);
        assert_eq!(timer::payload(t), 42);
    }

    #[test]
    fn id_conversions() {
        assert_eq!(sim_id(NodeId(7)).0, 7);
        assert_eq!(core_id(liteworp_netsim::field::NodeId(9)), NodeId(9));
        assert_eq!(micros(SimTime::from_micros(5)).0, 5);
    }

    #[test]
    fn node_construction_respects_liteworp_flag() {
        let protected = ProtocolNode::new(NodeId(0), NodeParams::default());
        assert!(protected.liteworp().is_some());
        let baseline = ProtocolNode::new(
            NodeId(0),
            NodeParams {
                liteworp: None,
                ..NodeParams::default()
            },
        );
        assert!(baseline.liteworp().is_none());
    }

    #[test]
    fn nodes_built_from_one_parameter_set_share_it() {
        let params = Arc::new(NodeParams::default());
        let a = ProtocolNode::new(NodeId(0), Arc::clone(&params));
        let b = ProtocolNode::new(NodeId(1), Arc::clone(&params));
        // Each node holds the parameters once for itself and once for its
        // guard, which reads its LITEWORP config from them.
        assert_eq!(Arc::strong_count(&params), 5);
        assert!(std::ptr::eq(a.params(), b.params()));
        let config = |n: &ProtocolNode| n.liteworp().map(|lw| lw.config() as *const _);
        assert_eq!(config(&a), config(&b));
        assert_eq!(config(&a), params.liteworp.as_ref().map(|c| c as *const _));
    }

    #[test]
    fn route_queries_start_empty() {
        let n = ProtocolNode::new(NodeId(0), NodeParams::default());
        assert_eq!(n.route_next_hop(NodeId(1)), None);
        assert_eq!(n.reverse_hop(NodeId(1), 1), None);
        assert!(n.route_log().is_empty());
        assert_eq!(n.stats().data_originated, 0);
    }
}
