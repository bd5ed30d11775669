//! The colluding wormhole node (attack modes 1 and 2).
//!
//! A [`WormholeNode`] behaves exactly like an honest [`ProtocolNode`]
//! until its activation time (the paper starts the attack at t = 50 s),
//! then:
//!
//! * every route request it overhears is tunneled to all colluders —
//!   instantaneously for the out-of-band channel (mode 2), or after a
//!   configurable encapsulation latency (mode 1);
//! * a tunneled request is rebroadcast locally with a **forged previous
//!   hop** so the flood continues as if the request had traveled only one
//!   hop, attracting the route through the colluders;
//! * the route reply coming back for such a rebroadcast is tunneled to the
//!   originating colluder, which injects it toward the source along the
//!   real reverse path, again forging the previous hop;
//! * once a route through the wormhole carries data, every data packet
//!   handed to the node is silently dropped (counted in the
//!   `wormhole_dropped` metric).
//!
//! The forged previous hop is chosen per [`ForgeStrategy`]: naming the
//! colluder is rejected outright by second-hop checks, naming a real
//! neighbor passes admission but is caught by that link's guards — which
//! is precisely the detection path of Section 4.2.3.

use liteworp::types::NodeId;
use liteworp_netsim::prelude::{
    Context, Dest, Frame, FrameSpec, NodeLogic, SimCounter, SimDuration, SimTime,
};
use liteworp_netsim::rng::Rng;
use liteworp_routing::node::{core_id, sim_id, ProtocolNode};
use liteworp_routing::packet::Packet;
use liteworp_routing::params::NodeParams;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

/// How a wormhole endpoint fills the previous-hop field it forges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForgeStrategy {
    /// Name the colluding partner — instantly rejected by every receiver's
    /// second-hop check (the paper's "first choice").
    Colluder,
    /// Name one fixed real neighbor — passes admission; the link's guards
    /// detect the fabrication (the paper's "second choice").
    InnocentNeighbor,
    /// Rotate through real neighbors to spread `MalC` across guards — an
    /// adaptive-attacker ablation beyond the paper.
    RotatingNeighbors,
}

/// Configuration of one wormhole endpoint.
#[derive(Debug, Clone)]
pub struct WormholeConfig {
    /// The other endpoints of the wormhole.
    pub colluders: Vec<NodeId>,
    /// When the node turns malicious.
    pub active_from: SimTime,
    /// Tunnel latency: zero models the out-of-band channel (mode 2),
    /// larger values model packet encapsulation over a multihop path
    /// (mode 1).
    pub tunnel_latency: SimDuration,
    /// Previous-hop forging strategy.
    pub forge: ForgeStrategy,
    /// When `true`, the endpoint *also* forwards tunneled replies along
    /// the legitimate slow path, dodging drop detection (the paper's
    /// "smarter M2").
    pub smart_reply: bool,
}

impl Default for WormholeConfig {
    fn default() -> Self {
        WormholeConfig {
            colluders: Vec::new(),
            active_from: SimTime::from_secs_f64(50.0),
            tunnel_latency: SimDuration::ZERO,
            forge: ForgeStrategy::InnocentNeighbor,
            smart_reply: false,
        }
    }
}

/// A wormhole endpoint: honest node plus colluding tunnel behavior.
pub struct WormholeNode {
    inner: ProtocolNode,
    attack: WormholeConfig,
    /// Requests already tunneled, by (source, seq).
    tunneled: BTreeSet<(NodeId, u64)>,
    /// Our forged rebroadcasts awaiting a reply: (source, seq) → colluder
    /// that tunneled us the request.
    forged_rebroadcasts: BTreeMap<(NodeId, u64), NodeId>,
    /// Replies already tunneled back, by (source, seq).
    replied: BTreeSet<(NodeId, u64)>,
    /// Announced senders heard directly over the radio — the attacker's
    /// passive neighbor knowledge, used for forging when the honest core
    /// runs without LITEWORP (baseline runs have no neighbor table).
    observed_neighbors: std::collections::BTreeSet<NodeId>,
    forge_rotation: usize,
}

impl WormholeNode {
    /// Wraps an honest node with wormhole behavior. The inner node's
    /// guard role is switched off — a compromised node does not run the
    /// defense.
    pub fn new(mut inner: ProtocolNode, attack: WormholeConfig) -> Self {
        inner.set_monitoring(false);
        WormholeNode {
            inner,
            attack,
            tunneled: BTreeSet::new(),
            forged_rebroadcasts: BTreeMap::new(),
            replied: BTreeSet::new(),
            observed_neighbors: std::collections::BTreeSet::new(),
            forge_rotation: 0,
        }
    }

    /// The wrapped honest node (for bootstrap and inspection).
    pub fn inner(&self) -> &ProtocolNode {
        &self.inner
    }

    /// Mutable access to the wrapped node (oracle bootstrap).
    pub fn inner_mut(&mut self) -> &mut ProtocolNode {
        &mut self.inner
    }

    /// The attack configuration.
    pub fn attack(&self) -> &WormholeConfig {
        &self.attack
    }

    fn active(&self, now: SimTime) -> bool {
        now >= self.attack.active_from
    }

    /// Chooses the previous hop to forge for an injected packet.
    fn forged_prev(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        via_colluder: NodeId,
    ) -> Option<NodeId> {
        match self.attack.forge {
            ForgeStrategy::Colluder => Some(via_colluder),
            ForgeStrategy::InnocentNeighbor | ForgeStrategy::RotatingNeighbors => {
                let neighbors: Vec<NodeId> = match self.inner.liteworp() {
                    Some(lw) => lw.table().active_neighbors().collect(),
                    None => self.observed_neighbors.iter().copied().collect(),
                };
                if neighbors.is_empty() {
                    return None;
                }
                let idx = match self.attack.forge {
                    ForgeStrategy::InnocentNeighbor => 0,
                    _ => {
                        self.forge_rotation += 1;
                        (self.forge_rotation + ctx.rng().gen_range(0..neighbors.len()))
                            % neighbors.len()
                    }
                };
                Some(neighbors[idx % neighbors.len()])
            }
        }
    }

    fn tunnel_request(&mut self, ctx: &mut Context<'_, Packet>, pkt: &Packet) {
        let Packet::RouteRequest { sig, .. } = pkt else {
            return;
        };
        let key = (sig.origin, sig.seq);
        if self.tunneled.contains(&key) {
            return;
        }
        // Do not tunnel floods originated by a colluder (pointless).
        if self.attack.colluders.contains(&sig.origin) {
            return;
        }
        self.tunneled.insert(key);
        for &colluder in &self.attack.colluders.clone() {
            ctx.metrics().incr(SimCounter::WormholeTunneledRequests);
            ctx.tunnel(sim_id(colluder), pkt.clone(), self.attack.tunnel_latency);
        }
    }

    fn handle_tunneled(&mut self, ctx: &mut Context<'_, Packet>, from: NodeId, pkt: &Packet) {
        match pkt {
            Packet::RouteRequest { sig, hops, .. } => {
                let key = (sig.origin, sig.seq);
                if self.forged_rebroadcasts.contains_key(&key) {
                    return;
                }
                let Some(prev) = self.forged_prev(ctx, from) else {
                    return;
                };
                self.forged_rebroadcasts.insert(key, from);
                let me = self.inner.id();
                let out = Packet::RouteRequest {
                    sig: *sig,
                    sender: me,
                    prev: Some(prev),
                    hops: hops.saturating_add(1),
                };
                let bytes = out.wire_bytes();
                ctx.metrics().incr(SimCounter::WormholeForgedRequests);
                ctx.send(FrameSpec::new(Dest::Broadcast, out, bytes));
            }
            Packet::RouteReply {
                sig, hops, relays, ..
            } => {
                // We are the colluder nearest the source: inject the reply
                // toward S along the real reverse path.
                let key = (sig.target, sig.seq);
                let Some(next) = self.inner.reverse_hop(sig.target, sig.seq) else {
                    return;
                };
                if self.replied.contains(&key) {
                    return;
                }
                self.replied.insert(key);
                let Some(prev) = self.forged_prev(ctx, from) else {
                    return;
                };
                let me = self.inner.id();
                let mut relays = relays.clone();
                relays.push(me);
                let out = Packet::RouteReply {
                    sig: *sig,
                    sender: me,
                    prev: Some(prev),
                    next,
                    hops: *hops,
                    relays,
                };
                let bytes = out.wire_bytes();
                ctx.metrics().incr(SimCounter::WormholeForgedReplies);
                ctx.send(FrameSpec::new(Dest::Unicast(sim_id(next)), out, bytes));
            }
            _ => {}
        }
    }
}

impl NodeLogic<Packet> for WormholeNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        self.inner.handle_start(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Context<'_, Packet>, frame: &Frame<Packet>) {
        if let Some(sender) = frame.payload.announced_sender() {
            if sender != self.inner.id() {
                self.observed_neighbors.insert(sender);
            }
        }
        if !self.active(ctx.now()) {
            self.inner.handle_frame(ctx, frame);
            return;
        }
        match &frame.payload {
            Packet::RouteRequest { .. } => {
                // Tunnel every request we hear, then keep our cover by
                // also processing it honestly (normal rebroadcast keeps
                // our reverse pointers fresh for reply injection).
                self.tunnel_request(ctx, &frame.payload);
                self.inner.handle_frame(ctx, frame);
            }
            Packet::RouteReply { sig, next, .. } => {
                let key = (sig.target, sig.seq);
                if *next == self.inner.id() && self.forged_rebroadcasts.contains_key(&key) {
                    // Reply to one of our forged rebroadcasts: send it
                    // through the tunnel back to the colluder near S.
                    let colluder = self.forged_rebroadcasts[&key];
                    ctx.metrics().incr(SimCounter::WormholeTunneledReplies);
                    ctx.tunnel(
                        sim_id(colluder),
                        frame.payload.clone(),
                        self.attack.tunnel_latency,
                    );
                    if self.attack.smart_reply {
                        // Dodge drop detection: also forward legitimately.
                        self.inner.handle_frame(ctx, frame);
                    }
                } else {
                    self.inner.handle_frame(ctx, frame);
                }
            }
            Packet::Data { target, next, .. } => {
                // Dropping is the *wormhole's* payoff: a lone compromised
                // node (no colluders) cannot form a wormhole and stays in
                // normal relay behavior (the paper's Figure 9 shows no
                // adverse effect for M <= 1).
                if *next == self.inner.id()
                    && *target != self.inner.id()
                    && !self.attack.colluders.is_empty()
                {
                    ctx.metrics().incr(SimCounter::WormholeDropped);
                } else {
                    self.inner.handle_frame(ctx, frame);
                }
            }
            _ => self.inner.handle_frame(ctx, frame),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
        self.inner.handle_timer(ctx, token);
    }

    fn on_collision(&mut self, ctx: &mut Context<'_, Packet>) {
        self.inner.handle_collision(ctx);
    }

    fn on_tunnel(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        from: liteworp_netsim::field::NodeId,
        payload: &Packet,
    ) {
        if !self.active(ctx.now()) {
            return;
        }
        self.handle_tunneled(ctx, core_id(from), payload);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Builds a wormhole endpoint from scratch (honest core + attack config).
pub fn wormhole_node(me: NodeId, params: NodeParams, attack: WormholeConfig) -> WormholeNode {
    WormholeNode::new(ProtocolNode::new(me, params), attack)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_match_paper() {
        let cfg = WormholeConfig::default();
        assert_eq!(cfg.active_from, SimTime::from_secs_f64(50.0));
        assert_eq!(cfg.tunnel_latency, SimDuration::ZERO);
        assert_eq!(cfg.forge, ForgeStrategy::InnocentNeighbor);
        assert!(!cfg.smart_reply);
    }

    #[test]
    fn node_is_dormant_before_activation() {
        let node = wormhole_node(NodeId(0), NodeParams::default(), WormholeConfig::default());
        assert!(!node.active(SimTime::from_secs_f64(10.0)));
        assert!(node.active(SimTime::from_secs_f64(50.0)));
    }

    #[test]
    fn inner_is_reachable_for_bootstrap() {
        let mut node = wormhole_node(NodeId(3), NodeParams::default(), WormholeConfig::default());
        assert_eq!(node.inner().id(), NodeId(3));
        node.inner_mut()
            .liteworp_mut()
            .unwrap()
            .table_mut()
            .add_neighbor(NodeId(1));
        assert!(node
            .inner()
            .liteworp()
            .unwrap()
            .table()
            .is_neighbor(NodeId(1)));
    }
}
