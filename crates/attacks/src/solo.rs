//! Single-node wormhole modes: high-power transmission (mode 3), packet
//! relay (mode 4), and protocol deviation / rushing (mode 5).

use liteworp::types::NodeId;
use liteworp_netsim::prelude::{Context, Dest, Frame, FrameSpec, NodeLogic, SimCounter, SimTime};
use liteworp_routing::node::ProtocolNode;
use liteworp_routing::packet::Packet;
use std::any::Any;
use std::collections::BTreeSet;

/// Mode 3: rebroadcasts route requests at boosted power so distant nodes
/// hear it directly and (if unprotected) route through it.
///
/// LITEWORP's defense is the bidirectional-link assumption: a receiver
/// that does not have the transmitter in its neighbor list rejects the
/// packet outright.
pub struct HighPowerNode {
    inner: ProtocolNode,
    active_from: SimTime,
    power_mult: f64,
    seen: BTreeSet<(NodeId, u64)>,
}

impl HighPowerNode {
    /// Wraps an honest node; from `active_from` onwards route requests are
    /// rebroadcast at `power_mult` times the nominal range.
    ///
    /// # Panics
    ///
    /// Panics if `power_mult <= 1`.
    pub fn new(mut inner: ProtocolNode, active_from: SimTime, power_mult: f64) -> Self {
        assert!(power_mult > 1.0, "a high-power attacker needs power > 1");
        inner.set_monitoring(false);
        HighPowerNode {
            inner,
            active_from,
            power_mult,
            seen: BTreeSet::new(),
        }
    }

    /// The wrapped honest node.
    pub fn inner(&self) -> &ProtocolNode {
        &self.inner
    }

    /// Mutable access to the wrapped node (bootstrap).
    pub fn inner_mut(&mut self) -> &mut ProtocolNode {
        &mut self.inner
    }
}

impl NodeLogic<Packet> for HighPowerNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        self.inner.handle_start(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Context<'_, Packet>, frame: &Frame<Packet>) {
        if ctx.now() < self.active_from {
            self.inner.handle_frame(ctx, frame);
            return;
        }
        if let Packet::RouteRequest {
            sig, sender, hops, ..
        } = &frame.payload
        {
            let key = (sig.origin, sig.seq);
            if sig.target != self.inner.id() && self.seen.insert(key) {
                // Cross several hops in one boosted rebroadcast; announce
                // the true previous hop (the deception is the range, not
                // the header).
                let me = self.inner.id();
                let out = Packet::RouteRequest {
                    sig: *sig,
                    sender: me,
                    prev: Some(*sender),
                    hops: hops.saturating_add(1),
                };
                let bytes = out.wire_bytes();
                ctx.metrics().incr(SimCounter::HighpowerRequests);
                ctx.send(
                    FrameSpec::new(Dest::Broadcast, out, bytes).with_high_power(self.power_mult),
                );
                return;
            }
        }
        self.inner.handle_frame(ctx, frame);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
        self.inner.handle_timer(ctx, token);
    }

    fn on_collision(&mut self, ctx: &mut Context<'_, Packet>) {
        self.inner.handle_collision(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Mode 4: retransmits overheard frames verbatim, so two distant nodes
/// hear each other's packets and believe they are neighbors.
///
/// LITEWORP's defense: both victims know from their neighbor lists that
/// they are *not* neighbors and reject the relayed packets.
pub struct RelayNode {
    inner: ProtocolNode,
    active_from: SimTime,
    relayed: u64,
}

impl RelayNode {
    /// Wraps an honest node; from `active_from` onwards every overheard
    /// routing frame is retransmitted verbatim.
    pub fn new(mut inner: ProtocolNode, active_from: SimTime) -> Self {
        inner.set_monitoring(false);
        RelayNode {
            inner,
            active_from,
            relayed: 0,
        }
    }

    /// The wrapped honest node.
    pub fn inner(&self) -> &ProtocolNode {
        &self.inner
    }

    /// Mutable access to the wrapped node (bootstrap).
    pub fn inner_mut(&mut self) -> &mut ProtocolNode {
        &mut self.inner
    }

    /// Frames relayed so far.
    pub fn relayed(&self) -> u64 {
        self.relayed
    }
}

impl NodeLogic<Packet> for RelayNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        self.inner.handle_start(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Context<'_, Packet>, frame: &Frame<Packet>) {
        if ctx.now() < self.active_from {
            self.inner.handle_frame(ctx, frame);
            return;
        }
        // Verbatim relay: the payload still names the original announced
        // sender — to a distant receiver it looks like a one-hop packet
        // from that sender.
        match &frame.payload {
            Packet::RouteRequest { .. } | Packet::RouteReply { .. } | Packet::Data { .. } => {
                self.relayed += 1;
                ctx.metrics().incr(SimCounter::RelayRetransmissions);
                let pkt = frame.payload.clone();
                let bytes = pkt.wire_bytes();
                ctx.send(FrameSpec::new(frame.dest, pkt, bytes));
            }
            _ => {}
        }
        // Keep cover: honest processing continues.
        self.inner.handle_frame(ctx, frame);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
        self.inner.handle_timer(ctx, token);
    }

    fn on_collision(&mut self, ctx: &mut Context<'_, Packet>) {
        self.inner.handle_collision(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Mode 5: forwards route requests without the mandated random backoff
/// (rushing), so its copies win the flood race and routes concentrate
/// through it; it then drops the attracted data.
///
/// LITEWORP cannot detect this mode — the forwards are genuine. The
/// rushing defenses of Hu et al. are out of scope (Section 4.2.3).
pub struct RushingNode {
    inner: ProtocolNode,
    active_from: SimTime,
    drop_data: bool,
    seen: BTreeSet<(NodeId, u64)>,
}

impl RushingNode {
    /// Wraps an honest node; from `active_from` onwards route requests are
    /// forwarded with zero backoff. When `drop_data` is set, attracted
    /// data packets are swallowed (counted as `rushing_dropped`).
    pub fn new(mut inner: ProtocolNode, active_from: SimTime, drop_data: bool) -> Self {
        inner.set_monitoring(false);
        RushingNode {
            inner,
            active_from,
            drop_data,
            seen: BTreeSet::new(),
        }
    }

    /// The wrapped honest node.
    pub fn inner(&self) -> &ProtocolNode {
        &self.inner
    }

    /// Mutable access to the wrapped node (bootstrap).
    pub fn inner_mut(&mut self) -> &mut ProtocolNode {
        &mut self.inner
    }
}

impl NodeLogic<Packet> for RushingNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        self.inner.handle_start(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Context<'_, Packet>, frame: &Frame<Packet>) {
        if ctx.now() < self.active_from {
            self.inner.handle_frame(ctx, frame);
            return;
        }
        match &frame.payload {
            Packet::RouteRequest {
                sig, sender, hops, ..
            } => {
                let key = (sig.origin, sig.seq);
                if sig.target != self.inner.id() && self.seen.insert(key) {
                    let me = self.inner.id();
                    let out = Packet::RouteRequest {
                        sig: *sig,
                        sender: me,
                        prev: Some(*sender), // a *genuine* forward
                        hops: hops.saturating_add(1),
                    };
                    let bytes = out.wire_bytes();
                    ctx.metrics().incr(SimCounter::RushedRequests);
                    ctx.send(FrameSpec::new(Dest::Broadcast, out, bytes).rushed());
                }
                // Stay protocol-consistent: the honest core still records
                // the reverse pointer so replies routed through us are
                // forwarded (a rusher that drops replies would be caught
                // by drop detection).
                self.inner.handle_frame(ctx, frame);
            }
            Packet::Data { target, next, .. }
                if self.drop_data && *next == self.inner.id() && *target != self.inner.id() =>
            {
                ctx.metrics().incr(SimCounter::RushingDropped);
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
    use liteworp_routing::params::NodeParams;

    fn honest(i: u32) -> ProtocolNode {
        ProtocolNode::new(NodeId(i), NodeParams::default())
    }

    #[test]
    fn high_power_requires_boost() {
        let n = HighPowerNode::new(honest(0), SimTime::ZERO, 3.0);
        assert_eq!(n.inner().id(), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "power > 1")]
    fn high_power_rejects_unity() {
        HighPowerNode::new(honest(0), SimTime::ZERO, 1.0);
    }

    #[test]
    fn relay_starts_idle() {
        let n = RelayNode::new(honest(1), SimTime::from_secs_f64(50.0));
        assert_eq!(n.relayed(), 0);
    }

    #[test]
    fn rushing_node_wraps_inner() {
        let mut n = RushingNode::new(honest(2), SimTime::ZERO, true);
        assert_eq!(n.inner().id(), NodeId(2));
        n.inner_mut(); // compiles: bootstrap path available
    }
}
