//! Node logic: the trait protocols implement, and the context through which
//! they act on the world.
//!
//! The simulator owns all node state; when an event concerns a node it
//! invokes the matching [`NodeLogic`] hook with a [`Context`] that exposes
//! the clock, a deterministic RNG, metrics/trace sinks, and collects the
//! node's *actions* (transmissions, timers, tunnel sends). Actions are
//! applied by the simulator after the hook returns, which keeps node logic
//! free of borrow gymnastics and makes every run reproducible.

use crate::field::NodeId;
use crate::frame::{Frame, FrameSpec};
use crate::metrics::{Metrics, Trace};
use crate::time::{SimDuration, SimTime};
use liteworp_obs::EventKind as TraceKind;
use liteworp_runner::rng::Pcg32;
use std::any::Any;

/// An effect requested by node logic, applied by the simulator.
#[derive(Debug)]
pub enum Action<P> {
    /// Queue a frame at this node's MAC.
    Send(FrameSpec<P>),
    /// Fire [`NodeLogic::on_timer`] with `token` after `delay`.
    Timer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Opaque value handed back to the node.
        token: u64,
    },
    /// Like [`Action::Timer`], ranked among same-time events as the event
    /// now being handled was (see [`Context::rearm_timer`]).
    Rearm {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Opaque value handed back to the node.
        token: u64,
    },
    /// Deliver `payload` to node `to` over an out-of-band tunnel after
    /// `latency` — the wormhole side channel (Sections 3.1, 3.2).
    Tunnel {
        /// Receiving colluder.
        to: NodeId,
        /// Payload to deliver.
        payload: P,
        /// Tunnel latency (zero models the paper's instantaneous
        /// out-of-band channel; larger values model encapsulation over a
        /// multihop path).
        latency: SimDuration,
    },
}

/// Execution context passed to every [`NodeLogic`] hook.
pub struct Context<'a, P> {
    now: SimTime,
    me: NodeId,
    rng: &'a mut Pcg32,
    metrics: &'a mut Metrics,
    trace: &'a mut Trace,
    actions: &'a mut Vec<Action<P>>,
}

impl<'a, P> Context<'a, P> {
    /// Builds a context (called by the simulator).
    pub(crate) fn new(
        now: SimTime,
        me: NodeId,
        rng: &'a mut Pcg32,
        metrics: &'a mut Metrics,
        trace: &'a mut Trace,
        actions: &'a mut Vec<Action<P>>,
    ) -> Self {
        Context {
            now,
            me,
            rng,
            metrics,
            trace,
            actions,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Deterministic random-number generator shared by the run.
    pub fn rng(&mut self) -> &mut Pcg32 {
        self.rng
    }

    /// Queues a frame for transmission through this node's MAC.
    pub fn send(&mut self, spec: FrameSpec<P>) {
        self.actions.push(Action::Send(spec));
    }

    /// Schedules `on_timer(token)` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(Action::Timer { delay, token });
    }

    /// Schedules `on_timer(token)` after `delay`, ordered among events at
    /// the same time as the event now being handled was: it pops where an
    /// event pushed right after that one would. A periodic timer that
    /// re-arms itself this way from `on_timer` keeps its tie order against
    /// every other event it could have tied with when re-armed each period,
    /// even when it skips periods.
    ///
    /// # Panics
    ///
    /// The simulator panics when one event re-arms two timers (one event
    /// can run several hooks, e.g. a reception fan-out): ranks must stay
    /// unique. Call it from `on_timer`.
    pub fn rearm_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(Action::Rearm { delay, token });
    }

    /// Sends `payload` to a colluding node over an out-of-band tunnel.
    pub fn tunnel(&mut self, to: NodeId, payload: P, latency: SimDuration) {
        self.actions.push(Action::Tunnel {
            to,
            payload,
            latency,
        });
    }

    /// Run metrics (for protocol-defined counters).
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Records a typed protocol event in the run trace, stamped with the
    /// current time and this node's identity.
    pub fn trace(&mut self, kind: TraceKind) {
        self.trace.record(self.now, self.me, kind);
    }
}

/// Behavior of one simulated node.
///
/// All hooks default to doing nothing, so implementations only override
/// what they need. Implementers must provide [`NodeLogic::as_any`] /
/// [`NodeLogic::as_any_mut`] (usually `self`) so experiments can downcast
/// and inspect protocol state after a run.
pub trait NodeLogic<P>: Any {
    /// Called once when the node is deployed (its start time).
    fn on_start(&mut self, ctx: &mut Context<'_, P>) {
        let _ = ctx;
    }

    /// Called for every frame the node's radio successfully receives —
    /// including frames merely overheard (check [`Frame::addressed_to`]).
    fn on_frame(&mut self, ctx: &mut Context<'_, P>, frame: &Frame<P>) {
        let _ = (ctx, frame);
    }

    /// Called when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, P>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called when a colluder delivers `payload` over an out-of-band
    /// tunnel. Honest nodes never receive tunnel messages.
    fn on_tunnel(&mut self, ctx: &mut Context<'_, P>, from: NodeId, payload: &P) {
        let _ = (ctx, from, payload);
    }

    /// Called when a frame reception at this node was destroyed by a
    /// collision — the physical layer detected energy but could not
    /// decode (CRC failure). The node learns *that* it missed something,
    /// not what.
    fn on_collision(&mut self, ctx: &mut Context<'_, P>) {
        let _ = ctx;
    }

    /// Upcast for post-run inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for post-run inspection.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Dest;

    struct Nop;
    impl NodeLogic<u32> for Nop {
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn context_collects_actions() {
        let mut rng = Pcg32::seed_from_u64(0);
        let mut metrics = Metrics::default();
        let mut trace = Trace::default();
        let mut actions = Vec::new();
        let mut ctx = Context::new(
            SimTime::from_micros(42),
            NodeId(3),
            &mut rng,
            &mut metrics,
            &mut trace,
            &mut actions,
        );
        assert_eq!(ctx.now(), SimTime::from_micros(42));
        assert_eq!(ctx.id(), NodeId(3));
        ctx.send(FrameSpec::new(Dest::Broadcast, 7u32, 16));
        ctx.set_timer(SimDuration::from_secs(1), 99);
        ctx.tunnel(NodeId(5), 8, SimDuration::ZERO);
        ctx.metrics().incr(crate::metrics::SimCounter::DataSent);
        ctx.trace(TraceKind::HelloSent);
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], Action::Send(_)));
        assert!(matches!(actions[1], Action::Timer { token: 99, .. }));
        assert!(matches!(actions[2], Action::Tunnel { to: NodeId(5), .. }));
        assert_eq!(metrics.get("data_sent"), 1);
        assert_eq!(trace.events().count(), 1);
        assert_eq!(trace.events().next().unwrap().node, 3);
    }

    #[test]
    fn default_hooks_are_noops() {
        let mut rng = Pcg32::seed_from_u64(0);
        let mut metrics = Metrics::default();
        let mut trace = Trace::default();
        let mut actions: Vec<Action<u32>> = Vec::new();
        let mut ctx = Context::new(
            SimTime::ZERO,
            NodeId(0),
            &mut rng,
            &mut metrics,
            &mut trace,
            &mut actions,
        );
        let mut nop = Nop;
        nop.on_start(&mut ctx);
        nop.on_timer(&mut ctx, 1);
        nop.on_tunnel(&mut ctx, NodeId(1), &5);
        assert!(actions.is_empty());
    }
}
