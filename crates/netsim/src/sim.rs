//! The discrete-event simulator driver.
//!
//! [`Simulator`] owns the deployment field, the event queue, the shared
//! medium, and one [`NodeLogic`] per node. Events are processed in
//! `(time, sequence)` order, so runs are fully deterministic for a given
//! seed and node set.
//!
//! # Lazy nodes
//!
//! A node slot is either built, holding the logic [`Simulator::push_node`]
//! was given, or lazy ([`Simulator::push_lazy_node`]): the simulator's
//! one factory ([`Simulator::set_node_factory`]) builds its logic at the
//! node's first dispatched event (a frame, timer, tunnel delivery or
//! collision) or at the first [`Simulator::logic`] read. A lazy node gets
//! no start event, so only a node whose `on_start` does nothing may be
//! lazy. Then a lazy run is the run of the same nodes built up front:
//! building is a pure function of the node id, the start hooks it skips
//! draw no randomness and act on nothing, and dropping their events
//! leaves the `(time, sequence)` order of all others unchanged. A large
//! deployment whose idle relays never hear a frame never builds them,
//! and a node held down by a [`FaultHook`] loses what reaches it before
//! it would be built.
//!
//! # Example
//!
//! A two-node network where node 0 broadcasts once and node 1 counts what
//! it hears:
//!
//! ```
//! use liteworp_netsim::prelude::*;
//! use std::any::Any;
//!
//! struct Talker;
//! impl NodeLogic<&'static str> for Talker {
//!     fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
//!         ctx.send(FrameSpec::new(Dest::Broadcast, "hello", 16));
//!     }
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! #[derive(Default)]
//! struct Listener { heard: usize }
//! impl NodeLogic<&'static str> for Listener {
//!     fn on_frame(&mut self, _ctx: &mut Context<'_, &'static str>, f: &Frame<&'static str>) {
//!         assert_eq!(f.payload, "hello");
//!         self.heard += 1;
//!     }
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let field = Field::from_positions(100.0, 30.0, vec![
//!     Position::new(0.0, 0.0),
//!     Position::new(20.0, 0.0),
//! ]);
//! let mut sim = Simulator::new(field, RadioConfig::default(), 1);
//! sim.push_node(Box::new(Talker));
//! sim.push_node(Box::new(Listener::default()));
//! sim.run_until(SimTime::from_secs_f64(1.0));
//! let listener: &Listener = sim.logic(NodeId(1)).as_any().downcast_ref().unwrap();
//! assert_eq!(listener.heard, 1);
//! ```

use crate::events::EventQueue;
use crate::fault::{FaultHook, Reception};
use crate::field::{Field, NodeId};
use crate::frame::{Frame, FrameSpec};
use crate::medium::{Interference, Medium, TxRecord};
use crate::metrics::{Metrics, SimCounter, Trace};
use crate::node::{Action, Context, NodeLogic};
use crate::radio::RadioConfig;
use crate::time::{SimDuration, SimTime};
use liteworp_runner::rng::{Pcg32, Rng};
use std::cell::OnceCell;
use std::collections::VecDeque;

/// A scheduled event. Kept to 16 bytes: the queue's slab holds one slot
/// per pending event, and one `NodeStart` per built node at time zero
/// sizes it for the whole run. What a frame carries waits elsewhere: in
/// [`InFlight`] for a transmission's end, boxed on the rare tunnel and
/// fault paths.
pub(crate) enum EventKind<P> {
    NodeStart(NodeId),
    Timer {
        node: NodeId,
        token: u64,
    },
    TxAttempt(NodeId),
    /// The end of transmission `seq`; its frame is in [`InFlight`].
    TxEnd(u64),
    TunnelDeliver(Box<Tunneled<P>>),
    /// A frame held back by a [`FaultHook`] jitter verdict, arriving late.
    FaultDeliver {
        to: NodeId,
        frame: Box<Frame<P>>,
    },
}

/// A payload crossing a wormhole tunnel.
pub(crate) struct Tunneled<P> {
    from: NodeId,
    to: NodeId,
    payload: P,
}

/// Frames on the air, by transmission seq: slot `i` holds seq
/// `first_seq + i` (with its retry count) until its `TxEnd` takes it.
/// Leading empty slots are popped, so the ring spans only the seqs
/// between the oldest frame still on the air and the newest, about 16.
struct InFlight<P> {
    ring: VecDeque<Option<(Frame<P>, u8)>>,
    first_seq: u64,
}

impl<P> InFlight<P> {
    /// Holds the frame of transmission `seq`, the next seq after every
    /// one held before (the simulator's seqs are dense).
    fn push(&mut self, seq: u64, frame: Frame<P>, retries_used: u8) {
        if self.ring.is_empty() {
            self.first_seq = seq;
        }
        debug_assert_eq!(seq, self.first_seq + self.ring.len() as u64);
        self.ring.push_back(Some((frame, retries_used)));
    }

    /// Removes and returns transmission `seq`'s frame and retry count.
    fn take(&mut self, seq: u64) -> Option<(Frame<P>, u8)> {
        let slot = seq.checked_sub(self.first_seq)?;
        let taken = self.ring.get_mut(slot as usize)?.take();
        while let Some(None) = self.ring.front() {
            self.ring.pop_front();
            self.first_seq += 1;
        }
        taken
    }
}

struct MacFrame<P> {
    spec: FrameSpec<P>,
    retries_used: u8,
}

/// Per-node MAC state in column (SoA) layout: one flat `Vec` per field,
/// all indexed by [`NodeId::index`]. At 100k nodes the event loop touches
/// one or two of these columns per event; keeping each column contiguous
/// avoids dragging a whole per-node struct through the cache for a
/// single-flag check.
struct MacArena<P> {
    queues: Vec<VecDeque<MacFrame<P>>>,
    attempt_pending: Vec<bool>,
    transmitting_until: Vec<Option<SimTime>>,
}

impl<P> Default for MacArena<P> {
    fn default() -> Self {
        MacArena {
            queues: Vec::new(),
            attempt_pending: Vec::new(),
            transmitting_until: Vec::new(),
        }
    }
}

impl<P> MacArena<P> {
    fn push_node(&mut self) {
        self.queues.push(VecDeque::new());
        self.attempt_pending.push(false);
        self.transmitting_until.push(None);
    }
}

/// `Simulator::rank` when no event's rank is free to re-arm with.
const NO_RANK: u64 = u64::MAX;

/// Builds a lazy node's logic from its id (see [`Simulator::set_node_factory`]).
type NodeFactory<P> = Box<dyn Fn(NodeId) -> Box<dyn NodeLogic<P>>>;

/// Builds lazy node `node` with the simulator's factory.
fn build_lazy<P>(factory: &Option<NodeFactory<P>>, node: NodeId) -> Box<dyn NodeLogic<P>> {
    match factory {
        Some(build) => build(node),
        // `push_lazy_node` refuses to add a lazy slot while no factory is
        // installed, and a factory is never removed.
        None => unreachable!("lazy node {node} has no factory"),
    }
}

/// The discrete-event wireless network simulator.
///
/// Each node is pushed built ([`Simulator::push_node`]) or lazy
/// ([`Simulator::push_lazy_node`], see [lazy nodes](self#lazy-nodes)).
/// See the [module documentation](self) for a usage example.
pub struct Simulator<P> {
    field: Field,
    radio: RadioConfig,
    /// One slot per node: empty while the node is lazy and unbuilt.
    logic: Vec<OnceCell<Box<dyn NodeLogic<P>>>>,
    factory: Option<NodeFactory<P>>,
    mac: MacArena<P>,
    queue: EventQueue<EventKind<P>>,
    in_flight: InFlight<P>,
    next_tx_seq: u64,
    now: SimTime,
    /// Tie rank of the event being dispatched, until a re-arm takes it
    /// ([`NO_RANK`] then, and before the first event).
    rank: u64,
    medium: Medium,
    rng: Pcg32,
    metrics: Metrics,
    trace: Trace,
    started: bool,
    /// When each node's `on_start` runs; `None` for a lazy node.
    start_times: Vec<Option<SimTime>>,
    fault: Option<Box<dyn FaultHook>>,
    /// Reusable buffer for node-hook actions (drained after every hook).
    actions_scratch: Vec<Action<P>>,
    /// Reusable buffer for the reception fan-out receiver list.
    receivers_scratch: Vec<NodeId>,
    /// Reusable buffer for the per-transmission collision gather.
    interference_scratch: Interference,
}

impl<P: Clone + 'static> Simulator<P> {
    /// Creates a simulator over a deployment field.
    ///
    /// # Panics
    ///
    /// Panics if the radio configuration is invalid or its range disagrees
    /// with the field's range.
    pub fn new(field: Field, radio: RadioConfig, seed: u64) -> Self {
        // lint: allow(P002) documented panic: bad radio parameters
        radio.validate().expect("invalid radio configuration");
        assert!(
            (field.range() - radio.range_m).abs() < 1e-9,
            "field range {} != radio range {}",
            field.range(),
            radio.range_m
        );
        let medium = Medium::new(radio.interference_factor);
        Simulator {
            field,
            radio,
            logic: Vec::new(),
            factory: None,
            mac: MacArena::default(),
            queue: EventQueue::new(),
            in_flight: InFlight {
                ring: VecDeque::new(),
                first_seq: 0,
            },
            next_tx_seq: 0,
            now: SimTime::ZERO,
            rank: NO_RANK,
            medium,
            rng: Pcg32::seed_from_u64(seed),
            metrics: Metrics::default(),
            trace: Trace::default(),
            started: false,
            start_times: Vec::new(),
            fault: None,
            actions_scratch: Vec::new(),
            receivers_scratch: Vec::new(),
            interference_scratch: Interference::default(),
        }
    }

    /// Adds the logic for the next node (ids are assigned in push order and
    /// must match the field's positions).
    ///
    /// # Panics
    ///
    /// Panics if more nodes are pushed than the field has positions, or
    /// after the simulation has started.
    pub fn push_node(&mut self, logic: Box<dyn NodeLogic<P>>) -> NodeId {
        self.push_slot(OnceCell::from(logic), Some(SimTime::ZERO))
    }

    /// Adds the next node as a lazy slot: the factory installed by
    /// [`Simulator::set_node_factory`] builds its logic when the node is
    /// first needed, and its `on_start` never runs (see the
    /// [module documentation](self#lazy-nodes)).
    ///
    /// # Panics
    ///
    /// Panics when no factory is installed, and where
    /// [`Simulator::push_node`] does.
    pub fn push_lazy_node(&mut self) -> NodeId {
        assert!(self.factory.is_some(), "lazy node without a node factory");
        self.push_slot(OnceCell::new(), None)
    }

    fn push_slot(
        &mut self,
        slot: OnceCell<Box<dyn NodeLogic<P>>>,
        start: Option<SimTime>,
    ) -> NodeId {
        assert!(!self.started, "cannot add nodes after the run started");
        assert!(
            self.logic.len() < self.field.len(),
            "more nodes than field positions"
        );
        let id = NodeId(self.logic.len() as u32);
        self.logic.push(slot);
        self.mac.push_node();
        self.start_times.push(start);
        id
    }

    /// Installs the factory that builds every lazy node's logic from its
    /// id. It must build the same logic for an id whenever it is called,
    /// with a no-op `on_start`: a lazy node is then indistinguishable from
    /// the same node pushed built.
    ///
    /// # Panics
    ///
    /// Panics after the run has started.
    pub fn set_node_factory(
        &mut self,
        factory: impl Fn(NodeId) -> Box<dyn NodeLogic<P>> + 'static,
    ) {
        assert!(!self.started, "cannot install a node factory after start");
        self.factory = Some(Box::new(factory));
    }

    /// Overrides when a node's `on_start` runs (default: time zero).
    ///
    /// # Panics
    ///
    /// Panics after the run has started, for an unknown id, or for a lazy
    /// node (it never starts).
    pub fn set_start_time(&mut self, node: NodeId, at: SimTime) {
        assert!(!self.started, "cannot change start times after start");
        let start = &mut self.start_times[node.index()];
        assert!(start.is_some(), "lazy node {node} has no start time");
        *start = Some(at);
    }

    /// Staggers all node start times uniformly over `[0, window]` — useful
    /// so deployment-time HELLO floods do not all collide. A lazy node's
    /// draw is made and discarded, so the random stream does not depend on
    /// which nodes are lazy.
    pub fn stagger_starts(&mut self, window: SimDuration) {
        assert!(!self.started, "cannot change start times after start");
        for start in &mut self.start_times {
            let us = self.rng.gen_range(0..=window.as_micros());
            if let Some(t) = start {
                *t = SimTime::from_micros(us);
            }
        }
    }

    /// The deployment field.
    pub fn field(&self) -> &Field {
        &self.field
    }

    /// The radio configuration.
    pub fn radio(&self) -> &RadioConfig {
        &self.radio
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The protocol event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Immutable access to a node's logic (downcast via
    /// [`NodeLogic::as_any`]). Builds a lazy node that is not built yet;
    /// later events reach the instance this returns.
    pub fn logic(&self, node: NodeId) -> &dyn NodeLogic<P> {
        self.logic[node.index()]
            .get_or_init(|| build_lazy(&self.factory, node))
            .as_ref()
    }

    /// A node's logic if it is built, without building a lazy one. An
    /// unbuilt node has handled no event, so it is in the state its
    /// factory builds.
    pub fn built_logic(&self, node: NodeId) -> Option<&dyn NodeLogic<P>> {
        self.logic[node.index()].get().map(|logic| logic.as_ref())
    }

    /// Number of nodes whose logic is built: every node pushed built, and
    /// every lazy node that has been needed so far.
    pub fn built_nodes(&self) -> usize {
        self.logic
            .iter()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.logic.len()
    }

    /// Installs a fault-injection hook (see [`crate::fault`]).
    ///
    /// Without a hook the simulator's behavior is byte-for-byte identical
    /// to a build without the fault module, so fault-free runs keep their
    /// determinism and cached results.
    ///
    /// # Panics
    ///
    /// Panics if the run has already started.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        assert!(!self.started, "cannot install a fault hook after start");
        self.fault = Some(hook);
    }

    /// Schedules an external timer for a node — the hook experiments use
    /// to trigger behavior (e.g. "start the attack at t = 50 s").
    ///
    /// # Panics
    ///
    /// Panics for an unknown node, or for a time earlier than
    /// [`Simulator::now`]: the event loop would move the clock backwards.
    pub fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: u64) {
        assert!(node.index() < self.logic.len(), "unknown node {node}");
        assert!(
            at >= self.now,
            "timer scheduled in the past: {at} < now {}",
            self.now
        );
        self.push_event(at, EventKind::Timer { node, token });
    }

    /// Runs the simulation until `deadline` (inclusive of events at it).
    ///
    /// # Panics
    ///
    /// Panics if fewer nodes were pushed than the field has positions.
    pub fn run_until(&mut self, deadline: SimTime) {
        if !self.started {
            assert_eq!(
                self.logic.len(),
                self.field.len(),
                "node logic missing for some field positions"
            );
            self.started = true;
            for i in 0..self.logic.len() {
                if let Some(at) = self.start_times[i] {
                    self.push_event(at, EventKind::NodeStart(NodeId(i as u32)));
                }
            }
        }
        while let Some(head_time) = self.queue.next_time() {
            if head_time > deadline {
                break;
            }
            // lint: allow(P002) invariant: peeked non-empty in the loop condition
            let (time, rank, kind) = self.queue.pop_ranked().expect("peeked event vanished");
            debug_assert!(time >= self.now, "event queue went backwards");
            self.now = time;
            self.rank = rank;
            self.dispatch(kind);
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    /// Whether any events remain scheduled.
    pub fn has_pending_events(&self) -> bool {
        !self.queue.is_empty()
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind<P>) {
        self.queue.push(time, kind);
    }

    fn dispatch(&mut self, kind: EventKind<P>) {
        // Crash windows: a down node runs no start hooks, timers, or
        // transmission attempts (those resume at reboot, state intact) and
        // receives nothing at all while down.
        if self.fault.is_some() {
            let (defer_to, drop_rx) = {
                // lint: allow(P002) invariant: is_some checked in the branch above
                let hook = self.fault.as_deref().expect("checked above");
                match &kind {
                    EventKind::NodeStart(n)
                    | EventKind::Timer { node: n, .. }
                    | EventKind::TxAttempt(n) => (hook.down_until(self.now, *n), false),
                    EventKind::TunnelDeliver(t) => {
                        (None, hook.down_until(self.now, t.to).is_some())
                    }
                    EventKind::FaultDeliver { to, .. } => {
                        (None, hook.down_until(self.now, *to).is_some())
                    }
                    EventKind::TxEnd(_) => (None, false),
                }
            };
            if let Some(up) = defer_to {
                assert!(up > self.now, "down_until must be strictly future");
                self.push_event(up, kind);
                return;
            }
            if drop_rx {
                self.metrics.incr(SimCounter::FaultRxWhileDown);
                return;
            }
        }
        match kind {
            EventKind::NodeStart(node) => self.with_logic(node, |logic, ctx| logic.on_start(ctx)),
            EventKind::Timer { node, token } => {
                self.with_logic(node, |logic, ctx| logic.on_timer(ctx, token))
            }
            EventKind::TxAttempt(node) => self.tx_attempt(node),
            EventKind::TxEnd(seq) => self.tx_end(seq),
            EventKind::TunnelDeliver(tunneled) => {
                let Tunneled { from, to, payload } = *tunneled;
                self.metrics.tunnel_messages += 1;
                self.trace.record(
                    self.now,
                    to,
                    liteworp_obs::EventKind::TunnelRelay {
                        from: from.0,
                        to: to.0,
                    },
                );
                self.with_logic(to, |logic, ctx| logic.on_tunnel(ctx, from, &payload));
            }
            EventKind::FaultDeliver { to, frame } => {
                self.metrics.frames_delivered += 1;
                self.with_logic(to, |logic, ctx| logic.on_frame(ctx, &frame));
            }
        }
    }

    /// Invokes a node hook with a fresh context, then applies its actions.
    /// The action buffer is recycled across hooks (hooks never nest). A
    /// lazy node is built first if it is not built yet. The logic leaves
    /// its slot for the hook and returns to it after, so the hook can
    /// borrow the rest of the simulator.
    fn with_logic<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn NodeLogic<P>, &mut Context<'_, P>),
    {
        let slot = &mut self.logic[node.index()];
        let mut logic = slot
            .take()
            .unwrap_or_else(|| build_lazy(&self.factory, node));
        let mut actions = std::mem::take(&mut self.actions_scratch);
        {
            let mut ctx = Context::new(
                self.now,
                node,
                &mut self.rng,
                &mut self.metrics,
                &mut self.trace,
                &mut actions,
            );
            f(logic.as_mut(), &mut ctx);
        }
        self.logic[node.index()] = OnceCell::from(logic);
        self.apply_actions(node, &mut actions);
        self.actions_scratch = actions;
    }

    fn apply_actions(&mut self, node: NodeId, actions: &mut Vec<Action<P>>) {
        for action in actions.drain(..) {
            match action {
                Action::Send(spec) => self.enqueue_frame(node, spec),
                Action::Timer { delay, token } => {
                    let delay = match &self.fault {
                        Some(hook) => hook.timer_delay(node, delay),
                        None => delay,
                    };
                    self.push_event(self.now + delay, EventKind::Timer { node, token });
                }
                Action::Rearm { delay, token } => {
                    let delay = match &self.fault {
                        Some(hook) => hook.timer_delay(node, delay),
                        None => delay,
                    };
                    // The event being handled has popped, so its rank is
                    // free; taking it keeps every queued rank unique.
                    let rank = std::mem::replace(&mut self.rank, NO_RANK);
                    assert_ne!(rank, NO_RANK, "one re-armed timer per event");
                    self.queue.push_ranked(
                        self.now + delay,
                        rank,
                        EventKind::Timer { node, token },
                    );
                }
                Action::Tunnel {
                    to,
                    payload,
                    latency,
                } => {
                    assert!(to.index() < self.logic.len(), "tunnel to unknown node");
                    self.push_event(
                        self.now + latency,
                        EventKind::TunnelDeliver(Box::new(Tunneled {
                            from: node,
                            to,
                            payload,
                        })),
                    );
                }
            }
        }
    }

    fn enqueue_frame(&mut self, node: NodeId, spec: FrameSpec<P>) {
        let i = node.index();
        self.mac.queues[i].push_back(MacFrame {
            spec,
            retries_used: 0,
        });
        if !self.mac.attempt_pending[i] && self.mac.transmitting_until[i].is_none() {
            self.schedule_attempt(node);
        }
    }

    /// Schedules the next transmission attempt for the node's queue head.
    fn schedule_attempt(&mut self, node: NodeId) {
        let rushed = match self.mac.queues[node.index()].front() {
            Some(head) => head.spec.rushed,
            None => return,
        };
        let delay = if rushed {
            SimDuration::ZERO
        } else {
            let max = self.radio.max_backoff.as_micros();
            SimDuration::from_micros(self.rng.gen_range(0..=max))
        };
        self.mac.attempt_pending[node.index()] = true;
        self.push_event(self.now + delay, EventKind::TxAttempt(node));
    }

    fn tx_attempt(&mut self, node: NodeId) {
        let pos = self.field.position(node);
        let i = node.index();
        self.mac.attempt_pending[i] = false;
        if self.mac.queues[i].is_empty() {
            return;
        }
        // Still transmitting (shouldn't normally happen): retry after.
        if let Some(until) = self.mac.transmitting_until[i] {
            if until > self.now {
                self.mac.attempt_pending[i] = true;
                let at = until + self.radio.ifs;
                self.push_event(at, EventKind::TxAttempt(node));
                return;
            }
            self.mac.transmitting_until[i] = None;
        }
        // Carrier sense.
        let rushed = self.mac.queues[i]
            .front()
            .map(|f| f.spec.rushed)
            .unwrap_or(false);
        if let Some(busy_end) = self.medium.busy_until(pos, self.now) {
            self.metrics.mac_deferrals += 1;
            let backoff = if rushed {
                SimDuration::ZERO
            } else {
                let max = self.radio.max_backoff.as_micros();
                SimDuration::from_micros(self.rng.gen_range(0..=max))
            };
            let at = busy_end + self.radio.ifs + backoff;
            self.mac.attempt_pending[i] = true;
            self.push_event(at, EventKind::TxAttempt(node));
            return;
        }
        // Transmit.
        let mac_frame = self.mac.queues[i]
            .pop_front()
            // lint: allow(P002) invariant: TxEnd is scheduled with every TxStart
            .expect("queue emptied unexpectedly");
        let retries_used = mac_frame.retries_used;
        let spec = mac_frame.spec;
        let airtime = crate::frame::airtime(spec.bytes, self.radio.bitrate_bps);
        let end = self.now + airtime;
        let seq = self.next_tx_seq;
        self.next_tx_seq += 1;
        let frame = Frame {
            transmitter: node,
            dest: spec.dest,
            payload: spec.payload,
            bytes: spec.bytes,
            power: spec.power,
        };
        self.medium.begin(TxRecord {
            seq,
            transmitter: node,
            origin: pos,
            start: self.now,
            end,
            range: spec.power.effective_range(self.radio.range_m),
        });
        self.metrics.frames_sent += 1;
        self.mac.transmitting_until[i] = Some(end);
        self.in_flight.push(seq, frame, retries_used);
        self.push_event(end, EventKind::TxEnd(seq));
    }

    fn tx_end(&mut self, seq: u64) {
        let (record, (frame, retries_used)) = self
            .medium
            .get(seq)
            .copied()
            .zip(self.in_flight.take(seq))
            // lint: allow(P002) invariant: a transmission's record and frame outlive its TxEnd
            .expect("TxEnd for pruned transmission");
        let tx = frame.transmitter;
        self.mac.transmitting_until[tx.index()] = None;
        // Deliver to every in-range node, in id order, applying the
        // per-receiver collision and noise model. A normal-power frame's
        // receivers are the transmitter's precomputed neighbors; any other
        // range asks the spatial grid. Both apply the same distance
        // predicate the old all-nodes scan used and yield ascending ids,
        // so the per-receiver RNG draw order is byte-identical to it.
        // The medium is searched once for concurrent transmissions; each
        // receiver then tests only that short list.
        let mut link_dst_got_it = true;
        if let crate::frame::Dest::Unicast(_) = frame.dest {
            link_dst_got_it = false;
        }
        let mut receivers = std::mem::take(&mut self.receivers_scratch);
        if record.range.to_bits() == self.field.range().to_bits() {
            receivers.clear();
            receivers.extend_from_slice(self.field.in_range_of(tx));
        } else {
            self.field
                .nodes_within_into(record.origin, record.range, &mut receivers);
        }
        let mut interference = std::mem::take(&mut self.interference_scratch);
        self.medium.gather(seq, &mut interference);
        for &receiver in &receivers {
            if receiver == tx {
                continue;
            }
            let rpos = self.field.position(receiver);
            let receiver_down = self
                .fault
                .as_deref()
                .is_some_and(|h| h.down_until(self.now, receiver).is_some());
            if receiver_down {
                self.metrics.incr(SimCounter::FaultRxWhileDown);
                continue;
            }
            if interference.collides(receiver, rpos) {
                self.metrics.frames_collided += 1;
                self.with_logic(receiver, |logic, ctx| logic.on_collision(ctx));
                continue;
            }
            if self.radio.noise_loss > 0.0 && self.rng.gen_f64() < self.radio.noise_loss {
                self.metrics.frames_lost_noise += 1;
                continue;
            }
            let verdict = match self.fault.as_deref_mut() {
                Some(hook) => hook.on_reception(self.now, tx, receiver),
                None => Reception::Deliver,
            };
            match verdict {
                Reception::Deliver => {}
                Reception::Drop => {
                    // Silent loss: no ACK for a unicast destination, so the
                    // link-layer retry path runs exactly as for noise.
                    self.metrics.incr(SimCounter::FaultFramesDropped);
                    continue;
                }
                Reception::Corrupt => {
                    // Checksum failure: observed as a collision.
                    self.metrics.incr(SimCounter::FaultFramesCorrupted);
                    self.metrics.frames_collided += 1;
                    self.with_logic(receiver, |logic, ctx| logic.on_collision(ctx));
                    continue;
                }
                Reception::Duplicate => {
                    self.metrics.incr(SimCounter::FaultFramesDuplicated);
                    self.metrics.frames_delivered += 2;
                    if frame.dest == crate::frame::Dest::Unicast(receiver) {
                        link_dst_got_it = true;
                    }
                    self.with_logic(receiver, |logic, ctx| logic.on_frame(ctx, &frame));
                    self.with_logic(receiver, |logic, ctx| logic.on_frame(ctx, &frame));
                    continue;
                }
                Reception::Delay(jitter) => {
                    // The frame will still arrive, so the link-layer ACK
                    // counts now; delivery happens after the jitter.
                    self.metrics.incr(SimCounter::FaultFramesDelayed);
                    if frame.dest == crate::frame::Dest::Unicast(receiver) {
                        link_dst_got_it = true;
                    }
                    let at = self.now + jitter;
                    let held = Box::new(frame.clone());
                    self.push_event(
                        at,
                        EventKind::FaultDeliver {
                            to: receiver,
                            frame: held,
                        },
                    );
                    continue;
                }
            }
            self.metrics.frames_delivered += 1;
            if frame.dest == crate::frame::Dest::Unicast(receiver) {
                link_dst_got_it = true;
            }
            self.with_logic(receiver, |logic, ctx| logic.on_frame(ctx, &frame));
        }
        receivers.clear();
        self.receivers_scratch = receivers;
        self.interference_scratch = interference;
        self.medium.prune(self.now);
        // ACK-timeout emulation: retransmit a unicast whose addressed
        // receiver missed it, up to the configured retry budget.
        if !link_dst_got_it {
            if retries_used < self.radio.unicast_retries {
                self.metrics.incr(SimCounter::UnicastRetries);
                let spec = FrameSpec {
                    dest: frame.dest,
                    payload: frame.payload.clone(),
                    bytes: frame.bytes,
                    power: frame.power,
                    rushed: false,
                };
                self.mac.queues[tx.index()].push_front(MacFrame {
                    spec,
                    retries_used: retries_used + 1,
                });
            } else {
                self.metrics.incr(SimCounter::UnicastExhausted);
            }
        }
        // Keep the transmitter's queue draining.
        if !self.mac.queues[tx.index()].is_empty() && !self.mac.attempt_pending[tx.index()] {
            self.schedule_attempt(tx);
        }
    }
}

/// Prelude re-exporting everything node implementations typically need.
pub mod prelude {
    pub use crate::field::{Field, NodeId, Position};
    pub use crate::frame::{Dest, Frame, FrameSpec, TxPower};
    pub use crate::metrics::{Isolation, Metrics, SimCounter, Trace};
    pub use crate::node::{Action, Context, NodeLogic};
    pub use crate::radio::RadioConfig;
    pub use crate::sim::Simulator;
    pub use crate::time::{SimDuration, SimTime};
    pub use liteworp_obs::{Event, EventKind as TraceKind, MalcReason};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::any::Any;

    type Payload = u32;

    /// Broadcasts `count` frames, one per `interval`.
    struct Beacon {
        count: u32,
        interval: SimDuration,
        rushed: bool,
        power: Option<f64>,
    }

    impl Beacon {
        fn new(count: u32, interval: SimDuration) -> Self {
            Beacon {
                count,
                interval,
                rushed: false,
                power: None,
            }
        }
    }

    impl NodeLogic<Payload> for Beacon {
        fn on_start(&mut self, ctx: &mut Context<'_, Payload>) {
            if self.count > 0 {
                ctx.set_timer(SimDuration::ZERO, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Payload>, token: u64) {
            let n = token as u32;
            let mut spec = FrameSpec::new(Dest::Broadcast, n, 25);
            if self.rushed {
                spec = spec.rushed();
            }
            if let Some(mult) = self.power {
                spec = spec.with_high_power(mult);
            }
            ctx.send(spec);
            if n + 1 < self.count {
                ctx.set_timer(self.interval, token + 1);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[derive(Default)]
    struct Sink {
        heard: Vec<(NodeId, Payload)>,
    }

    impl NodeLogic<Payload> for Sink {
        fn on_frame(&mut self, _ctx: &mut Context<'_, Payload>, f: &Frame<Payload>) {
            self.heard.push((f.transmitter, f.payload));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn chain_field(spacing: f64, n: usize) -> Field {
        let positions = (0..n)
            .map(|i| Position::new(spacing * i as f64, 0.0))
            .collect();
        Field::from_positions(1000.0, 30.0, positions)
    }

    fn sink_of(sim: &Simulator<Payload>, id: NodeId) -> &Sink {
        sim.logic(id).as_any().downcast_ref().expect("not a Sink")
    }

    #[test]
    fn broadcast_reaches_only_nodes_in_range() {
        // 0 --25m-- 1 --25m-- 2: node 2 is 50 m from node 0, out of range.
        let field = chain_field(25.0, 3);
        let mut sim = Simulator::new(field, RadioConfig::default(), 7);
        sim.push_node(Box::new(Beacon::new(1, SimDuration::ZERO)));
        sim.push_node(Box::new(Sink::default()));
        sim.push_node(Box::new(Sink::default()));
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sink_of(&sim, NodeId(1)).heard, vec![(NodeId(0), 0)]);
        assert!(sink_of(&sim, NodeId(2)).heard.is_empty());
    }

    #[test]
    fn high_power_reaches_distant_nodes() {
        let field = chain_field(25.0, 3);
        let mut sim = Simulator::new(field, RadioConfig::default(), 7);
        let mut b = Beacon::new(1, SimDuration::ZERO);
        b.power = Some(2.0); // 60 m range covers node 2 at 50 m
        sim.push_node(Box::new(b));
        sim.push_node(Box::new(Sink::default()));
        sim.push_node(Box::new(Sink::default()));
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sink_of(&sim, NodeId(2)).heard.len(), 1);
    }

    #[test]
    fn unicast_is_still_overheard() {
        // Overhearing is load-bearing for LITEWORP: everyone in range
        // receives the frame regardless of its link destination.
        struct Uni;
        impl NodeLogic<Payload> for Uni {
            fn on_start(&mut self, ctx: &mut Context<'_, Payload>) {
                ctx.send(FrameSpec::new(Dest::Unicast(NodeId(1)), 9, 25));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let field = chain_field(10.0, 3);
        let mut sim = Simulator::new(field, RadioConfig::default(), 7);
        sim.push_node(Box::new(Uni));
        sim.push_node(Box::new(Sink::default()));
        sim.push_node(Box::new(Sink::default()));
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sink_of(&sim, NodeId(1)).heard.len(), 1);
        assert_eq!(sink_of(&sim, NodeId(2)).heard.len(), 1, "overhearing");
    }

    #[test]
    fn simultaneous_hidden_transmitters_collide_at_middle() {
        // Nodes 0 and 2 are 50 m apart (cannot carrier-sense each other)
        // and both transmit immediately, rushed so there is no backoff:
        // node 1 in the middle hears nothing.
        let field = chain_field(25.0, 3);
        let mut sim = Simulator::new(field, RadioConfig::default(), 7);
        let mk = || {
            let mut b = Beacon::new(1, SimDuration::ZERO);
            b.rushed = true;
            Box::new(b)
        };
        sim.push_node(mk());
        sim.push_node(Box::new(Sink::default()));
        sim.push_node(mk());
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert!(sink_of(&sim, NodeId(1)).heard.is_empty());
        assert_eq!(sim.metrics().frames_collided, 2);
    }

    #[test]
    fn carrier_sense_serializes_neighbors() {
        // Nodes 0 and 1 are in range of each other; both broadcast at t=0.
        // Backoff + carrier sense should let both frames through to node 2
        // (in range of both) most of the time. With rushing disabled and a
        // deterministic seed we assert full delivery.
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(10.0, 0.0),
            Position::new(20.0, 0.0),
        ];
        let field = Field::from_positions(100.0, 30.0, positions);
        let mut sim = Simulator::new(field, RadioConfig::default(), 11);
        sim.push_node(Box::new(Beacon::new(1, SimDuration::ZERO)));
        sim.push_node(Box::new(Beacon::new(1, SimDuration::ZERO)));
        sim.push_node(Box::new(Sink::default()));
        sim.run_until(SimTime::from_secs_f64(1.0));
        let heard = &sink_of(&sim, NodeId(2)).heard;
        assert_eq!(heard.len(), 2, "both frames should arrive: {heard:?}");
    }

    #[test]
    fn rushed_frame_skips_backoff() {
        // A rushed transmitter always wins the race to the channel.
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(10.0, 0.0),
            Position::new(20.0, 0.0),
        ];
        let field = Field::from_positions(100.0, 30.0, positions);
        let mut sim = Simulator::new(field, RadioConfig::default(), 13);
        let mut rushed = Beacon::new(1, SimDuration::ZERO);
        rushed.rushed = true;
        sim.push_node(Box::new(Beacon::new(1, SimDuration::ZERO)));
        sim.push_node(Box::new(rushed));
        sim.push_node(Box::new(Sink::default()));
        sim.run_until(SimTime::from_secs_f64(1.0));
        let heard = &sink_of(&sim, NodeId(2)).heard;
        assert_eq!(heard.first().map(|h| h.0), Some(NodeId(1)));
    }

    #[test]
    fn tunnel_delivers_out_of_band() {
        struct TunnelSrc;
        impl NodeLogic<Payload> for TunnelSrc {
            fn on_start(&mut self, ctx: &mut Context<'_, Payload>) {
                ctx.tunnel(NodeId(1), 77, SimDuration::ZERO);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        #[derive(Default)]
        struct TunnelSink {
            got: Option<(NodeId, Payload)>,
        }
        impl NodeLogic<Payload> for TunnelSink {
            fn on_tunnel(&mut self, _ctx: &mut Context<'_, Payload>, from: NodeId, p: &Payload) {
                self.got = Some((from, *p));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        // Far apart: radio could never deliver this.
        let field = chain_field(500.0, 2);
        let mut sim = Simulator::new(field, RadioConfig::default(), 3);
        sim.push_node(Box::new(TunnelSrc));
        sim.push_node(Box::new(TunnelSink::default()));
        sim.run_until(SimTime::from_secs_f64(0.1));
        let sink: &TunnelSink = sim.logic(NodeId(1)).as_any().downcast_ref().unwrap();
        assert_eq!(sink.got, Some((NodeId(0), 77)));
        assert_eq!(sim.metrics().tunnel_messages, 1);
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        struct Timed {
            fired: Vec<u64>,
        }
        impl NodeLogic<Payload> for Timed {
            fn on_start(&mut self, ctx: &mut Context<'_, Payload>) {
                ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_, Payload>, token: u64) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let field = chain_field(10.0, 1);
        let mut sim = Simulator::new(field, RadioConfig::default(), 5);
        sim.push_node(Box::new(Timed { fired: vec![] }));
        sim.run_until(SimTime::from_secs_f64(1.0));
        let t: &Timed = sim.logic(NodeId(0)).as_any().downcast_ref().unwrap();
        assert_eq!(t.fired, vec![1, 2]);
    }

    #[test]
    fn noise_loss_drops_some_frames() {
        let field = chain_field(10.0, 2);
        let radio = RadioConfig {
            noise_loss: 0.5,
            ..RadioConfig::default()
        };
        let mut sim = Simulator::new(field, radio, 21);
        sim.push_node(Box::new(Beacon::new(100, SimDuration::from_millis(50))));
        sim.push_node(Box::new(Sink::default()));
        sim.run_until(SimTime::from_secs_f64(10.0));
        let heard = sink_of(&sim, NodeId(1)).heard.len();
        assert!(heard > 20 && heard < 80, "noise should drop ~half: {heard}");
        assert_eq!(
            sim.metrics().frames_lost_noise + heard as u64,
            sim.metrics().frames_sent
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            let field = chain_field(20.0, 4);
            let mut sim = Simulator::new(field, RadioConfig::default(), seed);
            sim.push_node(Box::new(Beacon::new(20, SimDuration::from_millis(7))));
            sim.push_node(Box::new(Beacon::new(20, SimDuration::from_millis(9))));
            sim.push_node(Box::new(Sink::default()));
            sim.push_node(Box::new(Sink::default()));
            sim.run_until(SimTime::from_secs_f64(5.0));
            (
                sink_of(&sim, NodeId(2)).heard.clone(),
                sim.metrics().frames_collided,
            )
        };
        assert_eq!(run(99), run(99));
        // And the clock advances to the deadline even when idle.
        let field = chain_field(20.0, 1);
        let mut sim = Simulator::new(field, RadioConfig::default(), 1);
        sim.push_node(Box::new(Sink::default()));
        sim.run_until(SimTime::from_secs_f64(3.0));
        assert_eq!(sim.now(), SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn staggered_starts_happen_within_window() {
        struct Recorder {
            started_at: Option<SimTime>,
        }
        impl NodeLogic<Payload> for Recorder {
            fn on_start(&mut self, ctx: &mut Context<'_, Payload>) {
                self.started_at = Some(ctx.now());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let field = chain_field(10.0, 5);
        let mut sim = Simulator::new(field, RadioConfig::default(), 17);
        for _ in 0..5 {
            sim.push_node(Box::new(Recorder { started_at: None }));
        }
        sim.stagger_starts(SimDuration::from_secs(2));
        sim.run_until(SimTime::from_secs_f64(3.0));
        for i in 0..5 {
            let r: &Recorder = sim.logic(NodeId(i)).as_any().downcast_ref().unwrap();
            let at = r.started_at.expect("every node starts");
            assert!(at <= SimTime::from_secs_f64(2.0));
        }
    }

    #[test]
    fn drop_all_hook_silences_the_channel() {
        use crate::fault::{FaultHook, Reception};
        struct DropAll;
        impl FaultHook for DropAll {
            fn on_reception(&mut self, _now: SimTime, _tx: NodeId, _rx: NodeId) -> Reception {
                Reception::Drop
            }
        }
        let field = chain_field(10.0, 2);
        let mut sim = Simulator::new(field, RadioConfig::default(), 7);
        sim.set_fault_hook(Box::new(DropAll));
        sim.push_node(Box::new(Beacon::new(5, SimDuration::from_millis(10))));
        sim.push_node(Box::new(Sink::default()));
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert!(sink_of(&sim, NodeId(1)).heard.is_empty());
        assert_eq!(sim.metrics().get("fault_frames_dropped"), 5);
    }

    #[test]
    fn delayed_frames_arrive_late_and_duplicates_twice() {
        use crate::fault::{FaultHook, Reception};
        // First reception delayed by 100 ms, the rest duplicated.
        struct Mixed {
            first: bool,
        }
        impl FaultHook for Mixed {
            fn on_reception(&mut self, _now: SimTime, _tx: NodeId, _rx: NodeId) -> Reception {
                if self.first {
                    self.first = false;
                    Reception::Delay(SimDuration::from_millis(100))
                } else {
                    Reception::Duplicate
                }
            }
        }
        let field = chain_field(10.0, 2);
        let mut sim = Simulator::new(field, RadioConfig::default(), 7);
        sim.set_fault_hook(Box::new(Mixed { first: true }));
        sim.push_node(Box::new(Beacon::new(2, SimDuration::from_millis(10))));
        sim.push_node(Box::new(Sink::default()));
        sim.run_until(SimTime::from_secs_f64(0.05));
        // Only the duplicated second frame has arrived so far (twice).
        assert_eq!(sink_of(&sim, NodeId(1)).heard, vec![(NodeId(0), 1); 2]);
        sim.run_until(SimTime::from_secs_f64(1.0));
        // The delayed first frame lands after its jitter, reordered.
        let heard = &sink_of(&sim, NodeId(1)).heard;
        assert_eq!(heard.len(), 3);
        assert_eq!(heard[2], (NodeId(0), 0));
    }

    #[test]
    fn crashed_node_misses_traffic_and_resumes() {
        use crate::fault::FaultHook;
        // Node 1 is down for t in [0, 0.5 s): the early beacons are lost,
        // the late ones arrive, and its own start hook runs at reboot.
        struct DownEarly;
        impl FaultHook for DownEarly {
            fn down_until(&self, now: SimTime, node: NodeId) -> Option<SimTime> {
                let until = SimTime::from_secs_f64(0.5);
                (node == NodeId(1) && now < until).then_some(until)
            }
        }
        let field = chain_field(10.0, 2);
        let mut sim = Simulator::new(field, RadioConfig::default(), 7);
        sim.set_fault_hook(Box::new(DownEarly));
        sim.push_node(Box::new(Beacon::new(10, SimDuration::from_millis(100))));
        sim.push_node(Box::new(Sink::default()));
        sim.run_until(SimTime::from_secs_f64(2.0));
        let heard = sink_of(&sim, NodeId(1)).heard.len();
        assert!((4..=6).contains(&heard), "heard {heard} of 10");
        assert!(sim.metrics().get("fault_rx_while_down") >= 4);
    }

    #[test]
    fn timer_drift_scales_delays() {
        use crate::fault::FaultHook;
        // +100000 ppm (10% fast clock... i.e. slow timers): the 10th beacon
        // at nominal t = 0.9 s lands at 0.99 s instead.
        struct Slow;
        impl FaultHook for Slow {
            fn timer_delay(&self, node: NodeId, delay: SimDuration) -> SimDuration {
                if node == NodeId(0) {
                    SimDuration::from_micros(delay.as_micros() * 11 / 10)
                } else {
                    delay
                }
            }
        }
        let field = chain_field(10.0, 2);
        let mut sim = Simulator::new(field, RadioConfig::default(), 7);
        sim.set_fault_hook(Box::new(Slow));
        sim.push_node(Box::new(Beacon::new(10, SimDuration::from_millis(100))));
        sim.push_node(Box::new(Sink::default()));
        sim.run_until(SimTime::from_secs_f64(0.95));
        assert_eq!(sink_of(&sim, NodeId(1)).heard.len(), 9);
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(sink_of(&sim, NodeId(1)).heard.len(), 10);
    }

    #[test]
    #[should_panic(expected = "node logic missing")]
    fn run_requires_full_node_set() {
        let field = chain_field(10.0, 2);
        let mut sim = Simulator::new(field, RadioConfig::default(), 1);
        sim.push_node(Box::new(Sink::default()));
        sim.run_until(SimTime::from_secs_f64(1.0));
    }

    #[test]
    #[should_panic(expected = "more nodes than field positions")]
    fn push_rejects_extra_nodes() {
        let field = chain_field(10.0, 1);
        let mut sim = Simulator::new(field, RadioConfig::default(), 1);
        sim.push_node(Box::new(Sink::default()));
        sim.push_node(Box::new(Sink::default()));
    }
}
