//! Lazy node slots: a node pushed with `Simulator::push_lazy_node` is
//! built by the simulator's factory when it is first needed, never
//! started, and otherwise behaves as if it had been pushed built.

use liteworp_netsim::fault::FaultHook;
use liteworp_netsim::field::{Field, NodeId, Position};
use liteworp_netsim::prelude::{
    Context, Dest, Frame, FrameSpec, NodeLogic, RadioConfig, SimDuration, SimTime, Simulator,
};
use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;

type P = u32;

/// Records every hook that reaches it.
#[derive(Default)]
struct Probe {
    started: bool,
    frames: Vec<(NodeId, P)>,
    timers: Vec<u64>,
    tunnels: Vec<(NodeId, P)>,
    collisions: u32,
}

impl NodeLogic<P> for Probe {
    fn on_start(&mut self, _ctx: &mut Context<'_, P>) {
        self.started = true;
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_, P>, f: &Frame<P>) {
        self.frames.push((f.transmitter, f.payload));
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, P>, token: u64) {
        self.timers.push(token);
    }
    fn on_tunnel(&mut self, _ctx: &mut Context<'_, P>, from: NodeId, payload: &P) {
        self.tunnels.push((from, *payload));
    }
    fn on_collision(&mut self, _ctx: &mut Context<'_, P>) {
        self.collisions += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Broadcasts `count` frames `every` apart, the first at `first`, or
/// tunnels one payload to `tunnel_to` at start.
struct Talker {
    first: SimDuration,
    every: SimDuration,
    count: u64,
    rushed: bool,
    tunnel_to: Option<NodeId>,
}

impl Talker {
    fn broadcasts(first_ms: u64, count: u64) -> Self {
        Talker {
            first: SimDuration::from_millis(first_ms),
            every: SimDuration::from_millis(100),
            count,
            rushed: false,
            tunnel_to: None,
        }
    }
}

impl NodeLogic<P> for Talker {
    fn on_start(&mut self, ctx: &mut Context<'_, P>) {
        if let Some(to) = self.tunnel_to {
            ctx.tunnel(to, 77, self.first);
        } else if self.count > 0 {
            ctx.set_timer(self.first, 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, P>, token: u64) {
        let mut spec = FrameSpec::new(Dest::Broadcast, token as P, 25);
        if self.rushed {
            spec = spec.rushed();
        }
        ctx.send(spec);
        if token + 1 < self.count {
            ctx.set_timer(self.every, token + 1);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn chain(spacing: f64, n: usize) -> Field {
    let positions = (0..n)
        .map(|i| Position::new(spacing * i as f64, 0.0))
        .collect();
    Field::from_positions(1000.0, 30.0, positions)
}

/// A simulator over `field` whose factory builds probes and counts the
/// builds.
fn probing_sim(field: Field) -> (Simulator<P>, Rc<Cell<u32>>) {
    let builds = Rc::new(Cell::new(0));
    let mut sim = Simulator::new(field, RadioConfig::default(), 7);
    let counter = Rc::clone(&builds);
    sim.set_node_factory(move |_| {
        counter.set(counter.get() + 1);
        Box::new(Probe::default())
    });
    (sim, builds)
}

fn probe(sim: &Simulator<P>, id: NodeId) -> &Probe {
    sim.logic(id).as_any().downcast_ref().expect("a probe")
}

/// Runs to `before_s` (lazy node `id` still unbuilt), then to `after_s`
/// (built exactly once, never started).
fn assert_built_between(
    sim: &mut Simulator<P>,
    builds: &Cell<u32>,
    id: NodeId,
    before_s: f64,
    after_s: f64,
) {
    sim.run_until(SimTime::from_secs_f64(before_s));
    assert!(sim.built_logic(id).is_none(), "built before it was needed");
    assert_eq!(builds.get(), 0);
    sim.run_until(SimTime::from_secs_f64(after_s));
    assert!(
        sim.built_logic(id).is_some(),
        "not built by its first event"
    );
    assert_eq!(builds.get(), 1);
    assert!(!probe(sim, id).started, "a lazy node never starts");
}

#[test]
fn a_lazy_node_is_built_at_its_first_frame() {
    let (mut sim, builds) = probing_sim(chain(10.0, 2));
    sim.push_node(Box::new(Talker::broadcasts(500, 2)));
    let lazy = sim.push_lazy_node();
    assert_built_between(&mut sim, &builds, lazy, 0.45, 1.0);
    assert_eq!(probe(&sim, lazy).frames, [(NodeId(0), 0), (NodeId(0), 1)]);
    assert_eq!(sim.built_nodes(), 2);
}

#[test]
fn a_lazy_node_is_built_at_its_first_timer() {
    let (mut sim, builds) = probing_sim(chain(10.0, 1));
    let lazy = sim.push_lazy_node();
    sim.schedule_timer(SimTime::from_secs_f64(0.5), lazy, 9);
    assert_built_between(&mut sim, &builds, lazy, 0.45, 1.0);
    assert_eq!(probe(&sim, lazy).timers, [9]);
}

#[test]
fn a_lazy_node_is_built_at_its_first_tunnel_delivery() {
    let (mut sim, builds) = probing_sim(chain(500.0, 2));
    sim.push_node(Box::new(Talker {
        tunnel_to: Some(NodeId(1)),
        ..Talker::broadcasts(500, 0)
    }));
    let lazy = sim.push_lazy_node();
    assert_built_between(&mut sim, &builds, lazy, 0.45, 1.0);
    assert_eq!(probe(&sim, lazy).tunnels, [(NodeId(0), 77)]);
}

#[test]
fn a_lazy_node_is_built_at_its_first_collision() {
    // Nodes 0 and 2 are hidden from each other and both transmit at once
    // (rushed, no backoff): the lazy middle node only ever hears noise.
    let (mut sim, builds) = probing_sim(chain(25.0, 3));
    let rushed = || {
        Box::new(Talker {
            rushed: true,
            ..Talker::broadcasts(500, 1)
        })
    };
    sim.push_node(rushed());
    let lazy = sim.push_lazy_node();
    sim.push_node(rushed());
    // The frames are on the air from 0.5 s until their end, 5 ms later.
    assert_built_between(&mut sim, &builds, lazy, 0.503, 1.0);
    let p = probe(&sim, lazy);
    assert_eq!((p.collisions, p.frames.len()), (2, 0));
}

#[test]
fn reading_builds_the_instance_later_events_reach() {
    let (mut sim, builds) = probing_sim(chain(10.0, 2));
    sim.push_node(Box::new(Talker::broadcasts(500, 3)));
    let lazy = sim.push_lazy_node();
    let read = sim.logic(lazy) as *const dyn NodeLogic<P> as *const ();
    assert_eq!(builds.get(), 1, "the read builds the node");
    sim.run_until(SimTime::from_secs_f64(1.0));
    assert_eq!(builds.get(), 1, "dispatch reuses the read's instance");
    assert_eq!(
        sim.logic(lazy) as *const dyn NodeLogic<P> as *const (),
        read
    );
    let p = probe(&sim, lazy);
    assert_eq!(p.frames.len(), 3);
    assert!(!p.started, "built before start, yet never started");
}

#[test]
fn a_lazy_node_held_down_drops_frames_unbuilt() {
    struct AlwaysDown;
    impl FaultHook for AlwaysDown {
        fn down_until(&self, now: SimTime, node: NodeId) -> Option<SimTime> {
            (node == NodeId(1)).then(|| now + SimDuration::from_secs(10))
        }
    }
    let (mut sim, builds) = probing_sim(chain(10.0, 2));
    sim.set_fault_hook(Box::new(AlwaysDown));
    sim.push_node(Box::new(Talker::broadcasts(100, 3)));
    let lazy = sim.push_lazy_node();
    sim.run_until(SimTime::from_secs_f64(1.0));
    assert_eq!(sim.metrics().get("fault_rx_while_down"), 3);
    assert_eq!(builds.get(), 0);
    assert!(sim.built_logic(lazy).is_none());
}

#[test]
fn lazy_and_built_idle_nodes_give_the_same_run() {
    // Idle listeners (their start does nothing but mark a flag) pushed
    // built or lazy: staggered starts, traffic and collisions alike.
    let run = |lazy: bool| {
        let (mut sim, _) = probing_sim(chain(12.0, 6));
        for i in 0..6 {
            if i % 3 == 0 {
                sim.push_node(Box::new(Talker::broadcasts(50 + 30 * i, 8)));
            } else if lazy {
                sim.push_lazy_node();
            } else {
                sim.push_node(Box::new(Probe::default()));
            }
        }
        sim.stagger_starts(SimDuration::from_millis(200));
        sim.run_until(SimTime::from_secs_f64(3.0));
        let heard: Vec<(Vec<(NodeId, P)>, u32)> = [1, 2, 4, 5]
            .map(|i| {
                let p = probe(&sim, NodeId(i));
                (p.frames.clone(), p.collisions)
            })
            .into();
        (sim.metrics().clone(), heard)
    };
    let (built, lazy) = (run(false), run(true));
    assert!(built.0.frames_delivered > 0);
    assert_eq!(built, lazy);
}

#[test]
#[should_panic(expected = "has no start time")]
fn a_lazy_node_takes_no_start_time() {
    let (mut sim, _) = probing_sim(chain(10.0, 1));
    let lazy = sim.push_lazy_node();
    sim.set_start_time(lazy, SimTime::from_secs_f64(1.0));
}

#[test]
#[should_panic(expected = "without a node factory")]
fn a_lazy_node_needs_a_factory() {
    let mut sim: Simulator<P> = Simulator::new(chain(10.0, 1), RadioConfig::default(), 7);
    sim.push_lazy_node();
}
