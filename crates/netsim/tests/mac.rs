//! Integration tests of the MAC layer: ACK-emulated unicast retries,
//! collision indications, and carrier-sense behavior under contention.

use liteworp_netsim::field::{Field, NodeId, Position};
use liteworp_netsim::prelude::{
    Context, Dest, Frame, FrameSpec, NodeLogic, RadioConfig, SimTime, Simulator,
};
use std::any::Any;

type P = u32;

/// Sends one unicast to node 1 at t = 0.
struct OneShot {
    rushed: bool,
}
impl NodeLogic<P> for OneShot {
    fn on_start(&mut self, ctx: &mut Context<'_, P>) {
        let mut spec = FrameSpec::new(Dest::Unicast(NodeId(1)), 7, 25);
        if self.rushed {
            spec = spec.rushed();
        }
        ctx.send(spec);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Jams the channel near the receiver for a while (rushed back-to-back
/// frames), then goes quiet.
struct Jammer {
    bursts: u32,
}
impl NodeLogic<P> for Jammer {
    fn on_start(&mut self, ctx: &mut Context<'_, P>) {
        for _ in 0..self.bursts {
            ctx.send(FrameSpec::new(Dest::Broadcast, 0, 25).rushed());
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
    received: u32,
    collisions: u32,
}
impl NodeLogic<P> for Sink {
    fn on_frame(&mut self, _ctx: &mut Context<'_, P>, f: &Frame<P>) {
        // Count only the unicast under test: `addressed_to` would also
        // match the jammer's broadcasts, which can land cleanly once the
        // colliding transmissions are out of the way.
        if f.dest == Dest::Unicast(NodeId(1)) {
            self.received += 1;
        }
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

/// Sender at 0, receiver at 25 m, hidden jammer at 50 m (in range of the
/// receiver, out of range of the sender).
fn hidden_terminal_field() -> Field {
    Field::from_positions(
        100.0,
        30.0,
        vec![
            Position::new(0.0, 0.0),
            Position::new(25.0, 0.0),
            Position::new(50.0, 0.0),
        ],
    )
}

#[test]
fn unicast_retry_recovers_from_hidden_terminal_collision() {
    // The jammer destroys the first transmission(s) at the receiver; the
    // sender cannot hear the jammer and transmits anyway, then retries
    // after the (emulated) missing ACK and eventually gets through.
    let mut sim = Simulator::new(hidden_terminal_field(), RadioConfig::default(), 3);
    sim.push_node(Box::new(OneShot { rushed: true }));
    sim.push_node(Box::new(Sink::default()));
    sim.push_node(Box::new(Jammer { bursts: 2 }));
    sim.run_until(SimTime::from_secs_f64(2.0));
    let sink: &Sink = sim.logic(NodeId(1)).as_any().downcast_ref().unwrap();
    assert_eq!(sink.received, 1, "the retry should eventually deliver");
    assert!(
        sim.metrics().get("unicast_retries") >= 1,
        "no retry happened: {:?}",
        sim.metrics()
    );
    assert!(sink.collisions >= 1, "receiver should have sensed the jam");
}

#[test]
fn retries_are_bounded_and_exhaustion_is_counted() {
    // Unicast into the void: the addressed node exists but is far out of
    // range, so every attempt fails and the budget runs out.
    let field = Field::from_positions(
        1000.0,
        30.0,
        vec![Position::new(0.0, 0.0), Position::new(900.0, 0.0)],
    );
    let radio = RadioConfig {
        unicast_retries: 3,
        ..RadioConfig::default()
    };
    let mut sim = Simulator::new(field, radio, 5);
    sim.push_node(Box::new(OneShot { rushed: false }));
    sim.push_node(Box::new(Sink::default()));
    sim.run_until(SimTime::from_secs_f64(2.0));
    assert_eq!(sim.metrics().frames_sent, 4, "original + 3 retries");
    assert_eq!(sim.metrics().get("unicast_retries"), 3);
    assert_eq!(sim.metrics().get("unicast_exhausted"), 1);
}

#[test]
fn retries_can_be_disabled() {
    let field = Field::from_positions(
        1000.0,
        30.0,
        vec![Position::new(0.0, 0.0), Position::new(900.0, 0.0)],
    );
    let radio = RadioConfig {
        unicast_retries: 0,
        ..RadioConfig::default()
    };
    let mut sim = Simulator::new(field, radio, 5);
    sim.push_node(Box::new(OneShot { rushed: false }));
    sim.push_node(Box::new(Sink::default()));
    sim.run_until(SimTime::from_secs_f64(2.0));
    assert_eq!(sim.metrics().frames_sent, 1);
    assert_eq!(sim.metrics().get("unicast_exhausted"), 1);
}

#[test]
fn broadcasts_are_never_retried() {
    struct Caster;
    impl NodeLogic<P> for Caster {
        fn on_start(&mut self, ctx: &mut Context<'_, P>) {
            ctx.send(FrameSpec::new(Dest::Broadcast, 7, 25));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    // Nobody in range at all.
    let field = Field::from_positions(
        1000.0,
        30.0,
        vec![Position::new(0.0, 0.0), Position::new(900.0, 0.0)],
    );
    let mut sim = Simulator::new(field, RadioConfig::default(), 5);
    sim.push_node(Box::new(Caster));
    sim.push_node(Box::new(Sink::default()));
    sim.run_until(SimTime::from_secs_f64(2.0));
    assert_eq!(sim.metrics().frames_sent, 1);
    assert_eq!(sim.metrics().get("unicast_retries"), 0);
}

#[test]
fn collision_indication_fires_per_destroyed_reception() {
    // Two hidden transmitters collide at the middle node repeatedly.
    let mut sim = Simulator::new(hidden_terminal_field(), RadioConfig::default(), 7);
    sim.push_node(Box::new(Jammer { bursts: 3 }));
    sim.push_node(Box::new(Sink::default()));
    sim.push_node(Box::new(Jammer { bursts: 3 }));
    sim.run_until(SimTime::from_secs_f64(2.0));
    let sink: &Sink = sim.logic(NodeId(1)).as_any().downcast_ref().unwrap();
    assert_eq!(
        sink.collisions as u64,
        sim.metrics().frames_collided,
        "every destroyed reception at the only receiver must be indicated"
    );
    assert!(sink.collisions > 0);
}

#[test]
fn external_timers_reach_the_node() {
    struct TimerSink {
        tokens: Vec<u64>,
    }
    impl NodeLogic<P> for TimerSink {
        fn on_timer(&mut self, _ctx: &mut Context<'_, P>, token: u64) {
            self.tokens.push(token);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let field = Field::from_positions(10.0, 30.0, vec![Position::new(0.0, 0.0)]);
    let mut sim = Simulator::new(field, RadioConfig::default(), 1);
    sim.push_node(Box::new(TimerSink { tokens: vec![] }));
    sim.schedule_timer(SimTime::from_secs_f64(2.0), NodeId(0), 42);
    sim.schedule_timer(SimTime::from_secs_f64(1.0), NodeId(0), 7);
    sim.run_until(SimTime::from_secs_f64(1.5));
    {
        let s: &TimerSink = sim.logic(NodeId(0)).as_any().downcast_ref().unwrap();
        assert_eq!(s.tokens, vec![7], "only the first timer has fired");
    }
    assert!(sim.has_pending_events());
    sim.run_until(SimTime::from_secs_f64(3.0));
    let s: &TimerSink = sim.logic(NodeId(0)).as_any().downcast_ref().unwrap();
    assert_eq!(s.tokens, vec![7, 42]);
    assert!(!sim.has_pending_events());
}

#[test]
#[should_panic(expected = "timer scheduled in the past")]
fn external_timers_cannot_be_scheduled_in_the_past() {
    struct Idle;
    impl NodeLogic<P> for Idle {
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let field = Field::from_positions(10.0, 30.0, vec![Position::new(0.0, 0.0)]);
    let mut sim = Simulator::new(field, RadioConfig::default(), 1);
    sim.push_node(Box::new(Idle));
    sim.run_until(SimTime::from_secs_f64(2.0));
    // Now is 2 s: a timer at exactly now is fine, one before it is not.
    sim.schedule_timer(SimTime::from_secs_f64(2.0), NodeId(0), 1);
    sim.schedule_timer(SimTime::from_secs_f64(1.0), NodeId(0), 2);
}
