//! Property-based tests of the simulator substrate, driven by the
//! in-repo deterministic PCG32 generator: each test checks its property
//! over many randomized cases from a fixed seed, so failures reproduce
//! exactly.

use liteworp_netsim::field::{Field, NodeId, Position};
use liteworp_netsim::frame::{airtime, Dest, Frame, FrameSpec, TxPower};
use liteworp_netsim::medium::{Interference, Medium, TxRecord};
use liteworp_netsim::prelude::{Context, NodeLogic, RadioConfig, SimDuration, SimTime, Simulator};
use liteworp_netsim::rng::{Pcg32, Rng};
use std::any::Any;

const CASES: u64 = 32;

fn arb_positions(rng: &mut Pcg32, n: usize) -> Vec<Position> {
    (0..n)
        .map(|_| Position::new(rng.gen_range(0.0f64..200.0), rng.gen_range(0.0f64..200.0)))
        .collect()
}

// ----------------------------------------------------------------------
// Field geometry.
// ----------------------------------------------------------------------

#[test]
fn in_range_is_symmetric_and_irreflexive() {
    let mut rng = Pcg32::seed_from_u64(0x6669_6501);
    for _ in 0..CASES {
        let field = Field::from_positions(200.0, 30.0, arb_positions(&mut rng, 12));
        for a in 0..12u32 {
            assert!(!field.in_range(NodeId(a), NodeId(a)));
            for b in 0..12u32 {
                assert_eq!(
                    field.in_range(NodeId(a), NodeId(b)),
                    field.in_range(NodeId(b), NodeId(a))
                );
            }
        }
    }
}

#[test]
fn hop_distance_satisfies_triangle_like_bounds() {
    let mut rng = Pcg32::seed_from_u64(0x6669_6502);
    for _ in 0..CASES {
        let field = Field::from_positions(200.0, 30.0, arb_positions(&mut rng, 10));
        for a in 0..10u32 {
            assert_eq!(field.hop_distance(NodeId(a), NodeId(a)), Some(0));
            for b in 0..10u32 {
                let d = field.hop_distance(NodeId(a), NodeId(b));
                assert_eq!(d, field.hop_distance(NodeId(b), NodeId(a)));
                if field.in_range(NodeId(a), NodeId(b)) {
                    assert_eq!(d, Some(1));
                }
                if let Some(h) = d {
                    // h hops cannot cover more than h * range meters.
                    assert!(field.distance(NodeId(a), NodeId(b)) <= h as f64 * 30.0 + 1e-9);
                }
            }
        }
    }
}

#[test]
fn connectivity_matches_pairwise_reachability() {
    let mut rng = Pcg32::seed_from_u64(0x6669_6503);
    for _ in 0..CASES {
        let field = Field::from_positions(200.0, 30.0, arb_positions(&mut rng, 8));
        let all_reachable = (1..8u32).all(|b| field.hop_distance(NodeId(0), NodeId(b)).is_some());
        assert_eq!(field.is_connected(), all_reachable);
    }
}

// ----------------------------------------------------------------------
// Frames and airtime.
// ----------------------------------------------------------------------

#[test]
fn airtime_is_monotone_in_size() {
    let mut rng = Pcg32::seed_from_u64(0x6169_7201);
    for _ in 0..CASES {
        let bytes = rng.gen_range(0usize..10_000);
        let rate = rng.gen_range(1u64..10_000_000);
        let t1 = airtime(bytes, rate);
        let t2 = airtime(bytes + 1, rate);
        assert!(t2 >= t1);
    }
}

#[test]
fn power_scaling_expands_range() {
    let mut rng = Pcg32::seed_from_u64(0x6169_7202);
    for _ in 0..CASES {
        let r = rng.gen_range(1.0f64..100.0);
        let mult = rng.gen_range(1.0f64..10.0);
        assert!(TxPower::High(mult).effective_range(r) >= TxPower::Normal.effective_range(r));
    }
}

#[test]
fn frame_addressing_is_exact() {
    let mut rng = Pcg32::seed_from_u64(0x6169_7203);
    for _ in 0..CASES {
        let tx = rng.gen_range(0u32..8);
        let dst = rng.gen_range(0u32..8);
        let probe = rng.gen_range(0u32..8);
        let f = Frame {
            transmitter: NodeId(tx),
            dest: Dest::Unicast(NodeId(dst)),
            payload: 0u8,
            bytes: 10,
            power: TxPower::Normal,
        };
        assert_eq!(f.addressed_to(NodeId(probe)), probe == dst);
    }
}

// ----------------------------------------------------------------------
// Medium: collision predicate invariants.
// ----------------------------------------------------------------------

/// Whether transmission `seq` is lost at `receiver` (at `pos`).
fn collides(m: &Medium, seq: u64, receiver: NodeId, pos: Position) -> bool {
    let mut gathered = Interference::default();
    m.gather(seq, &mut gathered);
    gathered.collides(receiver, pos)
}

#[test]
fn lone_transmission_never_collides() {
    let mut rng = Pcg32::seed_from_u64(0x6d65_6401);
    for _ in 0..CASES {
        let x = rng.gen_range(0.0f64..100.0);
        let start = rng.gen_range(0u64..1000);
        let len = rng.gen_range(1u64..100);
        let rx = rng.gen_range(0.0f64..100.0);
        let mut m = Medium::new(1.0);
        m.begin(TxRecord {
            seq: 1,
            transmitter: NodeId(0),
            origin: Position::new(x, 0.0),
            start: SimTime::from_micros(start),
            end: SimTime::from_micros(start + len),
            range: 30.0,
        });
        assert!(!collides(&m, 1, NodeId(9), Position::new(rx, 0.0)));
    }
}

#[test]
fn collision_is_mutual_for_cocoverage() {
    let mut rng = Pcg32::seed_from_u64(0x6d65_6402);
    for _ in 0..CASES {
        // Two transmitters near each other, receiver in range of both:
        // if the intervals overlap, both frames are lost at the receiver.
        let d = rng.gen_range(0.0f64..25.0);
        let s1 = rng.gen_range(0u64..100);
        let s2 = rng.gen_range(0u64..100);
        let len = rng.gen_range(10u64..50);
        let mut m = Medium::new(1.0);
        let mk = |seq, x: f64, start: u64| TxRecord {
            seq,
            transmitter: NodeId(seq as u32),
            origin: Position::new(x, 0.0),
            start: SimTime::from_micros(start),
            end: SimTime::from_micros(start + len),
            range: 30.0,
        };
        m.begin(mk(1, 0.0, s1));
        m.begin(mk(2, d, s2));
        let rx = Position::new(d / 2.0, 0.0);
        let overlap = s1 < s2 + len && s2 < s1 + len;
        assert_eq!(collides(&m, 1, NodeId(9), rx), overlap);
        assert_eq!(collides(&m, 2, NodeId(9), rx), overlap);
    }
}

// ----------------------------------------------------------------------
// Simulator: conservation of deliveries.
// ----------------------------------------------------------------------

#[test]
fn delivery_accounting_is_conserved() {
    struct Chatter;
    impl NodeLogic<u8> for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u8>, t: u64) {
            ctx.send(FrameSpec::new(Dest::Broadcast, t as u8, 20));
            if t < 10 {
                ctx.set_timer(SimDuration::from_millis(37), t + 1);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut meta = Pcg32::seed_from_u64(0x7369_6d01);
    for _ in 0..16 {
        let seed = meta.gen_range(0u64..50);
        let n = meta.gen_range(2usize..8);
        let mut rng = Pcg32::seed_from_u64(seed);
        let field = Field::uniform_random(n, 60.0, 30.0, &mut rng);
        let mut sim = Simulator::new(field, RadioConfig::default(), seed);
        for _ in 0..n {
            sim.push_node(Box::new(Chatter));
        }
        sim.run_until(SimTime::from_secs_f64(5.0));
        let m = sim.metrics();
        // Every potential reception is delivered, collided, or lost to
        // noise; none invented. With noise off:
        assert_eq!(m.frames_lost_noise, 0);
        // Each frame can be received by at most n-1 nodes.
        assert!(m.frames_delivered + m.frames_collided <= m.frames_sent * (n as u64 - 1));
        // Everyone transmitted 11 frames.
        assert_eq!(m.frames_sent, 11 * n as u64, "seed {seed} n {n}");
    }
}
