//! Integration tests of the on-demand routing protocol over the simulated
//! radio: flood propagation, reverse-path replies, route caching and
//! eviction, data forwarding, and the LITEWORP admission interplay.

use liteworp::types::NodeId as CoreId;
use liteworp_netsim::field::{Field, NodeId as SimId, Position};
use liteworp_netsim::frame::Frame;
use liteworp_netsim::node::{Context, NodeLogic};
use liteworp_netsim::prelude::{RadioConfig, SimDuration, SimTime, Simulator};
use liteworp_routing::bootstrap::preload_liteworp;
use liteworp_routing::node::ProtocolNode;
use liteworp_routing::params::NodeParams;
use liteworp_routing::Packet;
use std::any::Any;

/// A 6-node chain, 25 m spacing (range 30 m): 0-1-2-3-4-5.
fn chain_field(n: usize) -> Field {
    Field::from_positions(
        1000.0,
        30.0,
        (0..n)
            .map(|i| Position::new(25.0 * i as f64, 0.0))
            .collect(),
    )
}

fn build_chain(n: usize, protected: bool, seed: u64) -> Simulator<Packet> {
    let field = chain_field(n);
    let params = NodeParams {
        total_nodes: n as u32,
        liteworp: protected.then(Default::default),
        data_interval_mean: None, // tests drive traffic explicitly
        ..NodeParams::default()
    };
    let mut sim = Simulator::new(field, RadioConfig::default(), seed);
    for i in 0..n {
        let mut node = ProtocolNode::new(CoreId(i as u32), params.clone());
        if protected {
            preload_liteworp(
                node.liteworp_mut().expect("protected"),
                SimId(i as u32),
                sim.field(),
            );
        }
        sim.push_node(Box::new(node));
    }
    sim
}

fn node(sim: &Simulator<Packet>, i: u32) -> &ProtocolNode {
    sim.logic(SimId(i)).as_any().downcast_ref().expect("node")
}

/// Node 0 is the only traffic source; with random destinations over the
/// whole chain, multihop routes must form and data must flow end to end.
#[test]
fn route_forms_along_the_chain_and_data_flows() {
    let n = 6;
    let field = chain_field(n);
    let params = |traffic| NodeParams {
        total_nodes: n as u32,
        liteworp: Some(Default::default()),
        data_interval_mean: traffic,
        ..NodeParams::default()
    };
    let mut sim = Simulator::new(field, RadioConfig::default(), 3);
    for i in 0..n {
        let traffic = if i == 0 {
            Some(SimDuration::from_secs(5))
        } else {
            None
        };
        let mut node = ProtocolNode::new(CoreId(i as u32), params(traffic));
        preload_liteworp(node.liteworp_mut().unwrap(), SimId(i as u32), sim.field());
        sim.push_node(Box::new(node));
    }
    sim.run_until(SimTime::from_secs_f64(300.0));
    let src = node(&sim, 0);
    assert!(
        !src.route_log().is_empty(),
        "source never established a route"
    );
    // Every route from node 0 must use node 1 as next hop (chain).
    for rec in src.route_log() {
        if rec.dest != CoreId(1) {
            assert!(
                rec.relays.contains(&CoreId(1)) || rec.dest == CoreId(1),
                "chain routes pass node 1: {rec:?}"
            );
        }
    }
    assert!(
        sim.metrics().get("data_delivered") > 0,
        "no data delivered over the chain"
    );
}

#[test]
fn routes_expire_and_are_rediscovered() {
    let n = 4;
    let field = chain_field(n);
    let params = NodeParams {
        total_nodes: 2, // node 0 can only ever pick node 1
        liteworp: Some(Default::default()),
        data_interval_mean: Some(SimDuration::from_secs(8)),
        route_timeout: SimDuration::from_secs(20),
        traffic_warmup: SimDuration::from_secs(1),
        ..NodeParams::default()
    };
    let mut sim = Simulator::new(field, RadioConfig::default(), 5);
    for i in 0..n {
        let traffic = i == 0;
        let mut p = params.clone();
        if !traffic {
            p.data_interval_mean = None;
        }
        let mut node = ProtocolNode::new(CoreId(i as u32), p);
        preload_liteworp(node.liteworp_mut().unwrap(), SimId(i as u32), sim.field());
        sim.push_node(Box::new(node));
    }
    sim.run_until(SimTime::from_secs_f64(200.0));
    // With a 20 s route lifetime and steady traffic, several discoveries
    // must have happened.
    let discoveries = node(&sim, 0).stats().discoveries;
    assert!(
        discoveries >= 3,
        "expected repeated rediscovery, got {discoveries}"
    );
    let delivered = sim.metrics().get("data_delivered");
    let sent = sim.metrics().get("data_sent");
    assert!(
        delivered * 10 >= sent * 8,
        "chain delivery should be reliable: {delivered}/{sent}"
    );
}

#[test]
fn non_neighbor_unicasts_are_rejected_by_protected_nodes() {
    // Craft a frame from node 0 addressed to node 2 (50 m away, out of
    // range normally) using high power — node 2 must reject it at
    // admission because node 0 is not its neighbor.
    use liteworp_netsim::prelude::{Context, Dest, FrameSpec, NodeLogic};
    use std::any::Any;

    struct Impostor;
    impl NodeLogic<Packet> for Impostor {
        fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
            let pkt = Packet::Data {
                origin: CoreId(0),
                target: CoreId(2),
                seq: 1,
                sender: CoreId(0),
                prev: None,
                next: CoreId(2),
            };
            let bytes = pkt.wire_bytes();
            ctx.send(FrameSpec::new(Dest::Unicast(SimId(2)), pkt, bytes).with_high_power(3.0));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let field = chain_field(3);
    let params = NodeParams {
        total_nodes: 3,
        liteworp: Some(Default::default()),
        data_interval_mean: None,
        ..NodeParams::default()
    };
    let mut sim = Simulator::new(field, RadioConfig::default(), 7);
    sim.push_node(Box::new(Impostor));
    for i in 1..3 {
        let mut node = ProtocolNode::new(CoreId(i), params.clone());
        preload_liteworp(node.liteworp_mut().unwrap(), SimId(i), sim.field());
        sim.push_node(Box::new(node));
    }
    sim.run_until(SimTime::from_secs_f64(5.0));
    let victim = node(&sim, 2);
    assert_eq!(victim.stats().data_delivered, 0, "impostor data accepted");
    assert!(
        victim.stats().frames_rejected > 0,
        "the high-power frame should be rejected at admission"
    );
}

#[test]
fn baseline_accepts_what_protection_rejects() {
    // Same impostor against an unprotected node: accepted.
    use liteworp_netsim::prelude::{Context, Dest, FrameSpec, NodeLogic};
    use std::any::Any;

    struct Impostor;
    impl NodeLogic<Packet> for Impostor {
        fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
            let pkt = Packet::Data {
                origin: CoreId(0),
                target: CoreId(2),
                seq: 1,
                sender: CoreId(0),
                prev: None,
                next: CoreId(2),
            };
            let bytes = pkt.wire_bytes();
            ctx.send(FrameSpec::new(Dest::Unicast(SimId(2)), pkt, bytes).with_high_power(3.0));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let field = chain_field(3);
    let params = NodeParams {
        total_nodes: 3,
        liteworp: None,
        data_interval_mean: None,
        ..NodeParams::default()
    };
    let mut sim = Simulator::new(field, RadioConfig::default(), 7);
    sim.push_node(Box::new(Impostor));
    for i in 1..3 {
        sim.push_node(Box::new(ProtocolNode::new(CoreId(i), params.clone())));
    }
    sim.run_until(SimTime::from_secs_f64(5.0));
    assert_eq!(node(&sim, 2).stats().data_delivered, 1);
}

#[test]
fn protected_chain_matches_baseline_throughput() {
    // LITEWORP should not tax a clean chain measurably.
    let run = |protected: bool| {
        let n = 5;
        let field = chain_field(n);
        let mut sim = Simulator::new(field, RadioConfig::default(), 9);
        for i in 0..n {
            let mut p = NodeParams {
                total_nodes: 2,
                liteworp: protected.then(Default::default),
                data_interval_mean: (i == 0).then(|| SimDuration::from_secs(4)),
                traffic_warmup: SimDuration::from_secs(1),
                ..NodeParams::default()
            };
            if i != 0 {
                p.data_interval_mean = None;
            }
            let mut node = ProtocolNode::new(CoreId(i as u32), p);
            if protected {
                preload_liteworp(node.liteworp_mut().unwrap(), SimId(i as u32), sim.field());
            }
            sim.push_node(Box::new(node));
        }
        sim.run_until(SimTime::from_secs_f64(120.0));
        (
            sim.metrics().get("data_sent"),
            sim.metrics().get("data_delivered"),
        )
    };
    let (bs, bd) = run(false);
    let (ps, pd) = run(true);
    assert!(bs > 0 && ps > 0);
    let base_rate = bd as f64 / bs as f64;
    let prot_rate = pd as f64 / ps as f64;
    assert!(
        (base_rate - prot_rate).abs() < 0.25,
        "throughput diverged: baseline {base_rate:.2} vs protected {prot_rate:.2}"
    );
}

#[test]
fn route_error_absolves_and_purges() {
    // With data-plane monitoring on: a forwarder whose route expired
    // broadcasts a RouteError instead of silently failing; guards waive
    // its obligation and the upstream node drops its stale route.
    use liteworp::config::Config;
    use liteworp::types::{PacketKind, PacketSig};
    use liteworp_netsim::prelude::{Context, Dest, FrameSpec, NodeLogic};
    use std::any::Any;

    // Node 0 injects a data packet to node 1 addressed onward to node 2;
    // node 1 has no route to node 2's target, so it must emit a RouteError.
    struct Injector;
    impl NodeLogic<Packet> for Injector {
        fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
            let pkt = Packet::Data {
                origin: CoreId(0),
                target: CoreId(2),
                seq: 1,
                sender: CoreId(0),
                prev: None,
                next: CoreId(1),
            };
            let bytes = pkt.wire_bytes();
            ctx.send(FrameSpec::new(Dest::Unicast(SimId(1)), pkt, bytes));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let field = chain_field(3);
    let params = NodeParams {
        total_nodes: 3,
        liteworp: Some(Config {
            monitor_data: true,
            ..Config::default()
        }),
        data_interval_mean: None,
        ..NodeParams::default()
    };
    let mut sim = Simulator::new(field, RadioConfig::default(), 13);
    sim.push_node(Box::new(Injector));
    for i in 1..3 {
        let mut node = ProtocolNode::new(CoreId(i), params.clone());
        preload_liteworp(node.liteworp_mut().unwrap(), SimId(i), sim.field());
        sim.push_node(Box::new(node));
    }
    sim.run_until(SimTime::from_secs_f64(10.0));
    // Node 1 could not forward (it never discovered a route to node 2)
    // and announced it.
    assert_eq!(node(&sim, 1).stats().data_no_route, 1);
    // No guard charged node 1 with a drop after the absolution.
    assert_eq!(sim.metrics().get("suspicions"), 0);
    // The RouteError named exactly the packet that could not be carried.
    let expected_sig = PacketSig {
        kind: PacketKind::Data,
        origin: CoreId(0),
        target: CoreId(2),
        seq: 1,
    };
    assert_eq!(expected_sig.kind, PacketKind::Data);
}

#[test]
fn reverse_pointers_and_next_hops_are_queryable() {
    let mut sim = build_chain(4, true, 11);
    sim.run_until(SimTime::from_secs_f64(1.0));
    let n0 = node(&sim, 0);
    assert_eq!(n0.route_next_hop(CoreId(3)), None, "no traffic, no route");
    assert_eq!(n0.reverse_hop(CoreId(3), 1), None);
    assert!(n0.route_relays(CoreId(3)).is_none());
}

/// A destination that hears several copies of one route request (one per
/// relay of a diamond) replies exactly once, to the copy it heard first.
#[test]
fn destination_replies_once_per_request() {
    use liteworp_netsim::prelude::{Context, Frame, NodeLogic};
    use std::any::Any;
    use std::collections::{BTreeMap, BTreeSet};

    // Source 0, relays 1 and 2 (in range of each other, so carrier sense
    // keeps their rebroadcasts apart), destination 3 out of the source's
    // range, and a passive listener 4 that hears every node but 0.
    let positions = vec![
        Position::new(0.0, 20.0),
        Position::new(20.0, 30.0),
        Position::new(20.0, 10.0),
        Position::new(40.0, 20.0),
        Position::new(45.0, 25.0),
    ];

    type Key = (CoreId, u64);

    /// Request copies addressed to the destination, by request, with the
    /// relays they came from.
    struct Destination {
        inner: ProtocolNode,
        copies: BTreeMap<Key, BTreeSet<CoreId>>,
    }
    impl NodeLogic<Packet> for Destination {
        fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
            self.inner.handle_start(ctx);
        }
        fn on_frame(&mut self, ctx: &mut Context<'_, Packet>, frame: &Frame<Packet>) {
            if let Packet::RouteRequest { sig, sender, .. } = &frame.payload {
                if sig.target == self.inner.id() {
                    self.copies
                        .entry((sig.origin, sig.seq))
                        .or_default()
                        .insert(*sender);
                }
            }
            self.inner.handle_frame(ctx, frame);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
            self.inner.handle_timer(ctx, token);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// The link-layer next hops of every reply the destination sent, by
    /// request. A link-layer retry repeats a next hop; a second reply to
    /// another copy names the other relay.
    #[derive(Default)]
    struct Listener {
        replies: BTreeMap<Key, BTreeSet<CoreId>>,
    }
    impl NodeLogic<Packet> for Listener {
        fn on_frame(&mut self, _ctx: &mut Context<'_, Packet>, frame: &Frame<Packet>) {
            if let Packet::RouteReply {
                sig, sender, next, ..
            } = &frame.payload
            {
                if *sender == CoreId(3) {
                    self.replies
                        .entry((sig.target, sig.seq))
                        .or_default()
                        .insert(*next);
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let mut multi_copy_requests = 0;
    for seed in 0..4 {
        let field = Field::from_positions(100.0, 30.0, positions.clone());
        let quiet = NodeParams {
            total_nodes: 5,
            data_interval_mean: None,
            ..NodeParams::default()
        };
        let source = NodeParams {
            data_interval_mean: Some(SimDuration::from_secs_f64(0.5)),
            traffic_warmup: SimDuration::from_secs(1),
            dest_pool: Some(vec![CoreId(3)]),
            ..quiet.clone()
        };
        let mut sim = Simulator::new(field, RadioConfig::default(), seed);
        for i in 0..4u32 {
            let params = if i == 0 {
                source.clone()
            } else {
                quiet.clone()
            };
            let mut node = ProtocolNode::new(CoreId(i), params);
            preload_liteworp(
                node.liteworp_mut().expect("protected"),
                SimId(i),
                sim.field(),
            );
            if i == 3 {
                sim.push_node(Box::new(Destination {
                    inner: node,
                    copies: BTreeMap::new(),
                }));
            } else {
                sim.push_node(Box::new(node));
            }
        }
        sim.push_node(Box::new(Listener::default()));
        sim.run_until(SimTime::from_secs_f64(60.0));

        let dest: &Destination = sim.logic(SimId(3)).as_any().downcast_ref().expect("dest");
        let listener: &Listener = sim
            .logic(SimId(4))
            .as_any()
            .downcast_ref()
            .expect("listener");
        assert!(
            !dest.copies.is_empty(),
            "seed {seed}: no request reached the destination"
        );
        for (key, relays) in &dest.copies {
            let replies = listener.replies.get(key).map_or(0, BTreeSet::len);
            assert_eq!(replies, 1, "seed {seed}: request {key:?} via {relays:?}");
            multi_copy_requests += usize::from(relays.len() > 1);
        }
    }
    assert!(
        multi_copy_requests > 0,
        "no request reached the destination twice"
    );
}

/// Records every `EXPIRE` timer a node handles (token kind 2, the top
/// byte of the token) and the watch rows it removed, and otherwise runs
/// the node unchanged.
struct ExpiryRecorder {
    inner: ProtocolNode,
    log: std::rc::Rc<std::cell::RefCell<ExpiryLog>>,
}

/// What the recorders saw: `EXPIRE` timers fired, and `(time, node,
/// rows removed, of which unforwarded)` for each timer that removed any.
#[derive(Default)]
struct ExpiryLog {
    timers: u64,
    pops: Vec<(u64, u32, usize, u64)>,
}

impl ExpiryRecorder {
    /// Rows held, and unforwarded rows expired so far.
    fn watch(&self) -> (usize, u64) {
        self.inner.liteworp().map_or((0, 0), |lw| {
            let m = lw.monitor();
            (m.watch().len(), m.watch_expiries())
        })
    }
}

impl NodeLogic<Packet> for ExpiryRecorder {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        self.inner.on_start(ctx);
    }
    fn on_frame(&mut self, ctx: &mut Context<'_, Packet>, frame: &Frame<Packet>) {
        self.inner.on_frame(ctx, frame);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
        let (held, expired) = self.watch();
        self.inner.on_timer(ctx, token);
        if token >> 56 == 2 {
            let mut log = self.log.borrow_mut();
            log.timers += 1;
            let (now_held, now_expired) = self.watch();
            if now_held < held {
                let at = (ctx.now().as_micros(), self.inner.id().0);
                log.pops
                    .push((at.0, at.1, held - now_held, now_expired - expired));
            }
        }
    }
    fn on_collision(&mut self, ctx: &mut Context<'_, Packet>) {
        self.inner.on_collision(ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A 100-node protected run removes the same watch rows at the same ticks
/// as when the expiry timer fired every 250 ms — the record of every
/// removal digests to the value that code produced — but fires only the
/// ticks that remove something: that code fired 45 607 `EXPIRE` timers
/// in this run, 28 204 of which removed rows. (A busy 100-node guard
/// removes rows at most ticks, so fewer are skipped here than at 10⁵
/// nodes.)
#[test]
fn expiry_fires_only_when_due_and_pops_as_before() {
    use liteworp_runner::cache::fnv64;
    use liteworp_runner::rng::Pcg32;
    let mut rng = Pcg32::seed_from_u64(77);
    let field = Field::with_average_neighbors(100, 8.0, 30.0, &mut rng);
    let params = std::sync::Arc::new(NodeParams {
        total_nodes: 100,
        ..NodeParams::default()
    });
    let log = std::rc::Rc::default();
    let mut sim = Simulator::new(field, RadioConfig::default(), 77);
    for i in 0..100 {
        let mut inner = ProtocolNode::new(CoreId(i), std::sync::Arc::clone(&params));
        preload_liteworp(
            inner.liteworp_mut().expect("protected"),
            SimId(i),
            sim.field(),
        );
        sim.push_node(Box::new(ExpiryRecorder {
            inner,
            log: std::rc::Rc::clone(&log),
        }));
    }
    sim.run_until(SimTime::from_secs_f64(120.0));
    let log = log.borrow();
    let digest = format!("{:016x}", fnv64(format!("{:?}", log.pops).as_bytes()));
    assert_eq!(
        digest,
        "6d31beaefe037fd7",
        "{} popping ticks",
        log.pops.len()
    );
    assert_eq!(log.pops.len(), 28_204);
    assert_eq!(log.timers, 28_204, "every timer that fires is due");
}
