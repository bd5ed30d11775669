//! Property-based tests of the routing layer over random small
//! topologies, driven by the in-repo deterministic PCG32 generator.

use liteworp::config::Config;
use liteworp::keys::KeyStore;
use liteworp::types::NodeId as CoreId;
use liteworp::Liteworp;
use liteworp_netsim::field::{Field, NodeId as SimId, Position};
use liteworp_netsim::prelude::{
    Context, Metrics, NodeLogic, RadioConfig, SimDuration, SimTime, Simulator,
};
use liteworp_netsim::rng::{Pcg32, Rng};
use liteworp_routing::bootstrap::{preload_liteworp, SharedAdjacency};
use liteworp_routing::flood::FloodTable;
use liteworp_routing::node::ProtocolNode;
use liteworp_routing::params::{DiscoveryMode, NodeParams};
use liteworp_routing::Packet;
use std::any::Any;
use std::collections::btree_map::{BTreeMap, Entry};

const CASES: u64 = 12;

fn arb_field(rng: &mut Pcg32, n: usize) -> Field {
    let positions = (0..n)
        .map(|_| Position::new(rng.gen_range(0.0f64..120.0), rng.gen_range(0.0f64..120.0)))
        .collect();
    Field::from_positions(120.0, 30.0, positions)
}

fn build(field: &Field, seed: u64, traffic_mean: f64) -> Simulator<Packet> {
    let n = field.len();
    let params = NodeParams {
        total_nodes: n as u32,
        data_interval_mean: Some(SimDuration::from_secs_f64(traffic_mean)),
        traffic_warmup: SimDuration::from_secs(5),
        ..NodeParams::default()
    };
    let mut sim = Simulator::new(field.clone(), RadioConfig::default(), seed);
    for i in 0..n {
        let mut node = ProtocolNode::new(CoreId(i as u32), params.clone());
        preload_liteworp(node.liteworp_mut().unwrap(), SimId(i as u32), sim.field());
        sim.push_node(Box::new(node));
    }
    sim
}

fn node(sim: &Simulator<Packet>, i: u32) -> &ProtocolNode {
    sim.logic(SimId(i)).as_any().downcast_ref().expect("node")
}

/// No route is ever established to a destination the source cannot
/// reach in the disc graph, and every route's relay chain is
/// physically realizable (consecutive relays in radio range).
#[test]
fn routes_only_exist_where_physics_allows() {
    let mut rng = Pcg32::seed_from_u64(0x7274_6501);
    for _ in 0..CASES {
        let field = arb_field(&mut rng, 12);
        let seed = rng.gen_range(0u64..1000);
        let mut sim = build(&field, seed, 8.0);
        sim.run_until(SimTime::from_secs_f64(120.0));
        for i in 0..12u32 {
            for rec in node(&sim, i).route_log() {
                // Reachability.
                assert!(
                    field.hop_distance(SimId(i), SimId(rec.dest.0)).is_some(),
                    "route from n{i} to unreachable {:?}",
                    rec.dest
                );
                // Physical realizability of the reply path.
                let mut path: Vec<CoreId> = rec.relays.clone();
                path.push(CoreId(i));
                for w in path.windows(2) {
                    assert!(
                        field.in_range(SimId(w[0].0), SimId(w[1].0)),
                        "impossible hop {w:?} in honest route {rec:?}"
                    );
                }
            }
        }
    }
}

/// In an all-honest network, nobody is ever suspected or isolated,
/// regardless of topology or timing.
#[test]
fn honest_networks_never_accuse() {
    let mut rng = Pcg32::seed_from_u64(0x7274_6502);
    for _ in 0..CASES {
        let field = arb_field(&mut rng, 10);
        let seed = rng.gen_range(0u64..1000);
        let mut sim = build(&field, seed, 6.0);
        sim.run_until(SimTime::from_secs_f64(150.0));
        assert_eq!(sim.trace().isolations().count(), 0);
        assert_eq!(sim.metrics().get("alerts_sent"), 0);
    }
}

/// Data conservation: packets delivered never exceed packets sent,
/// and every delivery happened at its true destination.
#[test]
fn data_accounting_is_conserved() {
    let mut rng = Pcg32::seed_from_u64(0x7274_6503);
    for _ in 0..CASES {
        let field = arb_field(&mut rng, 10);
        let seed = rng.gen_range(0u64..1000);
        let mut sim = build(&field, seed, 5.0);
        sim.run_until(SimTime::from_secs_f64(120.0));
        let sent = sim.metrics().get("data_sent");
        let delivered = sim.metrics().get("data_delivered");
        assert!(delivered <= sent, "{delivered} > {sent}");
        let per_node_delivered: u64 = (0..10u32)
            .map(|i| node(&sim, i).stats().data_delivered)
            .sum();
        assert_eq!(per_node_delivered, delivered);
        let per_node_sent: u64 = (0..10u32)
            .map(|i| node(&sim, i).stats().data_originated)
            .sum();
        assert_eq!(per_node_sent, sent);
    }
}

/// The flood table against a `BTreeMap` model of the seen-set and reverse
/// pointers it replaced: random floods from a few origins (the owner's own
/// among them) with clustered seqs, so probe runs collide, and enough keys
/// to cross several doublings. Every insert's verdict (new or already
/// seen) must match the model's; at the end every key ever drawn must be
/// known with the model's reverse hop, and keys never drawn unknown.
#[test]
fn flood_table_matches_a_btreemap_model() {
    let mut rng = Pcg32::seed_from_u64(0x666c_6f01);
    for case in 0..CASES {
        let owner = CoreId(rng.gen_range(0u32..8));
        let mut table = FloodTable::new(owner);
        // `None` marks an own flood: it has no reverse hop.
        let mut model: BTreeMap<(CoreId, u64), Option<CoreId>> = BTreeMap::new();
        // Up to ~2000 distinct keys: past 16 → 32 → … → 4096 slots.
        let ops = rng.gen_range(200usize..3000);
        for _ in 0..ops {
            let origin = CoreId(rng.gen_range(0u32..8));
            let seq = rng.gen_range(0u64..400);
            let hop = CoreId(rng.gen_range(0u32..40));
            let expect_new = !model.contains_key(&(origin, seq));
            if expect_new {
                model.insert((origin, seq), (origin != owner).then_some(hop));
            }
            let got_new = if origin == owner {
                table.insert(owner, seq, owner)
            } else {
                table.insert(origin, seq, hop)
            };
            assert_eq!(got_new, expect_new, "case {case}: insert ({origin}, {seq})");
        }
        for (&(origin, seq), &hop) in &model {
            assert_eq!(
                table.reverse_hop(origin, seq),
                hop,
                "case {case}: reverse_hop({origin}, {seq})"
            );
        }
        for _ in 0..200 {
            let (origin, seq) = (CoreId(rng.gen_range(0u32..12)), rng.gen_range(0u64..600));
            if let Entry::Vacant(unknown) = model.entry((origin, seq)) {
                assert_eq!(table.reverse_hop(origin, seq), None, "case {case}: unknown");
                assert!(
                    table.insert(origin, seq, CoreId(1)),
                    "case {case}: unknown ({origin}, {seq}) reads as seen"
                );
                unknown.insert((origin != owner).then_some(CoreId(1)));
            }
        }
        // Re-inserting every known key is refused and changes nothing.
        for (&(origin, seq), &hop) in &model {
            assert!(!table.insert(origin, seq, CoreId(39)), "case {case}");
            assert_eq!(table.reverse_hop(origin, seq), hop, "case {case}");
        }
    }
}

/// The three ways a node gets its two-hop tables answer every query
/// alike: a view into the deployment's shared adjacency,
/// `preload_liteworp`'s private arena, and discovery's `add_neighbor` plus
/// `set_neighbor_list` (lists announced out of order, shuffled, with a
/// repeat). Fields alternate sparse and dense, and each has two isolated
/// stragglers.
#[test]
fn shared_private_and_discovered_tables_agree() {
    let mut rng = Pcg32::seed_from_u64(0x7274_6505);
    for case in 0..CASES {
        let n = if case % 2 == 0 { 12 } else { 48 };
        let mut positions: Vec<Position> = (0..n)
            .map(|_| Position::new(rng.gen_range(0.0f64..120.0), rng.gen_range(0.0f64..120.0)))
            .collect();
        // Out of everyone's range, and of each other's.
        positions.push(Position::new(300.0, 300.0));
        positions.push(Position::new(300.0, 220.0));
        let field = Field::from_positions(300.0, 30.0, positions);
        let shared = SharedAdjacency::from_field(&field);
        let ids: Vec<CoreId> = (0..=field.len() as u32).map(CoreId).collect();
        for i in 0..field.len() as u32 {
            let fresh = || Liteworp::new(Config::default(), KeyStore::new(7, CoreId(i)));
            let mut viewed = fresh();
            shared.preload(&mut viewed, SimId(i));
            let mut copied = fresh();
            preload_liteworp(&mut copied, SimId(i), &field);
            let mut discovered = fresh();
            let in_range = field.in_range_of(SimId(i));
            for &nb in in_range {
                discovered.table_mut().add_neighbor(CoreId(nb.0));
            }
            for &nb in in_range.iter().rev() {
                let mut list: Vec<CoreId> =
                    field.in_range_of(nb).iter().map(|x| CoreId(x.0)).collect();
                rng.shuffle(&mut list);
                list.extend(list.first().copied());
                discovered.table_mut().set_neighbor_list(CoreId(nb.0), list);
            }
            let a = viewed.table();
            for other in [&copied, &discovered] {
                let b = other.table();
                assert_eq!(viewed.storage_bytes(), other.storage_bytes(), "node {i}");
                assert!(a.active_neighbors().eq(b.active_neighbors()), "node {i}");
                for &x in &ids {
                    assert_eq!(a.is_neighbor(x), b.is_neighbor(x));
                    assert_eq!(a.is_active_neighbor(x), b.is_active_neighbor(x));
                    assert_eq!(a.neighbor_list_of(x), b.neighbor_list_of(x));
                    for &y in &ids {
                        assert_eq!(a.link_plausible(x, y), b.link_plausible(x, y));
                        assert_eq!(a.is_guard_of(x, y), b.is_guard_of(x, y));
                    }
                }
            }
        }
    }
}

/// Draws one random number at start, so it reads the simulator's stream
/// right after every node started before it.
#[derive(Default)]
struct Dice(Option<u64>);

impl NodeLogic<Packet> for Dice {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        self.0 = Some(ctx.rng().gen_range(0u64..u64::MAX));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A start hook that does nothing, for the reference run.
struct Idle;

impl NodeLogic<Packet> for Idle {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn arb_params(rng: &mut Pcg32) -> NodeParams {
    let collect = SimDuration::from_millis(rng.gen_range(1u64..2000));
    NodeParams {
        total_nodes: rng.gen_range(2u32..500),
        liteworp: (rng.gen_range(0u32..4) > 0).then(Config::default),
        key_seed: rng.gen_range(0u64..u64::MAX),
        route_timeout: SimDuration::from_secs(rng.gen_range(1u64..100)),
        data_interval_mean: (rng.gen_range(0u32..2) == 0)
            .then(|| SimDuration::from_millis(rng.gen_range(1u64..20_000))),
        discovery: match rng.gen_range(0u32..4) {
            0 => DiscoveryMode::Messages { collect },
            1 => DiscoveryMode::LateJoin { collect },
            _ => DiscoveryMode::Preloaded,
        },
        relay_alerts: rng.gen_range(0u32..2) == 0,
        rreq_ttl: (rng.gen_range(0u32..2) == 0).then(|| rng.gen_range(1u32..16) as u8),
        dest_pool: (rng.gen_range(0u32..2) == 0).then(|| vec![CoreId(1)]),
        traffic_warmup: SimDuration::from_millis(rng.gen_range(0u64..60_000)),
        ..NodeParams::default()
    }
}

/// The idle-start rule: for every seeded parameter set it accepts, a
/// preloaded node's `handle_start` sends nothing, sets no timer, records
/// nothing and leaves the random stream where it was. A node started
/// after it draws what it would draw after a node with no start hook.
#[test]
fn an_idle_start_acts_on_nothing_and_draws_nothing() {
    let mut rng = Pcg32::seed_from_u64(0x6964_6c65);
    let field = Field::from_positions(
        100.0,
        30.0,
        vec![Position::new(0.0, 0.0), Position::new(20.0, 0.0)],
    );
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..64 {
        let params = arb_params(&mut rng);
        if !ProtocolNode::start_is_idle(&params) {
            rejected += 1;
            continue;
        }
        accepted += 1;
        let seed = rng.gen_range(0u64..1000);
        let start = |first: Box<dyn NodeLogic<Packet>>| {
            let mut sim = Simulator::new(field.clone(), RadioConfig::default(), seed);
            sim.push_node(first);
            sim.push_node(Box::new(Dice::default()));
            sim.run_until(SimTime::ZERO);
            let dice: &Dice = sim.logic(SimId(1)).as_any().downcast_ref().expect("dice");
            let drawn = dice.0;
            (sim, drawn)
        };
        let mut node = ProtocolNode::new(CoreId(0), params.clone());
        if let Some(lw) = node.liteworp_mut() {
            preload_liteworp(lw, SimId(0), &field);
        }
        let (sim, drawn) = start(Box::new(node));
        let (_, reference) = start(Box::new(Idle));
        assert_eq!(drawn, reference, "start drew randomness: {params:?}");
        assert!(!sim.has_pending_events(), "start acted: {params:?}");
        assert_eq!(sim.metrics(), &Metrics::default(), "{params:?}");
        assert_eq!(sim.trace().events().count(), 0, "{params:?}");
    }
    assert!(
        accepted > 8 && rejected > 8,
        "{accepted} accepted, {rejected} rejected"
    );
}
