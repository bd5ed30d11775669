//! Message-level neighbor discovery integration: the HELLO / reply /
//! announce exchange running over the simulated radio, with no oracle
//! preloading — and LITEWORP still catching a wormhole on the tables it
//! builds itself.

use liteworp::types::NodeId as CoreId;
use liteworp_attacks::wormhole::{ForgeStrategy, WormholeConfig, WormholeNode};
use liteworp_netsim::field::{Field, NodeId as SimId};
use liteworp_netsim::prelude::{RadioConfig, SimDuration, SimTime, Simulator};
use liteworp_netsim::rng::Pcg32;
use liteworp_routing::node::ProtocolNode;
use liteworp_routing::params::{DiscoveryMode, NodeParams};
use liteworp_routing::Packet;

fn message_params(nodes: u32) -> NodeParams {
    NodeParams {
        total_nodes: nodes,
        discovery: DiscoveryMode::Messages {
            collect: SimDuration::from_secs(2),
        },
        ..NodeParams::default()
    }
}

#[test]
fn discovered_tables_match_geometry() {
    let mut rng = Pcg32::seed_from_u64(41);
    let nodes = 25;
    let field = Field::connected_with_average_neighbors(nodes, 8.0, 30.0, 200, &mut rng)
        .expect("connected deployment");
    let mut params = message_params(nodes as u32);
    params.data_interval_mean = None; // discovery only
    let mut sim = Simulator::<Packet>::new(field, RadioConfig::default(), 41);
    for i in 0..nodes {
        sim.push_node(Box::new(ProtocolNode::new(
            CoreId(i as u32),
            params.clone(),
        )));
    }
    sim.stagger_starts(SimDuration::from_secs(3));
    sim.run_until(SimTime::from_secs_f64(10.0));

    let mut discovered_links = 0usize;
    let mut true_links = 0usize;
    let mut spurious = 0usize;
    for i in 0..nodes as u32 {
        let truth: Vec<CoreId> = sim
            .field()
            .in_range_of(SimId(i))
            .iter()
            .map(|n| CoreId(n.0))
            .collect();
        let node: &ProtocolNode = sim.logic(SimId(i)).as_any().downcast_ref().unwrap();
        let table = node.liteworp().unwrap().table();
        true_links += truth.len();
        for n in table.active_neighbors() {
            if truth.contains(&n) {
                discovered_links += 1;
            } else {
                spurious += 1;
            }
        }
    }
    assert_eq!(spurious, 0, "discovery must never invent a neighbor");
    let completeness = discovered_links as f64 / true_links as f64;
    assert!(
        completeness > 0.85,
        "only {completeness:.2} of true links discovered"
    );
}

#[test]
fn wormhole_detected_on_self_built_tables() {
    // Full pipeline: message discovery, traffic, out-of-band wormhole.
    let mut rng = Pcg32::seed_from_u64(43);
    let nodes = 30usize;
    let field = Field::connected_with_average_neighbors(nodes, 8.0, 30.0, 200, &mut rng)
        .expect("connected deployment");
    // Colluders: picked manually, far apart.
    let (m1, m2) = pick_far_pair(&field).expect("far pair");
    let params = message_params(nodes as u32);
    let mut sim = Simulator::<Packet>::new(field, RadioConfig::default(), 43);
    for i in 0..nodes {
        let id = CoreId(i as u32);
        let inner = ProtocolNode::new(id, params.clone());
        if id == m1 || id == m2 {
            let attack = WormholeConfig {
                colluders: vec![if id == m1 { m2 } else { m1 }],
                active_from: SimTime::from_secs_f64(60.0),
                tunnel_latency: SimDuration::ZERO,
                forge: ForgeStrategy::RotatingNeighbors,
                smart_reply: false,
            };
            sim.push_node(Box::new(WormholeNode::new(inner, attack)));
        } else {
            sim.push_node(Box::new(inner));
        }
    }
    sim.stagger_starts(SimDuration::from_secs(3));
    sim.run_until(SimTime::from_secs_f64(500.0));

    let detected_m1 = sim.trace().isolations().any(|i| i.suspect.0 == m1.0);
    let detected_m2 = sim.trace().isolations().any(|i| i.suspect.0 == m2.0);
    assert!(
        detected_m1 || detected_m2,
        "no colluder detected on self-built tables; trace: {:?}",
        sim.trace().events().take(20).collect::<Vec<_>>()
    );
}

fn pick_far_pair(field: &Field) -> Option<(CoreId, CoreId)> {
    for a in 0..field.len() as u32 {
        for b in (a + 1)..field.len() as u32 {
            if field
                .hop_distance(SimId(a), SimId(b))
                .is_some_and(|h| h > 3)
                && !field.in_range_of(SimId(a)).is_empty()
                && !field.in_range_of(SimId(b)).is_empty()
            {
                return Some((CoreId(a), CoreId(b)));
            }
        }
    }
    None
}
