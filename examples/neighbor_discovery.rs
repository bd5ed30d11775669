//! Message-level secure neighbor discovery over the simulated radio:
//! nodes boot, exchange HELLO / authenticated replies / list
//! announcements, and end up with first- and second-hop tables matching
//! the deployment geometry — with no oracle preloading.
//!
//! Run with:
//! ```text
//! cargo run --release --example neighbor_discovery
//! ```

use liteworp::types::NodeId as CoreId;
use liteworp_netsim::field::{Field, NodeId as SimId};
use liteworp_netsim::prelude::{RadioConfig, SimDuration, SimTime, Simulator};
use liteworp_netsim::rng::Pcg32;
use liteworp_routing::node::ProtocolNode;
use liteworp_routing::params::{DiscoveryMode, NodeParams};
use liteworp_routing::Packet;

fn main() {
    let mut rng = Pcg32::seed_from_u64(5);
    let nodes = 25;
    let field = Field::connected_with_average_neighbors(nodes, 8.0, 30.0, 200, &mut rng)
        .expect("connected deployment");
    let params = NodeParams {
        total_nodes: nodes as u32,
        // Real message exchange this time, with a 2 s reply-collection
        // window; no data traffic, we only watch discovery.
        discovery: DiscoveryMode::Messages {
            collect: SimDuration::from_secs(2),
        },
        data_interval_mean: None,
        ..NodeParams::default()
    };

    let mut sim = Simulator::<Packet>::new(field, RadioConfig::default(), 5);
    for i in 0..nodes {
        sim.push_node(Box::new(ProtocolNode::new(
            CoreId(i as u32),
            params.clone(),
        )));
    }
    // Stagger deployments so the HELLO floods do not all collide.
    sim.stagger_starts(SimDuration::from_secs(3));
    sim.run_until(SimTime::from_secs_f64(10.0));

    let mut exact = 0usize;
    let mut missing_links = 0usize;
    for i in 0..nodes as u32 {
        let truth: Vec<CoreId> = sim
            .field()
            .in_range_of(SimId(i))
            .iter()
            .map(|n| CoreId(n.0))
            .collect();
        let node: &ProtocolNode = sim
            .logic(SimId(i))
            .as_any()
            .downcast_ref()
            .expect("protocol node");
        let table = node.liteworp().expect("protection on").table();
        let discovered: Vec<CoreId> = table.active_neighbors().collect();
        let missed: Vec<&CoreId> = truth.iter().filter(|t| !discovered.contains(t)).collect();
        if missed.is_empty() {
            exact += 1;
        } else {
            missing_links += missed.len();
            println!("n{i}: discovered {discovered:?}, missed {missed:?}");
        }
    }
    println!(
        "\n{exact}/{nodes} nodes discovered their full neighborhood over the radio \
         ({missing_links} links missing, typically HELLO replies lost to collisions)"
    );
    println!(
        "total frames on air: {}, collisions: {}",
        sim.metrics().frames_sent,
        sim.metrics().frames_collided
    );
}
