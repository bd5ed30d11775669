//! Incremental deployment (Section 7): a node deployed long after the
//! network boots runs the HELLO / reply / announce handshake plus a
//! `ListRequest`, acquires full two-hop knowledge, and becomes a routable
//! member of the protected network.

use liteworp::types::NodeId as CoreId;
use liteworp_netsim::field::{Field, NodeId as SimId, Position};
use liteworp_netsim::prelude::{RadioConfig, SimDuration, SimTime, Simulator};
use liteworp_netsim::rng::Pcg32;
use liteworp_routing::bootstrap::preload_liteworp;
use liteworp_routing::node::ProtocolNode;
use liteworp_routing::params::{DiscoveryMode, NodeParams};
use liteworp_routing::Packet;

/// Builds a connected 20-node field plus one extra position (the joiner)
/// placed next to node 0. Returns `(veterans_only, full)` so the veterans
/// can be bootstrapped without any knowledge of the joiner.
fn field_with_joiner() -> (Field, Field) {
    let mut rng = Pcg32::seed_from_u64(71);
    let base = Field::connected_with_average_neighbors(20, 8.0, 30.0, 200, &mut rng)
        .expect("connected deployment");
    let mut positions: Vec<Position> = base.positions().to_vec();
    let anchor = positions[0];
    let side = base.side();
    positions.push(Position::new(
        (anchor.x + 12.0).min(side),
        (anchor.y + 6.0).min(side),
    ));
    (base, Field::from_positions(side, 30.0, positions))
}

#[test]
fn late_joiner_builds_two_hop_tables_and_routes() {
    let (veterans_field, field) = field_with_joiner();
    let nodes = field.len();
    let joiner = CoreId(nodes as u32 - 1);

    let params = NodeParams {
        total_nodes: nodes as u32,
        data_interval_mean: None, // keep the channel quiet for clarity
        ..NodeParams::default()
    };
    let mut sim = Simulator::<Packet>::new(field, RadioConfig::default(), 71);
    for i in 0..nodes {
        let id = CoreId(i as u32);
        let mut node = if id == joiner {
            ProtocolNode::new(
                id,
                NodeParams {
                    discovery: DiscoveryMode::LateJoin {
                        collect: SimDuration::from_secs(2),
                    },
                    ..params.clone()
                },
            )
        } else {
            ProtocolNode::new(id, params.clone())
        };
        if id != joiner {
            // The established network was bootstrapped at deployment —
            // from the veterans-only geometry, so nobody knows the joiner
            // yet (it was not there at T_CT).
            let lw = node.liteworp_mut().expect("protected");
            preload_liteworp(lw, SimId(i as u32), &veterans_field);
        }
        sim.push_node(Box::new(node));
    }
    // The joiner arrives at t = 100 s.
    sim.set_start_time(SimId(joiner.0), SimTime::from_secs_f64(100.0));
    sim.run_until(SimTime::from_secs_f64(120.0));

    // The joiner discovered its real neighbors...
    let truth: Vec<CoreId> = sim
        .field()
        .in_range_of(SimId(joiner.0))
        .iter()
        .map(|n| CoreId(n.0))
        .collect();
    assert!(!truth.is_empty(), "joiner placed next to node 0");
    let jn: &ProtocolNode = sim
        .logic(SimId(joiner.0))
        .as_any()
        .downcast_ref()
        .expect("protocol node");
    let table = jn.liteworp().expect("protected").table();
    let discovered: Vec<CoreId> = table.active_neighbors().collect();
    assert!(
        !discovered.is_empty(),
        "joiner discovered nothing: {discovered:?}"
    );
    for n in &discovered {
        assert!(truth.contains(n), "spurious neighbor {n}");
    }
    // ...and, thanks to the ListRequest, their lists too (second hop).
    let with_lists = discovered
        .iter()
        .filter(|n| table.neighbor_list_of(**n).is_some())
        .count();
    assert!(
        with_lists > 0,
        "no re-announced lists received by the joiner"
    );
    // The veterans adopted the joiner as a neighbor.
    let adopted = truth
        .iter()
        .filter(|&&n| {
            let v: &ProtocolNode = sim.logic(SimId(n.0)).as_any().downcast_ref().unwrap();
            v.liteworp().unwrap().table().is_active_neighbor(joiner)
        })
        .count();
    assert!(adopted > 0, "no veteran adopted the joiner");
}

#[test]
fn list_request_from_a_stranger_is_ignored() {
    use liteworp::discovery::Discovery;
    use liteworp::keys::KeyStore;
    use liteworp::neighbor::NeighborTable;

    let disc = Discovery::new(KeyStore::new(7, CoreId(0)));
    let mut table = NeighborTable::new(CoreId(0));
    table.add_neighbor(CoreId(1));
    // Node 9 never completed the handshake: no list for it.
    assert!(disc.on_list_request(&table, CoreId(9)).is_none());
    // A verified neighbor gets a unicast re-announcement.
    assert!(disc.on_list_request(&table, CoreId(1)).is_some());
}
