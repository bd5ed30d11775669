//! Anatomy of a guard: drives the core `liteworp` library by hand —
//! no simulator — through the exact detection story of Figure 4 in the
//! paper: colluders M1 and M2 tunnel a route request, M2 rebroadcasts it
//! with a forged previous hop, and the guards of that link catch it.
//!
//! Run with:
//! ```text
//! cargo run --example guard_anatomy
//! ```

use liteworp::prelude::*;

fn main() {
    // Topology around the wormhole's far end (Figure 4):
    //
    //      X(1) --- M2(2) --- A(3)
    //        \       |       /
    //         \-- guard(0) -/
    //
    // Node 0 neighbors X, M2 and A, so it guards the link X -> M2.
    let (guard_id, x, m2, a) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    let mut guard = Liteworp::new(Config::default(), KeyStore::new(42, guard_id));
    {
        let t = guard.table_mut();
        t.add_neighbor(x);
        t.add_neighbor(m2);
        t.add_neighbor(a);
        t.set_neighbor_list(x, [guard_id, m2]);
        t.set_neighbor_list(m2, [guard_id, x, a]);
        t.set_neighbor_list(a, [guard_id, m2]);
    }
    println!("guard n0 watches the links around M2 (n2)\n");

    // The admission checks alone already stop the crude variants:
    println!("-- admission checks --");
    println!(
        "packet from a stranger (n9):            {:?}",
        guard.admit(NodeId(9), None)
    );
    println!(
        "M2 claiming its distant colluder (n7):  {:?}",
        guard.admit(m2, Some(NodeId(7)))
    );
    println!(
        "M2 claiming its real neighbor X:        {:?}  <- passes, so the guards must catch it",
        guard.admit(m2, Some(x))
    );

    // M2 rebroadcasts tunneled requests claiming they came from X. X
    // never transmitted them, so the guard's watch buffer has no entry.
    println!("\n-- local monitoring --");
    let fabricated = |seq| PacketObs {
        sender: m2,
        claimed_prev: Some(x),
        link_dst: None,
        sig: PacketSig {
            kind: PacketKind::RouteRequest,
            origin: NodeId(8),
            target: NodeId(9),
            seq,
        },
        terminal: false,
    };
    for seq in 1..=3 {
        let now = Micros(seq * 100_000);
        let (effects, admission) = guard.observe_packet(&fabricated(seq), now);
        for e in &effects {
            match e {
                Effect::Suspected {
                    suspect,
                    kind,
                    malc,
                } => {
                    println!("seq {seq}: suspected {suspect} of {kind}; MalC = {malc}")
                }
                Effect::SendAlert {
                    suspect, recipient, ..
                } => {
                    println!("seq {seq}: ALERT -> {recipient}: {suspect} is a wormhole endpoint")
                }
                Effect::Isolated { suspect } => {
                    println!("seq {seq}: {suspect} revoked locally")
                }
                Effect::WatchExpired { expired } => {
                    println!("seq {seq}: {expired} watch-buffer entries expired unsatisfied")
                }
            }
        }
        println!("seq {seq}: the frame itself: {admission:?}");
    }
    assert!(guard.is_isolated(m2));
    println!(
        "\nMalC crossed C_t = {} after {} fabrications (V_f = {}); M2 is revoked\n",
        guard.config().malc_threshold,
        guard.config().fabrications_to_accuse(),
        guard.config().fabrication_weight,
    );

    // Meanwhile node A collects alerts about M2 from two distinct guards
    // (gamma = 2) and isolates it too.
    println!("-- response & isolation at a neighbor --");
    let mut node_a = Liteworp::new(Config::default(), KeyStore::new(42, a));
    {
        let t = node_a.table_mut();
        t.add_neighbor(guard_id);
        t.add_neighbor(m2);
        t.add_neighbor(x);
        t.set_neighbor_list(m2, [guard_id, x, a]);
    }
    let g0 = KeyStore::new(42, guard_id);
    let gx = KeyStore::new(42, x);
    let mac0 = g0.tag(a, &Liteworp::alert_bytes(guard_id, m2));
    let macx = gx.tag(a, &Liteworp::alert_bytes(x, m2));
    println!(
        "alert from guard n0: {:?}",
        node_a.handle_alert(guard_id, m2, mac0, Micros(1))
    );
    println!(
        "alert from guard n1: {:?}",
        node_a.handle_alert(x, m2, macx, Micros(2))
    );
    assert!(node_a.is_isolated(m2));
    println!("\nnode A now refuses all traffic to and from M2: the wormhole is dead.");
}
