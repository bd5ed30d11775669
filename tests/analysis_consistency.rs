//! Cross-checks between the closed-form analysis (Section 5) and the
//! simulator: the analysis' assumptions should be in the same regime as
//! what the simulation actually produces.

use liteworp::types::NodeId;
use liteworp_analysis::cost::CostModel;
use liteworp_analysis::geometry::GuardGeometry;
use liteworp_bench::Scenario;
use liteworp_netsim::field::{Field, NodeId as SimId};
use liteworp_netsim::rng::Pcg32;

#[test]
fn simulated_collision_rate_is_in_the_analysis_regime() {
    // The Figure 6 analysis assumes P_C around 0.05-0.15 at the paper's
    // density; the simulated channel should land in the same regime.
    let mut run = Scenario {
        nodes: 50,
        malicious: 0,
        protected: true,
        seed: 61,
        ..Scenario::default()
    }
    .build();
    run.run_until_secs(400.0);
    let p_c = run.sim().metrics().collision_fraction();
    assert!(
        (0.005..0.25).contains(&p_c),
        "collision fraction {p_c} far outside the analysis regime"
    );
}

#[test]
fn empirical_guard_count_tracks_the_geometry() {
    // Count actual guards (common neighbors of link endpoints) over many
    // random links and compare with the lens-area expectation.
    let mut rng = Pcg32::seed_from_u64(62);
    let field = Field::with_average_neighbors(600, 8.0, 30.0, &mut rng);
    let geo = GuardGeometry::new(30.0);
    let mut total_guards = 0usize;
    let mut links = 0usize;
    for a in 0..600u32 {
        for &b in field.in_range_of(SimId(a)) {
            if b.0 <= a {
                continue;
            }
            let na = field.in_range_of(SimId(a));
            let nb = field.in_range_of(b);
            // Guards of the link a -> b: common neighbors (plus a itself,
            // which we exclude here to count *third-party* guards).
            let common = na.iter().filter(|n| nb.contains(n) && n.0 != a).count();
            total_guards += common;
            links += 1;
        }
    }
    let mean_guards = total_guards as f64 / links as f64;
    // Exact geometry predicts E[guards] ≈ (E[lens]/π r²)·N_B ≈ 0.59·N_B
    // minus the two endpoints; edge effects push the empirical value
    // somewhat lower. The paper's engineering value is 0.51·N_B.
    let predicted = geo.exact_guards_from_neighbors(8.0);
    assert!(
        (mean_guards - predicted).abs() < 2.0,
        "mean guards {mean_guards:.2} vs predicted {predicted:.2}"
    );
}

#[test]
fn live_state_footprint_matches_the_cost_model_scale() {
    let nodes = 50usize;
    let mut run = Scenario {
        nodes,
        malicious: 2,
        protected: true,
        seed: 63,
        ..Scenario::default()
    }
    .build();
    run.run_until_secs(300.0);
    let geo = GuardGeometry::new(30.0);
    let model = CostModel {
        range: 30.0,
        density: geo.density_from_neighbors(8.0),
        total_nodes: nodes,
        avg_route_hops: 4.0,
        routes_per_time_unit: nodes as f64 / 50.0,
        confidence_index: 2,
    };
    let analytic_neighbor_bytes = model.neighbor_storage_bytes();
    for i in 0..nodes as u32 {
        let lw = run
            .protocol_node(NodeId(i))
            .liteworp()
            .expect("protected run");
        let measured = lw.storage_bytes() as f64;
        // Within an order of magnitude of the closed-form neighbor
        // storage (the live number adds the watch and alert buffers and
        // varies with local density).
        assert!(
            measured < 20.0 * analytic_neighbor_bytes + 4096.0,
            "node {i} uses {measured} B, analytic scale {analytic_neighbor_bytes} B"
        );
    }
}

#[test]
fn paper_guard_ratio_is_between_zero_and_exact() {
    // Sanity relation used throughout: 0 < 0.51 (paper) < 0.59 (exact).
    let geo = GuardGeometry::new(30.0);
    let exact = geo.exact_guards_from_neighbors(1.0);
    assert!(GuardGeometry::PAPER_GUARD_RATIO < exact);
    let paper_ratio = GuardGeometry::PAPER_GUARD_RATIO;
    assert!(paper_ratio > 0.3, "paper ratio {paper_ratio}");
}
