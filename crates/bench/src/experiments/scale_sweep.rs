//! Scale sweep: the paper's detection-probability and guard-coverage
//! formulas checked on deployments far beyond paper scale (10³–10⁵
//! nodes), exercising the simulator's spatial grid, SoA state, and
//! indexed event queue end to end.
//!
//! Two comparisons per network size:
//!
//! * **Guard coverage** — the mean number of guards per sampled link in
//!   the deployed field against the exact geometric expectation
//!   `g ≈ 0.59 · N_B` (and the paper's Equation (I) `g = 0.51 · N_B`),
//!   both evaluated at the *measured* mean neighbor count so edge
//!   effects cancel.
//! * **Detection probability** — the fraction of runs where every
//!   wormhole colluder is detected against the Section 5.1 closed form,
//!   fed the measured guard count and the measured collision fraction
//!   (the model's one free parameter).
//!
//! Scale cells cap the number of traffic sources and skip the
//! connected-deployment retry (see [`Scenario::traffic_sources`] and
//! [`Scenario::require_connected`]): neither detection nor guard
//! geometry needs every node to source data, and random geometric
//! graphs at `N_B = 8` stop being fully connected long before 10⁵
//! nodes.

use crate::exec::{run_cells, ExecOptions, SimCell};
use crate::report::mean;
use crate::scenario::Scenario;
use liteworp_analysis::detection::{CollisionModel, DetectionModel};
use liteworp_analysis::geometry::GuardGeometry;
use liteworp_netsim::field::{Field, NodeId};
use liteworp_runner::rng::{Pcg32, Rng};
use liteworp_runner::{Json, Manifest};

/// Parameters of the scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleSweepConfig {
    /// Network sizes to test (default: 10³, 10⁴, 10⁵).
    pub node_counts: Vec<usize>,
    /// Average neighbors per node (paper: 8).
    pub avg_neighbors: f64,
    /// Runs per cell at the smallest sizes; larger cells scale the count
    /// down (see [`ScaleSweepConfig::seeds_for`]).
    pub seeds: u64,
    /// Simulated duration in seconds (attack starts at 50 s).
    pub duration: f64,
    /// Nodes that originate data traffic per run (capped at the network
    /// size).
    pub traffic_sources: usize,
    /// Honest nodes near each colluder promoted to traffic sources, so
    /// the wormhole is exercised regardless of where the capped sources
    /// landed.
    pub wormhole_local_sources: usize,
    /// TTL of route-request floods, in hops. This is what makes
    /// per-discovery work independent of the network size: an unscoped
    /// flood costs O(N) transmissions.
    pub discovery_ttl: u8,
    /// Links sampled per size for the guard-coverage measurement.
    pub guard_links: usize,
}

impl Default for ScaleSweepConfig {
    fn default() -> Self {
        ScaleSweepConfig {
            node_counts: vec![1_000, 10_000, 100_000],
            avg_neighbors: 8.0,
            seeds: 6,
            duration: 150.0,
            traffic_sources: 64,
            wormhole_local_sources: 8,
            discovery_ttl: 8,
            guard_links: 2_000,
        }
    }
}

impl ScaleSweepConfig {
    /// Seeds to run at a given size: the configured count up to 2 000
    /// nodes, half of it up to 20 000, a single run beyond.
    pub fn seeds_for(&self, nodes: usize) -> u64 {
        if nodes <= 2_000 {
            self.seeds
        } else if nodes <= 20_000 {
            (self.seeds / 2).max(1)
        } else {
            1
        }
    }
}

/// Deployment geometry measured from a built field.
#[derive(Debug, Clone, Copy)]
pub struct GeometryStats {
    /// Mean neighbor count over every node.
    pub measured_neighbors: f64,
    /// Mean guards (common neighbors) per sampled in-range link.
    pub measured_guards: f64,
    /// Exact geometric expectation at the measured density
    /// (`≈ 0.59 · N_B`).
    pub predicted_guards_exact: f64,
    /// The paper's Equation (I) at the measured density (`0.51 · N_B`).
    pub predicted_guards_paper: f64,
}

/// One row of the sweep: measured vs predicted at one network size.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Network size.
    pub nodes: usize,
    /// Seeds actually aggregated.
    pub seeds: usize,
    /// Deployment geometry of this size.
    pub geometry: GeometryStats,
    /// Fraction of runs where every colluder was detected.
    pub detection_rate: f64,
    /// Closed-form detection probability at the measured guard count and
    /// collision fraction.
    pub predicted_detection: f64,
    /// Mean measured collision fraction (`P_C`).
    pub collision_fraction: f64,
    /// Mean data packets originated per run.
    pub data_sent: f64,
    /// Mean cumulative wormhole drops per run.
    pub drops: f64,
}

impl ScaleRow {
    /// This row as JSON.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("nodes", Json::from(self.nodes)),
            ("seeds", Json::from(self.seeds)),
            (
                "measured_neighbors",
                Json::from(self.geometry.measured_neighbors),
            ),
            ("measured_guards", Json::from(self.geometry.measured_guards)),
            (
                "predicted_guards_exact",
                Json::from(self.geometry.predicted_guards_exact),
            ),
            (
                "predicted_guards_paper",
                Json::from(self.geometry.predicted_guards_paper),
            ),
            ("detection_rate", Json::from(self.detection_rate)),
            ("predicted_detection", Json::from(self.predicted_detection)),
            ("collision_fraction", Json::from(self.collision_fraction)),
            ("data_sent", Json::from(self.data_sent)),
            ("drops", Json::from(self.drops)),
        ])
    }
}

/// Measures mean degree and per-link guard coverage of a deployment at
/// the given size and density, sampling `links` in-range links.
///
/// The field is built exactly like a scale scenario's (same generator
/// family), but with its own seed: this is a geometry question, not a
/// protocol one, so it needs no nodes or traffic.
pub fn measure_geometry(
    nodes: usize,
    avg_neighbors: f64,
    range: f64,
    links: usize,
    seed: u64,
) -> GeometryStats {
    let mut rng = Pcg32::seed_from_u64(seed);
    let field = Field::with_average_neighbors(nodes, avg_neighbors, range, &mut rng);

    let mut degree_prefix: Vec<usize> = Vec::with_capacity(nodes);
    let mut degree_total = 0usize;
    for i in 0..nodes {
        degree_total += field.in_range_of(NodeId(i as u32)).len();
        degree_prefix.push(degree_total);
    }
    let measured_neighbors = degree_total as f64 / nodes.max(1) as f64;

    // Sample links *uniformly over directed edges* (a uniform index into
    // the concatenated adjacency lists). The closed forms state the
    // expected guard count of a link in use, which is the edge-uniform
    // (Palm) expectation: picking a node first and then a neighbor would
    // under-weight dense regions and measure ≈ 0.59 · (N_B − 1) instead
    // of 0.59 · N_B.
    let mut guard_total = 0usize;
    let mut sampled = 0usize;
    while degree_total > 0 && sampled < links {
        let e = rng.gen_range(0..degree_total);
        let u = degree_prefix.partition_point(|&p| p <= e);
        let offset = e - (degree_prefix.get(u.wrapping_sub(1)).copied()).unwrap_or(0);
        let around_u = field.in_range_of(NodeId(u as u32));
        guard_total += common_sorted(around_u, field.in_range_of(around_u[offset]));
        sampled += 1;
    }
    let measured_guards = guard_total as f64 / sampled.max(1) as f64;

    let geom = GuardGeometry::new(range);
    GeometryStats {
        measured_neighbors,
        measured_guards,
        predicted_guards_exact: geom.exact_guards_from_neighbors(measured_neighbors),
        predicted_guards_paper: GuardGeometry::paper_guards_from_neighbors(measured_neighbors),
    }
}

/// Size of the intersection of two ascending id lists. The endpoints of
/// a link never appear (neighbor lists exclude the node itself, and the
/// two lists' owners are each other's neighbors, not their own), so this
/// is exactly the guard count of the link.
fn common_sorted(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The sweep's scenario for one size — shared between [`cells`] and the
/// smoke script so both run the identical cache key.
pub fn scenario_for(cfg: &ScaleSweepConfig, nodes: usize) -> Scenario {
    Scenario {
        nodes,
        avg_neighbors: cfg.avg_neighbors,
        malicious: 2,
        protected: true,
        traffic_sources: Some(cfg.traffic_sources.min(nodes)),
        wormhole_local_sources: cfg.wormhole_local_sources,
        require_connected: false,
        discovery_ttl: Some(cfg.discovery_ttl),
        local_traffic_hops: Some(cfg.discovery_ttl as u32),
        ..Scenario::default()
    }
}

/// The sweep's cells, one per network size.
pub fn cells(cfg: &ScaleSweepConfig) -> Vec<SimCell> {
    cfg.node_counts
        .iter()
        .map(|&nodes| {
            SimCell::snapshot(
                format!("scale n={nodes}"),
                scenario_for(cfg, nodes),
                cfg.seeds_for(nodes),
                7_000,
                cfg.duration,
            )
        })
        .collect()
}

/// Runs the sweep and pairs each size's simulation aggregate with its
/// measured deployment geometry and the closed-form predictions.
pub fn run_with(cfg: &ScaleSweepConfig, opts: &ExecOptions) -> (Vec<ScaleRow>, Manifest) {
    let batch = run_cells(&cells(cfg), opts);
    let mut out = Vec::new();
    let mut cell_outcomes = batch.outcomes.into_iter();
    for &nodes in &cfg.node_counts {
        // lint: allow(P002) runner invariant: one outcome set per cell
        let outcomes = cell_outcomes.next().expect("one outcome set per cell");
        let geometry = measure_geometry(
            nodes,
            cfg.avg_neighbors,
            Scenario::default().radio.range_m,
            cfg.guard_links,
            41 + nodes as u64,
        );
        let n = outcomes.len().max(1) as f64;
        let detected = outcomes.iter().filter(|o| o.all_detected).count() as f64;
        let p_c: Vec<f64> = outcomes.iter().map(|o| o.collision_fraction).collect();
        let collision_fraction = mean(&p_c);
        let model = detection_model(collision_fraction);
        let predicted_detection = model.detection_probability_with(
            geometry.measured_guards.round() as u64,
            collision_fraction,
        );
        out.push(ScaleRow {
            nodes,
            seeds: outcomes.len(),
            geometry,
            detection_rate: detected / n,
            predicted_detection,
            collision_fraction,
            data_sent: mean(&outcomes.iter().map(|o| o.data_sent).collect::<Vec<_>>()),
            drops: mean(&outcomes.iter().map(|o| o.drops).collect::<Vec<_>>()),
        });
    }
    (out, batch.manifest)
}

/// The Section 5.1 model at the protocol's γ and a measured `P_C` — the
/// same instantiation `tests/differential_detection.rs` validates at
/// paper scale.
pub fn detection_model(p_c: f64) -> DetectionModel {
    DetectionModel {
        window: 7,
        detections_needed: 5,
        confidence_index: Scenario::default().liteworp.confidence_index as u64,
        collisions: CollisionModel::Constant(p_c.clamp(0.0, 1.0)),
    }
}

/// Allowed |closed form − simulation| gap on detection probability (the
/// differential-test bound, widened for the single-seed largest cells).
pub const DETECTION_BOUND: f64 = 0.2;
/// Allowed relative error of measured guard coverage vs the exact
/// geometric expectation.
pub const GUARD_BOUND: f64 = 0.2;

/// Checks every row against the closed forms; returns one line per
/// violation (empty = the formulas hold at every size).
pub fn check(rows: &[ScaleRow]) -> Vec<String> {
    let mut bad = Vec::new();
    for r in rows {
        let g = &r.geometry;
        let guard_err = (g.measured_guards - g.predicted_guards_exact).abs()
            / g.predicted_guards_exact.max(1e-9);
        if guard_err > GUARD_BOUND {
            bad.push(format!(
                "n={}: guard coverage {:.2} vs exact prediction {:.2} ({:.0}% off, bound {:.0}%)",
                r.nodes,
                g.measured_guards,
                g.predicted_guards_exact,
                guard_err * 100.0,
                GUARD_BOUND * 100.0
            ));
        }
        let det_err = (r.detection_rate - r.predicted_detection).abs();
        if det_err > DETECTION_BOUND {
            bad.push(format!(
                "n={}: detection rate {:.3} vs closed form {:.3} (gap {:.3}, bound {:.2})",
                r.nodes, r.detection_rate, r.predicted_detection, det_err, DETECTION_BOUND
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_coverage_matches_exact_geometry_at_small_scale() {
        let g = measure_geometry(1_000, 8.0, 30.0, 1_000, 7);
        assert!(
            (g.measured_neighbors - 8.0).abs() < 2.0,
            "measured N_B {} far from target 8",
            g.measured_neighbors
        );
        let err = (g.measured_guards - g.predicted_guards_exact).abs() / g.predicted_guards_exact;
        assert!(
            err < GUARD_BOUND,
            "guards {:.2} vs exact {:.2}",
            g.measured_guards,
            g.predicted_guards_exact
        );
        // The exact expectation dominates the paper's Equation (I).
        assert!(g.predicted_guards_exact > g.predicted_guards_paper);
    }

    #[test]
    fn seeds_scale_down_with_network_size() {
        let cfg = ScaleSweepConfig::default();
        assert_eq!(cfg.seeds_for(1_000), 6);
        assert_eq!(cfg.seeds_for(10_000), 3);
        assert_eq!(cfg.seeds_for(100_000), 1);
    }

    #[test]
    fn small_scale_sweep_matches_closed_forms() {
        let cfg = ScaleSweepConfig {
            node_counts: vec![300],
            seeds: 2,
            duration: 300.0,
            traffic_sources: 48,
            guard_links: 500,
            ..ScaleSweepConfig::default()
        };
        let (rows, _) = run_with(&cfg, &ExecOptions::default());
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.data_sent > 0.0, "capped sources still generate data");
        let violations = check(&rows);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
