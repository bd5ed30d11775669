//! The Section 6 simulation setup: random deployment at fixed density,
//! exponential data traffic, colluding wormhole nodes, with and without
//! LITEWORP.
//!
//! A [`Scenario`] builds a ready-to-run [`Simulator`]; [`ScenarioRun`]
//! wraps the simulator with the measurement queries the paper's figures
//! need (cumulative wormhole drops, route classification, isolation
//! latency, detection).

use liteworp::config::Config;
use liteworp::types::NodeId as CoreId;
use liteworp_attacks::solo::{HighPowerNode, RelayNode, RushingNode};
use liteworp_attacks::wormhole::{ForgeStrategy, WormholeConfig, WormholeNode};
use liteworp_netsim::field::{Field, NodeId as SimId};
use liteworp_netsim::prelude::{RadioConfig, SimDuration, SimTime, Simulator};
use liteworp_routing::bootstrap::SharedAdjacency;
use liteworp_routing::node::{core_id, ProtocolNode};
use liteworp_routing::packet::Packet;
use liteworp_routing::params::{DiscoveryMode, NodeParams, RouteSelection};
use liteworp_routing::stats::RouteRecord;
use liteworp_runner::rng::{Pcg32, Rng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which attack the malicious nodes mount.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioAttack {
    /// Colluding wormhole (modes 1 and 2) — uses the scenario's
    /// `tunnel_latency`, `forge` and `smart_reply` fields.
    Wormhole,
    /// Mode 3: each malicious node rebroadcasts requests at this range
    /// multiplier.
    HighPower(f64),
    /// Mode 4: each malicious node relays overheard frames verbatim.
    Relay,
    /// Mode 5: rushing; `drop_data` selects whether attracted data is
    /// swallowed.
    Rushing {
        /// Swallow attracted data packets.
        drop_data: bool,
    },
}

/// Full description of one simulation run (defaults = Table 2).
///
/// `Debug` is implemented by hand: the per-seed RNG seeds of every
/// experiment derive from the hash of this struct's Debug string (see
/// `exec::SimCell::descriptor`), so the scale knobs at the tail are
/// printed only when they deviate from the paper defaults. That keeps
/// every paper-scale descriptor — and therefore every derived seed,
/// cache key, and golden baseline — byte-identical to what it was
/// before the knobs existed.
#[derive(Clone)]
pub struct Scenario {
    /// Total nodes `N` (Table 2: 20, 50, 100, 150).
    pub nodes: usize,
    /// Average neighbors per node `N_B` (Table 2: 8).
    pub avg_neighbors: f64,
    /// Number of colluding wormhole nodes `M` (Table 2: 0–4).
    pub malicious: usize,
    /// Run with LITEWORP (`true`) or the unprotected baseline (`false`).
    pub protected: bool,
    /// LITEWORP parameters (γ, `C_t`, `V_f`, `V_d`, δ ...).
    pub liteworp: Config,
    /// RNG seed (deployment, traffic, MAC backoffs).
    pub seed: u64,
    /// Attack start time in seconds (paper: 50).
    pub attack_start: f64,
    /// Wormhole tunnel latency in seconds (0 = out-of-band channel;
    /// > 0 = packet encapsulation).
    pub tunnel_latency: f64,
    /// Previous-hop forging strategy of the colluders.
    pub forge: ForgeStrategy,
    /// Whether colluders also forward replies legitimately to dodge drop
    /// detection.
    pub smart_reply: bool,
    /// Mean data inter-arrival per node in seconds (Table 2: 10).
    pub data_mean: f64,
    /// Mean time between destination changes in seconds (Table 2: 200).
    pub dest_change_mean: f64,
    /// Route cache lifetime in seconds (Table 2: 50).
    pub route_timeout: f64,
    /// Route selection policy (the paper's vulnerable default:
    /// shortest-hops).
    pub route_selection: RouteSelection,
    /// Radio parameters (Table 2: 30 m range, 40 kbps).
    pub radio: RadioConfig,
    /// Attack mode mounted by the malicious nodes.
    pub attack: ScenarioAttack,
    /// Whether out-of-range alerts are relayed through a common neighbor
    /// (ablation knob; default on).
    pub relay_alerts: bool,
    /// Number of nodes that originate data traffic (`None` = all). At
    /// paper scale every node is a source; at 10⁵ nodes that would mean
    /// 10⁵ concurrent route floods, so scale experiments cap the sources
    /// — nodes with ids `>= k` never schedule data (their
    /// `data_interval_mean` is cleared) but still relay, guard, and
    /// answer route requests.
    pub traffic_sources: Option<usize>,
    /// Whether `build` insists on a fully connected deployment (the
    /// paper-scale default). A random geometric graph at `N_B = 8` is
    /// essentially never fully connected once `N` is large (connectivity
    /// needs `N_B ≳ ln N`), so scale experiments disable the retry loop
    /// and accept the giant component plus a few stragglers.
    pub require_connected: bool,
    /// Maximum hops for route-request floods (`None` = network-wide, the
    /// paper's behavior). A 10⁵-node network is hundreds of hops across;
    /// unscoped floods cost O(N) transmissions each, so scale runs scope
    /// discovery like AODV's expanding-ring search (see
    /// `NodeParams::rreq_ttl`).
    pub discovery_ttl: Option<u8>,
    /// When set, each traffic source only addresses destinations within
    /// this many hops of itself (its pool is computed from the deployed
    /// field). Keep it at most `discovery_ttl + 1` so scoped discoveries
    /// actually reach their targets.
    pub local_traffic_hops: Option<u32>,
    /// Honest nodes within two hops of each colluder promoted to traffic
    /// sources (in addition to `traffic_sources`). The paper's 100-node
    /// field puts every source a few hops from the wormhole; a sparse
    /// source cap on a 10⁵-node field would leave the attack starved, so
    /// scale runs pin part of the traffic to the colluders'
    /// neighborhoods, where detection — a per-link local property —
    /// actually happens.
    pub wormhole_local_sources: usize,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            nodes: 100,
            avg_neighbors: 8.0,
            malicious: 2,
            protected: true,
            liteworp: Config::default(),
            seed: 1,
            attack_start: 50.0,
            tunnel_latency: 0.0,
            forge: ForgeStrategy::RotatingNeighbors,
            smart_reply: false,
            data_mean: 10.0,
            dest_change_mean: 200.0,
            route_timeout: 50.0,
            route_selection: RouteSelection::ShortestHops,
            radio: RadioConfig::default(),
            attack: ScenarioAttack::Wormhole,
            relay_alerts: true,
            traffic_sources: None,
            require_connected: true,
            discovery_ttl: None,
            local_traffic_hops: None,
            wormhole_local_sources: 0,
        }
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Scenario");
        s.field("nodes", &self.nodes)
            .field("avg_neighbors", &self.avg_neighbors)
            .field("malicious", &self.malicious)
            .field("protected", &self.protected)
            .field("liteworp", &self.liteworp)
            .field("seed", &self.seed)
            .field("attack_start", &self.attack_start)
            .field("tunnel_latency", &self.tunnel_latency)
            .field("forge", &self.forge)
            .field("smart_reply", &self.smart_reply)
            .field("data_mean", &self.data_mean)
            .field("dest_change_mean", &self.dest_change_mean)
            .field("route_timeout", &self.route_timeout)
            .field("route_selection", &self.route_selection)
            .field("radio", &self.radio)
            .field("attack", &self.attack)
            .field("relay_alerts", &self.relay_alerts);
        // Scale knobs are elided at their paper defaults so the Debug
        // string — which experiment seeds and cache keys hash — is
        // unchanged for every pre-existing scenario (see the struct doc).
        if self.traffic_sources.is_some() {
            s.field("traffic_sources", &self.traffic_sources);
        }
        if !self.require_connected {
            s.field("require_connected", &self.require_connected);
        }
        if self.discovery_ttl.is_some() {
            s.field("discovery_ttl", &self.discovery_ttl);
        }
        if self.local_traffic_hops.is_some() {
            s.field("local_traffic_hops", &self.local_traffic_hops);
        }
        if self.wormhole_local_sources != 0 {
            s.field("wormhole_local_sources", &self.wormhole_local_sources);
        }
        s.finish()
    }
}

/// A built, runnable scenario.
pub struct ScenarioRun {
    sim: Simulator<Packet>,
    malicious: Vec<CoreId>,
    attack_start: SimTime,
}

impl Scenario {
    /// Deploys the field, picks colluders (pairwise more than two hops
    /// apart, per Section 6), builds and bootstraps all nodes.
    ///
    /// # Panics
    ///
    /// Panics if no connected deployment or valid colluder placement can
    /// be found for the given seed (try another seed or density).
    pub fn build(&self) -> ScenarioRun {
        assert!(self.malicious <= self.nodes, "more colluders than nodes");
        let mut rng = Pcg32::seed_from_u64(self.seed);
        let field = if self.require_connected {
            Field::connected_with_average_neighbors(
                self.nodes,
                self.avg_neighbors,
                self.radio.range_m,
                500,
                &mut rng,
            )
            // lint: allow(P002) documented panic: no deployment for this seed
            .expect("no connected deployment found")
        } else {
            Field::with_average_neighbors(
                self.nodes,
                self.avg_neighbors,
                self.radio.range_m,
                &mut rng,
            )
        };
        let malicious = choose_colluders(&field, self.malicious, &mut rng)
            // lint: allow(P002) documented panic: no placement for this seed
            .expect("no colluder placement more than 2 hops apart found");

        let source_params = NodeParams {
            total_nodes: self.nodes as u32,
            liteworp: self.protected.then(|| self.liteworp.clone()),
            key_seed: 0xBEEF ^ self.seed,
            route_timeout: SimDuration::from_secs_f64(self.route_timeout),
            data_interval_mean: Some(SimDuration::from_secs_f64(self.data_mean)),
            dest_change_mean: SimDuration::from_secs_f64(self.dest_change_mean),
            route_selection: self.route_selection,
            discovery: DiscoveryMode::Preloaded,
            relay_alerts: self.relay_alerts,
            rreq_ttl: self.discovery_ttl,
            ..NodeParams::default()
        };
        // Every node but a source with its own destination pool shares one
        // of these two.
        let relay_params = Arc::new(NodeParams {
            data_interval_mean: None,
            ..source_params.clone()
        });
        let source_params = Arc::new(source_params);

        // The data-originating set: every node by default; with a source
        // cap, the id prefix plus the colluders' honest two-hop
        // neighborhoods (so a sparse cap cannot starve the attack).
        let sources: Option<BTreeSet<usize>> = self.traffic_sources.map(|k| {
            let mut set: BTreeSet<usize> = (0..k.min(self.nodes)).collect();
            for &m in &malicious {
                let mut promoted = 0;
                for n in field.nodes_within_hops(SimId(m.0), 2) {
                    if promoted == self.wormhole_local_sources {
                        break;
                    }
                    if malicious.contains(&core_id(n)) {
                        continue;
                    }
                    set.insert(n.index());
                    promoted += 1;
                }
            }
            set
        });

        let attack_start = SimTime::from_secs_f64(self.attack_start);
        // One second-hop arena for every table (built only when tables
        // are preloaded).
        let adjacency = self.protected.then(|| SharedAdjacency::from_field(&field));
        let mut sim = Simulator::new(field, self.radio.clone(), self.seed.wrapping_mul(31) + 7);
        for i in 0..self.nodes {
            let id = CoreId(i as u32);
            let is_source = sources.as_ref().is_none_or(|s| s.contains(&i));
            let node_params = if !is_source {
                Arc::clone(&relay_params)
            } else if let Some(h) = self.local_traffic_hops {
                let pool: Vec<CoreId> = sim
                    .field()
                    .nodes_within_hops(SimId(i as u32), h)
                    .into_iter()
                    .map(core_id)
                    .collect();
                if pool.is_empty() {
                    // An isolated source has nobody to talk to.
                    Arc::clone(&relay_params)
                } else {
                    Arc::new(NodeParams {
                        dest_pool: Some(pool),
                        ..NodeParams::clone(&source_params)
                    })
                }
            } else {
                Arc::clone(&source_params)
            };
            let mut inner = ProtocolNode::new(id, node_params);
            if let Some(adjacency) = &adjacency {
                // lint: allow(P002) invariant: the adjacency exists only when protected
                let lw = inner.liteworp_mut().expect("protection enabled");
                adjacency.preload(lw, SimId(i as u32));
            }
            if malicious.contains(&id) {
                match self.attack {
                    ScenarioAttack::Wormhole => {
                        let attack = WormholeConfig {
                            colluders: malicious.iter().copied().filter(|&m| m != id).collect(),
                            active_from: attack_start,
                            tunnel_latency: SimDuration::from_secs_f64(self.tunnel_latency),
                            forge: self.forge,
                            smart_reply: self.smart_reply,
                        };
                        sim.push_node(Box::new(WormholeNode::new(inner, attack)));
                    }
                    ScenarioAttack::HighPower(mult) => {
                        sim.push_node(Box::new(HighPowerNode::new(inner, attack_start, mult)));
                    }
                    ScenarioAttack::Relay => {
                        sim.push_node(Box::new(RelayNode::new(inner, attack_start)));
                    }
                    ScenarioAttack::Rushing { drop_data } => {
                        sim.push_node(Box::new(RushingNode::new(inner, attack_start, drop_data)));
                    }
                }
            } else {
                sim.push_node(Box::new(inner));
            }
        }
        ScenarioRun {
            sim,
            malicious,
            attack_start,
        }
    }
}

/// Picks `m` colluders uniformly at random such that every pair is more
/// than two hops apart (Section 6). Returns `None` when impossible.
fn choose_colluders(field: &Field, m: usize, rng: &mut Pcg32) -> Option<Vec<CoreId>> {
    if m == 0 {
        return Some(Vec::new());
    }
    let mut ids: Vec<u32> = (0..field.len() as u32).collect();
    for _attempt in 0..200 {
        rng.shuffle(&mut ids);
        let mut chosen: Vec<u32> = Vec::with_capacity(m);
        for &cand in &ids {
            // Colluders should have neighbors to exploit.
            if field.in_range_of(SimId(cand)).is_empty() {
                continue;
            }
            let far_enough = chosen.iter().all(|&c| {
                field
                    .hop_distance(SimId(c), SimId(cand))
                    .is_none_or(|h| h > 2)
            });
            if far_enough {
                chosen.push(cand);
                if chosen.len() == m {
                    chosen.sort_unstable();
                    return Some(chosen.into_iter().map(CoreId).collect());
                }
            }
        }
    }
    None
}

impl ScenarioRun {
    /// The underlying simulator.
    pub fn sim(&self) -> &Simulator<Packet> {
        &self.sim
    }

    /// Mutable access to the simulator — the chaos harness uses this to
    /// install a fault hook before the run starts.
    pub fn sim_mut(&mut self) -> &mut Simulator<Packet> {
        &mut self.sim
    }

    /// Advances the run to `t` seconds.
    pub fn run_until_secs(&mut self, t: f64) {
        self.sim.run_until(SimTime::from_secs_f64(t));
    }

    /// The colluding node ids.
    pub fn malicious(&self) -> &[CoreId] {
        &self.malicious
    }

    /// When the attack activates.
    pub fn attack_start(&self) -> SimTime {
        self.attack_start
    }

    /// Cumulative data packets swallowed by wormhole endpoints.
    pub fn wormhole_dropped(&self) -> u64 {
        self.sim.metrics().get("wormhole_dropped")
    }

    /// Cumulative data packets originated network-wide.
    pub fn data_sent(&self) -> u64 {
        self.sim.metrics().get("data_sent")
    }

    /// Cumulative data packets delivered to their final destinations.
    pub fn data_delivered(&self) -> u64 {
        self.sim.metrics().get("data_delivered")
    }

    /// Access a node's honest core, whether it is honest or a wormhole
    /// wrapper.
    pub fn protocol_node(&self, id: CoreId) -> &ProtocolNode {
        let logic = self.sim.logic(SimId(id.0));
        if let Some(p) = logic.as_any().downcast_ref::<ProtocolNode>() {
            return p;
        }
        if let Some(w) = logic.as_any().downcast_ref::<WormholeNode>() {
            return w.inner();
        }
        if let Some(a) = logic.as_any().downcast_ref::<HighPowerNode>() {
            return a.inner();
        }
        if let Some(a) = logic.as_any().downcast_ref::<RelayNode>() {
            return a.inner();
        }
        if let Some(a) = logic.as_any().downcast_ref::<RushingNode>() {
            return a.inner();
        }
        // lint: allow(P003) exhaustive downcast over every node type the
        // scenario builder installs; a miss is a builder bug
        panic!("node {id} has an unknown logic type");
    }

    /// All route records established at sources, flattened.
    pub fn all_routes(&self) -> Vec<(CoreId, RouteRecord)> {
        let mut out = Vec::new();
        for i in 0..self.sim.node_count() {
            let id = CoreId(i as u32);
            for rec in self.protocol_node(id).route_log() {
                out.push((id, rec.clone()));
            }
        }
        out
    }

    /// Number of established routes that traverse a *fake link*: two
    /// consecutive relays (or the last relay and the source) that are not
    /// within radio range of each other. High-power and relay wormholes
    /// manufacture exactly such links; LITEWORP's neighbor checks refuse
    /// them.
    pub fn fake_link_routes(&self) -> u64 {
        let mut count = 0;
        for (source, rec) in self.all_routes() {
            let mut path: Vec<CoreId> = rec.relays.clone();
            path.push(source);
            let fake = path
                .windows(2)
                .any(|w| !self.sim.field().in_range(SimId(w[0].0), SimId(w[1].0)));
            if fake {
                count += 1;
            }
        }
        count
    }

    /// `(total routes, routes whose reply was relayed by a colluder)`.
    pub fn route_counts(&self) -> (u64, u64) {
        let mal: BTreeSet<CoreId> = self.malicious.iter().copied().collect();
        let mut total = 0;
        let mut bad = 0;
        for (_, rec) in self.all_routes() {
            total += 1;
            if rec.relays.iter().any(|r| mal.contains(r)) {
                bad += 1;
            }
        }
        (total, bad)
    }

    /// The honest in-range neighbors of a colluder — the nodes that must
    /// isolate it for isolation to be complete.
    pub fn honest_neighbors_of(&self, m: CoreId) -> Vec<CoreId> {
        self.sim
            .field()
            .in_range_of(SimId(m.0))
            .iter()
            .copied()
            .map(core_id)
            .filter(|n| !self.malicious.contains(n))
            .collect()
    }

    /// Whether *any* node has detected (isolated) colluder `m`.
    pub fn detected(&self, m: CoreId) -> bool {
        self.sim
            .trace()
            .isolations()
            .any(|i| i.suspect == SimId(m.0))
    }

    /// The time at which *every* honest neighbor of `m` had isolated it,
    /// or `None` if isolation is still incomplete.
    pub fn full_isolation_time(&self, m: CoreId) -> Option<SimTime> {
        let neighbors = self.honest_neighbors_of(m);
        if neighbors.is_empty() {
            return None;
        }
        let mut latest = SimTime::ZERO;
        for n in neighbors {
            let t = self
                .sim
                .trace()
                .isolations()
                .filter(|i| i.suspect == SimId(m.0) && i.guard == SimId(n.0))
                .map(|i| i.time)
                .next()?;
            if t > latest {
                latest = t;
            }
        }
        Some(latest)
    }

    /// Whether every colluder has been detected somewhere.
    pub fn all_detected(&self) -> bool {
        self.malicious.iter().all(|&m| self.detected(m))
    }

    /// Isolation latency in seconds (attack start → all colluders fully
    /// isolated by every honest neighbor), if complete.
    pub fn isolation_latency_secs(&self) -> Option<f64> {
        let mut worst: f64 = 0.0;
        for &m in &self.malicious {
            let t = self.full_isolation_time(m)?;
            worst = worst.max(t.saturating_since(self.attack_start).as_secs_f64());
        }
        Some(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(protected: bool, seed: u64) -> Scenario {
        Scenario {
            nodes: 30,
            malicious: 2,
            protected,
            seed,
            ..Scenario::default()
        }
    }

    #[test]
    fn colluders_are_far_apart() {
        let run = small(true, 3).build();
        let m = run.malicious();
        assert_eq!(m.len(), 2);
        let h = run.sim().field().hop_distance(SimId(m[0].0), SimId(m[1].0));
        assert!(h.is_none_or(|h| h > 2), "colluders too close: {h:?}");
    }

    #[test]
    fn baseline_wormhole_forms_and_drops_packets() {
        let mut run = small(false, 5).build();
        run.run_until_secs(400.0);
        assert!(
            run.wormhole_dropped() > 0,
            "the wormhole should attract and drop data; metrics: {:?}",
            run.sim().metrics()
        );
        let (total, bad) = run.route_counts();
        assert!(total > 0, "routes should form");
        assert!(bad > 0, "some routes should pass through the wormhole");
    }

    #[test]
    fn liteworp_detects_and_isolates_the_wormhole() {
        let mut run = small(true, 5).build();
        run.run_until_secs(400.0);
        assert!(
            run.all_detected(),
            "every colluder should be detected; trace: {:?}",
            run.sim().trace().events().take(40).collect::<Vec<_>>()
        );
    }

    #[test]
    fn liteworp_curbs_wormhole_drops() {
        let mut base = small(false, 9).build();
        let mut prot = small(true, 9).build();
        base.run_until_secs(600.0);
        prot.run_until_secs(600.0);
        assert!(
            prot.wormhole_dropped() < base.wormhole_dropped(),
            "protected {} vs baseline {}",
            prot.wormhole_dropped(),
            base.wormhole_dropped()
        );
    }

    #[test]
    fn debug_elides_scale_knobs_at_paper_defaults() {
        // Experiment seeds derive from the hash of this Debug string, so
        // a default-knob scenario must render exactly as it did before
        // the scale knobs existed — no new field names may appear.
        let base = format!("{:?}", Scenario::default());
        for knob in [
            "traffic_sources",
            "require_connected",
            "discovery_ttl",
            "local_traffic_hops",
            "wormhole_local_sources",
        ] {
            assert!(!base.contains(knob), "default Debug leaks {knob}");
        }
        let scaled = format!(
            "{:?}",
            Scenario {
                traffic_sources: Some(64),
                require_connected: false,
                discovery_ttl: Some(8),
                local_traffic_hops: Some(8),
                wormhole_local_sources: 8,
                ..Scenario::default()
            }
        );
        for knob in [
            "traffic_sources: Some(64)",
            "require_connected: false",
            "discovery_ttl: Some(8)",
            "local_traffic_hops: Some(8)",
            "wormhole_local_sources: 8",
        ] {
            assert!(scaled.contains(knob), "scaled Debug missing {knob}");
        }
    }

    #[test]
    fn traffic_sources_cap_limits_data_origins() {
        let mut capped = Scenario {
            nodes: 30,
            malicious: 0,
            traffic_sources: Some(0),
            ..Scenario::default()
        }
        .build();
        capped.run_until_secs(200.0);
        assert_eq!(capped.data_sent(), 0, "no sources, no data");

        let mut some = Scenario {
            nodes: 30,
            malicious: 0,
            traffic_sources: Some(5),
            ..Scenario::default()
        }
        .build();
        some.run_until_secs(200.0);
        assert!(some.data_sent() > 0, "capped sources still send");
    }

    #[test]
    fn unconnected_deployment_builds_and_runs() {
        // require_connected = false takes whatever deployment the seed
        // gives — possibly disconnected — without the retry loop.
        let mut run = Scenario {
            nodes: 40,
            malicious: 2,
            require_connected: false,
            seed: 5,
            ..Scenario::default()
        }
        .build();
        run.run_until_secs(120.0);
        assert_eq!(run.sim().node_count(), 40);
        assert!(run.data_sent() > 0, "traffic flows in the giant component");
    }

    #[test]
    fn zero_malicious_runs_clean() {
        let mut run = Scenario {
            nodes: 20,
            malicious: 0,
            protected: true,
            seed: 2,
            ..Scenario::default()
        }
        .build();
        run.run_until_secs(300.0);
        assert_eq!(run.wormhole_dropped(), 0);
        assert!(run.data_delivered() > 0, "traffic should flow");
        assert!(!run.all_routes().is_empty());
        // No honest node should ever be isolated.
        assert_eq!(run.sim().trace().isolations().count(), 0);
    }
}
