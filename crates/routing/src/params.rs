//! Protocol-node parameters (the knobs of Table 2).

use liteworp::config::{Config, ConfigSource};
use liteworp::types::NodeId;
use liteworp_netsim::time::SimDuration;
use std::fmt;
use std::sync::LazyLock;

/// How a node selects among multiple route replies for the same discovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteSelection {
    /// Keep the route from the first reply that arrives (ARAN-style
    /// "fastest path"; neutralizes hop-count games — the Section 3.1
    /// remark).
    FirstReply,
    /// Prefer the reply claiming the fewest hops (the classic metric the
    /// wormhole exploits). This is the paper's vulnerable default.
    ShortestHops,
}

/// How a node obtains its neighbor knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveryMode {
    /// Run the message-level HELLO / reply / announce exchange at start,
    /// collecting replies for the given window.
    Messages {
        /// Reply-collection window before the list announcement.
        collect: SimDuration,
    },
    /// The host preloaded the neighbor tables (oracle bootstrap): the
    /// paper treats discovery as a secure one-time step, so experiments
    /// may skip the message exchange to decouple results from discovery
    /// losses.
    Preloaded,
    /// Like [`DiscoveryMode::Messages`], for a node deployed *after* the
    /// rest of the network: after announcing its own list it additionally
    /// broadcasts a `ListRequest` so established neighbors re-announce
    /// theirs, giving the joiner second-hop knowledge. This is the
    /// incremental-deployment / mobility hook of Section 7.
    LateJoin {
        /// Reply-collection window before the list announcement.
        collect: SimDuration,
    },
}

/// Period of a node's watch-buffer expiry grid (≤ δ for timely drop
/// detection).
pub const EXPIRE_TICK: SimDuration = SimDuration::from_millis(250);

/// How long a source waits for a route reply before re-flooding a
/// request (doubled per consecutive failure, up to 16×).
pub const REQUEST_RETRY: SimDuration = SimDuration::from_secs(3);

/// Protocol-level random backoff before forwarding a route request
/// (uniform in `[0, jitter]`). The paper's Section 3.5 notes that honest
/// nodes "back off for a random amount of time before forwarding" to
/// reduce MAC collisions during floods — skipping it is exactly the
/// rushing attack.
pub const REQ_FORWARD_JITTER: SimDuration = SimDuration::from_millis(120);

/// Random delay before generating or forwarding a route reply (uniform
/// in `[0, jitter]`), letting the request flood die down so guards
/// reliably overhear every reply hop.
pub const REP_FORWARD_JITTER: SimDuration = SimDuration::from_millis(150);

/// Maximum data packets a source queues per destination while
/// discovering a route.
pub const PENDING_QUEUE_CAP: usize = 8;

/// Configuration of one protocol node.
#[derive(Clone)]
pub struct NodeParams {
    /// Total nodes in the network (for random destination selection).
    pub total_nodes: u32,
    /// LITEWORP configuration; `None` runs the unprotected baseline.
    pub liteworp: Option<Config>,
    /// Network-wide key seed (models pre-distributed pairwise keys).
    pub key_seed: u64,
    /// Route-cache lifetime `TOut_Route` (Table 2: 50 s).
    pub route_timeout: SimDuration,
    /// Mean of the exponential data inter-arrival time (Table 2: 10 s);
    /// `None` disables traffic generation at this node.
    pub data_interval_mean: Option<SimDuration>,
    /// Mean time between random destination changes (Table 2: 200 s).
    pub dest_change_mean: SimDuration,
    /// Route-reply selection policy.
    pub route_selection: RouteSelection,
    /// Neighbor-knowledge bootstrap mode.
    pub discovery: DiscoveryMode,
    /// Whether alerts to out-of-range recipients are relayed through a
    /// common neighbor (one hop). Disabling this models the paper's bare
    /// "multiple unicasts" reading and is used by the ablation study.
    pub relay_alerts: bool,
    /// Maximum hops a route-request flood may traverse (`None` =
    /// network-wide, the paper-scale default). A request whose
    /// rebroadcast would exceed the TTL is consumed — reverse-path state
    /// and destination replies still work — but not re-flooded, like
    /// AODV's expanding-ring search. Scale experiments use this to keep
    /// per-discovery work independent of the network size.
    pub rreq_ttl: Option<u8>,
    /// Candidate data destinations (`None` = any node). Scale scenarios
    /// restrict each source to the destinations a TTL-scoped discovery
    /// can actually reach (its h-hop neighborhood).
    pub dest_pool: Option<Vec<NodeId>>,
    /// Uniform random delay before this node's *first* data packet. A
    /// cold-start network where every node floods a route request in the
    /// same few seconds collapses any 40 kbps channel; real deployments
    /// ramp up, so we spread the initial discoveries.
    pub traffic_warmup: SimDuration,
}

/// Hand-written so the Debug string is an explicit contract: scenario
/// descriptors hash `{:?}` output to derive experiment seeds, so a
/// derived impl would silently re-seed every run whenever a field is
/// added or reordered (lint rule R001). Field order matches the struct
/// declaration and the output is byte-identical to the former derive.
impl fmt::Debug for NodeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeParams")
            .field("total_nodes", &self.total_nodes)
            .field("liteworp", &self.liteworp)
            .field("key_seed", &self.key_seed)
            .field("route_timeout", &self.route_timeout)
            .field("data_interval_mean", &self.data_interval_mean)
            .field("dest_change_mean", &self.dest_change_mean)
            .field("route_selection", &self.route_selection)
            .field("discovery", &self.discovery)
            .field("relay_alerts", &self.relay_alerts)
            .field("rreq_ttl", &self.rreq_ttl)
            .field("dest_pool", &self.dest_pool)
            .field("traffic_warmup", &self.traffic_warmup)
            .finish()
    }
}

/// A protected node's guard reads its LITEWORP parameters from the
/// node's shared `NodeParams`, so nodes built from one `Arc<NodeParams>`
/// keep one copy of them.
impl ConfigSource for NodeParams {
    fn config(&self) -> &Config {
        // A node builds its guard only when `liteworp` is set, and shared
        // parameters never change, so the fallback is never read.
        static UNSET: LazyLock<Config> = LazyLock::new(Config::default);
        match &self.liteworp {
            Some(config) => config,
            None => &UNSET,
        }
    }
}

impl Default for NodeParams {
    fn default() -> Self {
        NodeParams {
            total_nodes: 0,
            liteworp: Some(Config::default()),
            key_seed: 0x117e_0042,
            route_timeout: SimDuration::from_secs(50),
            data_interval_mean: Some(SimDuration::from_secs(10)),
            dest_change_mean: SimDuration::from_secs(200),
            route_selection: RouteSelection::ShortestHops,
            discovery: DiscoveryMode::Preloaded,
            relay_alerts: true,
            rreq_ttl: None,
            dest_pool: None,
            traffic_warmup: SimDuration::from_secs(30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_table_2() {
        let p = NodeParams::default();
        assert_eq!(p.route_timeout, SimDuration::from_secs(50));
        assert_eq!(p.data_interval_mean, Some(SimDuration::from_secs(10)));
        assert_eq!(p.dest_change_mean, SimDuration::from_secs(200));
        assert_eq!(p.route_selection, RouteSelection::ShortestHops);
        assert!(p.liteworp.is_some());
    }
}
