//! The obs name registry: every metric and span name the workspace uses
//! with a literal at an `obs::counter(…)` / `obs::gauge(…)` /
//! `obs::histogram(…)` / `obs::span(…)` call site must appear here.
//!
//! The lint gate (rule S003) cross-checks call sites against these
//! lists, so a typo'd or undocumented name fails CI instead of silently
//! producing an orphan time series. Names derived at runtime (the
//! per-span latency histograms `span_us.<span>`) are covered through
//! [`SPAN_NAMES`].
//!
//! The simulator's per-run counters are declared here too, as
//! [`SimCounter`]: a typed name the compiler checks at every
//! `Metrics::incr` / `Metrics::add` call site.
//!
//! See EXPERIMENTS.md §"Runtime observability" for what each name means.

/// Every span name, i.e. every phase of the runtime the profiler can
/// attribute time to. Taxonomy: `request` → `sweep` (daemon drain
/// thread) and `job` → sim phases (pool worker threads).
pub const SPAN_NAMES: &[&str] = &[
    "detection",
    "event_loop",
    "job",
    "neighbor_discovery",
    "request",
    "route",
    "sweep",
    "watch_buffer",
];

/// Every registered metric name (counters and gauges).
pub const METRIC_NAMES: &[&str] = &[
    "front.ping_failures",
    "front.reroutes",
    "front.restarts",
    "front.shards_up",
    "front.submits",
    "front.submits_local",
    "served.active_drains",
    "served.cache_hits",
    "served.cache_misses",
    "served.jobs_total",
    "served.journal_hits",
    "served.queue_depth",
    "served.requests_cancelled",
    "served.requests_done",
    "served.requests_failed",
    "served.requests_submitted",
];

/// Declares [`SimCounter`] and [`SIM_COUNTER_NAMES`] from one list, so a
/// variant and its name cannot drift apart.
macro_rules! sim_counters {
    ($($(#[$doc:meta])* $variant:ident = $name:literal,)*) => {
        /// A named per-run simulator counter. `netsim::Metrics` keeps one
        /// plain `u64` per variant, indexed by [`SimCounter::index`], so
        /// parallel simulations never share a counter.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum SimCounter {
            $($(#[$doc])* $variant,)*
        }

        /// Every simulator counter name, indexed by [`SimCounter::index`]
        /// and sorted by name (so index order is name order).
        pub const SIM_COUNTER_NAMES: &[&str] = &[$($name,)*];
    };
}

sim_counters! {
    /// Alert frames relayed one hop toward their recipient.
    AlertsRelayed = "alerts_relayed",
    /// Authenticated alerts sent by guards.
    AlertsSent = "alerts_sent",
    /// Data packets that reached their destination.
    DataDelivered = "data_delivered",
    /// Data packets dropped at a relay with no route onward.
    DataNoRoute = "data_no_route",
    /// Data packets evicted from a full pending-route queue.
    DataQueueOverflow = "data_queue_overflow",
    /// Data packets originated by sources.
    DataSent = "data_sent",
    /// Receptions corrupted by the fault hook.
    FaultFramesCorrupted = "fault_frames_corrupted",
    /// Receptions delayed by the fault hook.
    FaultFramesDelayed = "fault_frames_delayed",
    /// Receptions dropped by the fault hook.
    FaultFramesDropped = "fault_frames_dropped",
    /// Receptions duplicated by the fault hook.
    FaultFramesDuplicated = "fault_frames_duplicated",
    /// Receptions and tunnel messages lost because the receiver was down.
    FaultRxWhileDown = "fault_rx_while_down",
    /// Route requests a high-power attacker rebroadcast at raised power.
    HighpowerRequests = "highpower_requests",
    /// Isolations, local or confirmed by guard alerts.
    Isolations = "isolations",
    /// Frames a packet-relay attacker retransmitted.
    RelayRetransmissions = "relay_retransmissions",
    /// Route discoveries started.
    RouteRequests = "route_requests",
    /// Routes installed at their source.
    RoutesEstablished = "routes_established",
    /// Route requests a rushing attacker forwarded without backoff.
    RushedRequests = "rushed_requests",
    /// Data packets a rushing attacker dropped.
    RushingDropped = "rushing_dropped",
    /// Local suspicions raised for dropping.
    SuspectedDrop = "suspected_drop",
    /// Local suspicions raised for fabrication.
    SuspectedFabrication = "suspected_fabrication",
    /// Local suspicions of either kind.
    Suspicions = "suspicions",
    /// Unicast frames that ran out of MAC retries.
    UnicastExhausted = "unicast_exhausted",
    /// Unicast MAC retransmissions.
    UnicastRetries = "unicast_retries",
    /// Watch-buffer entries that expired unforwarded.
    WatchExpiries = "watch_expiries",
    /// Data packets the wormhole endpoints dropped.
    WormholeDropped = "wormhole_dropped",
    /// Route replies forged by the wormhole endpoints.
    WormholeForgedReplies = "wormhole_forged_replies",
    /// Route requests forged by the wormhole endpoints.
    WormholeForgedRequests = "wormhole_forged_requests",
    /// Route replies carried through the wormhole tunnel.
    WormholeTunneledReplies = "wormhole_tunneled_replies",
    /// Route requests carried through the wormhole tunnel.
    WormholeTunneledRequests = "wormhole_tunneled_requests",
}

impl SimCounter {
    /// Number of simulator counters.
    pub const COUNT: usize = SIM_COUNTER_NAMES.len();

    /// Dense index of this counter into [`SIM_COUNTER_NAMES`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_sorted_and_unique() {
        for list in [SPAN_NAMES, METRIC_NAMES, SIM_COUNTER_NAMES] {
            for pair in list.windows(2) {
                assert!(pair[0] < pair[1], "{pair:?} out of order or duplicated");
            }
        }
    }

    #[test]
    fn sim_counter_names_follow_the_variants() {
        let name = |c: SimCounter| SIM_COUNTER_NAMES[c.index()];
        assert_eq!(SimCounter::COUNT, 29);
        assert_eq!(name(SimCounter::AlertsRelayed), "alerts_relayed");
        assert_eq!(name(SimCounter::WatchExpiries), "watch_expiries");
        let last = SimCounter::WormholeTunneledRequests;
        assert_eq!(last.index(), SimCounter::COUNT - 1);
        assert_eq!(name(last), "wormhole_tunneled_requests");
    }
}
