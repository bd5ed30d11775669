//! The traced simulator build: every node wrapped in a timing adapter.
//!
//! [`build_traced`] makes the same public calls `Scenario::build` makes,
//! in the same order, and additionally times the field deployment and
//! the LITEWORP neighbor preload. Every node's logic is wrapped in
//! [`Timed`], which clocks each callback, so the event loop splits into
//! callback time (routing, with the LITEWORP monitor and the attacks
//! inside it) and the simulator's own time (queue, medium, MAC, fan-out).
//! All sums are integer nanoseconds, so the split is exact.

use liteworp::types::NodeId as CoreId;
use liteworp_attacks::wormhole::{WormholeConfig, WormholeNode};
use liteworp_bench::scenario::{Scenario, ScenarioAttack};
use liteworp_netsim::field::{Field, NodeId as SimId};
use liteworp_netsim::frame::Frame;
use liteworp_netsim::node::{Context, NodeLogic};
use liteworp_netsim::prelude::{SimDuration, SimTime, Simulator};
use liteworp_routing::bootstrap::preload_liteworp;
use liteworp_routing::node::{core_id, ProtocolNode};
use liteworp_routing::packet::Packet;
use liteworp_routing::params::{DiscoveryMode, NodeParams};
use liteworp_runner::cache::fnv64;
use liteworp_runner::rng::{Pcg32, Rng};
use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Instant;

/// Callback time and call counts shared by every [`Timed`] node of a run.
#[derive(Debug, Default)]
pub struct CallbackClock {
    frame_ns: Cell<u64>,
    frame_calls: Cell<u64>,
    timer_ns: Cell<u64>,
    timer_calls: Cell<u64>,
    other_ns: Cell<u64>,
    other_calls: Cell<u64>,
}

fn bump(ns: &Cell<u64>, calls: &Cell<u64>, start: Instant) {
    ns.set(ns.get() + start.elapsed().as_nanos() as u64);
    calls.set(calls.get() + 1);
}

/// A node wrapper that clocks every callback into a [`CallbackClock`].
/// Downcasts see through it to the wrapped logic.
pub struct Timed {
    inner: Box<dyn NodeLogic<Packet>>,
    clock: Rc<CallbackClock>,
}

impl NodeLogic<Packet> for Timed {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        bump(&self.clock.other_ns, &self.clock.other_calls, t);
    }

    fn on_frame(&mut self, ctx: &mut Context<'_, Packet>, frame: &Frame<Packet>) {
        let t = Instant::now();
        self.inner.on_frame(ctx, frame);
        bump(&self.clock.frame_ns, &self.clock.frame_calls, t);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        bump(&self.clock.timer_ns, &self.clock.timer_calls, t);
    }

    fn on_tunnel(&mut self, ctx: &mut Context<'_, Packet>, from: SimId, payload: &Packet) {
        let t = Instant::now();
        self.inner.on_tunnel(ctx, from, payload);
        bump(&self.clock.other_ns, &self.clock.other_calls, t);
    }

    fn on_collision(&mut self, ctx: &mut Context<'_, Packet>) {
        let t = Instant::now();
        self.inner.on_collision(ctx);
        bump(&self.clock.other_ns, &self.clock.other_calls, t);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Exact time split of one traced job, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Build start to end of the event loop.
    pub total_ns: u64,
    /// `Field` deployment (netsim).
    pub field_build_ns: u64,
    /// `preload_liteworp` over every node (core).
    pub preload_ns: u64,
    /// `on_frame` callbacks (routing, with core and attacks inside).
    pub frame_ns: u64,
    /// `on_timer` callbacks.
    pub timer_ns: u64,
    /// `on_start`, `on_tunnel` and `on_collision` callbacks.
    pub other_ns: u64,
    /// Event loop minus every callback: queue, medium, MAC, fan-out.
    pub netsim_self_ns: u64,
    /// Total minus every layer above; reported, never hidden.
    pub unattributed_ns: i64,
}

impl Accounting {
    /// Splits a job whose build took `build_ns` (of which `field_ns` and
    /// `preload_ns` are attributed) and whose event loop took `loop_ns`,
    /// of which the callbacks in `clock` are attributed.
    pub fn split(
        build_ns: u64,
        field_ns: u64,
        preload_ns: u64,
        loop_ns: u64,
        clock: &CallbackClock,
    ) -> Accounting {
        let (frame_ns, timer_ns, other_ns) = (
            clock.frame_ns.get(),
            clock.timer_ns.get(),
            clock.other_ns.get(),
        );
        let callbacks = frame_ns + timer_ns + other_ns;
        assert!(
            callbacks <= loop_ns,
            "callbacks ({callbacks} ns) outlasted their event loop ({loop_ns} ns)"
        );
        let netsim_self_ns = loop_ns - callbacks;
        let total_ns = build_ns + loop_ns;
        let attributed = field_ns + preload_ns + netsim_self_ns + callbacks;
        Accounting {
            total_ns,
            field_build_ns: field_ns,
            preload_ns,
            frame_ns,
            timer_ns,
            other_ns,
            netsim_self_ns,
            unattributed_ns: total_ns as i64 - attributed as i64,
        }
    }

    /// The event loop's total: the simulator's own time plus callbacks.
    pub fn event_loop_ns(&self) -> u64 {
        self.netsim_self_ns + self.frame_ns + self.timer_ns + self.other_ns
    }

    /// Whether the layers plus the unattributed remainder give the total.
    pub fn balances(&self) -> bool {
        let layers = self.field_build_ns + self.preload_ns + self.event_loop_ns();
        layers as i64 + self.unattributed_ns == self.total_ns as i64
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Accounting) {
        self.total_ns += o.total_ns;
        self.field_build_ns += o.field_build_ns;
        self.preload_ns += o.preload_ns;
        self.frame_ns += o.frame_ns;
        self.timer_ns += o.timer_ns;
        self.other_ns += o.other_ns;
        self.netsim_self_ns += o.netsim_self_ns;
        self.unattributed_ns += o.unattributed_ns;
    }
}

/// A built, traced simulator plus the build-phase split.
pub struct TracedBuild {
    /// The simulator, every node wrapped in [`Timed`].
    pub sim: Simulator<Packet>,
    /// The shared callback clock.
    pub clock: Rc<CallbackClock>,
    /// Whole build, ns.
    pub build_ns: u64,
    /// Field deployment, ns.
    pub field_ns: u64,
    /// LITEWORP preload, ns.
    pub preload_ns: u64,
}

/// Builds `s` exactly as `Scenario::build` does, timing the field and the
/// preload and wrapping each node in [`Timed`]. Only the wormhole attack
/// (every benchmark workload's) is supported.
pub fn build_traced(s: &Scenario) -> Result<TracedBuild, String> {
    if s.attack != ScenarioAttack::Wormhole {
        return Err(format!(
            "traced build supports the wormhole attack only, got {:?}",
            s.attack
        ));
    }
    let start = Instant::now();
    let mut rng = Pcg32::seed_from_u64(s.seed);
    let field = if s.require_connected {
        Field::connected_with_average_neighbors(
            s.nodes,
            s.avg_neighbors,
            s.radio.range_m,
            500,
            &mut rng,
        )
        .ok_or("no connected deployment found")?
    } else {
        Field::with_average_neighbors(s.nodes, s.avg_neighbors, s.radio.range_m, &mut rng)
    };
    let field_ns = start.elapsed().as_nanos() as u64;
    let malicious = choose_colluders(&field, s.malicious, &mut rng)
        .ok_or("no colluder placement more than 2 hops apart found")?;

    let params = NodeParams {
        total_nodes: s.nodes as u32,
        liteworp: s.protected.then(|| s.liteworp.clone()),
        key_seed: 0xBEEF ^ s.seed,
        route_timeout: SimDuration::from_secs_f64(s.route_timeout),
        data_interval_mean: Some(SimDuration::from_secs_f64(s.data_mean)),
        dest_change_mean: SimDuration::from_secs_f64(s.dest_change_mean),
        route_selection: s.route_selection,
        discovery: DiscoveryMode::Preloaded,
        relay_alerts: s.relay_alerts,
        rreq_ttl: s.discovery_ttl,
        ..NodeParams::default()
    };
    let sources: Option<BTreeSet<usize>> = s.traffic_sources.map(|k| {
        let mut set: BTreeSet<usize> = (0..k.min(s.nodes)).collect();
        for &m in &malicious {
            let mut promoted = 0;
            for n in field.nodes_within_hops(SimId(m.0), 2) {
                if promoted == s.wormhole_local_sources {
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

    let attack_start = SimTime::from_secs_f64(s.attack_start);
    let clock = Rc::new(CallbackClock::default());
    let mut preload_ns = 0u64;
    let mut sim = Simulator::new(field, s.radio.clone(), s.seed.wrapping_mul(31) + 7);
    for i in 0..s.nodes {
        let id = CoreId(i as u32);
        let mut node_params = params.clone();
        let is_source = sources.as_ref().is_none_or(|set| set.contains(&i));
        if !is_source {
            node_params.data_interval_mean = None;
        } else if let Some(h) = s.local_traffic_hops {
            let pool: Vec<CoreId> = sim
                .field()
                .nodes_within_hops(SimId(i as u32), h)
                .into_iter()
                .map(core_id)
                .collect();
            if pool.is_empty() {
                node_params.data_interval_mean = None;
            } else {
                node_params.dest_pool = Some(pool);
            }
        }
        let mut inner = ProtocolNode::new(id, node_params);
        if let Some(lw) = inner.liteworp_mut() {
            let t = Instant::now();
            preload_liteworp(lw, SimId(i as u32), sim.field());
            preload_ns += t.elapsed().as_nanos() as u64;
        }
        let logic: Box<dyn NodeLogic<Packet>> = if malicious.contains(&id) {
            let attack = WormholeConfig {
                colluders: malicious.iter().copied().filter(|&m| m != id).collect(),
                active_from: attack_start,
                tunnel_latency: SimDuration::from_secs_f64(s.tunnel_latency),
                forge: s.forge,
                smart_reply: s.smart_reply,
            };
            Box::new(WormholeNode::new(inner, attack))
        } else {
            Box::new(inner)
        };
        sim.push_node(Box::new(Timed {
            inner: logic,
            clock: Rc::clone(&clock),
        }));
    }
    Ok(TracedBuild {
        sim,
        clock,
        build_ns: start.elapsed().as_nanos() as u64,
        field_ns,
        preload_ns,
    })
}

/// The colluder choice of `Scenario::build`: `m` nodes, pairwise more
/// than two hops apart, drawn from the same RNG stream.
fn choose_colluders(field: &Field, m: usize, rng: &mut Pcg32) -> Option<Vec<CoreId>> {
    if m == 0 {
        return Some(Vec::new());
    }
    let mut ids: Vec<u32> = (0..field.len() as u32).collect();
    for _attempt in 0..200 {
        rng.shuffle(&mut ids);
        let mut chosen: Vec<u32> = Vec::with_capacity(m);
        for &cand in &ids {
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

/// FNV-64 over every simulated counter and the protocol trace length: a
/// pure-speed change leaves it unchanged.
pub fn counter_digest(sim: &Simulator<Packet>) -> u64 {
    fnv64(
        format!(
            "{:?}|events={}",
            sim.metrics(),
            sim.trace().events().count()
        )
        .as_bytes(),
    )
}

/// The honest core of a node, seen through any wrapper.
fn protocol_node(sim: &Simulator<Packet>, i: usize) -> Option<&ProtocolNode> {
    let any = sim.logic(SimId(i as u32)).as_any();
    any.downcast_ref::<ProtocolNode>()
        .or_else(|| any.downcast_ref::<WormholeNode>().map(WormholeNode::inner))
}

/// Counters, layer split and per-node storage of one traced job.
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    /// Exact time split.
    pub acct: Accounting,
    /// `on_frame` calls.
    pub frame_calls: u64,
    /// `on_timer` calls.
    pub timer_calls: u64,
    /// Built-in and named simulator counters.
    pub frames_sent: u64,
    /// Receptions delivered to node logic.
    pub frames_delivered: u64,
    /// Receptions destroyed by collisions.
    pub frames_collided: u64,
    /// MAC deferrals.
    pub mac_deferrals: u64,
    /// Route discoveries started.
    pub route_requests: u64,
    /// Data packets originated.
    pub data_sent: u64,
    /// Data packets delivered.
    pub data_delivered: u64,
    /// Alerts sent plus alerts relayed.
    pub alert_frames: u64,
    /// Watch-buffer entries that expired unconfirmed.
    pub watch_expiries: u64,
    /// Suspicions raised.
    pub suspicions: u64,
    /// Isolations.
    pub isolations: u64,
    /// Data swallowed by the wormhole.
    pub wormhole_dropped: u64,
    /// Sum of LITEWORP storage over protected nodes, and their count.
    pub storage_bytes: u64,
    /// Protected nodes counted in `storage_bytes`.
    pub protected_nodes: u64,
    /// [`counter_digest`] of the traced run.
    pub digest: u64,
    /// Wall time of the same job untraced (build + loop), ns.
    pub untraced_ns: u64,
}

/// Runs `s` for `duration` simulated seconds untraced, then traced, and
/// returns the traced split. `Err` when the traced run does not reproduce
/// the untraced counters exactly. The split balances by construction
/// (see [`Accounting::split`]); the self-tests check that identity.
pub fn trace_job(s: &Scenario, duration: f64) -> Result<JobTrace, String> {
    let t = Instant::now();
    let mut plain = s.build();
    plain.run_until_secs(duration);
    let untraced_ns = t.elapsed().as_nanos() as u64;
    let plain_digest = counter_digest(plain.sim());
    drop(plain);

    let mut b = build_traced(s)?;
    let t = Instant::now();
    b.sim.run_until(SimTime::from_secs_f64(duration));
    let loop_ns = t.elapsed().as_nanos() as u64;
    let acct = Accounting::split(b.build_ns, b.field_ns, b.preload_ns, loop_ns, &b.clock);
    let digest = counter_digest(&b.sim);
    if digest != plain_digest {
        return Err(format!(
            "traced run diverged from untraced (seed {}): counters {digest:016x} != {plain_digest:016x}",
            s.seed
        ));
    }
    let m = b.sim.metrics();
    let (mut storage_bytes, mut protected_nodes) = (0u64, 0u64);
    for i in 0..b.sim.node_count() {
        if let Some(lw) = protocol_node(&b.sim, i).and_then(ProtocolNode::liteworp) {
            storage_bytes += lw.storage_bytes() as u64;
            protected_nodes += 1;
        }
    }
    Ok(JobTrace {
        acct,
        frame_calls: b.clock.frame_calls.get(),
        timer_calls: b.clock.timer_calls.get(),
        frames_sent: m.frames_sent,
        frames_delivered: m.frames_delivered,
        frames_collided: m.frames_collided,
        mac_deferrals: m.mac_deferrals,
        route_requests: m.get("route_requests"),
        data_sent: m.get("data_sent"),
        data_delivered: m.get("data_delivered"),
        alert_frames: m.get("alerts_sent") + m.get("alerts_relayed"),
        watch_expiries: m.get("watch_expiries"),
        suspicions: m.get("suspicions"),
        isolations: m.get("isolations"),
        wormhole_dropped: m.get("wormhole_dropped"),
        storage_bytes,
        protected_nodes,
        digest,
        untraced_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(protected: bool) -> Scenario {
        Scenario {
            nodes: 30,
            malicious: 2,
            protected,
            seed: 11,
            ..Scenario::default()
        }
    }

    #[test]
    fn traced_and_untraced_runs_give_identical_counters() {
        for protected in [true, false] {
            let job = trace_job(&small(protected), 200.0).expect("traced run reproduces");
            assert!(job.frames_delivered > 0);
            assert!(job.frame_calls > 0);
        }
    }

    #[test]
    fn layers_plus_unattributed_equal_the_total() {
        let job = trace_job(&small(true), 120.0).unwrap();
        assert!(job.acct.balances());
        let a = job.acct;
        let layers = a.field_build_ns
            + a.preload_ns
            + a.netsim_self_ns
            + a.frame_ns
            + a.timer_ns
            + a.other_ns;
        assert_eq!(layers as i64 + a.unattributed_ns, a.total_ns as i64);
        let mut sum = Accounting::default();
        sum.add(&a);
        sum.add(&a);
        assert!(sum.balances(), "sums of balanced splits balance");
    }

    #[test]
    fn a_split_that_loses_time_does_not_balance() {
        let clock = CallbackClock::default();
        clock.frame_ns.set(40);
        let mut a = Accounting::split(100, 30, 20, 50, &clock);
        assert!(a.balances());
        assert_eq!(a.unattributed_ns, 50);
        a.netsim_self_ns += 1;
        assert!(!a.balances());
    }
}
