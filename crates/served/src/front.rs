//! The shard front: one daemon that spawns, supervises, and routes to a
//! ring of per-shard worker daemons (`liteworp-served --front`).
//!
//! # Topology
//!
//! The front listens on the public address and owns N worker processes
//! (shards), each a full plain daemon — own engine pool, result cache,
//! per-request journals, request WAL — under
//! `state_dir/shard-<id>/`. Submits route to `key % N` (ring successor
//! when the home shard is out), so the same content-addressed request
//! always lands on the same shard while the ring is healthy. A local
//! in-process [`Server`] under `state_dir/local/` is the fallback of
//! last resort: when no shard can take a request the front degrades
//! onto it — reduced throughput, but work is never refused.
//!
//! # Supervision
//!
//! A supervisor thread probes every `Up` shard each interval: child
//! exit status (crash detection) plus a protocol ping over a *fresh*
//! connection (catches stopped or stalled workers, not just dead
//! processes).
//! A failed shard walks the ladder `Up → Degraded → (Up | Quarantined)`:
//! restarts are paced by the runner's seeded capped-exponential backoff
//! ([`liteworp_runner::supervisor::RestartBudget`]) and bounded by
//! `max_restarts`; a restarted worker adopts its state dir with
//! `--resume`, so it finishes exactly the sweeps it had accepted. When
//! the budget is exhausted the shard is quarantined and its orphaned
//! (not-yet-done) requests are rerouted — in deterministic key order —
//! to ring survivors or the local engine. Because sweep digests are
//! pure functions of request content and seeds, a rerouted sweep drains
//! to the same digest as an uninterrupted one.
//!
//! # Connections and locks
//!
//! Connections are served by the accept and connection loop in
//! [`crate::net`], shared with the plain daemon; the front supplies only
//! its routed answers. Its routing registry and the shard-slot locks are
//! taken one at a time, always as statement-scoped temporaries, and
//! never across a socket operation — the C001/C002 lint rules hold on
//! every path here.

use crate::frame::{read_frame, write_frame};
use crate::lock;
use crate::net::{self, Daemon};
use crate::proto::{err_response, format_key, ok_response, request_key, unknown_request, Request};
use crate::server::{Server, ServerConfig};
use crate::shard::{self, ShardHealth, ShardSlot, WorkerSpawn};
use liteworp_bench::catalog;
use liteworp_obs as obs;
use liteworp_runner::supervisor::RestartBudget;
use liteworp_runner::Json;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How a front instance is configured.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Public listen address; port 0 picks a free port.
    pub addr: String,
    /// Root state directory (`shard-<id>/` and `local/` live under it).
    pub state_dir: PathBuf,
    /// Number of worker shards to spawn.
    pub shards: usize,
    /// How worker processes are launched.
    pub spawn: WorkerSpawn,
    /// Restarts allowed per shard before it is quarantined.
    pub max_restarts: u32,
    /// Seed for the deterministic restart backoff schedule.
    pub seed: u64,
    /// How often the supervisor probes shard liveness.
    pub ping_interval: Duration,
    /// Deadline per liveness probe (connect / write / read each).
    pub ping_timeout: Duration,
    /// Adopt existing shard state dirs (workers start with `--resume`).
    pub resume: bool,
}

impl FrontConfig {
    /// Defaults: loopback ephemeral port, 2 shards, 2 restarts per
    /// shard, 500 ms probe interval with a 2 s probe deadline.
    pub fn new(state_dir: impl Into<PathBuf>, exe: impl Into<PathBuf>) -> FrontConfig {
        FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: state_dir.into(),
            shards: 2,
            spawn: WorkerSpawn {
                exe: exe.into(),
                jobs: None,
                drainers: 2,
                no_cache: false,
            },
            max_restarts: 2,
            seed: 42,
            ping_interval: Duration::from_millis(500),
            ping_timeout: Duration::from_secs(2),
            resume: false,
        }
    }
}

/// Where a routed request currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// Worker shard by ring index.
    Shard(usize),
    /// The front's in-process fallback engine.
    Local,
}

fn target_json(target: Target) -> Json {
    match target {
        Target::Shard(id) => Json::from(id),
        Target::Local => Json::from("local"),
    }
}

/// The front's record of one submitted request: enough to re-submit it
/// anywhere (content-addressed identity) plus its current owner.
struct RoutedReq {
    kind: String,
    params: Json,
    trace: bool,
    target: Target,
    /// Printed digest once a `done` phase has been observed; lets the
    /// front answer status for requests whose owner is gone.
    done_digest: Option<String>,
}

struct FrontMetrics {
    submits: obs::Counter,
    submits_local: obs::Counter,
    reroutes: obs::Counter,
    restarts: obs::Counter,
    ping_failures: obs::Counter,
    shards_up: obs::Gauge,
}

impl FrontMetrics {
    fn new() -> FrontMetrics {
        FrontMetrics {
            submits: obs::counter("front.submits"),
            submits_local: obs::counter("front.submits_local"),
            reroutes: obs::counter("front.reroutes"),
            restarts: obs::counter("front.restarts"),
            ping_failures: obs::counter("front.ping_failures"),
            shards_up: obs::gauge("front.shards_up"),
        }
    }
}

struct FrontState {
    shards: Vec<ShardSlot>,
    registry: Mutex<BTreeMap<u64, RoutedReq>>,
    shutdown: AtomicBool,
    /// The front's own listen address.
    front_addr: SocketAddr,
    /// The in-process fallback engine's listen address.
    fallback_addr: SocketAddr,
    metrics: FrontMetrics,
    state_dir: PathBuf,
    started_us: u64,
}

/// A running shard front (in-process handle, used by the binary and by
/// integration tests).
pub struct Front {
    state: Arc<FrontState>,
    accept: Option<std::thread::JoinHandle<()>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    local: Option<Server>,
}

impl Front {
    /// Starts the fallback engine, spawns the worker ring, binds the
    /// public socket, and starts the accept and supervisor threads.
    pub fn start(cfg: FrontConfig) -> std::io::Result<Front> {
        obs::enable();
        std::fs::create_dir_all(&cfg.state_dir)?;

        // The never-dying last-resort shard: a full in-process daemon on
        // a loopback port. Started eagerly so degradation never races a
        // lazy bring-up.
        let local = Server::start(ServerConfig {
            threads: cfg.spawn.jobs,
            drainers: cfg.spawn.drainers,
            resume: cfg.resume,
            no_cache: cfg.spawn.no_cache,
            ..ServerConfig::new(cfg.state_dir.join("local"))
        })?;

        let mut slots = Vec::new();
        let mut children: Vec<Option<Child>> = Vec::new();
        for id in 0..cfg.shards.max(1) {
            let dir = cfg.state_dir.join(format!("shard-{id}"));
            let (child, addr) = shard::spawn_worker(&cfg.spawn, &dir, cfg.resume)?;
            slots.push(ShardSlot::new(id, dir, addr, child.id()));
            children.push(Some(child));
        }
        let budgets: Vec<RestartBudget> = (0..slots.len())
            .map(|id| shard::restart_budget(cfg.seed, id, cfg.max_restarts))
            .collect();

        let listener = TcpListener::bind(&cfg.addr)?;
        let front_addr = listener.local_addr()?;

        let state = Arc::new(FrontState {
            shards: slots,
            registry: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            front_addr,
            fallback_addr: local.local_addr(),
            metrics: FrontMetrics::new(),
            state_dir: cfg.state_dir.clone(),
            started_us: obs::clock::now_micros(),
        });
        publish(&state);

        let accept = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || net::accept_loop(listener, state))
        };
        let supervisor = {
            let state = Arc::clone(&state);
            let spawn = cfg.spawn.clone();
            let (interval, timeout) = (cfg.ping_interval, cfg.ping_timeout);
            std::thread::spawn(move || {
                supervise(state, children, budgets, spawn, interval, timeout)
            })
        };

        Ok(Front {
            state,
            accept: Some(accept),
            supervisor: Some(supervisor),
            local: Some(local),
        })
    }

    /// The front's bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.front_addr
    }

    /// Initiates shutdown: the supervisor shuts the worker ring down
    /// (gracefully where possible) and the accept loop stops.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Waits for the accept loop, the supervisor (which reaps the
    /// workers), and the local fallback engine to finish.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        if let Some(local) = self.local.take() {
            local.shutdown();
            local.join();
        }
    }
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// Ring routing: the home shard is `key % N`; a non-routable home falls
/// through to its ring successors, then to the local engine. `exclude`
/// drops one shard from consideration (the one that just failed).
fn pick_target(state: &FrontState, key: u64, exclude: Option<usize>) -> Target {
    let n = state.shards.len();
    if n > 0 {
        let home = (key % n as u64) as usize;
        for off in 0..n {
            let id = (home + off) % n;
            if exclude == Some(id) {
                continue;
            }
            if state.shards[id].routable_addr().is_some() {
                return Target::Shard(id);
            }
        }
    }
    Target::Local
}

fn target_addr(state: &FrontState, target: Target) -> Option<SocketAddr> {
    match target {
        Target::Local => Some(state.fallback_addr),
        Target::Shard(id) => state.shards[id].routable_addr(),
    }
}

/// Forwards `payload` to `target`; a target that is not routable fails
/// like an unreachable one.
fn forward_to(state: &FrontState, target: Target, payload: &str) -> Result<Json, String> {
    let addr = target_addr(state, target).ok_or("shard not routable")?;
    shard::forward(addr, payload)
}

/// The current owner of a routed request.
fn owner(state: &FrontState, key: u64) -> Option<Target> {
    lock(&state.registry).get(&key).map(|r| r.target)
}

fn set_target(state: &FrontState, key: u64, target: Target) {
    if let Some(r) = lock(&state.registry).get_mut(&key) {
        r.target = target;
    }
}

/// Records an observed `done` digest so the front can answer status for
/// this request even after its owner shard is gone.
fn remember_done(state: &FrontState, key: u64, resp: &Json) {
    if resp.get("phase").and_then(Json::as_str) != Some("done") {
        return;
    }
    let Some(digest) = resp.get("digest").and_then(Json::as_str) else {
        return;
    };
    if let Some(r) = lock(&state.registry).get_mut(&key) {
        r.done_digest = Some(digest.to_string());
    }
}

/// The payload of a keyed op (`status`, `cancel`, `subscribe`) forwarded
/// to the owner.
fn keyed_payload(op: &str, key: u64) -> String {
    Json::object([("op", Json::from(op)), ("req", Json::from(format_key(key)))]).dump()
}

fn submit_payload(kind: &str, params: &Json, trace: bool) -> String {
    Json::object([
        ("op", Json::from("submit")),
        ("kind", Json::from(kind)),
        ("params", params.clone()),
        ("trace", Json::from(trace)),
    ])
    .dump()
}

/// Overrides/appends fields on a worker response before relaying it.
fn with_fields(resp: Json, extra: Vec<(String, Json)>) -> String {
    match resp {
        Json::Obj(mut pairs) => {
            for (key, value) in extra {
                if let Some(slot) = pairs.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = value;
                } else {
                    pairs.push((key, value));
                }
            }
            Json::Obj(pairs).dump()
        }
        other => other.dump(),
    }
}

// ---------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------

/// Handles one routed `submit`: validate, register (dedup is decided by
/// the *front's* registry — a shard that restarted or inherited a
/// reroute has no memory of earlier submissions), then walk the forward
/// ladder owner → ring successors → local engine. Work is never
/// refused while the local engine stands.
fn front_submit(state: &FrontState, kind: String, params: Json, trace: bool) -> String {
    if let Err(e) = catalog::cells_for(&kind, &params) {
        return err_response(&e);
    }
    let _route_span = obs::span("route");
    let key = request_key(&kind, &params);
    let preferred = pick_target(state, key, None);
    let (mut target, dedup) = {
        let mut registry = lock(&state.registry);
        match registry.entry(key) {
            Entry::Occupied(occupied) => (occupied.get().target, true),
            Entry::Vacant(vacant) => {
                vacant.insert(RoutedReq {
                    kind: kind.clone(),
                    params: params.clone(),
                    trace,
                    target: preferred,
                    done_digest: None,
                });
                (preferred, false)
            }
        }
    };
    state.metrics.submits.inc();
    // A request owned by a quarantined shard is re-homed up front; one
    // owned by a merely degraded shard stays put (the worker resumes it).
    if let Target::Shard(id) = target {
        if state.shards[id].snapshot().health == ShardHealth::Quarantined {
            target = pick_target(state, key, Some(id));
            set_target(state, key, target);
        }
    }
    let payload = submit_payload(&kind, &params, trace);
    let mut attempts = 0usize;
    loop {
        match forward_to(state, target, &payload) {
            Ok(resp) => {
                if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                    // The worker rejected a validated submit — relay the
                    // error verbatim rather than masking it.
                    return resp.dump();
                }
                if target == Target::Local {
                    state.metrics.submits_local.inc();
                }
                set_target(state, key, target);
                remember_done(state, key, &resp);
                let shard_dedup = resp.get("dedup").and_then(Json::as_bool).unwrap_or(false);
                return with_fields(
                    resp,
                    vec![
                        ("dedup".to_string(), Json::from(dedup || shard_dedup)),
                        ("shard".to_string(), target_json(target)),
                    ],
                );
            }
            Err(e) => {
                if target == Target::Local {
                    return err_response(&format!("local fallback engine failed: {e}"));
                }
                attempts += 1;
                state.metrics.reroutes.inc();
                if let Target::Shard(id) = target {
                    state.shards[id].add_reroutes(1);
                }
                target = match target {
                    Target::Shard(id) if attempts < state.shards.len() => {
                        pick_target(state, key, Some(id))
                    }
                    _ => Target::Local,
                };
                set_target(state, key, target);
            }
        }
    }
}

fn synthesized_done(key: u64, kind: &str, digest: &str) -> String {
    ok_response([
        ("req", Json::from(format_key(key))),
        ("kind", Json::from(kind)),
        ("phase", Json::from("done")),
        ("digest", Json::from(digest)),
        ("synthesized", Json::from(true)),
    ])
}

fn synthesized_queued(key: u64, kind: &str, target: Target) -> String {
    ok_response([
        ("req", Json::from(format_key(key))),
        ("kind", Json::from(kind)),
        ("phase", Json::from("queued")),
        ("shard", target_json(target)),
        ("degraded", Json::from(true)),
    ])
}

/// Handles one routed `status`. The path self-heals: an owner shard
/// that does not know the request (it restarted without the WAL record,
/// or a reroute never landed) gets the submit re-planted, and a shard
/// that is unreachable is answered from the front's own knowledge —
/// the cached done digest, or a synthesized `queued` the client can
/// keep polling against.
fn front_status(state: &FrontState, req: u64) -> String {
    let known = {
        let registry = lock(&state.registry);
        registry.get(&req).map(|r| {
            (
                r.target,
                r.done_digest.clone(),
                r.kind.clone(),
                r.params.clone(),
                r.trace,
            )
        })
    };
    let Some((target, done, kind, params, trace)) = known else {
        return unknown_request(req);
    };
    if let Some(digest) = &done {
        // Terminal and remembered: answer locally, no forwarding needed.
        return synthesized_done(req, &kind, digest);
    }
    match forward_to(state, target, &keyed_payload("status", req)) {
        Ok(resp) if resp.get("ok").and_then(Json::as_bool) == Some(true) => {
            remember_done(state, req, &resp);
            with_fields(resp, vec![("shard".to_string(), target_json(target))])
        }
        Ok(_shard_does_not_know_it) => {
            let _ = forward_to(state, target, &submit_payload(&kind, &params, trace));
            synthesized_queued(req, &kind, target)
        }
        Err(_) => synthesized_queued(req, &kind, target),
    }
}

/// Handles one routed `cancel`: forwarded to the owner; an unreachable
/// owner answers `cancelled: false` (the request is still safe — it
/// either drains on the restarted worker or is rerouted).
fn front_cancel(state: &FrontState, req: u64) -> String {
    let Some(target) = owner(state, req) else {
        return unknown_request(req);
    };
    match forward_to(state, target, &keyed_payload("cancel", req)) {
        Ok(resp) if resp.get("ok").and_then(Json::as_bool) == Some(true) => {
            with_fields(resp, vec![("shard".to_string(), target_json(target))])
        }
        _ => ok_response([
            ("req", Json::from(format_key(req))),
            ("cancelled", Json::from(false)),
            ("shard", target_json(target)),
            ("degraded", Json::from(true)),
        ]),
    }
}

/// Proxies a subscription stream from the owner shard to the client.
/// The relay ends at the stream's final frame (`"stream":"done"`), when
/// either side hangs up, or on a worker death mid-stream (the client
/// re-subscribes and lands on the new owner).
fn front_subscribe(state: &FrontState, writer: &mut TcpStream, req: u64) -> std::io::Result<()> {
    let Some(target) = owner(state, req) else {
        return write_frame(writer, &unknown_request(req));
    };
    let Some(addr) = target_addr(state, target) else {
        return write_frame(
            writer,
            &err_response("owner shard is not routable; retry subscribe shortly"),
        );
    };
    let upstream = match TcpStream::connect_timeout(&addr, shard::FORWARD_TIMEOUT) {
        Ok(s) => s,
        Err(e) => return write_frame(writer, &err_response(&format!("shard connect: {e}"))),
    };
    let mut up_writer = upstream.try_clone()?;
    if write_frame(&mut up_writer, &keyed_payload("subscribe", req)).is_err() {
        return write_frame(writer, &err_response("shard hung up on subscribe"));
    }
    let mut up_reader = BufReader::new(upstream);
    loop {
        match read_frame(&mut up_reader) {
            Ok(Some(frame)) => {
                write_frame(writer, &frame)?;
                let done = Json::parse(&frame).is_ok_and(|j| {
                    j.get("stream").and_then(Json::as_str) == Some("done")
                        || j.get("ok").and_then(Json::as_bool) == Some(false)
                });
                if done {
                    return Ok(());
                }
            }
            Ok(None) | Err(_) => return Ok(()),
        }
    }
}

fn shards_json(state: &FrontState) -> Json {
    Json::Arr(state.shards.iter().map(|s| s.to_json()).collect())
}

/// The front's `stats` body: fabric health first (the per-shard block
/// the smoke scripts and load generator assert on), then the metrics
/// snapshot.
fn front_stats_pairs(state: &FrontState) -> Vec<(String, Json)> {
    let (registered, done_known) = {
        let registry = lock(&state.registry);
        let done = registry
            .values()
            .filter(|r| r.done_digest.is_some())
            .count();
        (registry.len(), done)
    };
    let m = &state.metrics;
    vec![
        ("role".to_string(), Json::from("front")),
        (
            "uptime_ms".to_string(),
            Json::from(obs::clock::now_micros().saturating_sub(state.started_us) / 1_000),
        ),
        ("shards_total".to_string(), Json::from(state.shards.len())),
        ("shards_up".to_string(), Json::from(shards_up(state))),
        (
            "requests".to_string(),
            Json::object([
                ("registered", Json::from(registered)),
                ("done_known", Json::from(done_known)),
                ("submitted", Json::from(m.submits.get())),
                ("local", Json::from(m.submits_local.get())),
            ]),
        ),
        ("restarts_total".to_string(), Json::from(m.restarts.get())),
        ("reroutes_total".to_string(), Json::from(m.reroutes.get())),
        (
            "ping_failures_total".to_string(),
            Json::from(m.ping_failures.get()),
        ),
        ("shards".to_string(), shards_json(state)),
        (
            "local".to_string(),
            Json::object([("addr", Json::from(state.fallback_addr.to_string()))]),
        ),
        ("metrics".to_string(), obs::snapshot().to_json()),
    ]
}

impl Daemon for FrontState {
    fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.front_addr);
    }

    fn answer(&self, request: Request, writer: &mut TcpStream) -> std::io::Result<()> {
        let response = match request {
            Request::Submit {
                kind,
                params,
                trace,
            } => front_submit(self, kind, params, trace),
            Request::Status { req } => front_status(self, req),
            Request::Cancel { req } => front_cancel(self, req),
            Request::Subscribe { req } => return front_subscribe(self, writer, req),
            Request::Stats => ok_response(front_stats_pairs(self)),
            Request::Shards => ok_response([("shards", shards_json(self))]),
            // Answered by the shared connection loop.
            Request::Ping | Request::Shutdown => return Ok(()),
        };
        write_frame(writer, &response)
    }
}

// ---------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------

/// Writes the current fabric topology to `state_dir/shards.json` so
/// scripts and operators can find worker pids/addresses without a
/// protocol client, and republishes the `shards_up` gauge. Best-effort;
/// refreshed on every health change.
fn publish(state: &FrontState) {
    state.metrics.shards_up.set(shards_up(state) as i64);
    let manifest = Json::object([
        ("front", Json::from(state.front_addr.to_string())),
        ("local", Json::from(state.fallback_addr.to_string())),
        ("shards", shards_json(state)),
    ])
    .dump();
    let _ = std::fs::write(state.state_dir.join("shards.json"), manifest + "\n");
}

fn shards_up(state: &FrontState) -> usize {
    state
        .shards
        .iter()
        .filter(|s| s.snapshot().health == ShardHealth::Up)
        .count()
}

fn reap(child_slot: &mut Option<Child>) {
    if let Some(mut child) = child_slot.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// The supervisor loop: probe, restart within budget, quarantine and
/// reroute beyond it, and reap the worker ring on shutdown.
fn supervise(
    state: Arc<FrontState>,
    mut children: Vec<Option<Child>>,
    mut budgets: Vec<RestartBudget>,
    spawn: WorkerSpawn,
    ping_interval: Duration,
    ping_timeout: Duration,
) {
    loop {
        if net::sleep_or_shutdown(&state.shutdown, ping_interval) {
            shutdown_workers(&state, &mut children);
            return;
        }
        for id in 0..state.shards.len() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let snap = state.shards[id].snapshot();
            if snap.health != ShardHealth::Up {
                continue;
            }
            let exited = match children[id].as_mut() {
                Some(child) => matches!(child.try_wait(), Ok(Some(_))),
                None => true,
            };
            let alive = !exited
                && snap
                    .addr
                    .map(|a| shard::ping(a, ping_timeout))
                    .unwrap_or(false);
            if alive {
                continue;
            }
            state.metrics.ping_failures.inc();
            let why = if exited {
                "process exited"
            } else {
                "unresponsive"
            };
            eprintln!("liteworp-served: shard {id} failed its liveness probe ({why})");
            state.shards[id].mark_degraded();
            publish(&state);
            reap(&mut children[id]);
            restart_or_quarantine(
                &state,
                id,
                &mut children[id],
                &mut budgets[id],
                &spawn,
                ping_timeout,
            );
            publish(&state);
        }
    }
}

/// Walks one degraded shard back up the ladder: seeded-backoff-paced
/// restarts (each adopting the shard's state dir with `--resume`) until
/// one answers a ping, or quarantine + deterministic reroute once the
/// budget is dry.
fn restart_or_quarantine(
    state: &Arc<FrontState>,
    id: usize,
    child_slot: &mut Option<Child>,
    budget: &mut RestartBudget,
    spawn: &WorkerSpawn,
    ping_timeout: Duration,
) {
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some(pause_us) = budget.next_backoff_us() else {
            eprintln!(
                "liteworp-served: shard {id} exhausted its restart budget; quarantining and \
                 rerouting its requests"
            );
            state.shards[id].mark_quarantined();
            reroute_orphans(state, id);
            return;
        };
        if net::sleep_or_shutdown(&state.shutdown, Duration::from_micros(pause_us)) {
            return;
        }
        match shard::spawn_worker(spawn, &state.shards[id].state_dir, true) {
            Ok((child, addr)) => {
                if shard::ping(addr, ping_timeout) {
                    let pid = child.id();
                    state.shards[id].mark_restarted(addr, pid);
                    state.metrics.restarts.inc();
                    *child_slot = Some(child);
                    eprintln!(
                        "liteworp-served: shard {id} restarted (pid {pid}, {} restart(s) used)",
                        budget.used()
                    );
                    return;
                }
                reap(&mut Some(child));
            }
            Err(e) => eprintln!("liteworp-served: shard {id} restart failed: {e}"),
        }
    }
}

/// Rerouting at quarantine: every not-yet-done request owned by the
/// dead shard is re-submitted to a survivor (ring successor) or the
/// local engine. The registry is a `BTreeMap`, so orphans reroute in
/// key order — deterministic for a given registry state. Forwarding is
/// best-effort: a reroute that does not land is re-planted by the
/// self-healing status path on the client's next poll.
fn reroute_orphans(state: &Arc<FrontState>, dead: usize) {
    let orphans: Vec<(u64, String, Json, bool)> = {
        let registry = lock(&state.registry);
        registry
            .iter()
            .filter(|(_, r)| r.target == Target::Shard(dead) && r.done_digest.is_none())
            .map(|(k, r)| (*k, r.kind.clone(), r.params.clone(), r.trace))
            .collect()
    };
    if orphans.is_empty() {
        return;
    }
    eprintln!(
        "liteworp-served: rerouting {} orphaned request(s) off shard {dead}",
        orphans.len()
    );
    for (key, kind, params, trace) in orphans {
        let target = pick_target(state, key, Some(dead));
        set_target(state, key, target);
        state.metrics.reroutes.inc();
        state.shards[dead].add_reroutes(1);
        if target == Target::Local {
            state.metrics.submits_local.inc();
        }
        let _ = forward_to(state, target, &submit_payload(&kind, &params, trace));
    }
}

/// Shuts the worker ring down: graceful protocol shutdown where the
/// worker still answers, SIGKILL otherwise, then reap every child.
fn shutdown_workers(state: &FrontState, children: &mut [Option<Child>]) {
    for (shard, slot) in state.shards.iter().zip(children.iter_mut()) {
        let addr = shard.snapshot().addr;
        if let Some(mut child) = slot.take() {
            let graceful = addr
                .map(|a| shard::forward(a, r#"{"op":"shutdown"}"#).is_ok())
                .unwrap_or(false);
            if !graceful {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}
