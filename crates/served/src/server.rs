//! The sweep-service daemon: accepts JSONL-framed requests over TCP,
//! multiplexes them over one shared [`SweepEngine`], and streams progress
//! to subscribers.
//!
//! # Request lifecycle
//!
//! A `submit` is validated against the experiment catalog, keyed by its
//! content ([`crate::proto::request_key`]), WAL-logged, and enqueued;
//! duplicates of a live or finished request are deduplicated to the
//! existing one (`"dedup": true`). Drainer threads pop keys and execute
//! each request's sweep on the shared engine — same jobs, same derived
//! seeds, same cache keys as the batch bins, so a daemon-served sweep
//! reproduces the batch `results_digest` byte for byte. Each request
//! journals to its own WAL under `state_dir/journals/`, so a daemon
//! killed mid-sweep resumes the request from its last completed job on
//! restart with `--resume`.
//!
//! # Shared state
//!
//! One [`SweepEngine`] (pool + result cache) serves every request. Every
//! request's phase, subscribers, and place in the drain queue live in
//! one [`Registry`] behind one mutex, whose condvar wakes drainers; the
//! request WAL holds its own file lock, and the two are never held
//! together (appends happen after the registry guard drops). A finished
//! request's stored stream is sent to its subscribers after the guard
//! drops too. Connections
//! are served by the loop in [`crate::net`], shared with the shard front;
//! per-client state is only the handler's socket.

use crate::frame::write_frame;
use crate::lock;
use crate::net::{self, Daemon};
use crate::proto::{err_response, format_key, ok_response, request_key, unknown_request, Request};
use crate::state::{DoneInfo, Registry, ReqPhase, RequestWal, WalRecord};
use liteworp_bench::catalog;
use liteworp_bench::exec::{run_cells_on, SimCell, SIM_CODE_VERSION};
use liteworp_obs as obs;
use liteworp_runner::supervisor::Supervision;
use liteworp_runner::{Json, ProgressObserver, ResultCache, SweepEngine};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// How a daemon instance is configured.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (printed on startup).
    pub addr: String,
    /// Engine worker threads (`None` = `LITEWORP_JOBS` / core count).
    pub threads: Option<usize>,
    /// Where the daemon keeps its cache, journals, and request WAL.
    pub state_dir: PathBuf,
    /// Concurrent sweep drainers (how many requests run at once).
    pub drainers: usize,
    /// Replay the request WAL: unfinished submissions are re-enqueued
    /// and resume from their per-request journals.
    pub resume: bool,
    /// Disable the shared result cache.
    pub no_cache: bool,
    /// Broadcast a `{"stream":"metrics",…}` frame to every subscriber
    /// this often (seconds). `None` disables the periodic stream.
    pub metrics_interval: Option<f64>,
}

impl ServerConfig {
    /// Defaults: loopback with an ephemeral port, two drainers, cache
    /// on, fresh (non-resuming) start.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: None,
            state_dir: state_dir.into(),
            drainers: 2,
            resume: false,
            no_cache: false,
            metrics_interval: None,
        }
    }
}

/// Cap on telemetry lines retained per traced request, so a subscriber
/// replay cannot hold an unbounded event log in memory.
pub const TRACE_LINE_CAP: usize = 2000;

/// The daemon's registered metric handles (see `liteworp_obs::names`
/// for the registry S003 checks these literals against). Handles are
/// plain atomics, live whether or not the span plane is on.
struct ServedMetrics {
    requests_submitted: obs::Counter,
    requests_done: obs::Counter,
    requests_failed: obs::Counter,
    requests_cancelled: obs::Counter,
    jobs_total: obs::Counter,
    cache_hits: obs::Counter,
    cache_misses: obs::Counter,
    journal_hits: obs::Counter,
    queue_depth: obs::Gauge,
    active_drains: obs::Gauge,
}

impl ServedMetrics {
    fn new() -> ServedMetrics {
        ServedMetrics {
            requests_submitted: obs::counter("served.requests_submitted"),
            requests_done: obs::counter("served.requests_done"),
            requests_failed: obs::counter("served.requests_failed"),
            requests_cancelled: obs::counter("served.requests_cancelled"),
            jobs_total: obs::counter("served.jobs_total"),
            cache_hits: obs::counter("served.cache_hits"),
            cache_misses: obs::counter("served.cache_misses"),
            journal_hits: obs::counter("served.journal_hits"),
            queue_depth: obs::gauge("served.queue_depth"),
            active_drains: obs::gauge("served.active_drains"),
        }
    }
}

/// Holds a gauge one higher for the guard's lifetime (early returns
/// included).
struct GaugeHold(obs::Gauge);

impl GaugeHold {
    fn new(gauge: obs::Gauge) -> GaugeHold {
        gauge.add(1);
        GaugeHold(gauge)
    }
}

impl Drop for GaugeHold {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

struct DaemonState {
    engine: SweepEngine,
    /// The daemon's one request lock; `work` wakes drainers on it.
    registry: Mutex<Registry>,
    work: Condvar,
    shutdown: AtomicBool,
    wal: RequestWal,
    state_dir: PathBuf,
    local_addr: SocketAddr,
    metrics: ServedMetrics,
    drainer_count: usize,
    /// Obs-clock reading at startup, for `uptime_ms`.
    started_us: u64,
}

impl DaemonState {
    /// Runs `f` under the request lock, then republishes the queue depth.
    fn with_registry<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        let mut registry = lock(&self.registry);
        let out = f(&mut registry);
        self.metrics.queue_depth.set(registry.queue_len() as i64);
        out
    }

    /// Finishes a running request, then sends its subscribers their
    /// final stream once the registry guard has dropped.
    fn complete(&self, key: u64, outcome: Result<DoneInfo, String>, trace_lines: Vec<String>) {
        if let Some(flush) = self.with_registry(|r| r.complete(key, outcome, trace_lines)) {
            flush.send();
        }
    }

    fn enqueue(&self, key: u64) {
        self.with_registry(|r| r.enqueue(key));
        self.work.notify_one();
    }

    fn journal_path(&self, key: u64) -> PathBuf {
        self.state_dir
            .join("journals")
            .join(format!("{}.jsonl", format_key(key)))
    }
}

/// A running daemon instance (in-process handle, used by the binary and
/// by integration tests).
pub struct Server {
    state: Arc<DaemonState>,
    accept: Option<std::thread::JoinHandle<()>>,
    drainers: Vec<std::thread::JoinHandle<()>>,
    metrics_pump: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, replays the WAL when resuming, and starts the accept and
    /// drainer threads.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        // The daemon always runs with the span plane on: its per-phase
        // latency quantiles (the `stats` op) come from span closings.
        obs::enable();
        std::fs::create_dir_all(&cfg.state_dir)?;
        let wal_path = cfg.state_dir.join("requests.jsonl");
        if !cfg.resume {
            let _ = std::fs::remove_file(&wal_path);
            let _ = std::fs::remove_dir_all(cfg.state_dir.join("journals"));
        }
        let (records, torn_bytes) = RequestWal::load_truncating(&wal_path);
        if torn_bytes > 0 {
            eprintln!(
                "liteworp-served: request WAL ended mid-append; truncated {torn_bytes} torn \
                 byte(s) before replay"
            );
        }
        let wal = RequestWal::open(&wal_path)?;
        let mut registry = Registry::default();
        registry.replay(records);

        let cache = (!cfg.no_cache).then(|| ResultCache::new(cfg.state_dir.join("cache")));
        let engine = SweepEngine::new(cfg.threads, cache, SIM_CODE_VERSION);

        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;

        let state = Arc::new(DaemonState {
            engine,
            registry: Mutex::new(registry),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            wal,
            state_dir: cfg.state_dir.clone(),
            local_addr,
            metrics: ServedMetrics::new(),
            drainer_count: cfg.drainers.max(1),
            started_us: obs::clock::now_micros(),
        });

        let accept = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || net::accept_loop(listener, state))
        };
        let drainers = (0..cfg.drainers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || drain_loop(state))
            })
            .collect();
        let metrics_pump = cfg.metrics_interval.filter(|s| *s > 0.0).map(|secs| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || metrics_loop(state, metrics_period(secs)))
        });

        Ok(Server {
            state,
            accept: Some(accept),
            drainers,
            metrics_pump,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Initiates shutdown: stop accepting, let drainers finish their
    /// current sweep, leave still-queued submissions in the WAL for a
    /// `--resume` restart.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Waits for the accept loop and drainers to exit. Connection
    /// handler threads are detached; they notice the shutdown flag at
    /// their next frame and hang up.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for d in self.drainers.drain(..) {
            let _ = d.join();
        }
        if let Some(pump) = self.metrics_pump.take() {
            let _ = pump.join();
        }
    }
}

fn drain_loop(state: Arc<DaemonState>) {
    loop {
        let (key, kind, params, trace) = {
            let mut registry = lock(&state.registry);
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(req) = registry.start_next() {
                    let job = (req.key, req.kind.clone(), req.params.clone(), req.trace);
                    state.metrics.queue_depth.set(registry.queue_len() as i64);
                    break job;
                }
                registry = state
                    .work
                    .wait(registry)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        drain_one(&state, key, &kind, &params, trace);
    }
}

/// Executes one started request's sweep on the shared engine.
fn drain_one(state: &Arc<DaemonState>, key: u64, kind: &str, params: &Json, trace: bool) {
    let _request_span = obs::span("request");
    let _active = GaugeHold::new(state.metrics.active_drains.clone());
    let cells = match catalog::cells_for(kind, params) {
        Ok(cells) => cells,
        Err(e) => {
            // Submit validated this, so only a version-skewed WAL replay
            // can land here.
            state.metrics.requests_failed.inc();
            let reason = format!("catalog rejected request: {e}");
            state.complete(key, Err(reason), Vec::new());
            return;
        }
    };

    let journal = state.journal_path(key);
    let sup = Supervision {
        journal: Some(journal.clone()),
        resume: true,
        ..Supervision::default()
    };
    let observer: Arc<ProgressObserver> = {
        let state = Arc::clone(state);
        Arc::new(move |p| {
            let frame = Json::object([
                ("stream", Json::from("progress")),
                ("req", Json::from(format_key(key))),
                ("index", Json::from(p.index)),
                ("total", Json::from(p.total)),
                ("label", Json::from(p.label)),
                ("ok", Json::from(p.ok)),
                ("cached", Json::from(p.cached)),
                ("journaled", Json::from(p.journaled)),
            ])
            .dump();
            lock(&state.registry).broadcast(key, &frame);
        })
    };

    let run = {
        let _sweep_span = obs::span("sweep");
        run_cells_on(&state.engine, &cells, &sup, Some(observer))
    };
    let m = &run.manifest;
    state.metrics.jobs_total.add(m.jobs as u64);
    state.metrics.cache_hits.add(m.cache_hits as u64);
    state.metrics.cache_misses.add(m.cache_misses as u64);
    state.metrics.journal_hits.add(m.journal_hits as u64);
    if m.failed > 0 {
        // Keep the journal: completed jobs replay if the request is
        // retried after a restart.
        state.metrics.requests_failed.inc();
        let reason = format!("{} of {} jobs quarantined", m.failed, m.jobs);
        state.complete(key, Err(reason), Vec::new());
        return;
    }
    let trace_lines = if trace {
        trace_request(&cells, key)
    } else {
        Vec::new()
    };
    let info = DoneInfo {
        digest: m.results_digest,
        jobs: m.jobs,
        cache_hits: m.cache_hits,
        journal_hits: m.journal_hits,
        cache_misses: m.cache_misses,
        failed: m.failed,
    };
    match state.wal.append(&WalRecord::Done {
        key,
        info: info.clone(),
    }) {
        Ok(()) => {
            let _ = std::fs::remove_file(&journal);
        }
        // Unlogged, the request replays as queued after a restart; its
        // journal then replays every job instead of recomputing it.
        Err(e) => eprintln!(
            "liteworp-served: cannot log request {} as done ({e}); keeping its journal",
            format_key(key)
        ),
    }
    state.metrics.requests_done.inc();
    state.complete(key, Ok(info), trace_lines);
}

/// Builds one `{"stream":"metrics",…}` frame: uptime, queue depth, and
/// the full registry snapshot.
fn metrics_frame(state: &DaemonState) -> String {
    Json::object([
        ("stream", Json::from("metrics")),
        (
            "uptime_ms",
            Json::from(obs::clock::now_micros().saturating_sub(state.started_us) / 1_000),
        ),
        ("metrics", obs::snapshot().to_json()),
    ])
    .dump()
}

/// The metrics pump's fastest tick: a tiny `--metrics-interval` cannot
/// keep the registry lock busy.
const METRICS_FLOOR: Duration = Duration::from_millis(50);

/// The pump period for a positive `--metrics-interval SECS`: at least
/// [`METRICS_FLOOR`]. A value too large for a `Duration`, or infinite,
/// never ticks.
fn metrics_period(secs: f64) -> Duration {
    Duration::try_from_secs_f64(secs)
        .unwrap_or(Duration::MAX)
        .max(METRICS_FLOOR)
}

/// Periodically broadcasts a metrics frame to every subscriber of every
/// live request (`--metrics-interval`) until shutdown.
fn metrics_loop(state: Arc<DaemonState>, interval: Duration) {
    while !net::sleep_or_shutdown(&state.shutdown, interval) {
        let frame = metrics_frame(&state);
        state.with_registry(|r| r.broadcast_all(&frame));
    }
}

/// The `stats` response body: live daemon figures plus the full metrics
/// snapshot. `phase_latency_us` summarizes the per-span histograms the
/// drain and simulate paths feed (`span_us.<name>` series).
fn stats_pairs(state: &DaemonState) -> Vec<(String, Json)> {
    let (queue_depth, registered, queued, running) = state.with_registry(|r| {
        let count = |want: &ReqPhase| r.requests().filter(|q| q.phase() == want).count();
        (
            r.queue_len(),
            r.requests().count(),
            count(&ReqPhase::Queued),
            count(&ReqPhase::Running),
        )
    });
    let wal_bytes = std::fs::metadata(&state.wal.path)
        .map(|m| m.len())
        .unwrap_or(0);
    let snapshot = obs::snapshot();
    let phase_latency: Vec<(String, Json)> = snapshot
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let phase = name.strip_prefix("span_us.")?;
            Some((
                phase.to_string(),
                Json::object([
                    ("count", Json::from(h.count())),
                    ("p50", Json::from(h.p50())),
                    ("p95", Json::from(h.p95())),
                    ("max", Json::from(h.max())),
                ]),
            ))
        })
        .collect();
    let m = &state.metrics;
    vec![
        ("role".to_string(), Json::from("server")),
        (
            "uptime_ms".to_string(),
            Json::from(obs::clock::now_micros().saturating_sub(state.started_us) / 1_000),
        ),
        ("queue_depth".to_string(), Json::from(queue_depth)),
        ("drainers".to_string(), Json::from(state.drainer_count)),
        (
            "active_drains".to_string(),
            Json::from(m.active_drains.get().max(0) as u64),
        ),
        (
            "requests".to_string(),
            Json::object([
                ("registered", Json::from(registered)),
                ("queued", Json::from(queued)),
                ("running", Json::from(running)),
                ("submitted", Json::from(m.requests_submitted.get())),
                ("done", Json::from(m.requests_done.get())),
                ("failed", Json::from(m.requests_failed.get())),
                ("cancelled", Json::from(m.requests_cancelled.get())),
            ]),
        ),
        (
            "jobs".to_string(),
            Json::object([
                ("total", Json::from(m.jobs_total.get())),
                ("cache_hits", Json::from(m.cache_hits.get())),
                ("cache_misses", Json::from(m.cache_misses.get())),
                ("journal_hits", Json::from(m.journal_hits.get())),
            ]),
        ),
        ("wal_bytes".to_string(), Json::from(wal_bytes)),
        ("phase_latency_us".to_string(), Json::Obj(phase_latency)),
        ("metrics".to_string(), snapshot.to_json()),
    ]
}

/// Runs one instrumented seed of the request's first cell and wraps its
/// event log as subscriber frames (capped at [`TRACE_LINE_CAP`]).
fn trace_request(cells: &[SimCell], key: u64) -> Vec<String> {
    let Some(cell) = cells.first() else {
        return Vec::new();
    };
    let mut scenario = cell.scenario.clone();
    scenario.seed = cell.seed_base;
    let mut run = scenario.build();
    run.run_until_secs(cell.duration);
    let jsonl = run.sim().trace().log().to_jsonl();
    let frame = |field: &str, value: Json| {
        Json::object([
            ("stream", Json::from("telemetry")),
            ("req", Json::from(format_key(key))),
            (field, value),
        ])
        .dump()
    };
    let mut lines: Vec<String> = jsonl
        .lines()
        .take(TRACE_LINE_CAP)
        .map(|line| {
            frame(
                "data",
                Json::parse(line).unwrap_or_else(|_| Json::from(line)),
            )
        })
        .collect();
    let total = jsonl.lines().count();
    if total > TRACE_LINE_CAP {
        lines.push(frame("truncated", Json::from(total - TRACE_LINE_CAP)));
    }
    lines
}

impl Daemon for DaemonState {
    fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.work.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }

    fn answer(&self, request: Request, writer: &mut TcpStream) -> std::io::Result<()> {
        let response = match request {
            Request::Submit {
                kind,
                params,
                trace,
            } => submit(self, kind, params, trace),
            Request::Status { req } => match self.with_registry(|r| r.status_json(req)) {
                Some(pairs) => ok_response(pairs),
                None => unknown_request(req),
            },
            Request::Stats => ok_response(stats_pairs(self)),
            Request::Cancel { req } => cancel(self, req),
            Request::Subscribe { req } => {
                let Some((rx, flush)) = self.with_registry(|r| r.subscribe(req)) else {
                    return write_frame(writer, &unknown_request(req));
                };
                flush.send();
                write_frame(
                    writer,
                    &ok_response([
                        ("req", Json::from(format_key(req))),
                        ("stream", Json::from(true)),
                    ]),
                )?;
                // Stream until the request completes (sender dropped) or
                // the client goes away (write fails).
                for frame in rx {
                    write_frame(writer, &frame)?;
                }
                return Ok(());
            }
            Request::Shards => err_response("this daemon is not a shard front (run with --front)"),
            // Answered by the shared connection loop.
            Request::Ping | Request::Shutdown => return Ok(()),
        };
        write_frame(writer, &response)
    }
}

/// Handles one `submit`: validate, register (dedup by content key), WAL,
/// enqueue. A submission the WAL could not log is withdrawn and refused,
/// so every acknowledged request survives a crash.
fn submit(state: &DaemonState, kind: String, params: Json, trace: bool) -> String {
    if let Err(e) = catalog::cells_for(&kind, &params) {
        return err_response(&e);
    }
    let key = request_key(&kind, &params);
    let submission = state.with_registry(|r| r.submit(key, kind, params, trace));
    if let Some(record) = &submission.record {
        // New or revived: log the submission before a drainer can see it.
        if let Err(e) = state.wal.append(record) {
            state
                .with_registry(|r| r.withdraw(key, submission.dedup))
                .send();
            return err_response(&format!("cannot log the request: {e}"));
        }
        state.metrics.requests_submitted.inc();
        state.enqueue(key);
    }
    let mut pairs = vec![
        ("req".to_string(), Json::from(format_key(key))),
        ("dedup".to_string(), Json::from(submission.dedup)),
        ("phase".to_string(), Json::from(submission.phase.name())),
    ];
    if let ReqPhase::Done(info) = &submission.phase {
        pairs.push(("digest".to_string(), Json::from(format_key(info.digest))));
    }
    ok_response(pairs)
}

/// Handles one `cancel`: only a queued request parks. The WAL records
/// it after the registry lock is released, and only then are its
/// subscribers' final frames sent. A cancel the WAL could not log is
/// taken back and refused, so a restart never revives a request that was
/// answered cancelled.
fn cancel(state: &DaemonState, req: u64) -> String {
    let Some((flush, phase)) = state.with_registry(|r| r.cancel(req)) else {
        return unknown_request(req);
    };
    let cancelled = flush.is_some();
    if let Some(flush) = flush {
        if let Err(e) = state.wal.append(&WalRecord::Cancelled { key: req }) {
            state.with_registry(|r| r.uncancel(req, flush)).send();
            state.work.notify_one();
            return err_response(&format!("cannot log the cancel: {e}"));
        }
        flush.send();
        state.metrics.requests_cancelled.inc();
    }
    ok_response([
        ("req", Json::from(format_key(req))),
        ("cancelled", Json::from(cancelled)),
        ("phase", Json::from(phase)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon's state with no sockets or drainers, logging to `wal`.
    fn daemon_state(wal: RequestWal) -> DaemonState {
        DaemonState {
            engine: SweepEngine::new(Some(1), None, SIM_CODE_VERSION),
            registry: Mutex::new(Registry::default()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            wal,
            state_dir: std::env::temp_dir(),
            local_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            metrics: ServedMetrics::new(),
            drainer_count: 1,
            started_us: 0,
        }
    }

    fn refused(response: &str) -> bool {
        Json::parse(response)
            .ok()
            .and_then(|j| j.get("ok").and_then(Json::as_bool))
            == Some(false)
    }

    /// A submit is acknowledged only once its record is in the WAL: when
    /// the append fails (`/dev/full` refuses every write) the submit is
    /// refused and the registry is left as it was before it.
    #[test]
    fn a_submit_the_wal_cannot_log_is_refused_and_undone() {
        let state = daemon_state(RequestWal::open("/dev/full").expect("open /dev/full"));
        let params = Json::parse(r#"{"nodes":12,"seeds":1,"duration":30.0}"#).unwrap();
        let key = request_key("scenario", &params);

        let response = submit(&state, "scenario".into(), params.clone(), false);
        assert!(refused(&response), "acknowledged unlogged: {response}");
        let registry = lock(&state.registry);
        assert_eq!(registry.requests().count(), 0, "a new key stays unknown");
        assert_eq!(registry.queue_len(), 0);
        drop(registry);

        // A cancelled request that a failed submit would revive stays
        // cancelled, and is not queued.
        state.with_registry(|r| {
            r.submit(key, "scenario".into(), params.clone(), false);
            let (flush, _) = r.cancel(key).expect("registered");
            flush.expect("a queued request cancels").send();
        });
        let response = submit(&state, "scenario".into(), params, false);
        assert!(refused(&response), "acknowledged unlogged: {response}");
        let registry = lock(&state.registry);
        let phases: Vec<&ReqPhase> = registry.requests().map(|r| r.phase()).collect();
        assert_eq!(phases, vec![&ReqPhase::Cancelled]);
        assert_eq!(registry.queue_len(), 0);
    }

    /// A daemon's state in a fresh state dir whose WAL file is opened
    /// read-only, so every append fails.
    fn read_only_daemon(tag: &str) -> DaemonState {
        let dir = std::env::temp_dir().join(format!(
            "liteworp-served-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("state dir");
        let wal = dir.join("requests.jsonl");
        std::fs::write(&wal, "").expect("empty WAL");
        DaemonState {
            state_dir: dir,
            ..daemon_state(RequestWal::read_only(wal).expect("open read-only"))
        }
    }

    fn scenario_params() -> Json {
        Json::parse(r#"{"nodes":12,"seeds":1,"duration":30.0}"#).unwrap()
    }

    /// A cancel is acknowledged only once its record is in the WAL: when
    /// the append fails the cancel is refused, the request stays queued,
    /// and its subscribers keep their open stream.
    #[test]
    fn a_cancel_the_wal_cannot_log_is_refused_and_undone() {
        let state = read_only_daemon("cancel");
        let params = scenario_params();
        let key = request_key("scenario", &params);
        let stream = state.with_registry(|r| {
            r.submit(key, "scenario".into(), params, false);
            assert!(r.enqueue(key));
            let (stream, flush) = r.subscribe(key).expect("registered");
            flush.send();
            stream
        });

        let response = cancel(&state, key);
        assert!(refused(&response), "acknowledged unlogged: {response}");
        let registry = lock(&state.registry);
        let phases: Vec<&ReqPhase> = registry.requests().map(|r| r.phase()).collect();
        assert_eq!(phases, vec![&ReqPhase::Queued]);
        assert_eq!(registry.queue_len(), 1);
        drop(registry);
        assert_eq!(
            stream.try_recv(),
            Err(std::sync::mpsc::TryRecvError::Empty),
            "the subscriber got no final frame and is still attached"
        );
        let _ = std::fs::remove_dir_all(&state.state_dir);
    }

    /// A finished request whose `done` record the WAL cannot log keeps
    /// its journal, so a restart replays its jobs instead of recomputing
    /// them.
    #[test]
    fn a_done_the_wal_cannot_log_keeps_the_journal() {
        let state = Arc::new(read_only_daemon("done"));
        let params = scenario_params();
        let key = request_key("scenario", &params);
        state.with_registry(|r| {
            r.submit(key, "scenario".into(), params.clone(), false);
            assert!(r.enqueue(key));
            assert!(r.start_next().is_some());
        });

        drain_one(&state, key, "scenario", &params, false);
        let registry = lock(&state.registry);
        let phases: Vec<&ReqPhase> = registry.requests().map(|r| r.phase()).collect();
        assert!(matches!(phases[..], [ReqPhase::Done(_)]), "{phases:?}");
        drop(registry);
        let journal = std::fs::read_to_string(state.journal_path(key)).expect("journal kept");
        assert!(!journal.is_empty());
        let _ = std::fs::remove_dir_all(&state.state_dir);
    }

    #[test]
    fn metrics_period_is_floored_and_never_panics() {
        assert_eq!(metrics_period(0.2), Duration::from_millis(200));
        assert_eq!(metrics_period(1e-9), METRICS_FLOOR);
        assert_eq!(metrics_period(1e20), Duration::MAX);
        assert_eq!(metrics_period(f64::INFINITY), Duration::MAX);
    }
}
