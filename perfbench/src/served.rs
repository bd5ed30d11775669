//! The served workload, `served_mix`: a seeded request mix driven
//! through an in-process daemon by closed-loop clients, in three phases
//! — `cold` (empty cache), `dedup` (the same keys resubmitted to the live
//! daemon) and `warm` (a restart on the same state dir, so every job is
//! a cache hit). Its traced run also drives the mix through a 2-shard
//! front for the `front` rows.

use crate::report::Report;
use crate::stats::tail;
use crate::{sim, Ctx, Pace, TempDir, Timings};
use liteworp_bench::catalog::cells_for;
use liteworp_bench::exec::{run_cells, ExecOptions, SimCell};
use liteworp_runner::rng::{Pcg32, Rng};
use liteworp_runner::Json;
use liteworp_served::frame::{read_frame, write_frame};
use liteworp_served::front::{Front, FrontConfig};
use liteworp_served::proto::{canonical, format_key, request_key, Request};
use liteworp_served::server::{Server, ServerConfig};
use liteworp_served::shard;
use liteworp_served::state::{RequestWal, WalRecord};
use std::collections::BTreeSet;
use std::io::{BufReader, Cursor};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Closed-loop client connections (at most the core count).
pub const CLIENTS: usize = 2;

/// Daemon starts measured for `setup_s`, at each end of an iteration
/// (before the cold phase and after the warm phase), outside its
/// `wall_s`. Spreading them over the run keeps one slow moment of the
/// host from setting the median.
const SETUP_REPEATS: usize = 8;

/// One request of the mix.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Catalog kind.
    pub kind: &'static str,
    /// Parameter object.
    pub params: Json,
    /// The submit frame payload.
    pub payload: String,
    /// Content-addressed request key.
    pub key: u64,
}

impl Spec {
    fn new(kind: &'static str, params: Json) -> Spec {
        let payload = Json::object([
            ("op", Json::from("submit")),
            ("kind", Json::from(kind)),
            ("params", params.clone()),
        ])
        .dump();
        Spec {
            key: request_key(kind, &params),
            kind,
            params,
            payload,
        }
    }

    /// The experiment cells the daemon runs for this request.
    pub fn cells(&self) -> Vec<SimCell> {
        cells_for(self.kind, &self.params).expect("mix specs are valid catalog requests")
    }
}

/// The kinds of a mix, in the order requests cycle through them. `fig10`
/// (7 jobs, mid-sized) fills three slots of eight so that the median
/// request of every phase falls inside one kind's latency cluster rather
/// than on the edge between two.
const CYCLE: [&str; 8] = [
    "fig8", "fig9", "fig10", "sweep", "fig10", "ablation", "scenario", "fig10",
];

/// `count` small, distinct catalog requests cycling through all six
/// kinds. Request `i` simulates `30 + i / 8` seconds plus a seeded
/// number of milliseconds under one second: the seed changes every key,
/// and with it every derived job seed and deployment, while the size of
/// the work stays the same from seed to seed. The figure kinds with up to
/// four colluders run 40 nodes, so the colluders can always sit more
/// than two hops apart.
pub fn spec_mix(seed: u64, count: usize) -> Vec<Spec> {
    let mut rng = Pcg32::seed_from_u64(seed ^ 0x5E57_ED00);
    let mut keys = BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let i = out.len();
        let kind = CYCLE[i % CYCLE.len()];
        let duration = (30 + i / CYCLE.len()) as f64 + rng.gen_range(1..1000u64) as f64 / 1000.0;
        let one = Json::from(1u64);
        let mut params = vec![("seeds", one), ("duration", Json::from(duration))];
        match kind {
            "fig8" => params.extend([
                ("nodes", Json::from(40u64)),
                ("sample_every", Json::from(10.0)),
            ]),
            "fig9" => params.push(("nodes", Json::from(40u64))),
            "ablation" => params.push(("nodes", Json::from(28u64))),
            "fig10" => params.extend([
                ("nodes", Json::from(28u64)),
                ("avg_neighbors", Json::from(8.0)),
            ]),
            "sweep" => {}
            _ => params.extend([
                ("nodes", Json::from(24u64)),
                ("malicious", Json::from(2u64)),
                ("protected", Json::from(i % 12 < 6)),
            ]),
        }
        let spec = Spec::new(kind, Json::object(params));
        if keys.insert(spec.key) {
            out.push(spec);
        }
    }
    out
}

/// What one finished request reported.
#[derive(Debug, Clone)]
pub struct Done {
    /// Submit to done frame, ms.
    pub latency_ms: f64,
    /// Submit to its acknowledgement, ms.
    pub ack_ms: f64,
    /// The request's results digest.
    pub digest: String,
    /// Jobs answered from the cache.
    pub cache_hits: u64,
    /// Jobs executed.
    pub cache_misses: u64,
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
        })
    }

    fn read(&mut self) -> Result<Json, String> {
        match read_frame(&mut self.reader) {
            Ok(Some(frame)) => Json::parse(&frame).map_err(|e| format!("bad frame: {e}")),
            Ok(None) => Err("daemon hung up".to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn call(&mut self, payload: &str) -> Result<Json, String> {
        write_frame(&mut self.writer, payload).map_err(|e| format!("write: {e}"))?;
        let reply = self.read()?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("refused: {}", reply.dump()));
        }
        Ok(reply)
    }

    /// Submit, then wait on `subscribe` for the done frame.
    fn request(&mut self, spec: &Spec) -> Result<Done, String> {
        let t = Instant::now();
        self.call(&spec.payload)?;
        let ack_ms = ms(t);
        let sub = Json::object([
            ("op", Json::from("subscribe")),
            ("req", Json::from(format_key(spec.key))),
        ]);
        self.call(&sub.dump())?;
        loop {
            let frame = self.read()?;
            if frame.get("stream").and_then(Json::as_str) != Some("done") {
                continue;
            }
            let latency_ms = ms(t);
            if frame.get("phase").and_then(Json::as_str) != Some("done") {
                return Err(format!("{} ended {}", spec.kind, frame.dump()));
            }
            let field = |k: &str| frame.get(k).and_then(Json::as_u64).unwrap_or(0);
            return Ok(Done {
                latency_ms,
                ack_ms,
                digest: frame
                    .get("digest")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                cache_hits: field("cache_hits"),
                cache_misses: field("cache_misses"),
            });
        }
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs every spec once through `clients` closed-loop connections;
/// results come back in spec order, with the phase's wall time.
fn phase(addr: SocketAddr, specs: &[Spec], clients: usize) -> (Vec<Result<Done, String>>, f64) {
    let t = Instant::now();
    let mut results: Vec<Option<Result<Done, String>>> = vec![None; specs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    (c..specs.len())
                        .step_by(clients)
                        .map(|i| {
                            let r = match &mut client {
                                Ok(cl) => cl.request(&specs[i]),
                                Err(e) => Err(e.clone()),
                            };
                            (i, r)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("client thread panicked") {
                results[i] = Some(r);
            }
        }
    });
    let wall = t.elapsed().as_secs_f64();
    (
        results
            .into_iter()
            .map(|r| r.expect("every spec ran"))
            .collect(),
        wall,
    )
}

/// A running daemon: a plain server or a shard front.
enum Daemon {
    Plain(Server),
    Front(Front),
}

impl Daemon {
    fn start(front_exe: Option<&Path>, state_dir: &Path, threads: usize) -> Result<Daemon, String> {
        let started = match front_exe {
            None => Server::start(ServerConfig {
                threads: Some(threads),
                drainers: threads,
                ..ServerConfig::new(state_dir)
            })
            .map(Daemon::Plain),
            Some(exe) => {
                let mut cfg = FrontConfig::new(state_dir, exe);
                cfg.shards = 2;
                cfg.spawn.jobs = Some(1);
                cfg.spawn.drainers = 1;
                Front::start(cfg).map(Daemon::Front)
            }
        };
        started.map_err(|e| format!("daemon start: {e}"))
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Daemon::Plain(s) => s.local_addr(),
            Daemon::Front(f) => f.local_addr(),
        }
    }

    fn stop(self) {
        match self {
            Daemon::Plain(s) => {
                s.shutdown();
                s.join();
            }
            Daemon::Front(f) => {
                f.shutdown();
                f.join();
            }
        }
    }
}

/// Starts a daemon and waits for its first `pong`; returns it with the
/// start-to-pong time in seconds.
fn launch(
    front_exe: Option<&Path>,
    state_dir: &Path,
    threads: usize,
) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::start(front_exe, state_dir, threads)?;
    let pong = Client::connect(daemon.addr()).and_then(|mut c| c.call(r#"{"op":"ping"}"#));
    let setup = t.elapsed().as_secs_f64();
    match pong {
        Ok(_) => Ok((daemon, setup)),
        Err(e) => {
            daemon.stop();
            Err(format!("no pong: {e}"))
        }
    }
}

/// [`SETUP_REPEATS`] daemon starts on fresh state dirs, each stopped
/// once it answers; their start-to-pong times go to `setup` as samples
/// of `pace`'s current iteration.
///
/// A start is mostly file-system metadata work (state dir, WAL, cache
/// dir). Right after a phase's fsync bursts, that work queues behind the
/// file system's journal commits and write-back, which made the samples
/// swing by 3× from run to run. So the file system is synced first, and
/// the starts measure the daemon's own set-up on a settled file system.
fn spare_launches(ctx: &Ctx, threads: usize, pace: &Pace, setup: &mut Timings, rep: &mut Report) {
    #[cfg(unix)]
    {
        extern "C" {
            fn sync();
        }
        // SAFETY: POSIX `sync` takes no arguments, touches no memory of
        // this process, and cannot fail.
        unsafe {
            sync();
        }
    }
    for _ in 0..SETUP_REPEATS {
        let spare = TempDir::new(&ctx.tmp, "setup");
        match launch(None, spare.path(), threads) {
            Ok((d, s)) => {
                setup.push(pace, s);
                d.stop();
            }
            Err(e) => {
                rep.check(false, || e);
            }
        }
    }
}

/// Total size of every request WAL under `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += wal_bytes(&path);
        } else if path.file_name().is_some_and(|n| n == "requests.jsonl") {
            total += entry.metadata().map_or(0, |m| m.len());
        }
    }
    total
}

/// The addresses requests are forwarded to: each shard's worker for a
/// front, the daemon itself otherwise.
fn forward_targets(daemon: &Daemon) -> Result<Vec<SocketAddr>, String> {
    if let Daemon::Plain(s) = daemon {
        return Ok(vec![s.local_addr()]);
    }
    let reply = Client::connect(daemon.addr())?.call(r#"{"op":"shards"}"#)?;
    reply
        .get("shards")
        .and_then(Json::as_arr)
        .ok_or("shards op has no shard list")?
        .iter()
        .map(|s| {
            s.get("addr")
                .and_then(Json::as_str)
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| format!("shard without an address: {}", s.dump()))
        })
        .collect()
}

/// `shard::forward` of every spec's submit to its home (`key % N`):
/// each answer must be a done dedup hit. Returns latencies in ms.
fn forward_probe(daemon: &Daemon, specs: &[Spec], rep: &mut Report) -> Vec<f64> {
    let targets = match forward_targets(daemon) {
        Ok(t) => t,
        Err(e) => {
            rep.check(false, || e);
            return Vec::new();
        }
    };
    let mut lat = Vec::new();
    for spec in specs {
        let addr = targets[(spec.key % targets.len() as u64) as usize];
        let t = Instant::now();
        let reply = shard::forward(addr, &spec.payload);
        lat.push(ms(t));
        let phase = reply
            .as_ref()
            .ok()
            .and_then(|r| r.get("phase").and_then(Json::as_str).map(str::to_string));
        rep.check(phase.as_deref() == Some("done"), || {
            format!("forward of {} to {addr} answered {reply:?}", spec.kind)
        });
    }
    lat
}

/// Restart and reroute counters of a front.
fn front_counters(daemon: &Daemon) -> Result<(u64, u64), String> {
    let stats = Client::connect(daemon.addr())?.call(r#"{"op":"stats"}"#)?;
    let n = |k: &str| {
        stats
            .get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("stats lacks {k}"))
    };
    Ok((n("restarts_total")?, n("reroutes_total")?))
}

/// Per-spec results digests from `exec::run_cells` on the same cells, on
/// a cold cache; the manifests feed the runner rows.
fn batch_digests(
    specs: &[Spec],
    ctx: &Ctx,
    cache: Option<&Path>,
) -> (Vec<String>, Vec<liteworp_runner::Manifest>) {
    let opts = ExecOptions {
        jobs: Some(ctx.jobs()),
        cache: cache.is_some(),
        cache_dir: cache.map(Path::to_path_buf),
        ..ExecOptions::default()
    };
    specs
        .iter()
        .map(|s| {
            let run = run_cells(&s.cells(), &opts);
            (format_key(run.manifest.results_digest), run.manifest)
        })
        .unzip()
}

/// Requests per iteration of a served workload.
pub fn mix_size(ctx: &Ctx) -> usize {
    if ctx.reduced {
        12
    } else {
        40
    }
}

/// Runs `served_mix`.
pub fn run(ctx: &Ctx, rep: &mut Report) {
    let specs = spec_mix(ctx.class(), mix_size(ctx));
    let sim_seconds: f64 = specs
        .iter()
        .flat_map(|s| s.cells())
        .map(|c| c.seeds as f64 * c.duration)
        .sum();
    let (expected, manifests) = batch_digests(&specs, ctx, None);
    let threads = ctx.jobs();

    // Daemon starts run on one thread; the phases load the whole pool.
    let mut setup = Timings::new(true);
    let [mut walls, mut cold, mut warm, mut dedup, mut sim_rates, mut req_rates] =
        [(); 6].map(|_| Timings::new(false));
    let mut acks = Vec::new();
    let (mut hits, mut misses, mut wal) = (None, None, None);
    let mut pace = Pace::new(ctx);
    while pace.next(ctx) {
        spare_launches(ctx, threads, &pace, &mut setup, rep);
        let dir = TempDir::new(&ctx.tmp, "served");
        let launch_t = Instant::now();
        let (daemon, _) = match launch(None, dir.path(), threads) {
            Ok(d) => d,
            Err(e) => {
                rep.check(false, || e);
                break;
            }
        };
        let (cold_r, cold_wall) = phase(daemon.addr(), &specs, CLIENTS);
        let (dedup_r, dedup_wall) = phase(daemon.addr(), &specs, CLIENTS);
        wal.get_or_insert(wal_bytes(dir.path()));
        daemon.stop();
        let (daemon, _) = match launch(None, dir.path(), threads) {
            Ok(d) => d,
            Err(e) => {
                rep.check(false, || e);
                break;
            }
        };
        let (warm_r, warm_wall) = phase(daemon.addr(), &specs, CLIENTS);

        for (i, spec) in specs.iter().enumerate() {
            for (name, r, lat) in [
                ("cold", &cold_r[i], &mut cold),
                ("dedup", &dedup_r[i], &mut dedup),
                ("warm", &warm_r[i], &mut warm),
            ] {
                match r {
                    Ok(d) => {
                        lat.push(&pace, d.latency_ms);
                        acks.push(d.ack_ms);
                        rep.check(d.digest == expected[i], || {
                            format!(
                                "{name} {} digest {} != batch {}",
                                spec.kind, d.digest, expected[i]
                            )
                        });
                    }
                    Err(e) => {
                        rep.check(false, || format!("{name} {}: {e}", spec.kind));
                    }
                }
            }
        }
        let sum = |rs: &[Result<Done, String>], f: fn(&Done) -> u64| {
            rs.iter().flatten().map(f).sum::<u64>()
        };
        let cold_hits = sum(&cold_r, |d| d.cache_hits);
        rep.check(cold_hits == 0, || {
            format!("cold phase hit the cache {cold_hits} times")
        });
        let warm_misses = sum(&warm_r, |d| d.cache_misses);
        rep.check(warm_misses == 0, || {
            format!("warm phase missed the cache {warm_misses} times")
        });
        misses.get_or_insert(sum(&cold_r, |d| d.cache_misses));
        hits.get_or_insert(sum(&warm_r, |d| d.cache_hits));
        walls.push(&pace, launch_t.elapsed().as_secs_f64());
        sim_rates.push(&pace, sim_seconds / cold_wall);
        req_rates.push(
            &pace,
            3.0 * specs.len() as f64 / (cold_wall + dedup_wall + warm_wall),
        );
        daemon.stop();
        spare_launches(ctx, threads, &pace, &mut setup, rep);
    }

    pace.report_time(rep, "setup_s", &setup, "s");
    pace.report(rep);
    pace.report_time(rep, "wall_s", &walls, "s");
    pace.report_rate(rep, "sim_s_per_s", &sim_rates, "sim_s/s");
    pace.report_rate(rep, "req_per_s", &req_rates, "1/s");
    for (name, t) in [("cold", &cold), ("warm", &warm), ("dedup", &dedup)] {
        pace.report_time(rep, &format!("{name}_p50_ms"), t, "ms");
        let xs = pace.scaled(t, 1.0);
        if let Some(p95) = tail(&xs, 0.95) {
            rep.set_n(&format!("{name}_p95_ms"), p95, "ms", Some(xs.len()));
        }
    }
    rep.set_median("served.submit_ack_ms_p50", &acks, "ms");
    rep.set("runner.cache_hits", hits.unwrap_or(0) as f64, "count");
    rep.set("runner.cache_misses", misses.unwrap_or(0) as f64, "count");
    rep.set("served.wal_bytes", wal.unwrap_or(0) as f64, "bytes");
    if ctx.trace {
        front_probe(ctx, &specs, &expected, rep);
        sim::runner_rows(&manifests, rep);
        let dir = TempDir::new(&ctx.tmp, "batch-cache");
        batch_digests(&specs, ctx, Some(dir.path()));
        let (_, warm_manifests) = batch_digests(&specs, ctx, Some(dir.path()));
        sim::cache_hit_row(&warm_manifests, rep);
        layer_microbench(&specs, ctx, rep);
        let cell = specs
            .iter()
            .find(|s| s.kind == "scenario")
            .map(|s| s.cells().remove(0))
            .expect("the mix has a scenario request");
        let mut protected = cell.scenario.clone();
        protected.seed = cell.seed_base;
        protected.protected = true;
        let mut baseline = protected.clone();
        baseline.protected = false;
        sim::trace_rows(
            &[(protected, cell.duration), (baseline, cell.duration)],
            rep,
        );
    }
}

/// The `front` rows, and the front ≡ batch check: a 2-shard `Front`,
/// whose workers are the built `liteworp-served` binary with 1 job
/// thread each, answers the mix once on an empty cache through
/// [`CLIENTS`] closed-loop clients. Then `shard::forward` replays each
/// submit to its home worker, and the front must report no restart and
/// no reroute.
fn front_probe(ctx: &Ctx, specs: &[Spec], expected: &[String], rep: &mut Report) {
    let Some(exe) = ctx.served_bin.as_deref().filter(|p| p.is_file()) else {
        rep.check(false, || {
            format!(
                "the front probe needs the liteworp-served binary (--served-bin), got {:?}",
                ctx.served_bin
            )
        });
        return;
    };
    let dir = TempDir::new(&ctx.tmp, "front");
    let (daemon, _) = match launch(Some(exe), dir.path(), ctx.jobs()) {
        Ok(d) => d,
        Err(e) => {
            rep.check(false, || e);
            return;
        }
    };
    let (results, _) = phase(daemon.addr(), specs, CLIENTS);
    for ((spec, r), want) in specs.iter().zip(results).zip(expected) {
        match r {
            Ok(d) => {
                rep.check(&d.digest == want, || {
                    format!("front {} digest {} != batch {want}", spec.kind, d.digest)
                });
            }
            Err(e) => {
                rep.check(false, || format!("front {}: {e}", spec.kind));
            }
        }
    }
    let fwd = forward_probe(&daemon, specs, rep);
    rep.set_median("front.forward_ms_p50", &fwd, "ms");
    match front_counters(&daemon) {
        Ok((restarts, reroutes)) => {
            rep.check(restarts == 0 && reroutes == 0, || {
                format!("fault-free front restarted {restarts} / rerouted {reroutes}")
            });
            rep.set("front.restarts", restarts as f64, "count");
            rep.set("front.reroutes", reroutes as f64, "count");
        }
        Err(e) => {
            rep.check(false, || e);
        }
    }
    daemon.stop();
}

/// The served rows for a batch workload's traced run: an in-process
/// daemon on a temp dir answers one request of each kind from the
/// seeded mix through one client — cold, then dedup — and the request
/// layers are timed on those payloads.
pub fn probe(ctx: &Ctx, rep: &mut Report) {
    let specs = spec_mix(ctx.class(), CYCLE.len());
    let dir = TempDir::new(&ctx.tmp, "probe");
    let (daemon, _) = match launch(None, dir.path(), 1) {
        Ok(d) => d,
        Err(e) => {
            rep.check(false, || e);
            return;
        }
    };
    let mut acks = Vec::new();
    for _ in 0..2 {
        let (results, _) = phase(daemon.addr(), &specs, 1);
        for (spec, r) in specs.iter().zip(results) {
            match r {
                Ok(d) => acks.push(d.ack_ms),
                Err(e) => {
                    rep.check(false, || format!("probe {}: {e}", spec.kind));
                }
            }
        }
    }
    let fwd = forward_probe(&daemon, &specs, rep);
    rep.set("served.wal_bytes", wal_bytes(dir.path()) as f64, "bytes");
    daemon.stop();
    rep.set_median("served.submit_ack_ms_p50", &acks, "ms");
    rep.set_median("front.forward_ms_p50", &fwd, "ms");
    rep.set("front.restarts", 0.0, "count");
    rep.set("front.reroutes", 0.0, "count");
    layer_microbench(&specs, ctx, rep);
}

/// Frame codec, protocol parse + canonical key, and WAL append, each
/// timed on the run's own request payloads.
fn layer_microbench(specs: &[Spec], ctx: &Ctx, rep: &mut Report) {
    let payloads: Vec<&str> = specs.iter().map(|s| s.payload.as_str()).collect();
    let per_call = |f: &mut dyn FnMut(&str)| {
        let mut calls = 0u64;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(200) {
            for p in &payloads {
                f(p);
            }
            calls += payloads.len() as u64;
        }
        t.elapsed().as_nanos() as f64 / calls as f64
    };
    let mut buf = Vec::new();
    let frame_ns = per_call(&mut |p| {
        buf.clear();
        write_frame(&mut buf, p).expect("write to memory");
        let back = read_frame(&mut Cursor::new(&buf)).expect("frame round-trips");
        std::hint::black_box(back);
    });
    let proto_ns = per_call(&mut |p| {
        if let Ok(Request::Submit { kind, params, .. }) = Request::parse(p) {
            std::hint::black_box(canonical(&params));
            std::hint::black_box(request_key(&kind, &params));
        }
    });
    rep.set("served.frame_ns", frame_ns, "ns");
    rep.set("served.proto_ns", proto_ns, "ns");

    let dir = TempDir::new(&ctx.tmp, "wal");
    let mut appends = Vec::new();
    match RequestWal::open(dir.path().join("requests.jsonl")) {
        Ok(wal) => {
            for spec in specs {
                let record = WalRecord::Submitted {
                    key: spec.key,
                    kind: spec.kind.to_string(),
                    params: spec.params.clone(),
                    trace: false,
                };
                let t = Instant::now();
                let ok = wal.append(&record).is_ok();
                appends.push(t.elapsed().as_secs_f64() * 1e6);
                rep.check(ok, || "WAL append failed".to_string());
            }
        }
        Err(e) => {
            rep.check(false, || format!("WAL open: {e}"));
        }
    }
    rep.set_median("served.wal_append_us", &appends, "us");
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteworp_bench::catalog::KINDS;

    #[test]
    fn the_mix_covers_every_kind_with_distinct_seeded_keys() {
        let mix = spec_mix(3, CYCLE.len());
        let kinds: BTreeSet<&str> = mix.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, KINDS.into_iter().collect());
        let keys: BTreeSet<u64> = spec_mix(3, 40).iter().map(|s| s.key).collect();
        assert_eq!(keys.len(), 40);
        let again: Vec<u64> = spec_mix(3, 40).iter().map(|s| s.key).collect();
        let other: Vec<u64> = spec_mix(4, 40).iter().map(|s| s.key).collect();
        assert_eq!(
            keys.into_iter().collect::<BTreeSet<_>>(),
            again.iter().copied().collect()
        );
        assert!(
            again.iter().all(|k| !other.contains(k)),
            "another seed, other keys"
        );
        let jobs = |seed| {
            spec_mix(seed, 40)
                .iter()
                .flat_map(|s| s.cells())
                .map(|c| c.seeds)
                .sum::<u64>()
        };
        assert_eq!(jobs(3), jobs(4), "the seed leaves the amount of work alone");
    }
}
