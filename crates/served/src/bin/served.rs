//! The LITEWORP sweep-service daemon (and shard front).
//!
//! Plain mode listens on a TCP socket, speaks the length-delimited JSONL
//! protocol (`submit`, `status`, `cancel`, `subscribe`, `stats`,
//! `shards`, `ping`, `shutdown`), and serves every request from one warm
//! engine: shared worker pool, shared result cache, one resume journal
//! per in-flight request.
//!
//! Flags: --addr HOST:PORT (127.0.0.1:0), --state-dir DIR
//!        (results/served), --jobs N (all cores), --drainers N (2),
//!        --resume, --no-cache, --metrics-interval SECS (off; broadcast
//!        a `{"stream":"metrics",…}` frame to subscribers this often)
//!
//! `--front` mode instead spawns `--shards N` (2) worker daemons (this
//! same binary, plain mode) under `--state-dir`, routes requests to them
//! by content-addressed key, and supervises them: `--max-restarts K`
//! (2) seeded-backoff restarts per shard (schedule seeded by `--seed`,
//! 42), then quarantine + deterministic rerouting; when no shard can
//! take a request the front degrades onto a local in-process engine.
//! Worker shape: --worker-jobs N, --worker-drainers N (2). Probe
//! cadence: --ping-interval-ms (500), --ping-timeout-ms (2000).
//!
//! Prints `listening on HOST:PORT` to stdout once bound (port 0 picks a
//! free port), then serves until a client sends `shutdown`. Queued work
//! survives a kill: restart with `--resume` on the same `--state-dir`
//! and unfinished requests re-enqueue, skipping jobs their per-request
//! journals already recorded (the front restarts workers with
//! `--resume` automatically).

use liteworp_bench::cli::Flags;
use liteworp_served::front::{Front, FrontConfig};
use liteworp_served::server::{Server, ServerConfig};
use liteworp_served::shard::WorkerSpawn;
use std::io::Write;
use std::time::Duration;

fn main() {
    let flags = Flags::from_env();
    if flags.get_bool("front") {
        run_front(&flags);
    } else {
        run_server(&flags);
    }
}

fn run_server(flags: &Flags) {
    let cfg = ServerConfig {
        addr: flags.get_str("addr").unwrap_or("127.0.0.1:0").to_string(),
        threads: flags.get_opt_usize("jobs"),
        state_dir: flags
            .get_str("state-dir")
            .unwrap_or("results/served")
            .into(),
        drainers: flags.get_usize("drainers", 2),
        resume: flags.get_bool("resume"),
        no_cache: flags.get_bool("no-cache"),
        metrics_interval: flags.get_opt_f64("metrics-interval"),
    };
    eprintln!(
        "liteworp-served: state dir {}, {} drainer(s), cache {}, resume {}",
        cfg.state_dir.display(),
        cfg.drainers,
        if cfg.no_cache { "off" } else { "on" },
        cfg.resume,
    );
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("liteworp-served: cannot start: {e}");
            std::process::exit(1);
        }
    };
    // Parsed by scripts and tests: the one line on stdout.
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.join();
    eprintln!("liteworp-served: stopped");
}

fn run_front(flags: &Flags) {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("liteworp-served: cannot locate own binary for workers: {e}");
            std::process::exit(1);
        }
    };
    let state_dir = flags.get_str("state-dir").unwrap_or("results/served");
    let mut cfg = FrontConfig::new(state_dir, exe);
    cfg.addr = flags.get_str("addr").unwrap_or("127.0.0.1:0").to_string();
    cfg.shards = flags.get_usize("shards", 2).max(1);
    cfg.spawn = WorkerSpawn {
        exe: cfg.spawn.exe.clone(),
        jobs: flags.get_opt_usize("worker-jobs"),
        drainers: flags.get_usize("worker-drainers", 2),
        no_cache: flags.get_bool("no-cache"),
    };
    cfg.max_restarts = flags.get_u64("max-restarts", 2) as u32;
    cfg.seed = flags.get_u64("seed", 42);
    cfg.ping_interval = Duration::from_millis(flags.get_u64("ping-interval-ms", 500));
    cfg.ping_timeout = Duration::from_millis(flags.get_u64("ping-timeout-ms", 2000));
    cfg.resume = flags.get_bool("resume");
    eprintln!(
        "liteworp-served: front over {} shard(s), state dir {}, {} restart(s) per shard, \
         resume {}",
        cfg.shards,
        cfg.state_dir.display(),
        cfg.max_restarts,
        cfg.resume,
    );
    let front = match Front::start(cfg) {
        Ok(front) => front,
        Err(e) => {
            eprintln!("liteworp-served: cannot start front: {e}");
            std::process::exit(1);
        }
    };
    // Parsed by scripts and tests: the one line on stdout.
    println!("listening on {}", front.local_addr());
    let _ = std::io::stdout().flush();
    front.join();
    eprintln!("liteworp-served: front stopped");
}
