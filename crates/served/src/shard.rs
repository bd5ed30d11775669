//! One shard of the fabric: a supervised worker daemon owned by the
//! front (see [`crate::front`]).
//!
//! A shard is a failure domain: its own OS process, engine pool, result
//! cache, per-request journals, and request WAL, all under its own state
//! directory. The front routes submits to shards by content-addressed
//! request key and supervises each shard through the [`ShardSlot`]
//! here — health ladder `Up → Degraded → (Up | Quarantined)` — while
//! the spawn/ping plumbing below does the process work.
//!
//! Everything in this module is clock-free except socket timeouts
//! (`connect_timeout` / `set_read_timeout` take `Duration`s, never read
//! a clock): the wall-clock sites of the crate stay in `net.rs`.

use crate::frame::{read_frame, write_frame};
use crate::lock;
use liteworp_runner::supervisor::RestartBudget;
use liteworp_runner::Json;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

/// Read/write timeout on a forwarded request's connection. Submit,
/// status, and cancel are queue operations on the worker — they answer
/// in microseconds when healthy, so anything near this bound means the
/// worker is gone and the front should reroute.
pub const FORWARD_TIMEOUT: Duration = Duration::from_secs(10);

/// Where a shard sits on the health ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Process alive and answering pings; routable.
    Up,
    /// A failure was detected; the supervisor is restarting the worker
    /// inside its [`RestartBudget`]. Not routable; requests already
    /// owned by the shard stay with it (they resume from its WAL).
    Degraded,
    /// The restart budget is exhausted. The shard is permanently out of
    /// the ring; its orphaned requests were rerouted.
    Quarantined,
}

impl ShardHealth {
    /// Health name as reported in the `stats`/`shards` health block.
    pub fn name(&self) -> &'static str {
        match self {
            ShardHealth::Up => "up",
            ShardHealth::Degraded => "degraded",
            ShardHealth::Quarantined => "quarantined",
        }
    }
}

/// The mutex-guarded, mutable face of a shard. Cloneable so callers can
/// snapshot it in one lock statement.
#[derive(Debug, Clone)]
pub struct ShardState {
    /// Where the shard is on the health ladder.
    pub health: ShardHealth,
    /// The worker's listen address (`None` while down).
    pub addr: Option<SocketAddr>,
    /// The worker's process id (`None` while down).
    pub pid: Option<u32>,
    /// Successful restarts so far.
    pub restarts: u32,
    /// Requests rerouted *away* from this shard at quarantine.
    pub reroutes: u64,
    /// Liveness probes this shard has failed.
    pub ping_failures: u64,
}

/// One supervised shard: immutable identity plus guarded state. The
/// `Child` handle itself is owned by the front's supervisor thread (the
/// only place that waits on or kills the process), not by the slot.
pub struct ShardSlot {
    /// Shard index in the ring (`key % n` routes here first).
    pub id: usize,
    /// The shard's private state directory.
    pub state_dir: PathBuf,
    state: Mutex<ShardState>,
}

impl ShardSlot {
    /// A slot for a freshly spawned worker.
    pub fn new(id: usize, state_dir: PathBuf, addr: SocketAddr, pid: u32) -> ShardSlot {
        ShardSlot {
            id,
            state_dir,
            state: Mutex::new(ShardState {
                health: ShardHealth::Up,
                addr: Some(addr),
                pid: Some(pid),
                restarts: 0,
                reroutes: 0,
                ping_failures: 0,
            }),
        }
    }

    /// One-lock snapshot of the mutable state.
    pub fn snapshot(&self) -> ShardState {
        lock(&self.state).clone()
    }

    /// The worker address if (and only if) the shard is routable.
    pub fn routable_addr(&self) -> Option<SocketAddr> {
        let s = lock(&self.state);
        (s.health == ShardHealth::Up).then_some(s.addr).flatten()
    }

    /// Marks the shard degraded (supervisor is working on it) and counts
    /// the failed probe.
    pub fn mark_degraded(&self) {
        let mut s = lock(&self.state);
        s.health = ShardHealth::Degraded;
        s.addr = None;
        s.pid = None;
        s.ping_failures += 1;
    }

    /// Brings the shard back after a successful restart.
    pub fn mark_restarted(&self, addr: SocketAddr, pid: u32) {
        let mut s = lock(&self.state);
        s.health = ShardHealth::Up;
        s.addr = Some(addr);
        s.pid = Some(pid);
        s.restarts += 1;
    }

    /// Takes the shard out of the ring for good.
    pub fn mark_quarantined(&self) {
        let mut s = lock(&self.state);
        s.health = ShardHealth::Quarantined;
        s.addr = None;
        s.pid = None;
    }

    /// Counts requests rerouted away from this shard.
    pub fn add_reroutes(&self, n: u64) {
        lock(&self.state).reroutes += n;
    }

    /// The health-block entry for the `stats` / `shards` ops.
    pub fn to_json(&self) -> Json {
        let s = self.snapshot();
        Json::object([
            ("id", Json::from(self.id)),
            ("health", Json::from(s.health.name())),
            (
                "addr",
                s.addr
                    .map(|a| Json::from(a.to_string()))
                    .unwrap_or(Json::Null),
            ),
            (
                "pid",
                s.pid.map(|p| Json::from(p as u64)).unwrap_or(Json::Null),
            ),
            ("restarts", Json::from(s.restarts as u64)),
            ("reroutes", Json::from(s.reroutes)),
            ("ping_failures", Json::from(s.ping_failures)),
        ])
    }
}

/// How the front spawns worker processes.
#[derive(Debug, Clone)]
pub struct WorkerSpawn {
    /// The served binary (the front passes its own executable).
    pub exe: PathBuf,
    /// Engine threads per worker (`--jobs`).
    pub jobs: Option<usize>,
    /// Drainers per worker.
    pub drainers: usize,
    /// Disable worker result caches.
    pub no_cache: bool,
}

/// Spawns one worker daemon on an ephemeral loopback port and waits for
/// its `listening on HOST:PORT` line. `resume` replays the worker's WAL
/// (always set on restart so an adopted shard finishes what it started).
pub fn spawn_worker(
    spawn: &WorkerSpawn,
    state_dir: &Path,
    resume: bool,
) -> std::io::Result<(Child, SocketAddr)> {
    let mut cmd = Command::new(&spawn.exe);
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--state-dir")
        .arg(state_dir)
        .arg("--drainers")
        .arg(spawn.drainers.to_string());
    if let Some(jobs) = spawn.jobs {
        cmd.arg("--jobs").arg(jobs.to_string());
    }
    if spawn.no_cache {
        cmd.arg("--no-cache");
    }
    if resume {
        cmd.arg("--resume");
    }
    let mut child = cmd.stdout(Stdio::piped()).stderr(Stdio::null()).spawn()?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| std::io::Error::other("worker stdout not captured"))?;
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    let addr = line
        .strip_prefix("listening on ")
        .and_then(|rest| rest.trim().parse::<SocketAddr>().ok());
    match addr {
        Some(addr) => Ok((child, addr)),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("worker did not announce a listen address (got {line:?})"),
            ))
        }
    }
}

/// Liveness probe over a *fresh* connection: catches a dead process, a
/// dead socket, and a stalled accept loop alike. The timeout bounds
/// connect, write, and read individually.
pub fn ping(addr: SocketAddr, timeout: Duration) -> bool {
    let Ok(stream) = TcpStream::connect_timeout(&addr, timeout) else {
        return false;
    };
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
    {
        return false;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    if write_frame(&mut writer, r#"{"op":"ping"}"#).is_err() {
        return false;
    }
    let mut reader = BufReader::new(stream);
    match read_frame(&mut reader) {
        Ok(Some(payload)) => Json::parse(&payload)
            .ok()
            .and_then(|j| j.get("ok").and_then(Json::as_bool))
            .unwrap_or(false),
        _ => false,
    }
}

/// Forwards one request payload to a worker over a fresh connection and
/// returns the parsed response. Every socket phase is bounded by
/// [`FORWARD_TIMEOUT`]; any failure means "treat this worker as gone"
/// to the routing layer.
pub fn forward(addr: SocketAddr, payload: &str) -> Result<Json, String> {
    let stream =
        TcpStream::connect_timeout(&addr, FORWARD_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(FORWARD_TIMEOUT))
        .map_err(|e| format!("socket: {e}"))?;
    stream
        .set_write_timeout(Some(FORWARD_TIMEOUT))
        .map_err(|e| format!("socket: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
    write_frame(&mut writer, payload).map_err(|e| format!("write: {e}"))?;
    let mut reader = BufReader::new(stream);
    match read_frame(&mut reader) {
        Ok(Some(response)) => Json::parse(&response).map_err(|e| format!("malformed reply: {e}")),
        Ok(None) => Err("worker hung up before answering".to_string()),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// Builds the per-shard restart budget. Restart pacing reuses the
/// runner's seeded capped-exponential backoff so a rerun of the fabric
/// restarts (and therefore reroutes) on an identical schedule.
pub fn restart_budget(seed: u64, shard_id: usize, max_restarts: u32) -> RestartBudget {
    let derived = liteworp_runner::rng::derive_seed(seed, shard_id as u64);
    RestartBudget::new(derived, max_restarts, 200_000, 2_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_health_ladder_is_tracked_one_lock_at_a_time() {
        let slot = ShardSlot::new(
            3,
            PathBuf::from("/tmp/none"),
            "127.0.0.1:9999".parse().unwrap(),
            42,
        );
        assert_eq!(slot.snapshot().health, ShardHealth::Up);
        assert!(slot.routable_addr().is_some());

        slot.mark_degraded();
        let s = slot.snapshot();
        assert_eq!(s.health, ShardHealth::Degraded);
        assert_eq!(s.ping_failures, 1);
        assert_eq!(slot.routable_addr(), None);

        slot.mark_restarted("127.0.0.1:9998".parse().unwrap(), 43);
        let s = slot.snapshot();
        assert_eq!((s.health, s.restarts), (ShardHealth::Up, 1));
        assert_eq!(s.pid, Some(43));

        slot.mark_quarantined();
        slot.add_reroutes(5);
        let json = slot.to_json();
        assert_eq!(
            json.get("health").and_then(Json::as_str),
            Some("quarantined")
        );
        assert_eq!(json.get("reroutes").and_then(Json::as_u64), Some(5));
        assert_eq!(json.get("addr"), Some(&Json::Null));
    }

    #[test]
    fn restart_budgets_are_per_shard_deterministic() {
        let draw = |shard: usize| {
            let mut b = restart_budget(7, shard, 4);
            std::iter::from_fn(|| b.next_backoff_us()).collect::<Vec<_>>()
        };
        assert_eq!(draw(0), draw(0));
        assert_ne!(draw(0), draw(1), "shards back off on distinct schedules");
        assert_eq!(draw(2).len(), 4);
    }

    #[test]
    fn pinging_a_closed_port_fails_fast() {
        // Bind-then-drop guarantees the port is closed.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert!(!ping(addr, Duration::from_millis(200)));
        assert!(forward(addr, r#"{"op":"ping"}"#).is_err());
    }
}
