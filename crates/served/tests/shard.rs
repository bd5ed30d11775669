//! End-to-end tests for the shard fabric (`liteworp-served --front`):
//! digest determinism across shard counts, kill -9 of a worker
//! mid-drain on both the reroute (quarantine) and restart (resume)
//! ladders, and torn request-WAL tails healed by `--resume`. The faults
//! injected here are drawn from a sampled
//! [`liteworp_chaos::ProcessFaultPlan`], so the schedule is pure data
//! with a reproducer line.

use liteworp_chaos::{ProcessFault, ProcessFaultPlan};
use liteworp_runner::Json;
use liteworp_served::frame::{read_frame, write_frame};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// A `liteworp-served` process — plain daemon or shard front — started
/// from the real binary, address parsed from its stdout announcement.
struct Proc {
    child: Child,
    addr: String,
}

impl Proc {
    fn spawn(args: &[&str]) -> Proc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_liteworp-served"));
        cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn liteworp-served");
        let stdout = child.stdout.take().expect("stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("process exited before announcing its address")
                .expect("read stdout");
            if let Some(addr) = line.strip_prefix("listening on ") {
                break addr.to_string();
            }
        };
        Proc { child, addr }
    }

    fn daemon(state_dir: &Path, resume: bool) -> Proc {
        let dir = state_dir.to_str().expect("utf-8 path");
        let mut args = vec![
            "--addr",
            "127.0.0.1:0",
            "--state-dir",
            dir,
            "--drainers",
            "2",
        ];
        if resume {
            args.push("--resume");
        }
        Proc::spawn(&args)
    }

    fn front(state_dir: &Path, shards: usize, max_restarts: u32) -> Proc {
        let dir = state_dir.to_str().expect("utf-8 path");
        let shards = shards.to_string();
        let max_restarts = max_restarts.to_string();
        Proc::spawn(&[
            "--front",
            "--addr",
            "127.0.0.1:0",
            "--state-dir",
            dir,
            "--shards",
            &shards,
            "--max-restarts",
            &max_restarts,
            "--worker-jobs",
            "2",
            "--worker-drainers",
            "2",
            "--ping-interval-ms",
            "200",
            "--ping-timeout-ms",
            "1000",
            "--seed",
            "42",
        ])
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn wait(mut self) {
        let _ = self.child.wait();
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn ok(&mut self, payload: &str) -> Json {
        write_frame(&mut self.writer, payload).expect("send");
        let response = read_frame(&mut self.reader).expect("recv").expect("frame");
        let parsed = Json::parse(&response).expect("json");
        assert_eq!(
            parsed.get("ok").and_then(Json::as_bool),
            Some(true),
            "rejected: {payload} -> {}",
            parsed.dump()
        );
        parsed
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("liteworp-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Work heavy enough that requests are still draining when the fault
/// fires a few hundred milliseconds after submission.
fn specs() -> Vec<String> {
    vec![
        r#"{"nodes":30,"seeds":4,"duration":300.0}"#.into(),
        r#"{"nodes":34,"seeds":3,"duration":300.0}"#.into(),
        r#"{"nodes":26,"seeds":4,"duration":250.0}"#.into(),
        r#"{"nodes":22,"seeds":3,"duration":200.0}"#.into(),
    ]
}

/// Submits every spec; returns `(req key, owning shard as JSON)` pairs.
fn submit_all(client: &mut Client, specs: &[String]) -> Vec<(String, Json)> {
    specs
        .iter()
        .map(|spec| {
            let response = client.ok(&format!(
                r#"{{"op":"submit","kind":"scenario","params":{spec}}}"#
            ));
            let req = response
                .get("req")
                .and_then(Json::as_str)
                .expect("req")
                .to_string();
            let shard = response.get("shard").cloned().unwrap_or(Json::Null);
            (req, shard)
        })
        .collect()
}

fn drain_all(client: &mut Client, reqs: &[(String, Json)]) -> Vec<String> {
    let mut digests: Vec<String> = reqs
        .iter()
        .map(|(req, _)| {
            for _ in 0..4800 {
                let status = client.ok(&format!(r#"{{"op":"status","req":"{req}"}}"#));
                match status.get("phase").and_then(Json::as_str) {
                    Some("done") => {
                        return status
                            .get("digest")
                            .and_then(Json::as_str)
                            .expect("digest")
                            .to_string()
                    }
                    Some("failed") => panic!("request failed: {}", status.dump()),
                    _ => std::thread::sleep(std::time::Duration::from_millis(25)),
                }
            }
            panic!("request {req} never finished");
        })
        .collect();
    digests.sort();
    digests.dedup();
    digests
}

/// The worker pid for ring index `shard`, from the front's `shards` op.
fn shard_pid(client: &mut Client, shard: u64) -> u64 {
    let response = client.ok(r#"{"op":"shards"}"#);
    let Some(Json::Arr(entries)) = response.get("shards") else {
        panic!("no shard array in {}", response.dump());
    };
    entries
        .iter()
        .find(|e| e.get("id").and_then(Json::as_u64) == Some(shard))
        .and_then(|e| e.get("pid").and_then(Json::as_u64))
        .unwrap_or_else(|| panic!("shard {shard} has no pid in {}", response.dump()))
}

fn kill_nine(pid: u64) {
    let status = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -9 {pid} failed");
}

/// The first sampled plan whose fault is a worker kill — pure data, so
/// this scan is deterministic and the reproducer line is printable.
fn sampled_kill_plan(shards: usize) -> ProcessFaultPlan {
    (0u64..)
        .map(|seed| ProcessFaultPlan::sample(seed, shards, 1))
        .find(|plan| matches!(plan.faults[0], ProcessFault::Kill { .. }))
        .expect("some seed samples a kill")
}

/// Runs one fabric: submit everything, optionally kill one worker with
/// SIGKILL mid-drain, drain to completion, and return the sorted digest
/// set plus the front's final stats.
fn fabric_run(
    tag: &str,
    shards: usize,
    max_restarts: u32,
    kill_owner_of: Option<usize>,
) -> (Vec<String>, Json) {
    let dir = temp_dir(tag);
    let front = Proc::front(&dir, shards, max_restarts);
    let mut client = Client::connect(&front.addr);
    let reqs = submit_all(&mut client, &specs());
    if let Some(req_index) = kill_owner_of {
        // Give the drainers a head start so the kill is genuinely
        // mid-drain, then SIGKILL the worker owning the chosen request.
        std::thread::sleep(std::time::Duration::from_millis(400));
        let owner = reqs[req_index]
            .1
            .as_u64()
            .expect("request routed to a worker shard");
        let pid = shard_pid(&mut client, owner);
        kill_nine(pid);
    }
    let digests = drain_all(&mut client, &reqs);
    let stats = client.ok(r#"{"op":"stats"}"#);
    client.ok(r#"{"op":"shutdown"}"#);
    front.wait();
    let _ = std::fs::remove_dir_all(&dir);
    (digests, stats)
}

fn stat_u64(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing {key}: {}", stats.dump()))
}

#[test]
fn digest_set_is_identical_across_shard_counts_and_a_mid_drain_worker_kill() {
    let plan = sampled_kill_plan(3);
    plan.validate().expect("sampled plan validates");
    let ProcessFault::Kill { after_done, .. } = plan.faults[0] else {
        unreachable!("sampled_kill_plan returns kills");
    };
    // The plan decides which in-flight request's owner dies.
    let victim_req = (after_done as usize) % specs().len();
    eprintln!("shard chaos reproducer: {plan:?} (killing owner of request {victim_req})");

    // Baseline: a single-shard fabric, no faults.
    let (expected, stats) = fabric_run("one", 1, 2, None);
    assert_eq!(expected.len(), specs().len(), "distinct digests per spec");
    assert_eq!(stats.get("role").and_then(Json::as_str), Some("front"));

    // Reroute ladder: three shards, zero restart budget — the kill
    // quarantines the victim and its orphans reroute to survivors.
    let (rerouted, stats) = fabric_run("reroute", 3, 0, Some(victim_req));
    assert_eq!(
        rerouted, expected,
        "quarantine + reroute must reproduce the digest set"
    );
    assert!(
        stat_u64(&stats, "reroutes_total") >= 1,
        "the kill must surface in reroutes_total: {}",
        stats.dump()
    );
    let health: Vec<String> = match stats.get("shards") {
        Some(Json::Arr(entries)) => entries
            .iter()
            .filter_map(|e| e.get("health").and_then(Json::as_str))
            .map(str::to_string)
            .collect(),
        other => panic!("stats missing shard health block: {other:?}"),
    };
    assert!(
        health.iter().any(|h| h == "quarantined"),
        "budget 0 must quarantine the victim: {health:?}"
    );

    // Restart ladder: three shards with budget — the worker is
    // restarted with --resume and finishes its own requests.
    let (resumed, stats) = fabric_run("restart", 3, 2, Some(victim_req));
    assert_eq!(
        resumed, expected,
        "restart + resume must reproduce the digest set"
    );
    assert!(
        stat_u64(&stats, "restarts_total") >= 1,
        "the kill must surface in restarts_total: {}",
        stats.dump()
    );
}

#[test]
fn a_torn_request_wal_tail_is_truncated_on_resume_and_the_drain_completes() {
    // Lighter work: this test pays for a reference run of its own.
    let specs: Vec<String> = vec![
        r#"{"nodes":24,"seeds":2,"duration":150.0}"#.into(),
        r#"{"nodes":20,"seeds":2,"duration":150.0}"#.into(),
        r#"{"nodes":26,"seeds":2,"duration":120.0}"#.into(),
    ];
    let garbage_bytes = match ProcessFaultPlan::sample(11, 1, 1).faults[0] {
        ProcessFault::CorruptWalTail { bytes, .. } => bytes,
        _ => 24,
    }
    .max(8);

    // Reference: uninterrupted.
    let ref_dir = temp_dir("wal-ref");
    let reference = Proc::daemon(&ref_dir, false);
    let mut client = Client::connect(&reference.addr);
    let reqs = submit_all(&mut client, &specs);
    let expected = drain_all(&mut client, &reqs);
    client.ok(r#"{"op":"shutdown"}"#);
    reference.wait();

    // Victim: submit, SIGKILL mid-drain, then tear the WAL tail the way
    // a crash mid-append would — a partial record with no newline.
    let dir = temp_dir("wal-torn");
    let victim = Proc::daemon(&dir, false);
    let mut client = Client::connect(&victim.addr);
    let reqs = submit_all(&mut client, &specs);
    std::thread::sleep(std::time::Duration::from_millis(300));
    victim.kill();
    let wal = dir.join("requests.jsonl");
    let torn: String = r#"{"v":1,"kind":"scenario","params":{"nodes":"#
        .chars()
        .cycle()
        .take(garbage_bytes)
        .collect();
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal)
            .expect("open WAL for tearing");
        file.write_all(torn.as_bytes()).expect("tear WAL tail");
        file.sync_all().expect("flush torn tail");
    }
    let torn_len = std::fs::metadata(&wal).expect("stat WAL").len();

    // Resume: the loader must truncate the torn frame and replay clean.
    let revived = Proc::daemon(&dir, true);
    let healed_len = std::fs::metadata(&wal).expect("stat WAL").len();
    assert!(
        healed_len <= torn_len - garbage_bytes as u64,
        "resume must truncate the torn tail ({torn_len} -> {healed_len})"
    );
    let healed = std::fs::read_to_string(&wal).expect("read healed WAL");
    for line in healed.lines().filter(|l| !l.trim().is_empty()) {
        Json::parse(line)
            .unwrap_or_else(|e| panic!("unparsable WAL line after heal ({e}): {line}"));
    }

    let mut client = Client::connect(&revived.addr);
    let again = submit_all(&mut client, &specs);
    let again_keys: Vec<&String> = again.iter().map(|(req, _)| req).collect();
    let orig_keys: Vec<&String> = reqs.iter().map(|(req, _)| req).collect();
    assert_eq!(again_keys, orig_keys, "keys survive the torn-tail restart");
    let resumed = drain_all(&mut client, &again);
    client.ok(r#"{"op":"shutdown"}"#);
    revived.wait();
    assert_eq!(
        resumed, expected,
        "torn tail + resume must reproduce the uninterrupted digest set"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
