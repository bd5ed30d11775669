//! Wire-protocol tests against an in-process daemon: framing, malformed
//! requests, dedup, cancel, subscribe streaming, and seeded concurrent
//! submit/cancel interleavings that must not perturb result digests.

use liteworp_runner::{Json, Pcg32, Rng};
use liteworp_served::frame::{read_frame, write_frame};
use liteworp_served::server::{Server, ServerConfig};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn exchange(&mut self, payload: &str) -> Json {
        write_frame(&mut self.writer, payload).expect("send");
        let response = read_frame(&mut self.reader)
            .expect("recv")
            .expect("response frame");
        Json::parse(&response).expect("json response")
    }

    fn ok(&mut self, payload: &str) -> Json {
        let response = self.exchange(payload);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "rejected: {payload} -> {}",
            response.dump()
        );
        response
    }

    /// Reads streamed frames until the final `stream:"done"` frame.
    fn stream_until_done(&mut self) -> Vec<Json> {
        let mut frames = Vec::new();
        loop {
            let frame = read_frame(&mut self.reader)
                .expect("stream frame")
                .expect("stream open");
            let parsed = Json::parse(&frame).expect("stream json");
            let done = parsed.get("stream").and_then(Json::as_str) == Some("done");
            frames.push(parsed);
            if done {
                return frames;
            }
        }
    }
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "liteworp-served-proto-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_spec(nodes: u64) -> String {
    format!(
        r#"{{"op":"submit","kind":"scenario","params":{{"nodes":{nodes},"seeds":1,"duration":30.0}}}}"#
    )
}

fn drain(client: &mut Client, req: &str) -> String {
    for _ in 0..2400 {
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
}

#[test]
fn ping_and_framing_variants() {
    let dir = state_dir("ping");
    let server = Server::start(ServerConfig::new(&dir)).expect("start");
    let mut client = Client::connect(server.local_addr());
    let pong = client.ok(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    // Bare JSON lines (the `nc` escape hatch) work too.
    client
        .writer
        .write_all(b"{\"op\":\"ping\"}\n")
        .expect("bare line");
    let response = read_frame(&mut client.reader)
        .expect("recv")
        .expect("frame");
    let parsed = Json::parse(&response).expect("json");
    assert_eq!(parsed.get("pong").and_then(Json::as_bool), Some(true));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_typed_errors_and_do_not_kill_the_connection() {
    let dir = state_dir("malformed");
    let server = Server::start(ServerConfig::new(&dir)).expect("start");
    let mut client = Client::connect(server.local_addr());
    for (payload, expect) in [
        (r#"{"no_op":1}"#, "'op'"),
        (r#"{"op":"frobnicate"}"#, "unknown op"),
        (r#"{"op":"submit"}"#, "'kind'"),
        (r#"{"op":"submit","kind":"fig99"}"#, "known:"),
        (r#"{"op":"status","req":"nope"}"#, "16-hex"),
        (
            r#"{"op":"status","req":"00000000000000ff"}"#,
            "unknown request",
        ),
        (
            r#"{"op":"cancel","req":"00000000000000ff"}"#,
            "unknown request",
        ),
        (
            r#"{"op":"subscribe","req":"00000000000000ff"}"#,
            "unknown request",
        ),
    ] {
        let response = client.exchange(payload);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{payload} should be rejected"
        );
        let error = response.get("error").and_then(Json::as_str).expect("error");
        assert!(
            error.contains(expect),
            "{payload}: error {error:?} should mention {expect:?}"
        );
    }
    // The connection is still serviceable after every rejection.
    client.ok(r#"{"op":"ping"}"#);

    // An oversized frame is rejected before its payload is read, then
    // the daemon hangs up on the (now unframeable) connection.
    let mut bad = Client::connect(server.local_addr());
    bad.writer.write_all(b"9999999\n").expect("send length");
    bad.writer.flush().expect("flush");
    let response = read_frame(&mut bad.reader).expect("recv").expect("frame");
    let parsed = Json::parse(&response).expect("json");
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
    assert!(parsed
        .get("error")
        .and_then(Json::as_str)
        .expect("error")
        .contains("exceeds"));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_dedups_and_reports_the_digest_when_done() {
    let dir = state_dir("dedup");
    let server = Server::start(ServerConfig::new(&dir)).expect("start");
    let mut client = Client::connect(server.local_addr());

    let first = client.ok(&tiny_spec(12));
    assert_eq!(first.get("dedup").and_then(Json::as_bool), Some(false));
    let req = first
        .get("req")
        .and_then(Json::as_str)
        .expect("req")
        .to_string();

    // The duplicate — same params, different field order on the wire —
    // resolves to the same request.
    let dup = client
        .ok(r#"{"op":"submit","kind":"scenario","params":{"duration":30.0,"seeds":1,"nodes":12}}"#);
    assert_eq!(dup.get("dedup").and_then(Json::as_bool), Some(true));
    assert_eq!(dup.get("req").and_then(Json::as_str), Some(req.as_str()));

    let digest = drain(&mut client, &req);
    let status = client.ok(&format!(r#"{{"op":"status","req":"{req}"}}"#));
    assert_eq!(status.get("failed").and_then(Json::as_u64), Some(0));
    assert!(status.get("jobs").and_then(Json::as_u64).unwrap() >= 1);

    // A post-completion duplicate answers immediately with the digest.
    let after = client.ok(&tiny_spec(12));
    assert_eq!(after.get("phase").and_then(Json::as_str), Some("done"));
    assert_eq!(
        after.get("digest").and_then(Json::as_str),
        Some(digest.as_str())
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_parks_a_queued_request_and_resubmit_revives_it() {
    let dir = state_dir("cancel");
    let mut cfg = ServerConfig::new(&dir);
    cfg.drainers = 1; // one drainer: the heavy request blocks the queue
    let server = Server::start(cfg).expect("start");
    let mut client = Client::connect(server.local_addr());

    // A heavy request occupies the single drainer...
    let heavy = client.ok(
        r#"{"op":"submit","kind":"scenario","params":{"nodes":40,"seeds":4,"duration":600.0}}"#,
    );
    let heavy_req = heavy
        .get("req")
        .and_then(Json::as_str)
        .expect("req")
        .to_string();
    // ...so the tiny one behind it is still queued when the cancel lands.
    let tiny = client.ok(&tiny_spec(14));
    let tiny_req = tiny
        .get("req")
        .and_then(Json::as_str)
        .expect("req")
        .to_string();
    let cancelled = client.ok(&format!(r#"{{"op":"cancel","req":"{tiny_req}"}}"#));
    assert_eq!(
        cancelled.get("cancelled").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        cancelled.get("phase").and_then(Json::as_str),
        Some("cancelled")
    );

    // Cancelling a cancelled request is a no-op, not an error.
    let again = client.ok(&format!(r#"{{"op":"cancel","req":"{tiny_req}"}}"#));
    assert_eq!(again.get("cancelled").and_then(Json::as_bool), Some(false));

    // Resubmitting revives it; it then drains to done.
    let revived = client.ok(&tiny_spec(14));
    assert_eq!(revived.get("dedup").and_then(Json::as_bool), Some(true));
    assert_eq!(revived.get("phase").and_then(Json::as_str), Some("queued"));
    drain(&mut client, &tiny_req);

    // The heavy one was never affected by any of this.
    let digest = drain(&mut client, &heavy_req);
    let done = client.ok(&format!(r#"{{"op":"cancel","req":"{heavy_req}"}}"#));
    assert_eq!(done.get("cancelled").and_then(Json::as_bool), Some(false));
    assert!(!digest.is_empty());

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subscribers_see_progress_then_done_and_late_subscribers_get_a_replay() {
    let dir = state_dir("subscribe");
    let server = Server::start(ServerConfig::new(&dir)).expect("start");
    let mut submitter = Client::connect(server.local_addr());
    let submitted = submitter.ok(
        r#"{"op":"submit","kind":"scenario","params":{"nodes":30,"seeds":3,"duration":300.0}}"#,
    );
    let req = submitted
        .get("req")
        .and_then(Json::as_str)
        .expect("req")
        .to_string();

    let mut subscriber = Client::connect(server.local_addr());
    let ack = subscriber.ok(&format!(r#"{{"op":"subscribe","req":"{req}"}}"#));
    assert_eq!(ack.get("stream").and_then(Json::as_bool), Some(true));
    let frames = subscriber.stream_until_done();
    let done = frames.last().expect("final frame");
    assert_eq!(done.get("phase").and_then(Json::as_str), Some("done"));
    let digest = done
        .get("digest")
        .and_then(Json::as_str)
        .expect("digest")
        .to_string();
    let progress = frames
        .iter()
        .filter(|f| f.get("stream").and_then(Json::as_str) == Some("progress"))
        .count();
    // Progress frames are only guaranteed for jobs settling after the
    // subscription; subscribing right after submit sees them all unless
    // the sweep won the race outright.
    assert!(progress <= 3);
    for frame in &frames {
        assert_eq!(frame.get("req").and_then(Json::as_str), Some(req.as_str()));
    }

    // A late subscriber gets the stored final frame immediately.
    let mut late = Client::connect(server.local_addr());
    late.ok(&format!(r#"{{"op":"subscribe","req":"{req}"}}"#));
    let replay = late.stream_until_done();
    assert_eq!(replay.len(), 1, "no trace requested: just the final frame");
    assert_eq!(
        replay[0].get("digest").and_then(Json::as_str),
        Some(digest.as_str())
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_requests_replay_telemetry_to_late_subscribers() {
    let dir = state_dir("trace");
    let server = Server::start(ServerConfig::new(&dir)).expect("start");
    let mut client = Client::connect(server.local_addr());
    let submitted = client.ok(
        r#"{"op":"submit","kind":"scenario","params":{"nodes":20,"seeds":1,"duration":120.0},"trace":true}"#,
    );
    let req = submitted
        .get("req")
        .and_then(Json::as_str)
        .expect("req")
        .to_string();
    drain(&mut client, &req);

    let mut subscriber = Client::connect(server.local_addr());
    subscriber.ok(&format!(r#"{{"op":"subscribe","req":"{req}"}}"#));
    let frames = subscriber.stream_until_done();
    let telemetry: Vec<&Json> = frames
        .iter()
        .filter(|f| f.get("stream").and_then(Json::as_str) == Some("telemetry"))
        .collect();
    assert!(
        !telemetry.is_empty(),
        "a traced run must replay telemetry events"
    );
    // Each telemetry frame embeds one event of the instrumented run in
    // the `liteworp-obs` flat JSON event shape.
    let event = telemetry[0].get("data").expect("event payload");
    assert!(event.get("t_us").and_then(Json::as_u64).is_some());
    assert!(event.get("event").and_then(Json::as_str).is_some());

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `stats` op against a live daemon: every documented key is
/// present with the right shape, the figures reflect the traffic just
/// served, and the embedded metrics snapshot round-trips through
/// `liteworp_obs::Snapshot::from_json`. Queued requests additionally
/// report their `queue_position`.
#[test]
fn stats_op_round_trips_its_schema_against_a_live_daemon() {
    let dir = state_dir("stats");
    let mut cfg = ServerConfig::new(&dir);
    cfg.drainers = 1; // one drainer: the heavy request keeps the tiny one queued
    let server = Server::start(cfg).expect("start");
    let mut client = Client::connect(server.local_addr());

    let heavy = client.ok(
        r#"{"op":"submit","kind":"scenario","params":{"nodes":40,"seeds":4,"duration":600.0}}"#,
    );
    let heavy_req = heavy
        .get("req")
        .and_then(Json::as_str)
        .expect("req")
        .to_string();
    let tiny = client.ok(&tiny_spec(16));
    let tiny_req = tiny
        .get("req")
        .and_then(Json::as_str)
        .expect("req")
        .to_string();

    // Satellite contract: a queued request reports its place in line
    // and its age; a running/done one reports age only.
    let status = client.ok(&format!(r#"{{"op":"status","req":"{tiny_req}"}}"#));
    if status.get("phase").and_then(Json::as_str) == Some("queued") {
        assert_eq!(status.get("queue_position").and_then(Json::as_u64), Some(0));
    }
    assert!(status.get("age_ms").and_then(Json::as_u64).is_some());

    // Mid-drain stats: the daemon is busy right now.
    let stats = client.ok(r#"{"op":"stats"}"#);
    for key in ["uptime_ms", "queue_depth", "wal_bytes"] {
        assert!(
            stats.get(key).and_then(Json::as_u64).is_some(),
            "stats missing numeric {key}: {}",
            stats.dump()
        );
    }
    assert_eq!(stats.get("drainers").and_then(Json::as_u64), Some(1));
    assert!(stats.get("wal_bytes").and_then(Json::as_u64).expect("wal") > 0);
    let requests = stats.get("requests").expect("requests object");
    assert!(
        requests
            .get("registered")
            .and_then(Json::as_u64)
            .expect("registered")
            >= 2
    );
    assert!(
        requests
            .get("submitted")
            .and_then(Json::as_u64)
            .expect("submitted")
            >= 2
    );

    drain(&mut client, &heavy_req);
    drain(&mut client, &tiny_req);

    // Post-drain stats: per-phase latency histograms exist for the
    // request and sweep spans, and done/jobs counters moved.
    let stats = client.ok(r#"{"op":"stats"}"#);
    let requests = stats.get("requests").expect("requests object");
    assert!(requests.get("done").and_then(Json::as_u64).expect("done") >= 2);
    let jobs = stats.get("jobs").expect("jobs object");
    assert!(jobs.get("total").and_then(Json::as_u64).expect("total") >= 2);
    let phases = stats.get("phase_latency_us").expect("phase latency object");
    for phase in ["request", "sweep"] {
        let entry = phases
            .get(phase)
            .unwrap_or_else(|| panic!("phase_latency_us missing {phase}: {}", stats.dump()));
        assert!(entry.get("count").and_then(Json::as_u64).expect("count") >= 1);
        let p50 = entry.get("p50").and_then(Json::as_u64).expect("p50");
        let max = entry.get("max").and_then(Json::as_u64).expect("max");
        assert!(p50 <= max, "{phase}: p50 {p50} > max {max}");
    }

    // The embedded metrics snapshot is a valid obs snapshot.
    let snapshot = liteworp_obs::Snapshot::from_json(stats.get("metrics").expect("metrics"))
        .expect("metrics snapshot parses back");
    assert!(
        snapshot
            .counters
            .get("served.requests_done")
            .copied()
            .unwrap_or(0)
            >= 2,
        "snapshot counters: {:?}",
        snapshot.counters
    );
    assert!(snapshot.histograms.contains_key("span_us.sweep"));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// With `--metrics-interval` set, subscribers receive periodic
/// `{"stream":"metrics",…}` frames carrying a parseable registry
/// snapshot alongside the usual progress stream.
#[test]
fn metrics_interval_streams_snapshots_to_subscribers() {
    let dir = state_dir("metrics-stream");
    let mut cfg = ServerConfig::new(&dir);
    cfg.metrics_interval = Some(0.1);
    let server = Server::start(cfg).expect("start");
    let mut client = Client::connect(server.local_addr());
    let submitted = client.ok(
        r#"{"op":"submit","kind":"scenario","params":{"nodes":36,"seeds":4,"duration":400.0}}"#,
    );
    let req = submitted
        .get("req")
        .and_then(Json::as_str)
        .expect("req")
        .to_string();

    let mut subscriber = Client::connect(server.local_addr());
    subscriber.ok(&format!(r#"{{"op":"subscribe","req":"{req}"}}"#));
    let frames = subscriber.stream_until_done();
    let metrics: Vec<&Json> = frames
        .iter()
        .filter(|f| f.get("stream").and_then(Json::as_str) == Some("metrics"))
        .collect();
    assert!(
        !metrics.is_empty(),
        "a 400 sim-second sweep outlives a 100 ms metrics tick; frames: {}",
        frames.len()
    );
    let frame = metrics[0];
    assert!(frame.get("uptime_ms").and_then(Json::as_u64).is_some());
    let snapshot = liteworp_obs::Snapshot::from_json(frame.get("metrics").expect("metrics body"))
        .expect("streamed snapshot parses");
    assert!(
        snapshot
            .counters
            .get("served.requests_submitted")
            .copied()
            .unwrap_or(0)
            >= 1
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The determinism contract under fire: several clients race seeded
/// mixes of submits and cancels; afterwards, the drained digest set must
/// be identical to a second, fresh daemon run with the same seeds.
#[test]
fn concurrent_seeded_interleavings_produce_identical_digest_sets() {
    let specs: Vec<String> = vec![
        r#"{"nodes":12,"seeds":1,"duration":30.0}"#.into(),
        r#"{"nodes":14,"seeds":2,"duration":40.0}"#.into(),
        r#"{"nodes":16,"seeds":1,"duration":50.0}"#.into(),
        r#"{"nodes":18,"seeds":1,"duration":30.0}"#.into(),
    ];

    let run_once = |tag: &str| -> Vec<String> {
        let dir = state_dir(tag);
        let server = Server::start(ServerConfig::new(&dir)).expect("start");
        let addr = server.local_addr();
        std::thread::scope(|scope| {
            for worker in 0..3u64 {
                let specs = &specs;
                scope.spawn(move || {
                    let mut rng = Pcg32::seed_from_u64(1000 + worker);
                    let mut client = Client::connect(addr);
                    for _ in 0..25 {
                        let spec = &specs[rng.gen_range(0..specs.len())];
                        let submitted = client.ok(&format!(
                            r#"{{"op":"submit","kind":"scenario","params":{spec}}}"#
                        ));
                        let req = submitted
                            .get("req")
                            .and_then(Json::as_str)
                            .expect("req")
                            .to_string();
                        if rng.gen_bool(0.3) {
                            client.ok(&format!(r#"{{"op":"cancel","req":"{req}"}}"#));
                        }
                    }
                });
            }
        });
        // Drain: revive anything cancelled, wait for completion.
        let mut client = Client::connect(addr);
        let mut digests: Vec<String> = specs
            .iter()
            .map(|spec| loop {
                let submitted = client.ok(&format!(
                    r#"{{"op":"submit","kind":"scenario","params":{spec}}}"#
                ));
                let req = submitted
                    .get("req")
                    .and_then(Json::as_str)
                    .expect("req")
                    .to_string();
                let mut cancelled = false;
                let digest = loop {
                    let status = client.ok(&format!(r#"{{"op":"status","req":"{req}"}}"#));
                    match status.get("phase").and_then(Json::as_str) {
                        Some("done") => {
                            break status
                                .get("digest")
                                .and_then(Json::as_str)
                                .expect("digest")
                                .to_string()
                        }
                        Some("failed") => panic!("failed: {}", status.dump()),
                        Some("cancelled") => {
                            cancelled = true;
                            break String::new();
                        }
                        _ => std::thread::sleep(std::time::Duration::from_millis(25)),
                    }
                };
                if !cancelled {
                    break digest;
                }
            })
            .collect();
        digests.sort();
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
        digests
    };

    let first = run_once("interleave-a");
    let second = run_once("interleave-b");
    assert_eq!(
        first, second,
        "same seeds, fresh daemons: byte-identical sorted digest sets"
    );
}
