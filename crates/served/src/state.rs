//! Daemon-side request bookkeeping: the [`Registry`] of per-request
//! lifecycle state, queue, and subscriber fan-out, and the write-ahead
//! request log that makes submissions survive a daemon crash.
//!
//! A request is identified by its content-addressed key (see
//! [`crate::proto::request_key`]) and moves through
//! `Queued → Running → Done/Failed`, with `Queued → Cancelled` (and back
//! to `Queued` on re-submit) as the only other edges. The registry is a
//! plain value: the server keeps it behind its one request lock, so the
//! attach-vs-complete race of a subscriber is serialized there. Under
//! that lock, completion, a cancel (or a late attach) only takes the
//! subscribers' senders out as a [`Flush`]; the caller sends the stored
//! telemetry lines and the final frame after the lock drops, over each
//! unbounded [`std::sync::mpsc`] channel, then drops the senders so each
//! receiver disconnects and its stream ends.

use crate::proto::{format_key, parse_key};
use liteworp_runner::journal::replay_truncating;
use liteworp_runner::Json;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Result summary of a finished sweep, as recorded in the WAL and
/// reported by `status`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoneInfo {
    /// The sweep's order-sensitive `results_digest`.
    pub digest: u64,
    /// Total jobs in the sweep.
    pub jobs: usize,
    /// Jobs answered from the shared result cache.
    pub cache_hits: usize,
    /// Jobs replayed from the request's resume journal.
    pub journal_hits: usize,
    /// Jobs that executed a simulation.
    pub cache_misses: usize,
    /// Jobs quarantined after exhausting retries.
    pub failed: usize,
}

/// Where a request is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum ReqPhase {
    /// Accepted, waiting for a drainer.
    Queued,
    /// A drainer is executing the sweep.
    Running,
    /// The sweep drained; all jobs succeeded.
    Done(DoneInfo),
    /// Cancelled while still queued. Re-submitting requeues it.
    Cancelled,
    /// The sweep drained but quarantined jobs or hit a daemon-side
    /// error; carries the reason.
    Failed(String),
}

impl ReqPhase {
    /// Phase name as reported on the wire.
    pub fn name(&self) -> &'static str {
        match self {
            ReqPhase::Queued => "queued",
            ReqPhase::Running => "running",
            ReqPhase::Done(_) => "done",
            ReqPhase::Cancelled => "cancelled",
            ReqPhase::Failed(_) => "failed",
        }
    }

    /// Whether the phase is terminal for the current submission
    /// (`Cancelled` counts: only a fresh submit revives the request).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            ReqPhase::Done(_) | ReqPhase::Cancelled | ReqPhase::Failed(_)
        )
    }
}

/// One registered request: its identity plus lifecycle state. Plain
/// data with `&mut self` transitions; the [`Registry`] that owns it is
/// what the daemon locks.
pub struct Request {
    /// Content-addressed request key.
    pub key: u64,
    /// Catalog kind.
    pub kind: String,
    /// Parameter object of the first submission.
    pub params: Json,
    /// Whether the first submission asked for a telemetry trace.
    pub trace: bool,
    phase: ReqPhase,
    subs: Vec<mpsc::Sender<String>>,
    trace_lines: Arc<[String]>,
    /// Obs-clock reading of the (latest) submission, for `age_ms`.
    submitted_us: u64,
}

impl Request {
    /// A freshly submitted (queued) request.
    pub fn new(key: u64, kind: String, params: Json, trace: bool) -> Self {
        Request {
            key,
            kind,
            params,
            trace,
            phase: ReqPhase::Queued,
            subs: Vec::new(),
            trace_lines: Arc::default(),
            submitted_us: liteworp_obs::clock::now_micros(),
        }
    }

    /// The current phase.
    pub fn phase(&self) -> &ReqPhase {
        &self.phase
    }

    /// `Queued → Running`. Returns false (and does nothing) from any
    /// other phase.
    pub fn set_running(&mut self) -> bool {
        let queued = self.phase == ReqPhase::Queued;
        if queued {
            self.phase = ReqPhase::Running;
        }
        queued
    }

    /// `Queued → Cancelled`. Running or finished sweeps are unaffected
    /// (`None`). When the cancel takes, the returned flush sends every
    /// subscriber the final frame and ends its stream.
    pub fn cancel(&mut self) -> Option<Flush> {
        if self.phase != ReqPhase::Queued {
            return None;
        }
        self.phase = ReqPhase::Cancelled;
        Some(self.flush())
    }

    /// `Cancelled → Queued` (a duplicate submit reviving the request).
    /// Returns whether the transition happened.
    pub fn requeue(&mut self) -> bool {
        if self.phase != ReqPhase::Cancelled {
            return false;
        }
        self.phase = ReqPhase::Queued;
        self.trace_lines = Arc::default();
        self.submitted_us = liteworp_obs::clock::now_micros();
        true
    }

    /// Attaches a subscriber. On a live request the receiver sees
    /// progress frames as they happen (the returned flush is empty); on
    /// a terminal one the flush serves it the stored telemetry lines and
    /// the final frame. Either way the stream ends when the sender side
    /// is dropped.
    pub fn subscribe(&mut self) -> (mpsc::Receiver<String>, Flush) {
        let (tx, rx) = mpsc::channel();
        self.subs.push(tx);
        if self.phase.is_terminal() {
            return (rx, self.flush());
        }
        (rx, Flush::default())
    }

    /// Sends one frame to every live subscriber, pruning the hung-up.
    pub fn broadcast(&mut self, frame: &str) {
        self.subs.retain(|sub| sub.send(frame.to_string()).is_ok());
    }

    /// Finishes the request: records the terminal phase and telemetry
    /// lines, and takes every subscriber out into the returned flush,
    /// which sends them both and hangs up.
    pub fn complete(
        &mut self,
        outcome: Result<DoneInfo, String>,
        trace_lines: Vec<String>,
    ) -> Flush {
        self.phase = match outcome {
            Ok(info) => ReqPhase::Done(info),
            Err(reason) => ReqPhase::Failed(reason),
        };
        self.trace_lines = trace_lines.into();
        self.flush()
    }

    /// Takes every subscriber out with the terminal stream it is owed.
    fn flush(&mut self) -> Flush {
        Flush {
            subs: std::mem::take(&mut self.subs),
            lines: Arc::clone(&self.trace_lines),
            frame: final_frame(self.key, &self.phase),
        }
    }
}

/// The end of a terminal stream, owed to some subscribers: the stored
/// telemetry lines, then the final frame. It is taken out under the
/// registry lock and sent after the lock drops, so copying a long trace
/// into the channels never holds the lock.
#[derive(Default)]
#[must_use = "subscribers get their final frame only when the flush is sent"]
pub struct Flush {
    subs: Vec<mpsc::Sender<String>>,
    lines: Arc<[String]>,
    frame: String,
}

impl Flush {
    /// Sends the lines and the final frame to every subscriber, then
    /// drops the senders so each stream ends.
    pub fn send(self) {
        for sub in self.subs {
            for line in self.lines.iter() {
                let _ = sub.send(line.clone());
            }
            let _ = sub.send(self.frame.clone());
        }
    }
}

/// What a `submit` did to the [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Whether the key was already registered.
    pub dedup: bool,
    /// The request's phase after the submit.
    pub phase: ReqPhase,
    /// Set when the submit (re)queued the request: the record to log
    /// before [`Registry::enqueue`] hands it to a drainer.
    pub record: Option<WalRecord>,
}

/// The daemon's whole request bookkeeping — every registered request and
/// the drain queue — as one plain value. The server keeps it behind one
/// mutex (with the condvar that wakes drainers); nothing in here locks,
/// blocks, or touches a file, so the lifecycle is testable without
/// sockets.
#[derive(Default)]
pub struct Registry {
    /// Every registered request, by key.
    requests: BTreeMap<u64, Request>,
    /// Keys waiting for a drainer, oldest submission first. Holds only
    /// `Queued` requests, each at most once.
    queue: VecDeque<u64>,
}

impl Registry {
    /// Every registered request, in key order.
    pub fn requests(&self) -> impl Iterator<Item = &Request> {
        self.requests.values()
    }

    /// How many requests wait for a drainer.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Registers a submission, deduplicating by key: a new key is added
    /// `Queued`, a cancelled one is revived, anything else is reported
    /// as it stands.
    pub fn submit(&mut self, key: u64, kind: String, params: Json, trace: bool) -> Submission {
        let dedup = self.requests.contains_key(&key);
        let req = self
            .requests
            .entry(key)
            .or_insert_with(|| Request::new(key, kind, params, trace));
        // A new or revived request logs a submission, so WAL replay
        // (re-)enqueues it.
        let queued = !dedup || req.requeue();
        Submission {
            dedup,
            phase: req.phase.clone(),
            record: queued.then(|| WalRecord::Submitted {
                key,
                kind: req.kind.clone(),
                params: req.params.clone(),
                trace: req.trace,
            }),
        }
    }

    /// Appends a queued request to the drain queue — after its
    /// submission is logged. Does nothing when a cancel won the race or
    /// the key is already queued; returns whether it queued.
    pub fn enqueue(&mut self, key: u64) -> bool {
        let queued = self.requests.get(&key).map(Request::phase) == Some(&ReqPhase::Queued);
        let fresh = queued && !self.queue.contains(&key);
        if fresh {
            self.queue.push_back(key);
        }
        fresh
    }

    /// Pops the oldest queued request and marks it running.
    pub fn start_next(&mut self) -> Option<&Request> {
        let key = loop {
            let key = self.queue.pop_front()?;
            if self
                .requests
                .get_mut(&key)
                .is_some_and(Request::set_running)
            {
                break key;
            }
        };
        self.requests.get(&key)
    }

    /// Cancels a queued request and takes it off the queue. `None` for
    /// an unknown key, else the phase after and, when the cancel took,
    /// the flush its subscribers are owed (see [`Request::cancel`]).
    pub fn cancel(&mut self, key: u64) -> Option<(Option<Flush>, &'static str)> {
        let req = self.requests.get_mut(&key)?;
        let flush = req.cancel();
        if flush.is_some() {
            self.queue.retain(|k| *k != key);
        }
        Some((flush, req.phase.name()))
    }

    /// Takes back a submit whose record could not be logged, before it
    /// was enqueued: a new key (`dedup` false) is unregistered, a revived
    /// one goes back to `Cancelled` and owes its subscribers the returned
    /// flush. A request that is no longer a queued, unenqueued one (a
    /// concurrent cancel or submit got to it first) is left alone.
    pub fn withdraw(&mut self, key: u64, dedup: bool) -> Flush {
        if self.queue.contains(&key) {
            return Flush::default();
        }
        match self.requests.get_mut(&key) {
            Some(req) if req.phase == ReqPhase::Queued && dedup => {
                req.phase = ReqPhase::Cancelled;
                req.flush()
            }
            Some(req) if req.phase == ReqPhase::Queued => {
                self.requests.remove(&key);
                Flush::default()
            }
            _ => Flush::default(),
        }
    }

    /// Takes back a cancel whose record could not be logged: a request
    /// the cancel left `Cancelled` goes back to `Queued`, at the back of
    /// the queue, and the subscribers the cancel took out (`flush`, not
    /// sent) are attached again. Should a concurrent submit and drain
    /// have finished the request meanwhile, the returned flush owes them
    /// its final frame.
    pub fn uncancel(&mut self, key: u64, flush: Flush) -> Flush {
        let Some(req) = self.requests.get_mut(&key) else {
            return flush;
        };
        if req.phase == ReqPhase::Cancelled {
            req.phase = ReqPhase::Queued;
        }
        req.subs.extend(flush.subs);
        if req.phase.is_terminal() {
            return req.flush();
        }
        self.enqueue(key);
        Flush::default()
    }

    /// Finishes a running request (see [`Request::complete`]). Returns
    /// `None`, changing nothing, for any other phase.
    pub fn complete(
        &mut self,
        key: u64,
        outcome: Result<DoneInfo, String>,
        trace_lines: Vec<String>,
    ) -> Option<Flush> {
        match self.requests.get_mut(&key) {
            Some(req) if req.phase == ReqPhase::Running => Some(req.complete(outcome, trace_lines)),
            _ => None,
        }
    }

    /// Attaches a subscriber to `key` (see [`Request::subscribe`]);
    /// `None` for an unknown key.
    pub fn subscribe(&mut self, key: u64) -> Option<(mpsc::Receiver<String>, Flush)> {
        self.requests.get_mut(&key).map(Request::subscribe)
    }

    /// Sends one frame to the subscribers of `key`.
    pub fn broadcast(&mut self, key: u64, frame: &str) {
        if let Some(req) = self.requests.get_mut(&key) {
            req.broadcast(frame);
        }
    }

    /// Sends one frame to the subscribers of every request.
    pub fn broadcast_all(&mut self, frame: &str) {
        self.requests
            .values_mut()
            .for_each(|req| req.broadcast(frame));
    }

    /// The `status` response body for `key` (without the `ok` field).
    /// A queued request also reports its exact 0-based `queue_position`.
    pub fn status_json(&self, key: u64) -> Option<Vec<(String, Json)>> {
        let req = self.requests.get(&key)?;
        let age_us = liteworp_obs::clock::now_micros().saturating_sub(req.submitted_us);
        let mut pairs = vec![
            ("req".to_string(), Json::from(format_key(key))),
            ("kind".to_string(), Json::from(req.kind.clone())),
            ("phase".to_string(), Json::from(req.phase.name())),
            ("age_ms".to_string(), Json::from(age_us / 1_000)),
        ];
        if let Some(pos) = self.queue.iter().position(|k| *k == key) {
            pairs.push(("queue_position".to_string(), Json::from(pos)));
        }
        match &req.phase {
            ReqPhase::Done(info) => pairs.extend(done_pairs(info)),
            ReqPhase::Failed(reason) => {
                pairs.push(("reason".to_string(), Json::from(reason.clone())));
            }
            _ => {}
        }
        Some(pairs)
    }

    /// Rebuilds the registry from WAL records, in order. A request whose
    /// sweep never logged `done` (the daemon died while it was queued or
    /// running, or it failed) comes back `Queued`, in submission order;
    /// its per-request journal then skips the jobs that already
    /// completed. Telemetry trace lines are not persisted, so replayed
    /// `done` requests come back without them.
    pub fn replay(&mut self, records: impl IntoIterator<Item = WalRecord>) {
        for record in records {
            let (key, phase) = match record {
                WalRecord::Submitted {
                    key,
                    kind,
                    params,
                    trace,
                } => {
                    self.requests
                        .entry(key)
                        .or_insert_with(|| Request::new(key, kind, params, trace))
                        .phase = ReqPhase::Queued;
                    self.enqueue(key);
                    continue;
                }
                WalRecord::Done { key, info } => (key, ReqPhase::Done(info)),
                WalRecord::Cancelled { key } => (key, ReqPhase::Cancelled),
            };
            if let Some(req) = self.requests.get_mut(&key) {
                req.phase = phase;
            }
            self.queue.retain(|k| *k != key);
        }
    }
}

fn done_pairs(info: &DoneInfo) -> Vec<(String, Json)> {
    vec![
        ("digest".to_string(), Json::from(format_key(info.digest))),
        ("jobs".to_string(), Json::from(info.jobs)),
        ("cache_hits".to_string(), Json::from(info.cache_hits)),
        ("journal_hits".to_string(), Json::from(info.journal_hits)),
        ("cache_misses".to_string(), Json::from(info.cache_misses)),
        ("failed".to_string(), Json::from(info.failed)),
    ]
}

/// The last frame of a subscription stream.
pub fn final_frame(key: u64, phase: &ReqPhase) -> String {
    let mut pairs = vec![
        ("stream".to_string(), Json::from("done")),
        ("req".to_string(), Json::from(format_key(key))),
        ("phase".to_string(), Json::from(phase.name())),
    ];
    match phase {
        ReqPhase::Done(info) => pairs.extend(done_pairs(info)),
        ReqPhase::Failed(reason) => {
            pairs.push(("reason".to_string(), Json::from(reason.clone())));
        }
        _ => {}
    }
    Json::Obj(pairs).dump()
}

/// One record of the request WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A request was accepted (written again when a cancelled request is
    /// requeued, so replay order reconstructs the final queue).
    Submitted {
        /// Request key.
        key: u64,
        /// Catalog kind.
        kind: String,
        /// Parameter object.
        params: Json,
        /// Trace flag.
        trace: bool,
    },
    /// A request's sweep drained successfully.
    Done {
        /// Request key.
        key: u64,
        /// Result summary.
        info: DoneInfo,
    },
    /// A queued request was cancelled.
    Cancelled {
        /// Request key.
        key: u64,
    },
}

impl WalRecord {
    fn to_json(&self) -> Json {
        match self {
            WalRecord::Submitted {
                key,
                kind,
                params,
                trace,
            } => Json::object([
                ("rec", Json::from("submitted")),
                ("key", Json::from(format_key(*key))),
                ("kind", Json::from(kind.clone())),
                ("params", params.clone()),
                ("trace", Json::from(*trace)),
            ]),
            WalRecord::Done { key, info } => {
                let mut pairs = vec![
                    ("rec".to_string(), Json::from("done")),
                    ("key".to_string(), Json::from(format_key(*key))),
                ];
                pairs.extend(done_pairs(info));
                Json::Obj(pairs)
            }
            WalRecord::Cancelled { key } => Json::object([
                ("rec", Json::from("cancelled")),
                ("key", Json::from(format_key(*key))),
            ]),
        }
    }

    fn from_json(json: &Json) -> Option<WalRecord> {
        let key = parse_key(json.get("key")?.as_str()?)?;
        match json.get("rec")?.as_str()? {
            "submitted" => Some(WalRecord::Submitted {
                key,
                kind: json.get("kind")?.as_str()?.to_string(),
                params: json.get("params").cloned().unwrap_or(Json::Null),
                trace: json.get("trace").and_then(Json::as_bool).unwrap_or(false),
            }),
            "done" => {
                let n = |k: &str| json.get(k)?.as_u64().map(|v| v as usize);
                Some(WalRecord::Done {
                    key,
                    info: DoneInfo {
                        digest: parse_key(json.get("digest")?.as_str()?)?,
                        jobs: n("jobs")?,
                        cache_hits: n("cache_hits")?,
                        journal_hits: n("journal_hits")?,
                        cache_misses: n("cache_misses")?,
                        failed: n("failed")?,
                    },
                })
            }
            "cancelled" => Some(WalRecord::Cancelled { key }),
            _ => None,
        }
    }
}

/// Append-only JSONL log of request lifecycle records. Replaying it in
/// order ([`Registry::replay`]: last record per key wins for phase,
/// submit order builds the queue) reconstructs the registry after a
/// crash. A torn final line — the daemon died mid-write — is cut on
/// load.
pub struct RequestWal {
    file: Mutex<std::fs::File>,
    /// The log's location.
    pub path: PathBuf,
}

impl RequestWal {
    /// Opens (appending) or creates the WAL at `path`.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<RequestWal> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(RequestWal {
            file: Mutex::new(file),
            path,
        })
    }

    /// A WAL on `path` opened read-only, so every append fails.
    #[cfg(test)]
    pub(crate) fn read_only(path: impl Into<PathBuf>) -> std::io::Result<RequestWal> {
        let path = path.into();
        let file = std::fs::File::open(&path)?;
        Ok(RequestWal {
            file: Mutex::new(file),
            path,
        })
    }

    /// Appends one record durably (fsync per record: a crash loses at
    /// most the torn line the loader already tolerates).
    pub fn append(&self, record: &WalRecord) -> std::io::Result<()> {
        let mut file = crate::lock(&self.file);
        file.write_all(format!("{}\n", record.to_json().dump()).as_bytes())?;
        // lint: allow(C002) WAL durability contract: the fsync *must* be
        // serialized under the file lock so records hit disk in append order
        file.sync_data()
    }

    /// Loads the log through the runner's torn-tail reader
    /// ([`replay_truncating`]): every newline-terminated, well-formed
    /// record in order, up to the first line that is not. That line and
    /// everything after it (the daemon died mid-append) is cut from the
    /// file and fsync'd, so the next [`RequestWal::open`] appends on a
    /// clean line boundary. Returns the records kept and how many torn
    /// bytes were cut; a missing file is an empty log.
    pub fn load_truncating(path: &Path) -> (Vec<WalRecord>, u64) {
        let mut records = Vec::new();
        let replayed = replay_truncating(path, |line| {
            let record = Json::parse(line)
                .ok()
                .and_then(|j| WalRecord::from_json(&j));
            Ok::<_, std::io::Error>(record.map(|r| records.push(r)).is_some())
        });
        match replayed {
            Ok(torn_bytes) => (records, torn_bytes as u64),
            Err(e) => {
                if e.kind() != std::io::ErrorKind::NotFound {
                    eprintln!(
                        "liteworp-served: failed to replay the WAL {}: {e}",
                        path.display()
                    );
                }
                (records, 0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteworp_runner::{Pcg32, Rng};

    fn info() -> DoneInfo {
        DoneInfo {
            digest: 0xabcd,
            jobs: 4,
            cache_hits: 1,
            journal_hits: 0,
            cache_misses: 3,
            failed: 0,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "liteworp-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("requests.jsonl")
    }

    fn submitted(key: u64, trace: bool) -> WalRecord {
        WalRecord::Submitted {
            key,
            kind: "fig9".into(),
            params: Json::parse(r#"{"seeds":2}"#).unwrap(),
            trace,
        }
    }

    #[test]
    fn lifecycle_edges_are_enforced() {
        let mut req = Request::new(7, "fig9".into(), Json::Null, false);
        assert_eq!(req.phase(), &ReqPhase::Queued);
        assert!(req.set_running());
        assert!(!req.set_running(), "running is not queued");
        assert!(req.cancel().is_none(), "running sweeps cannot be cancelled");
        req.complete(Ok(info()), Vec::new()).send();
        assert_eq!(req.phase(), &ReqPhase::Done(info()));
        assert!(!req.requeue(), "done requests stay done");

        let mut req = Request::new(8, "fig9".into(), Json::Null, false);
        req.cancel().expect("a queued request cancels").send();
        assert!(!req.set_running(), "cancel wins the race to the drainer");
        assert!(req.requeue());
        assert_eq!(req.phase(), &ReqPhase::Queued);
    }

    #[test]
    fn status_reports_age_and_queue_position_while_queued() {
        let mut reg = Registry::default();
        for key in [11, 12] {
            reg.submit(key, "fig9".into(), Json::Null, false);
            reg.enqueue(key);
        }
        let status = |reg: &Registry, key| Json::Obj(reg.status_json(key).unwrap());
        let queued = status(&reg, 12);
        assert!(queued.get("age_ms").and_then(Json::as_u64).is_some());
        assert_eq!(queued.get("queue_position").and_then(Json::as_u64), Some(1));

        // Once past Queued the position is gone; age keeps counting
        // from the submission.
        assert_eq!(reg.start_next().map(|r| r.key), Some(11));
        let running = status(&reg, 11);
        assert_eq!(running.get("phase").and_then(Json::as_str), Some("running"));
        assert_eq!(running.get("queue_position"), None);
        assert!(running.get("age_ms").and_then(Json::as_u64).is_some());
        let queued = status(&reg, 12);
        assert_eq!(queued.get("queue_position").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn late_subscribers_get_the_stored_stream() {
        let mut req = Request::new(9, "fig9".into(), Json::Null, true);
        req.set_running();
        req.complete(Ok(info()), vec!["line-a".into(), "line-b".into()])
            .send();
        let (rx, flush) = req.subscribe();
        assert!(rx.try_recv().is_err(), "nothing is sent before the flush");
        flush.send();
        let got: Vec<String> = rx.iter().collect();
        assert_eq!(got.len(), 3, "two trace lines plus the final frame");
        assert_eq!(got[0], "line-a");
        let done = Json::parse(&got[2]).unwrap();
        assert_eq!(done.get("phase").and_then(Json::as_str), Some("done"));
        assert_eq!(done.get("stream").and_then(Json::as_str), Some("done"));
    }

    #[test]
    fn live_subscribers_see_broadcasts_then_hang_up() {
        let mut req = Request::new(10, "fig9".into(), Json::Null, false);
        let (rx, flush) = req.subscribe();
        flush.send(); // empty: the request is live
        req.broadcast("progress-1");
        req.set_running();
        req.broadcast("progress-2");
        req.complete(Err("boom".into()), Vec::new()).send();
        let got: Vec<String> = rx.iter().collect(); // iter ends: sender dropped
        assert_eq!(got[0], "progress-1");
        assert_eq!(got[1], "progress-2");
        let last = Json::parse(&got[2]).unwrap();
        assert_eq!(last.get("phase").and_then(Json::as_str), Some("failed"));
        assert_eq!(last.get("reason").and_then(Json::as_str), Some("boom"));
    }

    /// A cancel sends nothing under the registry lock: its subscribers
    /// hear the final frame only when the returned flush is sent.
    #[test]
    fn a_cancel_sends_nothing_until_its_flush_is_sent() {
        let mut reg = Registry::default();
        reg.submit(5, "fig9".into(), Json::Null, false);
        reg.enqueue(5);
        let (rx, flush) = reg.subscribe(5).expect("registered");
        flush.send(); // empty: the request is live
        let (flush, phase) = reg.cancel(5).expect("registered");
        assert_eq!(phase, "cancelled");
        assert!(
            matches!(rx.try_recv(), Err(mpsc::TryRecvError::Empty)),
            "nothing is sent before the flush"
        );
        flush.expect("the cancel takes").send();
        let got: Vec<String> = rx.iter().collect(); // ends: sender dropped
        assert_eq!(got.len(), 1, "just the final frame: {got:?}");
        let last = Json::parse(&got[0]).unwrap();
        assert_eq!(last.get("phase").and_then(Json::as_str), Some("cancelled"));
    }

    #[test]
    fn withdraw_undoes_a_submit_that_was_not_enqueued() {
        let mut reg = Registry::default();
        let sub = reg.submit(1, "fig9".into(), Json::Null, false);
        reg.withdraw(1, sub.dedup).send();
        assert_eq!(reg.status_json(1), None, "a new key is unregistered");

        reg.submit(2, "fig9".into(), Json::Null, false);
        reg.cancel(2).and_then(|(flush, _)| flush).unwrap().send();
        let revived = reg.submit(2, "fig9".into(), Json::Null, false);
        assert!(revived.dedup && revived.record.is_some());
        reg.withdraw(2, revived.dedup).send();
        assert_eq!(phases(&reg).get(&2), Some(&ReqPhase::Cancelled));
        assert_eq!(reg.queue_len(), 0);

        // An enqueued submission is someone else's to keep.
        reg.submit(3, "fig9".into(), Json::Null, false);
        assert!(reg.enqueue(3));
        reg.withdraw(3, false).send();
        assert_eq!(phases(&reg).get(&3), Some(&ReqPhase::Queued));
    }

    #[test]
    fn status_queue_position_is_exact_after_a_cancel() {
        let mut reg = Registry::default();
        for key in [1, 2, 3] {
            reg.submit(key, "fig9".into(), Json::Null, false);
            assert!(reg.enqueue(key));
        }
        let (flush, phase) = reg.cancel(1).expect("a registered key");
        flush.expect("the cancel takes").send();
        assert_eq!(phase, "cancelled");
        let position = |reg: &Registry, key| {
            Json::Obj(reg.status_json(key).unwrap())
                .get("queue_position")
                .and_then(Json::as_u64)
        };
        assert_eq!(
            position(&reg, 3),
            Some(1),
            "the cancelled key left the queue"
        );
        let revived = reg.submit(1, "fig9".into(), Json::Null, false);
        assert!(revived.dedup && revived.record.is_some());
        assert!(reg.enqueue(1));
        assert!(!reg.enqueue(1), "a live key is queued once");
        assert_eq!(position(&reg, 1), Some(2), "a revived request queues last");
        assert_eq!(reg.status_json(99), None);
    }

    #[test]
    fn wal_round_trips() {
        let path = scratch("roundtrip");
        // A traced submission, so a dropped `trace` field would show.
        let records = vec![
            submitted(1, true),
            WalRecord::Done {
                key: 1,
                info: info(),
            },
            WalRecord::Cancelled { key: 2 },
        ];
        {
            let wal = RequestWal::open(&path).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        assert_eq!(RequestWal::load_truncating(&path), (records, 0));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn load_truncating_cuts_the_torn_tail_back_to_clean_bytes() {
        let path = scratch("trunc");
        let records = vec![
            submitted(3, false),
            WalRecord::Done {
                key: 3,
                info: info(),
            },
        ];
        {
            let wal = RequestWal::open(&path).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();

        // Simulate dying mid-append: a partial record with no newline.
        let torn_tail = r#"{"rec":"submitted","key":"dead"#;
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(torn_tail.as_bytes()).unwrap();
        }

        let (loaded, torn_bytes) = RequestWal::load_truncating(&path);
        assert_eq!(loaded, records);
        assert_eq!(torn_bytes, torn_tail.len() as u64);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "torn tail physically removed"
        );

        // A clean log is untouched and reports zero torn bytes.
        let (loaded, torn_bytes) = RequestWal::load_truncating(&path);
        assert_eq!(loaded, records);
        assert_eq!(torn_bytes, 0);

        // Appending after repair yields a well-formed log again.
        let extra = WalRecord::Cancelled { key: 9 };
        RequestWal::open(&path).unwrap().append(&extra).unwrap();
        let (loaded, torn_bytes) = RequestWal::load_truncating(&path);
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[2], extra);
        assert_eq!(torn_bytes, 0);

        assert_eq!(
            RequestWal::load_truncating(Path::new("/nonexistent/wal.jsonl")),
            (Vec::new(), 0)
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A record that parses but lost its newline is torn: keeping it
    /// would let the next append glue onto it, and the restart after
    /// that would drop both records — one of them acknowledged.
    #[test]
    fn an_unterminated_record_is_torn_so_the_next_append_survives() {
        let path = scratch("unterminated");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let first = submitted(1, false).to_json().dump();
        std::fs::write(&path, &first).unwrap();

        let (loaded, torn_bytes) = RequestWal::load_truncating(&path);
        assert_eq!(loaded, Vec::new());
        assert_eq!(torn_bytes, first.len() as u64);

        let second = submitted(2, false);
        RequestWal::open(&path).unwrap().append(&second).unwrap();
        assert_eq!(RequestWal::load_truncating(&path), (vec![second], 0));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// The phase of every registered request.
    fn phases(reg: &Registry) -> BTreeMap<u64, ReqPhase> {
        reg.requests
            .iter()
            .map(|(k, r)| (*k, r.phase().clone()))
            .collect()
    }

    /// The DESIGN.md §11 lifecycle edges (plus staying put).
    fn is_edge(from: Option<&ReqPhase>, to: &ReqPhase) -> bool {
        use ReqPhase::*;
        match (from, to) {
            (None, Queued) => true,
            (Some(a), b) if a == b => true,
            (Some(Queued), Running | Cancelled) => true,
            (Some(Running), Done(_) | Failed(_)) => true,
            (Some(Cancelled), Queued) => true,
            _ => false,
        }
    }

    /// Checks the registry invariants after one op of a seeded sequence.
    fn check_invariants(
        reg: &Registry,
        before: &BTreeMap<u64, ReqPhase>,
        digests: &mut BTreeMap<u64, DoneInfo>,
        ctx: &str,
    ) {
        for (key, req) in &reg.requests {
            let phase = req.phase();
            assert!(
                is_edge(before.get(key), phase),
                "{ctx}: key {key} went {:?} -> {phase:?}",
                before.get(key)
            );
            if let ReqPhase::Done(info) = phase {
                let recorded = digests.entry(*key).or_insert_with(|| info.clone());
                assert_eq!(recorded, info, "{ctx}: done digest of {key} changed");
            }
        }
        assert!(
            before.keys().all(|k| reg.requests.contains_key(k)),
            "{ctx}: a registered request is never forgotten"
        );
        let mut seen = std::collections::BTreeSet::new();
        for key in &reg.queue {
            assert!(seen.insert(*key), "{ctx}: key {key} queued twice");
            assert_eq!(
                reg.requests.get(key).map(Request::phase),
                Some(&ReqPhase::Queued),
                "{ctx}: queued key {key} is not in phase queued"
            );
        }
    }

    /// Replaying the WAL into a fresh registry reproduces every logged
    /// terminal phase and the queue order; requests that were running
    /// (or failed, which is not logged) come back queued.
    fn check_replay(live: &Registry, wal: &[WalRecord], ctx: &str) {
        let mut replayed = Registry::default();
        replayed.replay(wal.iter().cloned());
        assert_eq!(
            replayed.requests.keys().collect::<Vec<_>>(),
            live.requests.keys().collect::<Vec<_>>(),
            "{ctx}: replay registers the same keys"
        );
        for (key, req) in &live.requests {
            let want = match req.phase() {
                ReqPhase::Running | ReqPhase::Failed(_) => ReqPhase::Queued,
                other => other.clone(),
            };
            assert_eq!(
                replayed.requests[key].phase(),
                &want,
                "{ctx}: replayed phase of {key}"
            );
        }
        let still_queued: Vec<u64> = replayed
            .queue
            .iter()
            .copied()
            .filter(|k| live.requests[k].phase() == &ReqPhase::Queued)
            .collect();
        assert_eq!(
            still_queued,
            live.queue.iter().copied().collect::<Vec<_>>(),
            "{ctx}: replayed queue order"
        );
    }

    /// Seeded op sequences over the registry, driven the way the server
    /// drives it: WAL records are emitted where the server appends them,
    /// and the registry's invariants are checked after every op.
    #[test]
    fn seeded_op_sequences_keep_the_registry_invariants() {
        for seed in 0..64u64 {
            let mut rng = Pcg32::seed_from_u64(seed);
            let mut reg = Registry::default();
            let mut wal: Vec<WalRecord> = Vec::new();
            let mut digests: BTreeMap<u64, DoneInfo> = BTreeMap::new();
            let mut running: Vec<u64> = Vec::new();
            let mut subscribers: Vec<(u64, mpsc::Receiver<String>)> = Vec::new();
            for step in 0..200 {
                let ctx = format!("seed {seed} step {step}");
                let before = phases(&reg);
                // A small key space makes duplicates, revivals, and
                // cancels of live keys common.
                let key = rng.gen_range(0..8u64);
                match rng.gen_range(0..6u32) {
                    0 | 1 => {
                        // submit (a repeat key is a duplicate submit)
                        let sub = reg.submit(key, "fig9".into(), Json::Null, false);
                        assert_eq!(sub.dedup, before.contains_key(&key), "{ctx}");
                        if let Some(record) = sub.record {
                            wal.push(record);
                            reg.enqueue(key);
                        }
                    }
                    2 => {
                        if let Some((Some(flush), phase)) = reg.cancel(key) {
                            assert_eq!(phase, "cancelled", "{ctx}");
                            flush.send();
                            wal.push(WalRecord::Cancelled { key });
                        }
                    }
                    3 => running.extend(reg.start_next().map(|r| r.key)),
                    4 if !running.is_empty() => {
                        let key = running.remove(rng.gen_range(0..running.len()));
                        if rng.gen_bool(0.8) {
                            let info = DoneInfo {
                                digest: key.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                                ..info()
                            };
                            let flush = reg.complete(key, Ok(info.clone()), Vec::new());
                            flush.expect(&ctx).send();
                            wal.push(WalRecord::Done { key, info });
                        } else {
                            let flush = reg.complete(key, Err("quarantined".into()), Vec::new());
                            flush.expect(&ctx).send();
                        }
                        // Only a running request completes: a second
                        // completion never rewrites the outcome.
                        let late = reg.complete(key, Err("late".into()), Vec::new());
                        assert!(late.is_none(), "{ctx}");
                    }
                    _ => {
                        if let Some((rx, flush)) = reg.subscribe(key) {
                            flush.send();
                            subscribers.push((key, rx));
                        }
                    }
                }
                check_invariants(&reg, &before, &mut digests, &ctx);
                check_replay(&reg, &wal, &ctx);
            }
            // Every subscriber of a finished request got its final frame
            // and was hung up on.
            for (key, rx) in subscribers {
                if reg.requests[&key].phase().is_terminal() {
                    let frames: Vec<String> = rx.try_iter().collect();
                    let last = frames.last().map(|f| Json::parse(f).unwrap());
                    assert_eq!(
                        last.as_ref()
                            .and_then(|j| j.get("stream"))
                            .and_then(Json::as_str),
                        Some("done"),
                        "seed {seed}: subscriber of {key} saw its final frame"
                    );
                    assert!(
                        matches!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)),
                        "seed {seed}: subscriber of {key} hung up"
                    );
                }
            }
        }
    }
}
