//! Write-ahead sweep journal: crash-resumable record of job completion.
//!
//! A sweep journal is a JSONL file. The first line is a header binding the
//! journal to one exact sweep (a hash of every job's cache key plus the
//! code version); every following line records one finished job — its
//! key, label, seed, retry count, and either the full result value or the
//! failure that quarantined it. Appends are flushed and fsync'd, so a
//! `kill -9` loses at most the job that was being written.
//!
//! On [`SweepJournal::resume`] the file is replayed through
//! [`replay_truncating`], the torn-tail reader the daemon's request WAL
//! shares: a torn or corrupt tail (the partially written last line of a
//! crash) is detected, reported, and truncated away rather than parsed,
//! and the recovered entries let the supervisor skip exactly the jobs
//! that already finished. Because result values are embedded, resume
//! works even with the result cache disabled, and a resumed sweep merges
//! to byte-identical aggregates (JSON round-trips are exact).

use crate::cache::{atomic_write, fnv64};
use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// First header field, guarding against feeding some other JSONL file in.
pub const JOURNAL_MAGIC: &str = "liteworp-sweep-journal";

/// On-disk format version.
pub const JOURNAL_VERSION: u64 = 1;

/// The sweep identity a journal is bound to: a hash of the code version
/// and every job's cache key, in job order. Resuming with a different job
/// set, scenario, or code version is rejected instead of silently merging
/// unrelated results.
pub fn sweep_id(keys: &[u64], code_version: &str) -> u64 {
    let mut bytes = Vec::with_capacity(code_version.len() + keys.len() * 9);
    bytes.extend_from_slice(code_version.as_bytes());
    for k in keys {
        bytes.push(0);
        bytes.extend_from_slice(&k.to_le_bytes());
    }
    fnv64(&bytes)
}

/// How a journaled job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalStatus {
    /// The job produced a result (embedded in the entry).
    Done,
    /// The job was quarantined after exhausting its retries.
    Failed,
}

impl JournalStatus {
    fn as_str(self) -> &'static str {
        match self {
            JournalStatus::Done => "done",
            JournalStatus::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<JournalStatus> {
        match s {
            "done" => Some(JournalStatus::Done),
            "failed" => Some(JournalStatus::Failed),
            _ => None,
        }
    }
}

/// One journaled job completion.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The job's cache key (unique per job within a sweep).
    pub key: u64,
    /// The job's label, for humans reading the journal.
    pub label: String,
    /// Seed index of the job.
    pub seed: u64,
    /// Retries the job needed before this outcome.
    pub retries: u32,
    /// Whether the job finished or was quarantined.
    pub status: JournalStatus,
    /// The result value (present iff `status` is [`JournalStatus::Done`]).
    pub value: Option<Json>,
    /// The serialized failure (present iff `status` is
    /// [`JournalStatus::Failed`]).
    pub failure: Option<Json>,
}

impl JournalEntry {
    /// A completion entry carrying the job's result.
    pub fn done(key: u64, label: &str, seed: u64, retries: u32, value: Json) -> JournalEntry {
        JournalEntry {
            key,
            label: label.to_string(),
            seed,
            retries,
            status: JournalStatus::Done,
            value: Some(value),
            failure: None,
        }
    }

    /// A quarantine entry carrying the serialized failure.
    pub fn failed(key: u64, label: &str, seed: u64, retries: u32, failure: Json) -> JournalEntry {
        JournalEntry {
            key,
            label: label.to_string(),
            seed,
            retries,
            status: JournalStatus::Failed,
            value: None,
            failure: Some(failure),
        }
    }

    /// Serializes to one JSONL line's value.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("key", Json::from(format!("{:016x}", self.key))),
            ("label", Json::from(self.label.clone())),
            ("seed", Json::from(self.seed)),
            ("retries", Json::from(self.retries as u64)),
            ("status", Json::from(self.status.as_str())),
            ("value", self.value.clone().unwrap_or(Json::Null)),
            ("failure", self.failure.clone().unwrap_or(Json::Null)),
        ])
    }

    /// Parses an entry back; `None` marks a corrupt line.
    pub fn from_json(json: &Json) -> Option<JournalEntry> {
        let key = u64::from_str_radix(json.get("key")?.as_str()?, 16).ok()?;
        let status = JournalStatus::parse(json.get("status")?.as_str()?)?;
        let field = |name: &str| match json.get(name) {
            Some(Json::Null) | None => None,
            Some(v) => Some(v.clone()),
        };
        let (value, failure) = (field("value"), field("failure"));
        match status {
            JournalStatus::Done if value.is_none() => return None,
            JournalStatus::Failed if failure.is_none() => return None,
            _ => {}
        }
        Some(JournalEntry {
            key,
            label: json.get("label")?.as_str()?.to_string(),
            seed: json.get("seed")?.as_u64()?,
            retries: json.get("retries")?.as_u64()? as u32,
            status,
            value,
            failure,
        })
    }
}

/// Why a journal could not be opened for resume.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error reading or rewriting the journal.
    Io(io::Error),
    /// The file is not a journal, is from a different format version, or
    /// records a different sweep.
    Header(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Header(m) => write!(f, "journal header mismatch: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What [`SweepJournal::resume`] recovered.
#[derive(Debug)]
pub struct Recovered {
    /// Last recorded outcome per job key (later lines win, so a job that
    /// failed in one run and succeeded in a resume reads as done).
    pub entries: BTreeMap<u64, JournalEntry>,
    /// Bytes of torn or corrupt tail that were truncated away.
    pub torn_bytes: usize,
}

/// An open, appendable sweep journal.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    file: File,
}

impl SweepJournal {
    fn header_line(sweep_id: u64, jobs: usize) -> String {
        let header = Json::object([
            ("magic", Json::from(JOURNAL_MAGIC)),
            ("version", Json::from(JOURNAL_VERSION)),
            ("sweep", Json::from(format!("{sweep_id:016x}"))),
            ("jobs", Json::from(jobs)),
        ]);
        header.dump() + "\n"
    }

    /// Creates a fresh journal for a sweep of `jobs` jobs, replacing any
    /// existing file atomically (temp file + rename), then reopens it for
    /// fsync'd appends.
    pub fn create(path: &Path, sweep_id: u64, jobs: usize) -> io::Result<SweepJournal> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)?;
        }
        atomic_write(path, Self::header_line(sweep_id, jobs).as_bytes())?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(SweepJournal {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Reopens an existing journal, verifying it records exactly this
    /// sweep, and replays its entries through [`replay_truncating`].
    ///
    /// A torn tail — the half-written last line a crash leaves behind, or
    /// any corrupt suffix — ends the replay and is cut from the file so
    /// appends resume from a clean boundary. The valid prefix is never
    /// discarded. A header that is missing, torn, or records another
    /// sweep is a [`JournalError::Header`].
    pub fn resume(
        path: &Path,
        sweep_id: u64,
        jobs: usize,
    ) -> Result<(SweepJournal, Recovered), JournalError> {
        let mut header_seen = false;
        let mut entries = BTreeMap::new();
        let torn_bytes = replay_truncating(path, |line| -> Result<bool, JournalError> {
            if !header_seen {
                check_header(line, sweep_id, jobs)?;
                header_seen = true;
                return Ok(true);
            }
            let entry = Json::parse(line)
                .ok()
                .as_ref()
                .and_then(JournalEntry::from_json);
            Ok(entry.map(|e| entries.insert(e.key, e)).is_some())
        })?;
        if !header_seen {
            return Err(JournalError::Header("empty or truncated header".into()));
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((
            SweepJournal {
                path: path.to_path_buf(),
                file,
            },
            Recovered {
                entries,
                torn_bytes,
            },
        ))
    }

    /// Appends one entry, flushed and fsync'd before returning, so a
    /// subsequent crash cannot lose it.
    pub fn append(&mut self, entry: &JournalEntry) -> io::Result<()> {
        let line = entry.to_json().dump() + "\n";
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Validates a journal header line against the sweep being resumed.
fn check_header(line: &str, sweep_id: u64, jobs: usize) -> Result<(), JournalError> {
    let header =
        Json::parse(line).map_err(|e| JournalError::Header(format!("unparsable header: {e}")))?;
    if header.get("magic").and_then(Json::as_str) != Some(JOURNAL_MAGIC) {
        return Err(JournalError::Header("not a sweep journal".into()));
    }
    if header.get("version").and_then(Json::as_u64) != Some(JOURNAL_VERSION) {
        return Err(JournalError::Header("unsupported journal version".into()));
    }
    let recorded = header
        .get("sweep")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| JournalError::Header("missing sweep id".into()))?;
    if recorded != sweep_id {
        return Err(JournalError::Header(format!(
            "journal records sweep {recorded:016x}, this run is {sweep_id:016x} \
             (different jobs, scenario, or code version)"
        )));
    }
    if header.get("jobs").and_then(Json::as_u64) != Some(jobs as u64) {
        return Err(JournalError::Header("job count changed".into()));
    }
    Ok(())
}

/// Replays an append-only JSONL log line by line and cuts it back to its
/// clean prefix: the one torn-tail reader behind both the sweep journal
/// and the daemon's request WAL.
///
/// A line counts only when it ends in a newline and `accept` takes it
/// (`Ok(true)`; the line is passed without its newline). The first line
/// that does not — the half-written last line of a crash, even one that
/// happens to parse, or any corrupt suffix — ends the replay, and
/// everything from it on is truncated from the file and fsync'd, so the
/// next append starts a fresh line instead of gluing onto a fragment.
/// `accept` returning `Err` aborts the replay with the file untouched.
/// Returns the number of torn bytes cut.
pub fn replay_truncating<E: From<io::Error>>(
    path: &Path,
    mut accept: impl FnMut(&str) -> Result<bool, E>,
) -> Result<usize, E> {
    let text = fs::read_to_string(path)?;
    let mut good_bytes = 0usize;
    for line in text.split_inclusive('\n') {
        let Some(body) = line.strip_suffix('\n') else {
            break;
        };
        if !accept(body)? {
            break;
        }
        good_bytes += line.len();
    }
    let torn_bytes = text.len() - good_bytes;
    if torn_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(good_bytes as u64)?;
        file.sync_data()?;
    }
    Ok(torn_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "liteworp-journal-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir.join("sweep.jsonl")
    }

    fn entry(key: u64, seed: u64) -> JournalEntry {
        JournalEntry::done(
            key,
            "cell",
            seed,
            0,
            Json::object([("v", Json::from(seed as f64 * 1.5))]),
        )
    }

    #[test]
    fn sweep_id_is_sensitive_to_keys_and_version() {
        let a = sweep_id(&[1, 2, 3], "v1");
        assert_eq!(a, sweep_id(&[1, 2, 3], "v1"));
        assert_ne!(a, sweep_id(&[1, 2], "v1"));
        assert_ne!(a, sweep_id(&[3, 2, 1], "v1"), "order matters");
        assert_ne!(a, sweep_id(&[1, 2, 3], "v2"));
    }

    #[test]
    fn entry_round_trips() {
        let e = entry(0xdead_beef, 7);
        let parsed = Json::parse(&e.to_json().dump()).unwrap();
        assert_eq!(JournalEntry::from_json(&parsed), Some(e));
        let f = JournalEntry::failed(1, "bad", 2, 3, Json::from("panic: boom"));
        let parsed = Json::parse(&f.to_json().dump()).unwrap();
        assert_eq!(JournalEntry::from_json(&parsed), Some(f));
    }

    #[test]
    fn status_value_consistency_is_enforced() {
        // A done entry whose value is null is corrupt, not half-trusted.
        let mut e = entry(1, 1);
        e.value = None;
        let parsed = Json::parse(&e.to_json().dump()).unwrap();
        assert_eq!(JournalEntry::from_json(&parsed), None);
    }

    #[test]
    fn create_append_resume_round_trip() {
        let path = tempfile("roundtrip");
        let id = sweep_id(&[10, 11, 12], "v");
        let mut j = SweepJournal::create(&path, id, 3).unwrap();
        j.append(&entry(10, 0)).unwrap();
        j.append(&entry(11, 1)).unwrap();
        drop(j);
        let (_, rec) = SweepJournal::resume(&path, id, 3).unwrap();
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.entries[&10], entry(10, 0));
        assert_eq!(rec.entries[&11], entry(11, 1));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_truncated_not_parsed() {
        let path = tempfile("torn");
        let id = sweep_id(&[1, 2], "v");
        let mut j = SweepJournal::create(&path, id, 2).unwrap();
        j.append(&entry(1, 0)).unwrap();
        drop(j);
        // Simulate a crash mid-append: a partial line with no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"key\":\"0000").unwrap();
        drop(f);
        let before = fs::metadata(&path).unwrap().len();
        let (mut j, rec) = SweepJournal::resume(&path, id, 2).unwrap();
        assert_eq!(rec.entries.len(), 1, "only the complete entry survives");
        assert_eq!(rec.torn_bytes, 12);
        assert!(fs::metadata(&path).unwrap().len() < before, "tail removed");
        // Appending after recovery lands on a clean line boundary.
        j.append(&entry(2, 1)).unwrap();
        drop(j);
        let (_, rec) = SweepJournal::resume(&path, id, 2).unwrap();
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.torn_bytes, 0);

        // A complete, parseable entry missing only its newline is torn
        // too: kept, the next append would glue onto it.
        let unterminated = entry(3, 2).to_json().dump();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(unterminated.as_bytes()).unwrap();
        drop(f);
        let (mut j, rec) = SweepJournal::resume(&path, id, 2).unwrap();
        assert_eq!(
            rec.entries.len(),
            2,
            "the unterminated entry is not replayed"
        );
        assert_eq!(rec.torn_bytes, unterminated.len());
        j.append(&entry(3, 2)).unwrap();
        drop(j);
        let (_, rec) = SweepJournal::resume(&path, id, 2).unwrap();
        assert_eq!(rec.entries.len(), 3);
        assert_eq!(rec.entries[&3], entry(3, 2));
        assert_eq!(rec.torn_bytes, 0);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn later_entries_override_earlier_ones() {
        let path = tempfile("override");
        let id = sweep_id(&[5], "v");
        let mut j = SweepJournal::create(&path, id, 1).unwrap();
        j.append(&JournalEntry::failed(5, "cell", 0, 2, Json::from("io")))
            .unwrap();
        j.append(&entry(5, 0)).unwrap();
        drop(j);
        let (_, rec) = SweepJournal::resume(&path, id, 1).unwrap();
        assert_eq!(rec.entries[&5].status, JournalStatus::Done);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn mismatched_sweep_is_rejected() {
        let path = tempfile("mismatch");
        let id = sweep_id(&[1], "v");
        SweepJournal::create(&path, id, 1).unwrap();
        let other = sweep_id(&[2], "v");
        assert!(matches!(
            SweepJournal::resume(&path, other, 1),
            Err(JournalError::Header(_))
        ));
        assert!(matches!(
            SweepJournal::resume(&path, id, 9),
            Err(JournalError::Header(_))
        ));
        // A non-journal file is rejected, not replayed.
        fs::write(&path, "{\"whatever\": 1}\n").unwrap();
        assert!(matches!(
            SweepJournal::resume(&path, id, 1),
            Err(JournalError::Header(_))
        ));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn fresh_create_replaces_stale_journal() {
        let path = tempfile("replace");
        let id = sweep_id(&[1], "v");
        let mut j = SweepJournal::create(&path, id, 1).unwrap();
        j.append(&entry(1, 0)).unwrap();
        drop(j);
        SweepJournal::create(&path, id, 1).unwrap();
        let (_, rec) = SweepJournal::resume(&path, id, 1).unwrap();
        assert!(rec.entries.is_empty(), "create starts over");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
