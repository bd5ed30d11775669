//! `--observe DIR`, the one observability flag every experiment binary
//! accepts. Parsing it turns on the span plane for the whole process; the
//! binary's finish call then writes three files into `DIR`:
//!
//! - `trace.jsonl`: the typed protocol event log, one event per line in
//!   sim-time order;
//! - `metrics.json`: exact per-event-kind counters, the simulator's
//!   frame/packet metrics, log2-bucket histograms (detection latency,
//!   route hops, per-job wall clock and retries), and — for batch
//!   experiments — the full run manifest;
//! - `profile.folded`: the folded-stack self-profile (`frame;frame self_us`
//!   lines), which flamegraph renderers consume directly.
//!
//! Batch experiments aggregate over many seeds and cache only their
//! aggregate outcomes, so [`Observe::finish_scenario`] runs *one dedicated
//! instrumented seed* of a representative scenario (cache-bypassing by
//! construction) and exports that run's trace; the manifest still
//! describes the full batch. Observation only writes files and stderr, so
//! stdout is the same with and without the flag.

use crate::cli::Flags;
use crate::scenario::{Scenario, ScenarioRun};
use liteworp_netsim::prelude::TraceKind;
use liteworp_obs as obs;
use liteworp_obs::Histogram;
use liteworp_runner::{Json, Manifest};
use std::path::{Path, PathBuf};

/// Where (and whether) to write the run's observations, parsed from the
/// CLI. Constructing this with `--observe` present enables the span plane
/// for the whole process, so construct it before any work worth
/// profiling.
#[derive(Debug)]
pub struct Observe {
    dir: Option<PathBuf>,
}

impl Observe {
    /// Reads `--observe DIR` from parsed flags.
    pub fn from_flags(flags: &Flags) -> Self {
        let dir = flags.get_str("observe").map(PathBuf::from);
        if dir.is_some() {
            obs::enable();
        }
        Observe { dir }
    }

    /// Finishes a batch or analytical binary: runs one instrumented seed
    /// of `scenario` for `duration` simulated seconds and writes all three
    /// files. No-op without `--observe`.
    pub fn finish_scenario(&self, scenario: &Scenario, duration: f64, manifest: Option<&Manifest>) {
        if self.dir.is_none() {
            return;
        }
        eprintln!(
            "observe: instrumented run ({} nodes, M={}, LITEWORP {}, seed {}) for {duration} s",
            scenario.nodes,
            scenario.malicious,
            if scenario.protected { "on" } else { "off" },
            scenario.seed,
        );
        let mut run = scenario.build();
        run.run_until_secs(duration);
        self.finish_run(&run, manifest);
    }

    /// Finishes a binary that ran one scenario itself: writes the run's
    /// trace and metrics plus the profile. No-op without `--observe`.
    pub fn finish_run(&self, run: &ScenarioRun, manifest: Option<&Manifest>) {
        let Some(dir) = &self.dir else {
            return;
        };
        let log = run.sim().trace().log();
        write(dir, "trace.jsonl", &log.to_jsonl());
        write(
            dir,
            "metrics.json",
            &(metrics_json(run, manifest).dump() + "\n"),
        );
        eprintln!("observe: {} events traced", log.len());
        self.finish_profile();
    }

    /// Finishes a binary with no single representative run: writes only
    /// the profile. No-op without `--observe`.
    pub fn finish_profile(&self) {
        let Some(dir) = &self.dir else {
            return;
        };
        write(dir, "profile.folded", &obs::profile::folded());
        eprintln!("observe: wrote {}", dir.display());
    }
}

/// Builds the `metrics.json` document for one finished run.
fn metrics_json(run: &ScenarioRun, manifest: Option<&Manifest>) -> Json {
    let log = run.sim().trace().log();
    let m = run.sim().metrics();

    // Detection latency: attack start → each isolation, in milliseconds.
    let mut detection_latency_ms = Histogram::default();
    for iso in run.sim().trace().isolations() {
        let since = iso.time.saturating_since(run.attack_start());
        detection_latency_ms.record(since.as_micros() / 1_000);
    }
    // Hop counts of established routes.
    let mut route_hops = Histogram::default();
    for e in run.sim().trace().events() {
        if let TraceKind::RouteEstablished { hops, .. } = e.kind {
            route_hops.record(hops as u64);
        }
    }
    // Per-job wall clock of the surrounding batch, when there was one.
    let job_wall_ms = manifest.map(|man| {
        let mut h = Histogram::default();
        for j in &man.per_job {
            h.record(j.wall_ms.max(0.0) as u64);
        }
        h
    });
    // Per-job retry counts of the batch (all zeros in a healthy sweep;
    // the manifest's `failures` block has the per-class breakdown).
    let job_retries = manifest.map(|man| {
        let mut h = Histogram::default();
        for j in &man.per_job {
            h.record(j.retries as u64);
        }
        h
    });

    let mut custom: Vec<(&'static str, Json)> = Vec::new();
    for (k, v) in m.iter_custom() {
        custom.push((k, Json::from(v)));
    }

    Json::object([
        (
            "scenario",
            Json::object([
                ("nodes", Json::from(run.sim().node_count())),
                (
                    "malicious",
                    Json::Arr(
                        run.malicious()
                            .iter()
                            .map(|c| Json::from(c.0 as u64))
                            .collect(),
                    ),
                ),
                (
                    "attack_start_s",
                    Json::from(run.attack_start().as_secs_f64()),
                ),
                ("now_s", Json::from(run.sim().now().as_secs_f64())),
            ]),
        ),
        ("events", log.counts_json()),
        ("events_retained", Json::from(log.len())),
        ("events_dropped", Json::from(log.dropped())),
        (
            "sim_metrics",
            Json::object(
                [
                    ("frames_sent", Json::from(m.frames_sent)),
                    ("frames_delivered", Json::from(m.frames_delivered)),
                    ("frames_collided", Json::from(m.frames_collided)),
                    ("frames_lost_noise", Json::from(m.frames_lost_noise)),
                    ("tunnel_messages", Json::from(m.tunnel_messages)),
                    ("mac_deferrals", Json::from(m.mac_deferrals)),
                ]
                .into_iter()
                .chain(custom),
            ),
        ),
        (
            "histograms",
            Json::object([
                ("detection_latency_ms", detection_latency_ms.to_json()),
                ("route_hops", route_hops.to_json()),
                (
                    "job_wall_ms",
                    job_wall_ms.map_or(Json::Null, |h| h.to_json()),
                ),
                (
                    "job_retries",
                    job_retries.map_or(Json::Null, |h| h.to_json()),
                ),
            ]),
        ),
        ("manifest", manifest.map_or(Json::Null, |man| man.to_json())),
    ])
}

/// Writes `dir/name`, warning rather than failing: observation never
/// aborts the experiment it observes.
fn write(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    // Atomic (temp + rename): a crash mid-export never leaves a torn file.
    if let Err(e) = liteworp_runner::cache::atomic_write(&path, contents.as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_forms_parse() {
        let on = Observe::from_flags(&Flags::parse(["--observe", "out"]));
        assert_eq!(on.dir.as_deref(), Some(Path::new("out")));
        assert!(Observe::from_flags(&Flags::default()).dir.is_none());
    }

    #[test]
    fn metrics_document_has_the_expected_shape() {
        let mut run = Scenario {
            nodes: 30,
            malicious: 2,
            protected: true,
            seed: 5,
            ..Scenario::default()
        }
        .build();
        run.run_until_secs(400.0);
        let doc = metrics_json(&run, None);
        let parsed = Json::parse(&doc.dump()).expect("valid json");
        assert_eq!(
            parsed
                .get("scenario")
                .and_then(|s| s.get("nodes"))
                .and_then(Json::as_u64),
            Some(30)
        );
        let events = parsed.get("events").expect("event counters");
        assert!(events.get("isolated").and_then(Json::as_u64).unwrap_or(0) > 0);
        let hist = parsed
            .get("histograms")
            .and_then(|h| h.get("detection_latency_ms"))
            .expect("latency histogram");
        assert!(hist.get("count").and_then(Json::as_u64).unwrap_or(0) > 0);
        assert!(!hist
            .get("buckets")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
        assert_eq!(parsed.get("manifest"), Some(&Json::Null));
        assert!(
            parsed
                .get("sim_metrics")
                .and_then(|m| m.get("frames_sent"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
                > 0
        );
    }
}
