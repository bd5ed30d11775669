//! Integration tests for the observability plane: concurrent metric
//! updates all land in the snapshot, and a span tree is reconstructable
//! from the profiler's folded output alone.

use liteworp_obs as obs;
use std::collections::BTreeMap;

/// Parses folded text back into `stack frames → self-time` pairs.
/// Malformed lines (no count, empty stack) are skipped.
fn parse_folded(text: &str) -> BTreeMap<Vec<String>, u64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some((stack, count)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(count) = count.parse::<u64>() else {
            continue;
        };
        if stack.is_empty() {
            continue;
        }
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        *out.entry(frames).or_insert(0) += count;
    }
    out
}

/// Recovers each stack's *inclusive* time from parsed self-times: every
/// stack's count is credited to itself and all of its proper prefixes.
fn inclusive_times(profile: &BTreeMap<Vec<String>, u64>) -> BTreeMap<Vec<String>, u64> {
    let mut out: BTreeMap<Vec<String>, u64> = BTreeMap::new();
    for (frames, us) in profile {
        for depth in 1..=frames.len() {
            *out.entry(frames[..depth].to_vec()).or_insert(0) += us;
        }
    }
    out
}

#[test]
fn parse_and_inclusive_round_trip() {
    let text =
        "job 10\njob;event_loop 40\njob;event_loop;watch_buffer 5\njob;neighbor_discovery 2\n";
    let parsed = parse_folded(text);
    assert_eq!(parsed.len(), 4);
    let inclusive = inclusive_times(&parsed);
    assert_eq!(inclusive[&vec!["job".to_string()]], 57);
    assert_eq!(
        inclusive[&vec!["job".to_string(), "event_loop".to_string()]],
        45
    );
    assert_eq!(
        inclusive[&vec![
            "job".to_string(),
            "event_loop".to_string(),
            "watch_buffer".to_string()
        ]],
        5
    );
}

#[test]
fn malformed_lines_are_skipped() {
    let parsed = parse_folded("nocount\n 12\nok 3\nbad notanum\n");
    assert_eq!(parsed.len(), 1);
    assert_eq!(parsed[&vec!["ok".to_string()]], 3);
}

/// Eight threads hammer one counter and one histogram; the snapshot must
/// account for every update.
#[test]
fn concurrent_increments_all_land_in_the_snapshot() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 1000;
    let counter = obs::counter("test.it.concurrent_counter");
    let hist = obs::histogram("test.it.concurrent_hist");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let counter = counter.clone();
            let hist = hist.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record(t * PER_THREAD + i);
                }
            });
        }
    });
    let snap = obs::snapshot();
    assert_eq!(
        snap.counters.get("test.it.concurrent_counter"),
        Some(&(THREADS * PER_THREAD))
    );
    let h = snap
        .histograms
        .get("test.it.concurrent_hist")
        .expect("registered");
    assert_eq!(h.count(), THREADS * PER_THREAD);
    assert_eq!(h.min(), Some(0));
    assert_eq!(h.max(), Some(THREADS * PER_THREAD - 1));
    // Interleaving-independent sum: 0 + 1 + … + (N*P - 1).
    let n = THREADS * PER_THREAD;
    assert_eq!(h.sum(), n * (n - 1) / 2);
}

/// Runs a known span tree, then rebuilds its shape and inclusive times
/// from nothing but the folded profile text.
#[test]
fn span_tree_reconstructs_from_folded_output() {
    obs::enable();
    obs::profile::reset();
    let root_id;
    let sweep_id;
    {
        let _request = obs::span("request");
        root_id = obs::current_span_id().expect("root id");
        {
            let _sweep = obs::span("sweep");
            sweep_id = obs::current_span_id().expect("sweep id");
            for _ in 0..2 {
                let _job = obs::span("job");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        {
            let _detect = obs::span("detection");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let folded = obs::profile::folded();
    let profile = parse_folded(&folded);
    let stacks: Vec<&Vec<String>> = profile.keys().collect();
    assert!(
        stacks.iter().any(|s| s.as_slice() == ["request"]),
        "missing root stack in {folded:?}"
    );
    assert!(stacks
        .iter()
        .any(|s| s.as_slice() == ["request", "sweep", "job"]));
    assert!(stacks
        .iter()
        .any(|s| s.as_slice() == ["request", "detection"]));

    // Inclusive times recovered by prefix summation are monotone down
    // the tree and reflect the sleeps the leaves did.
    let inclusive = inclusive_times(&profile);
    let at = |path: &[&str]| -> u64 {
        let key: Vec<String> = path.iter().map(|s| s.to_string()).collect();
        *inclusive.get(&key).expect("inclusive path")
    };
    let request = at(&["request"]);
    let sweep = at(&["request", "sweep"]);
    let job = at(&["request", "sweep", "job"]);
    let detection = at(&["request", "detection"]);
    assert!(request >= sweep + detection, "{folded}");
    assert!(sweep >= job);
    assert!(job >= 4_000, "two 2 ms sleeps: {job} us");
    assert!(detection >= 1_000);

    // The IDs observed live are the deterministic ones: a second run of
    // the same shape sees the same identifiers.
    {
        let _request = obs::span("request");
        assert_eq!(obs::current_span_id(), Some(root_id));
        let _sweep = obs::span("sweep");
        assert_eq!(obs::current_span_id(), Some(sweep_id));
    }
}
