//! Minimal std-only timing harness for the `harness = false` benchmark
//! binaries. The external benchmark framework is not part of the offline
//! dependency graph, so the benches measure with `std::time::Instant`
//! directly: auto-calibrated batch sizes for nanosecond-scale operations,
//! fixed sample counts for whole-simulation runs.
//!
//! Besides the human-readable line on stdout, every measurement writes a
//! machine-readable `BENCH_<name>.json` file (for diffing across commits)
//! into `LITEWORP_BENCH_DIR`, defaulting to `results/bench`.

use liteworp_runner::Json;
pub use std::hint::black_box;
use std::time::Instant;

/// Benchmark a fast operation: auto-calibrate a batch size that runs for
/// at least ~20 ms, then report the best of five batches in ns/iter.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    let iters = calibrate(&mut f, 20);
    let best = (0..5)
        .map(|_| time_batch(iters, &mut f))
        .fold(f64::INFINITY, f64::min);
    write_record(name, fast_record(name, best, iters, 5, []));
}

/// Benchmark two fast operations against each other, interleaved in one
/// process: one batch size of ~2 ms for both (the larger calibration),
/// then `pairs` rounds of one batch of each, `a` first in even rounds and
/// `b` first in odd ones. Each record reports its operation's best batch
/// in ns/iter; `b`'s also carries `pair_ratio`, the median over the
/// rounds of `b`'s batch time over `a`'s.
///
/// The two batches of a round run back to back, so a host-speed swing
/// almost always lands on both, and the median of the per-round ratios
/// holds steady where the ratio of two best batches does not: on a
/// shared 2-vCPU VM whose speed flips between two levels every few tens
/// of milliseconds, timing one workload against itself read
/// 0.91–1.03 as a ratio of bests and 0.99–1.01 as `pair_ratio`. The
/// alternating order cancels whatever running second gains or loses
/// (frequency ramp, cache state the first batch leaves).
pub fn bench_pair<A, B>(
    (name_a, mut a): (&str, impl FnMut() -> A),
    (name_b, mut b): (&str, impl FnMut() -> B),
    pairs: usize,
) {
    let iters = calibrate(&mut a, 2).max(calibrate(&mut b, 2));
    let mut rounds: Vec<(f64, f64)> = (0..pairs)
        .map(|round| {
            if round % 2 == 0 {
                let ta = time_batch(iters, &mut a);
                (ta, time_batch(iters, &mut b))
            } else {
                let tb = time_batch(iters, &mut b);
                (time_batch(iters, &mut a), tb)
            }
        })
        .collect();
    let best_a = rounds.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    let best_b = rounds.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    rounds.sort_by(|x, y| (x.1 / x.0).total_cmp(&(y.1 / y.0)));
    let ratio = rounds.get(pairs / 2).map_or(f64::NAN, |r| r.1 / r.0);
    write_record(name_a, fast_record(name_a, best_a, iters, pairs, []));
    let paired = [
        ("paired_with", Json::from(name_a)),
        ("pair_ratio", Json::from(ratio)),
    ];
    write_record(name_b, fast_record(name_b, best_b, iters, pairs, paired));
    println!("{name_b:<44} {ratio:>14.3} x {name_a} (median of {pairs} pairs)");
}

/// The smallest power-of-two batch of `f` that runs for at least
/// `target_ms` (capped at 2^24 iterations).
fn calibrate<T>(f: &mut impl FnMut() -> T, target_ms: u128) -> u64 {
    let mut iters: u64 = 1;
    loop {
        // lint: allow(D001) this module *is* the wall-clock profiling seam
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        if start.elapsed().as_millis() >= target_ms || iters >= 1 << 24 {
            return iters;
        }
        iters *= 2;
    }
}

/// Seconds per iteration over one batch of `iters` calls of `f`.
fn time_batch<T>(iters: u64, f: &mut impl FnMut() -> T) -> f64 {
    // lint: allow(D001) this module *is* the wall-clock profiling seam
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Prints a fast-operation result of `per_iter` seconds and builds its
/// record, ending with the `extra` fields.
fn fast_record<const N: usize>(
    name: &str,
    per_iter: f64,
    iters: u64,
    samples: usize,
    extra: [(&str, Json); N],
) -> Json {
    println!("{name:<44} {:>14.1} ns/iter  (x{iters})", per_iter * 1e9);
    let fields = [
        ("name", Json::from(name)),
        ("unit", Json::from("ns/iter")),
        ("value", Json::from(per_iter * 1e9)),
        ("iters_per_sample", Json::from(iters)),
        ("samples", Json::from(samples as u64)),
    ];
    Json::object(fields.into_iter().chain(extra))
}

/// Benchmark a slow operation: run it `samples` times and report the
/// mean and minimum wall-clock per run in milliseconds.
pub fn bench_heavy<T>(name: &str, samples: u32, mut f: impl FnMut() -> T) {
    let times: Vec<f64> = (0..samples).map(|_| timed(&mut f).1 * 1e3).collect();
    let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    println!("{name:<44} mean {mean:>10.1} ms   min {min:>10.1} ms  ({samples} samples)");
    write_record(
        name,
        Json::object([
            ("name", Json::from(name)),
            ("unit", Json::from("ms")),
            ("value", Json::from(mean)),
            ("min", Json::from(min)),
            ("samples", Json::from(samples as u64)),
        ]),
    );
}

/// One run of `f`: its output and wall time in seconds.
fn timed<T>(f: &mut impl FnMut() -> T) -> (T, f64) {
    // lint: allow(D001) this module *is* the wall-clock profiling seam
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Benchmark a slow operation against a baseline that must produce the
/// same output, interleaved in one process: `pairs` rounds of one run of
/// each, `base` first in even rounds and `test` first in odd ones. Every
/// round asserts equal outputs, so the two sides can never be measuring
/// different work. The record's `value` is the median over the rounds of
/// `test`'s wall time over `base`'s (unit `ratio`); it also carries both
/// sides' best run in ms and `ns_added_per_<per>`, the median over the
/// rounds of the extra time divided by `units` of the output (e.g. frames
/// delivered).
pub fn bench_heavy_ratio<T: PartialEq + std::fmt::Debug>(
    name: &str,
    pairs: usize,
    (per, units): (&str, impl Fn(&T) -> u64),
    mut base: impl FnMut() -> T,
    mut test: impl FnMut() -> T,
) {
    let mut rounds: Vec<(f64, f64, u64)> = (0..pairs)
        .map(|round| {
            let ((a, ta), (b, tb)) = if round % 2 == 0 {
                let a = timed(&mut base);
                (a, timed(&mut test))
            } else {
                let b = timed(&mut test);
                (timed(&mut base), b)
            };
            assert_eq!(a, b, "{name}: the two sides did different work");
            (ta, tb, units(&a).max(1))
        })
        .collect();
    let best = |side: fn(&(f64, f64, u64)) -> f64| {
        rounds.iter().map(side).fold(f64::INFINITY, f64::min) * 1e3
    };
    let (best_base, best_test) = (best(|r| r.0), best(|r| r.1));
    let median = |rounds: &mut Vec<(f64, f64, u64)>, key: fn(&(f64, f64, u64)) -> f64| {
        rounds.sort_by(|x, y| key(x).total_cmp(&key(y)));
        rounds.get(pairs / 2).map_or(f64::NAN, key)
    };
    let ratio = median(&mut rounds, |r| r.1 / r.0);
    let added = median(&mut rounds, |r| (r.1 - r.0) * 1e9 / r.2 as f64);
    println!(
        "{name:<44} {ratio:>14.3} x  ({best_base:.1} -> {best_test:.1} ms best, \
         {added:.0} ns added per {per}, median of {pairs} pairs)"
    );
    write_record(
        name,
        Json::object([
            ("name", Json::from(name)),
            ("unit", Json::from("ratio")),
            ("value", Json::from(ratio)),
            ("base_ms", Json::from(best_base)),
            ("test_ms", Json::from(best_test)),
            (&*format!("ns_added_per_{per}"), Json::from(added)),
            ("samples", Json::from(pairs as u64)),
        ]),
    );
}

/// The directory benchmark records go to: `LITEWORP_BENCH_DIR` or
/// `results/bench`.
pub fn bench_dir() -> std::path::PathBuf {
    std::env::var_os("LITEWORP_BENCH_DIR")
        .map(Into::into)
        .unwrap_or_else(|| std::path::PathBuf::from("results/bench"))
}

/// Writes `BENCH_<sanitized name>.json`. Benches are best-effort
/// observability, so I/O failures warn instead of aborting the run.
fn write_record(name: &str, record: Json) {
    let dir = bench_dir();
    let file = dir.join(format!("BENCH_{}.json", sanitize(name)));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        std::fs::write(&file, record.dump() + "\n")
    };
    if let Err(e) = write() {
        eprintln!("warning: cannot write {}: {e}", file.display());
    }
}

/// Maps a free-form bench name to a safe file stem.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_keeps_only_alphanumerics() {
        assert_eq!(sanitize("sim: 30 nodes / 100 s"), "sim__30_nodes___100_s");
        assert_eq!(sanitize("hash_frame"), "hash_frame");
    }

    #[test]
    fn bench_record_is_parseable_json() {
        let dir = std::env::temp_dir().join(format!("lw_bench_test_{}", std::process::id()));
        std::env::set_var("LITEWORP_BENCH_DIR", &dir);
        bench_heavy("unit test op", 2, || 1 + 1);
        bench_pair(
            ("pair a", || black_box(1) + 1),
            ("pair b", || black_box(2) * 2),
            3,
        );
        std::env::remove_var("LITEWORP_BENCH_DIR");
        let path = dir.join("BENCH_unit_test_op.json");
        let text = std::fs::read_to_string(&path).expect("record written");
        let json = Json::parse(&text).expect("valid json");
        assert_eq!(
            json.get("name").and_then(Json::as_str),
            Some("unit test op")
        );
        assert_eq!(json.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(json.get("samples").and_then(Json::as_u64), Some(2));
        assert!(json.get("value").and_then(Json::as_f64).is_some());
        // A pair writes both records; the second names its partner and
        // carries the median per-round ratio.
        let read = |file: &str| {
            let text = std::fs::read_to_string(dir.join(file)).expect("pair record written");
            Json::parse(&text).expect("valid json")
        };
        assert_eq!(
            read("BENCH_pair_a.json")
                .get("samples")
                .and_then(Json::as_u64),
            Some(3)
        );
        let b = read("BENCH_pair_b.json");
        assert_eq!(b.get("paired_with").and_then(Json::as_str), Some("pair a"));
        assert!(b
            .get("pair_ratio")
            .and_then(Json::as_f64)
            .is_some_and(|r| r > 0.0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
