//! Metric collection, the correctness tally, and the result line.

use liteworp_runner::Json;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// `warm_p50_ms` and `dedup_p50_ms` are measured and printed in the
/// table but kept out of this list: they are sub-millisecond (batch) or
/// fsync-bound (served warm) latencies whose medians moved by more than
/// the largest allowed bound from one run to the next on the reference
/// machine.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_s_per_s", "sim_s/s"),
    ("peak_rss_mb", "MB"),
    ("cold_p50_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.event_loop_s", "s"),
    ("netsim.self_s", "s"),
    ("netsim.ns_per_delivery", "ns"),
    ("netsim.field_build_s", "s"),
    ("netsim.frames_sent", "count"),
    ("netsim.frames_delivered", "count"),
    ("netsim.frames_collided", "count"),
    ("netsim.mac_deferrals", "count"),
    ("routing.on_frame_s", "s"),
    ("routing.on_frame_calls", "count"),
    ("routing.on_timer_s", "s"),
    ("routing.on_timer_calls", "count"),
    ("routing.on_other_s", "s"),
    ("routing.route_requests", "count"),
    ("routing.delivery_ratio", "fraction"),
    ("core.overhead_ns_per_frame", "ns"),
    ("core.preload_s", "s"),
    ("core.storage_bytes_per_node", "bytes"),
    ("core.alert_frame_share", "fraction"),
    ("core.watch_expiries", "count"),
    ("core.suspicions", "count"),
    ("core.isolations", "count"),
    ("attacks.wormhole_dropped", "count"),
    ("runner.job_ms_p50", "ms"),
    ("runner.queue_wait_ms_p50", "ms"),
    ("runner.utilization", "fraction"),
    ("runner.cache_hits", "count"),
    ("runner.cache_misses", "count"),
    ("runner.cache_hit_ms_p50", "ms"),
    ("served.submit_ack_ms_p50", "ms"),
    ("served.frame_ns", "ns"),
    ("served.proto_ns", "ns"),
    ("served.wal_append_us", "us"),
    ("served.wal_bytes", "bytes"),
    ("front.forward_ms_p50", "ms"),
    ("front.restarts", "count"),
    ("front.reroutes", "count"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong digest.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    metrics: Vec<(String, f64, String, Option<usize>)>,
}

impl Report {
    /// Records a metric (a later value under the same name replaces it).
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.set_n(name, value, unit, None);
    }

    /// Records a metric together with its sample count.
    pub fn set_n(&mut self, name: &str, value: f64, unit: &str, samples: Option<usize>) {
        self.metrics.retain(|m| m.0 != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string(), samples));
    }

    /// Records the median of `samples` with the sample count (NaN, and
    /// so a failed run, when there are none).
    pub fn set_median(&mut self, name: &str, samples: &[f64], unit: &str) {
        let value = crate::stats::median(samples).unwrap_or(f64::NAN);
        self.set_n(name, value, unit, Some(samples.len()));
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Counts one attempted operation or check; a false `ok` counts it
    /// failed and keeps the reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Failed over attempted.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints every recorded metric as a table, then the result line with
    /// exactly the `wanted` metrics. A wanted metric that was not
    /// measured, or is not finite, makes the run incorrect.
    pub fn print(&mut self, workload: &str, wanted: &[(&str, &str)]) {
        let missing: Vec<&str> = wanted
            .iter()
            .filter(|(n, _)| !self.get(n).is_some_and(f64::is_finite))
            .map(|(n, _)| *n)
            .collect();
        for name in missing {
            self.check(false, || format!("metric {name} was not measured"));
        }
        println!("workload {workload}");
        println!("{:<30} {:>16}  {:<9} {:>7}", "metric", "value", "unit", "n");
        for (name, value, unit, n) in &self.metrics {
            let n = n.map_or(String::new(), |n| n.to_string());
            println!("{name:<30} {value:>16.6}  {unit:<9} {n:>7}");
        }
        println!(
            "{:<30} {:>16.6}  {:<9} {:>7}",
            "fail_frac",
            self.fail_frac(),
            "fraction",
            self.attempted
        );
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let metrics = Json::Obj(
            wanted
                .iter()
                .filter_map(|(name, unit)| {
                    let value = self.get(name).filter(|v| v.is_finite())?;
                    Some((
                        name.to_string(),
                        Json::object([("value", Json::from(value)), ("unit", Json::from(*unit))]),
                    ))
                })
                .collect(),
        );
        let line = Json::object([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics),
        ]);
        println!("{}", line.dump());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.set("wall_s", 1.5, "s");
        r.print("t", &[("wall_s", "s"), ("setup_s", "s")]);
        assert_eq!(r.failed, 1);
        assert!(r.failures[0].contains("setup_s"));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = json
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
