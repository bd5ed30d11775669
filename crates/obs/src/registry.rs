//! The process-global metrics registry: counters, gauges, and log2
//! histograms registered by name, with cheap atomic handles.
//!
//! Handles are `Arc`-shared atomics: incrementing a counter is one
//! relaxed `fetch_add` with no lock, so pool workers and daemon threads
//! share one time series without coordination. The registry mutex is
//! touched only at handle-creation and snapshot time. [`snapshot`]
//! produces an order-stable [`Snapshot`] that round-trips through JSON.

use crate::hist::{AtomicHistogram, Histogram};
use liteworp_runner::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a signed instantaneous level (queue depth, in-flight
/// drains).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle recording `u64` samples into log2 buckets.
#[derive(Clone)]
pub struct Hist(Arc<AtomicHistogram>);

impl Hist {
    /// Adds one sample.
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }
}

enum Entry {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Hist(Arc<AtomicHistogram>),
}

fn registry() -> &'static Mutex<BTreeMap<String, Entry>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, BTreeMap<String, Entry>> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// The counter registered under `name` (created on first use). A name
/// already registered as a different metric kind yields a detached
/// handle that never appears in snapshots — kind conflicts are a
/// programming error the S003 name registry makes hard to reach.
pub fn counter(name: &str) -> Counter {
    let mut map = lock();
    match map
        .entry(name.to_string())
        .or_insert_with(|| Entry::Counter(Arc::new(AtomicU64::new(0))))
    {
        Entry::Counter(c) => Counter(Arc::clone(c)),
        _ => Counter(Arc::new(AtomicU64::new(0))),
    }
}

/// The gauge registered under `name` (created on first use).
pub fn gauge(name: &str) -> Gauge {
    let mut map = lock();
    match map
        .entry(name.to_string())
        .or_insert_with(|| Entry::Gauge(Arc::new(AtomicI64::new(0))))
    {
        Entry::Gauge(g) => Gauge(Arc::clone(g)),
        _ => Gauge(Arc::new(AtomicI64::new(0))),
    }
}

/// The histogram registered under `name` (created on first use).
pub fn histogram(name: &str) -> Hist {
    let mut map = lock();
    match map
        .entry(name.to_string())
        .or_insert_with(|| Entry::Hist(Arc::default()))
    {
        Entry::Hist(h) => Hist(Arc::clone(h)),
        _ => Hist(Arc::default()),
    }
}

thread_local! {
    /// Per-thread cache of span-latency histogram handles, so a span
    /// close never takes the registry mutex on the hot path.
    static SPAN_HISTS: RefCell<BTreeMap<&'static str, Hist>> = const { RefCell::new(BTreeMap::new()) };
}

/// Records one span's inclusive duration into the `span_us.<name>`
/// histogram (the per-phase latency series the daemon's `stats` op
/// reports quantiles from).
pub(crate) fn record_span_us(name: &'static str, inclusive_us: u64) {
    SPAN_HISTS.with(|cache| {
        let mut cache = cache.borrow_mut();
        cache
            .entry(name)
            .or_insert_with(|| histogram(&format!("span_us.{name}")))
            .record(inclusive_us);
    });
}

fn obj_pairs(json: &Json) -> Option<&[(String, Json)]> {
    match json {
        Json::Obj(pairs) => Some(pairs),
        _ => None,
    }
}

/// `Json` stores numbers as `f64`; gauges are signed, so they get their
/// own conversion with the same ±2^53 exactness window as `as_u64`.
fn json_i64(json: &Json) -> Option<i64> {
    let n = json.as_f64()?;
    const EXACT: f64 = (1u64 << 53) as f64;
    if n.fract() == 0.0 && (-EXACT..=EXACT).contains(&n) {
        Some(n as i64)
    } else {
        None
    }
}

/// An order-stable, JSON-serializable view of the registry at one
/// instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Snapshots every registered metric. Concurrent updates may land on
/// either side of the snapshot, but the result is always a value each
/// metric actually passed through.
pub fn snapshot() -> Snapshot {
    let map = lock();
    let mut snap = Snapshot::default();
    for (name, entry) in map.iter() {
        match entry {
            Entry::Counter(c) => {
                snap.counters
                    .insert(name.clone(), c.load(Ordering::Relaxed));
            }
            Entry::Gauge(g) => {
                snap.gauges.insert(name.clone(), g.load(Ordering::Relaxed));
            }
            Entry::Hist(h) => {
                snap.histograms.insert(name.clone(), h.snapshot());
            }
        }
    }
    snap
}

impl Snapshot {
    /// Serializes as `{"counters":{…},"gauges":{…},"histograms":{…}}`.
    pub fn to_json(&self) -> Json {
        let obj = |pairs: Vec<(String, Json)>| Json::Obj(pairs);
        Json::object([
            (
                "counters",
                obj(self
                    .counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect()),
            ),
            (
                "gauges",
                obj(self
                    .gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect()),
            ),
            (
                "histograms",
                obj(self
                    .histograms
                    .iter()
                    .map(|(k, h)| (k.clone(), h.to_json()))
                    .collect()),
            ),
        ])
    }

    /// Parses a snapshot back from its [`Snapshot::to_json`] shape.
    pub fn from_json(json: &Json) -> Option<Snapshot> {
        let mut snap = Snapshot::default();
        for (k, v) in obj_pairs(json.get("counters")?)? {
            snap.counters.insert(k.clone(), v.as_u64()?);
        }
        for (k, v) in obj_pairs(json.get("gauges")?)? {
            snap.gauges.insert(k.clone(), json_i64(v)?);
        }
        for (k, v) in obj_pairs(json.get("histograms")?)? {
            snap.histograms.insert(k.clone(), Histogram::from_json(v)?);
        }
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_handles_share_state_by_name() {
        let a = counter("test.reg.counter");
        let b = counter("test.reg.counter");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = gauge("test.reg.gauge");
        g.set(5);
        g.add(-2);
        assert_eq!(gauge("test.reg.gauge").get(), 3);
    }

    #[test]
    fn kind_conflicts_yield_detached_handles() {
        counter("test.reg.conflict").inc();
        let g = gauge("test.reg.conflict");
        g.set(99);
        assert_eq!(g.get(), 99, "detached handle still works");
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.reg.conflict"), Some(&1));
        assert!(!snap.gauges.contains_key("test.reg.conflict"));
    }

    #[test]
    fn histogram_materializes_with_exact_extrema() {
        let h = histogram("test.reg.hist");
        for v in [5u64, 9, 1000] {
            h.record(v);
        }
        let snap = snapshot();
        let got = snap.histograms.get("test.reg.hist").expect("registered");
        assert_eq!(got.count(), 3);
        assert_eq!(got.sum(), 1014);
        assert_eq!(got.min(), Some(5));
        assert_eq!(got.max(), Some(1000));
    }

    #[test]
    fn histogram_snapshot_keeps_samples_beyond_2_pow_53() {
        let h = histogram("test.reg.hist.big");
        h.record(5);
        h.record(1 << 60);
        let snap = snapshot();
        let got = snap
            .histograms
            .get("test.reg.hist.big")
            .expect("registered");
        assert_eq!(got.count(), 2);
        assert_eq!(got.min(), Some(5));
        assert_eq!(got.max(), Some(1 << 60));
    }

    #[test]
    fn snapshot_json_round_trips() {
        counter("test.reg.rt.counter").add(7);
        gauge("test.reg.rt.gauge").set(-4);
        histogram("test.reg.rt.hist").record(123);
        // Other tests share the process-global registry, and some record
        // samples past 2^53, beyond what a JSON number holds exactly.
        let mine = |name: &String| name.starts_with("test.reg.rt.");
        let mut snap = snapshot();
        snap.counters.retain(|k, _| mine(k));
        snap.gauges.retain(|k, _| mine(k));
        snap.histograms.retain(|k, _| mine(k));
        assert_eq!(snap.histograms.len(), 1);
        let back = Snapshot::from_json(&Json::parse(&snap.to_json().dump()).expect("valid json"))
            .expect("parsable snapshot");
        assert_eq!(back, snap);
    }
}
