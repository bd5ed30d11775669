//! Log2-bucket histograms: fixed memory, JSON-serializable.
//!
//! This module owns the bucket layout. [`Histogram`] is the plain value;
//! [`AtomicHistogram`] is its lock-free recorder for samples shared
//! across threads, and snapshots into a [`Histogram`].

use liteworp_runner::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Buckets: index 0 holds exactly the value 0; index `b ≥ 1` holds values
/// in `[2^(b-1), 2^b - 1]`, i.e. upper bound `2^b - 1`.
const BUCKETS: usize = 65;

/// A histogram of `u64` samples in logarithmic buckets.
///
/// Quantiles are bucket-resolved (reported as the containing bucket's
/// upper bound, clamped to the observed maximum), which is exact enough
/// for latency distributions spanning orders of magnitude while keeping
/// the type fixed-size.
///
/// # Example
///
/// ```
/// use liteworp_obs::Histogram;
///
/// let mut h = Histogram::default();
/// for v in [1, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), Some(100));
/// assert!(h.p50().unwrap() <= 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any were recorded.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any were recorded.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Bucket-resolved quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(q·count)`-th smallest sample, clamped
    /// to the exactly tracked `[min, max]`. The extreme ranks are exact:
    /// rank 1 is the observed minimum and rank `count` the observed
    /// maximum, so `quantile(0.0)` / `quantile(1.0)` never report a
    /// bucket bound no sample actually hit.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median (bucket-resolved).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket-resolved).
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// Serializes to a JSON object with summary fields and the non-empty
    /// buckets as `{"le": upper_bound, "count": n}` entries.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                Json::object([
                    ("le", Json::from(bucket_upper(i))),
                    ("count", Json::from(c)),
                ])
            })
            .collect();
        Json::object([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("min", Json::from(self.min())),
            ("max", Json::from(self.max())),
            ("p50", Json::from(self.p50())),
            ("p95", Json::from(self.p95())),
            ("buckets", Json::Arr(buckets)),
        ])
    }

    /// Parses a histogram back from its [`Histogram::to_json`] shape.
    pub fn from_json(json: &Json) -> Option<Self> {
        let mut h = Histogram {
            count: json.get("count")?.as_u64()?,
            sum: json.get("sum")?.as_u64()?,
            ..Histogram::default()
        };
        if h.count > 0 {
            h.min = json.get("min")?.as_u64()?;
            h.max = json.get("max")?.as_u64()?;
        }
        for bucket in json.get("buckets")?.as_arr()? {
            let le = bucket.get("le")?.as_u64()?;
            let count = bucket.get("count")?.as_u64()?;
            h.buckets[bucket_index(le)] += count;
        }
        Some(h)
    }
}

/// A lock-free [`Histogram`] recorder: every field is a relaxed atomic,
/// so threads record into one shared series without a lock.
///
/// [`AtomicHistogram::snapshot`] equals a [`Histogram`] fed the same
/// samples one by one. Concurrent records may land on either side of a
/// snapshot.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Wrapping sum; `sum_saturated` records that it wrapped at least once.
    sum: AtomicU64,
    sum_saturated: AtomicBool,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            sum_saturated: AtomicBool::new(false),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Adds one sample: five relaxed atomic operations, plus a store on
    /// any record whose sum overflows. The values publish no other
    /// data, so `Relaxed` suffices.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let prev = self.sum.fetch_add(value, Ordering::Relaxed);
        if prev.checked_add(value).is_none() {
            self.sum_saturated.store(true, Ordering::Relaxed);
        }
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// The samples recorded so far, as a plain [`Histogram`]. The sum
    /// saturates at `u64::MAX`, as [`Histogram::record`]'s does.
    pub fn snapshot(&self) -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: if self.sum_saturated.load(Ordering::Relaxed) {
                u64::MAX
            } else {
                self.sum.load(Ordering::Relaxed)
            },
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for b in 1..64 {
            assert_eq!(bucket_index(bucket_upper(b)), b, "upper bound stays put");
        }
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.p50(), None);
    }

    #[test]
    fn quantiles_are_bucket_resolved_and_clamped() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        // The median of 1..=100 is in bucket [32, 63]; p95 in [64, 127]
        // clamps to the observed max of 100.
        assert_eq!(h.p50(), Some(63));
        assert_eq!(h.p95(), Some(100));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    fn extreme_quantiles_are_exact_not_bucket_bounds() {
        // One sample: every quantile is that sample, not its bucket's
        // upper bound (5 sits in bucket [4, 7]).
        let mut h = Histogram::default();
        h.record(5);
        assert_eq!(h.p50(), Some(5));
        assert_eq!(h.quantile(0.0), Some(5));
        assert_eq!(h.quantile(1.0), Some(5));

        // Two samples: rank 1 is the exact min, rank 2 the exact max.
        h.record(1000);
        assert_eq!(h.quantile(0.0), Some(5), "exact min, not bucket bound 7");
        assert_eq!(h.p50(), Some(5));
        assert_eq!(h.quantile(1.0), Some(1000), "exact max, not bound 1023");

        // Mid-ranks stay bucket-resolved but clamp into [min, max]: with
        // samples {900, 1000} the rank-1 answer is the exact min 900, and
        // no answer can dip below it even though the bucket starts at 512.
        let mut g = Histogram::default();
        g.record(900);
        g.record(1000);
        assert_eq!(g.quantile(0.0), Some(900));
        assert_eq!(g.p95(), Some(1000));
    }

    #[test]
    fn atomic_snapshot_equals_sequential_recording() {
        let atomic = AtomicHistogram::default();
        let mut plain = Histogram::default();
        assert_eq!(atomic.snapshot(), plain, "empty");
        let around_2_53 = [(1u64 << 53) - 1, 1 << 53, (1 << 53) + 1];
        for v in [0u64, 1, 5, 1000]
            .into_iter()
            .chain(around_2_53)
            .chain([1 << 60, u64::MAX, 3])
        {
            atomic.record(v);
            plain.record(v);
            assert_eq!(atomic.snapshot(), plain, "after recording {v}");
        }
        assert_eq!(plain.sum(), u64::MAX, "the sum saturated");
    }

    #[test]
    fn json_round_trip_preserves_stats() {
        let mut h = Histogram::default();
        for v in [0u64, 2, 2, 40, 1_000_000] {
            h.record(v);
        }
        let text = h.to_json().dump();
        let back = Histogram::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum(), h.sum());
        assert_eq!(back.min(), h.min());
        assert_eq!(back.max(), h.max());
        assert_eq!(back.p50(), h.p50());
        assert_eq!(back.p95(), h.p95());
    }
}
