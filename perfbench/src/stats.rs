//! Sample statistics under the benchmark's reporting rules.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; p95 therefore needs 200 samples.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle samples for an even count); `None` for
/// an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank tail percentile `q` (0.5 < q < 1), refused (`None`) when
/// fewer than [`MIN_BEYOND`] samples lie above its rank.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.5 && q < 1.0, "tail percentile must lie in (0.5, 1)");
    let v = sorted(xs);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set size of this process in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, in MB (0 when unreadable).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident size, so the next
/// [`peak_rss_mb`] reads the peak since this call. With glibc it first
/// hands the allocator's free memory back to the system: otherwise what
/// earlier iterations left cached in the per-thread arenas, which varies
/// with thread scheduling, counts toward every later peak. Best effort:
/// without `/proc/self/clear_refs` the peak stays process-wide.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain size, touches only
        // the allocator's own free lists under its arena locks, and is
        // safe to call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.95), None, "199 samples leave 9 beyond p95");
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.95), Some(190.0), "200 samples leave 10 beyond");
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.9), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.9), Some(90.0));
    }

    #[test]
    fn peak_rss_is_positive_and_resettable() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let before = peak_rss_mb();
        drop(big);
        reset_peak_rss();
        let after = peak_rss_mb();
        assert!(
            after > 0.0 && after < before,
            "{after} MB after reset, {before} MB before"
        );
    }
}
