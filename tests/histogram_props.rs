//! Property tests for `liteworp_obs::Histogram` under deterministic
//! random workloads: quantiles are monotone in `q` and bounded by the
//! observed min/max.

use liteworp_obs::Histogram;
use liteworp_runner::{Pcg32, Rng};

/// A histogram of `n` samples drawn from a seeded mix of scales, so every
/// power-of-two bucket range gets traffic.
fn random_hist(rng: &mut Pcg32, n: usize) -> Histogram {
    let mut h = Histogram::default();
    for _ in 0..n {
        let magnitude = rng.gen_range(0u32..40);
        h.record(rng.gen_range(0u64..=(1u64 << magnitude)));
    }
    h
}

#[test]
fn quantiles_are_monotone_and_bounded() {
    let mut rng = Pcg32::seed_from_u64(84);
    for trial in 0..50 {
        let h = random_hist(&mut rng, 1 + trial * 17);
        let (min, max) = (h.min().unwrap(), h.max().unwrap());
        let mut prev = 0u64;
        for step in 0..=20 {
            let q = step as f64 / 20.0;
            let v = h.quantile(q).unwrap();
            assert!(
                v >= prev,
                "trial {trial}: quantile({q}) = {v} < quantile at previous step {prev}"
            );
            assert!(
                (min..=max).contains(&v),
                "trial {trial}: quantile({q}) = {v} outside observed [{min}, {max}]"
            );
            prev = v;
        }
        assert_eq!(h.quantile(1.0), Some(max), "trial {trial}: q=1 is the max");
    }
}

#[test]
fn empty_histogram_has_no_quantiles() {
    let h = Histogram::default();
    assert_eq!(h.quantile(0.5), None);
    assert_eq!(h.min(), None);
    assert_eq!(h.max(), None);
}
