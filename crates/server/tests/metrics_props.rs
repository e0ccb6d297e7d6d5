//! Property-based validation of the telemetry histogram: every recorded
//! value lands in exactly the bucket its magnitude dictates. (The quantile
//! property lives with `Histogram::quantile` in the `metrics` unit tests.)

use proptest::prelude::*;
use saturn_server::metrics::{bucket_bound_micros, Histogram, BUCKETS, FINITE_BUCKETS};

/// The bucket a value of `micros` must land in: the smallest `2^i` µs bound
/// that is ≥ the value, or the `+Inf` bucket past the largest finite bound.
/// Computed here by linear scan — independently of the `leading_zeros`
/// arithmetic the implementation uses.
fn expected_bucket(micros: u64) -> usize {
    (0..FINITE_BUCKETS).find(|&i| micros <= bucket_bound_micros(i)).unwrap_or(FINITE_BUCKETS)
}

/// Latencies spanning every bucket: tiny, mid-range, and past the largest
/// finite bound (~35.8 min in µs), plus u64 extremes via the shifts.
fn arb_latencies() -> impl Strategy<Value = Vec<(u64, u32)>> {
    proptest::collection::vec((0u64..=u64::MAX, 0u32..=63), 1..120)
        .prop_map(|raw| raw.into_iter().map(|(v, shift)| (v >> shift, shift)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Each observed value increments exactly the bucket covering it.
    #[test]
    fn recorded_values_land_in_their_bucket(samples in arb_latencies()) {
        let h = Histogram::new();
        let mut expected = [0u64; BUCKETS];
        let mut expected_sum = 0u64;
        for &(micros, _) in &samples {
            h.observe_micros(micros);
            expected[expected_bucket(micros)] += 1;
            expected_sum = expected_sum.wrapping_add(micros);
        }
        prop_assert_eq!(h.bucket_counts(), expected);
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum_micros(), expected_sum);
    }
}
