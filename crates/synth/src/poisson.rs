//! Point-process sampling primitives.
//!
//! Implemented from first principles (inverse-transform exponentials and
//! rejection sampling against a rate bound) to keep the dependency set to
//! plain `rand`.

use rand::Rng;

/// Samples `Exp(mean)` by inverse transform. Always strictly positive.
pub fn sample_exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Samples exactly `count` event times on `[t0, t1)` distributed with density
/// proportional to `rate(t)`, by rejection. Returns sorted tick times.
pub fn sample_fixed_count<R: Rng>(
    rng: &mut R,
    rate: impl Fn(f64) -> f64,
    rate_max: f64,
    t0: i64,
    t1: i64,
    count: usize,
) -> Vec<i64> {
    debug_assert!(rate_max > 0.0 && t1 > t0);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let t = rng.gen_range(t0..t1);
        let r = rate(t as f64);
        if rng.gen::<f64>() * rate_max < r {
            out.push(t);
        }
    }
    out.sort_unstable();
    out
}

/// Draws an index from a cumulative weight table (binary search on the
/// prefix sums). `cumulative` must be non-empty, non-decreasing, ending at
/// the total weight.
pub fn sample_cumulative<R: Rng>(rng: &mut R, cumulative: &[f64]) -> usize {
    let total = *cumulative.last().expect("non-empty weights");
    let x = rng.gen::<f64>() * total;
    cumulative.partition_point(|&c| c <= x).min(cumulative.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn exponential_mean_is_right() {
        let mut r = rng();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| sample_exponential(&mut r, 5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn fixed_count_hits_count_and_density() {
        let mut r = rng();
        let events = sample_fixed_count(
            &mut r,
            |t| if t < 1_000.0 { 1.0 } else { 0.1 },
            1.0,
            0,
            10_000,
            5_000,
        );
        assert_eq!(events.len(), 5_000);
        let early = events.iter().filter(|&&t| t < 1_000).count() as f64;
        // density 1.0 on 10% of the range vs 0.1 on 90%: early share = 1000/1900
        let share = early / 5_000.0;
        assert!((share - 1000.0 / 1900.0).abs() < 0.05, "share {share}");
    }

    #[test]
    fn cumulative_sampler_respects_weights() {
        let mut r = rng();
        let cum = vec![1.0, 1.5, 3.5]; // weights 1.0, 0.5, 2.0
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[sample_cumulative(&mut r, &cum)] += 1;
        }
        let f0 = counts[0] as f64 / 30_000.0;
        let f2 = counts[2] as f64 / 30_000.0;
        assert!((f0 - 1.0 / 3.5).abs() < 0.02);
        assert!((f2 - 2.0 / 3.5).abs() < 0.02);
    }
}
