//! Property-based validation of the distribution substrate: closed-form
//! integrals against numerical quadrature, and structural invariants.

use proptest::prelude::*;
use saturn_distrib::{
    cumulative_residual_entropy, mk_distance_to_uniform, mk_proximity, shannon_entropy,
    std_dev, variation_coefficient, Ascending, SelectionMetric, SortedStream, UniformityScores,
    WeightedDist,
};

fn arb_dist() -> impl Strategy<Value = WeightedDist> {
    proptest::collection::vec((0u32..=1000, 1u64..50), 1..60).prop_map(|pairs| {
        WeightedDist::from_pairs(
            pairs.into_iter().map(|(v, w)| (v as f64 / 1000.0, w)).collect(),
        )
    })
}

/// Mid-point quadrature of `f` over [0, 1].
fn quad(f: impl Fn(f64) -> f64, steps: usize) -> f64 {
    (0..steps).map(|i| f((i as f64 + 0.5) / steps as f64)).sum::<f64>() / steps as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// The closed-form M-K distance equals numerical integration of its
    /// defining integral.
    #[test]
    fn mk_matches_quadrature(dist in arb_dist()) {
        let exact = mk_distance_to_uniform(&dist);
        let numeric = quad(|lam| (dist.survival(lam) - (1.0 - lam)).abs(), 40_000);
        prop_assert!((exact - numeric).abs() < 5e-4, "exact {exact} vs numeric {numeric}");
    }

    /// Same for the cumulative residual entropy.
    #[test]
    fn cre_matches_quadrature(dist in arb_dist()) {
        let exact = cumulative_residual_entropy(&dist);
        let numeric = quad(
            |lam| {
                let s = dist.survival(lam);
                if s > 0.0 { -s * s.ln() } else { 0.0 }
            },
            40_000,
        );
        prop_assert!((exact - numeric).abs() < 5e-4, "exact {exact} vs numeric {numeric}");
    }

    /// Survival segments tile [0, 1] with non-increasing levels.
    #[test]
    fn survival_segments_are_a_tiling(dist in arb_dist()) {
        let segs = dist.survival_segments();
        prop_assert!(!segs.is_empty());
        prop_assert_eq!(segs.first().unwrap().0, 0.0);
        prop_assert_eq!(segs.last().unwrap().1, 1.0);
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0, "contiguous");
            prop_assert!(w[0].2 >= w[1].2, "survival decreases");
        }
        for &(lo, hi, s) in &segs {
            prop_assert!(lo < hi);
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }

    /// ICD points descend in y and ascend in x.
    #[test]
    fn icd_is_monotone(dist in arb_dist()) {
        let icd = dist.icd_points();
        for w in icd.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
            prop_assert!(w[0].1 >= w[1].1);
        }
        if let Some(&(_, y0)) = icd.first() {
            prop_assert!((y0 - 1.0).abs() < 1e-12, "first ICD point has full mass");
        }
    }

    /// Bounds: M-K distance in [0, 1/2]; entropy scores non-negative; the
    /// standard deviation of a [0,1] variable is at most 1/2.
    #[test]
    fn score_bounds(dist in arb_dist()) {
        let d = mk_distance_to_uniform(&dist);
        prop_assert!((0.0..=0.5 + 1e-12).contains(&d));
        prop_assert!(std_dev(&dist) <= 0.5 + 1e-12);
        prop_assert!(shannon_entropy(&dist, 10) >= -1e-12);
        prop_assert!(cumulative_residual_entropy(&dist) >= -1e-12);
    }

    /// Every metric is invariant under weight rescaling (weights are
    /// multiplicities, not probabilities).
    #[test]
    fn metrics_are_scale_invariant(
        pairs in proptest::collection::vec((0u32..=100, 1u64..20), 1..30),
        factor in 2u64..9,
    ) {
        let base: Vec<(f64, u64)> =
            pairs.iter().map(|&(v, w)| (v as f64 / 100.0, w)).collect();
        let scaled: Vec<(f64, u64)> =
            pairs.iter().map(|&(v, w)| (v as f64 / 100.0, w * factor)).collect();
        let a = WeightedDist::from_pairs(base);
        let b = WeightedDist::from_pairs(scaled);
        for metric in SelectionMetric::all() {
            let (sa, sb) = (metric.score(&a), metric.score(&b));
            if sa.is_finite() || sb.is_finite() {
                prop_assert!((sa - sb).abs() < 1e-9, "{metric}: {sa} vs {sb}");
            }
        }
    }

    /// Merging duplicates never changes any score.
    #[test]
    fn duplicate_merging_is_transparent(
        pairs in proptest::collection::vec((0u32..=50, 1u64..10), 1..20),
    ) {
        let once: Vec<(f64, u64)> =
            pairs.iter().map(|&(v, w)| (v as f64 / 50.0, w)).collect();
        // split each weight into two identical entries
        let twice: Vec<(f64, u64)> = pairs
            .iter()
            .flat_map(|&(v, w)| {
                let x = v as f64 / 50.0;
                [(x, w), (x, w)]
            })
            .collect();
        let a = WeightedDist::from_pairs(once);
        let b = WeightedDist::from_pairs(twice);
        prop_assert_eq!(a.support_size(), b.support_size());
        prop_assert_eq!(b.total_weight(), 2 * a.total_weight());
        prop_assert!((mk_distance_to_uniform(&a) - mk_distance_to_uniform(&b)).abs() < 1e-12);
    }

    /// All scores computed together equal each metric's own function, for
    /// the materialized distribution and for an `Ascending` stream over the
    /// same pairs unmerged, bit for bit; each Shannon entropy equals binning
    /// every value by `⌊v · slots⌋` directly.
    #[test]
    fn joint_scores_match_each_metric_bit_for_bit(
        pairs in proptest::collection::vec((0u32..=1000, 1u64..50, 0usize..3), 1..60),
    ) {
        let mut raw: Vec<(f64, u64)> = pairs
            .iter()
            .map(|&(v, w, q)| {
                let q = [1000, 7, 3][q];
                ((v % (q + 1)) as f64 / q as f64, w)
            })
            .collect();
        raw.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = raw.iter().map(|&(_, w)| w).sum();
        let dist = WeightedDist::from_pairs(raw.clone());
        let stream = Ascending::new(raw.iter().copied(), total);
        for scores in [UniformityScores::of(&dist), UniformityScores::of(&stream)] {
            prop_assert_eq!(scores.mk_proximity.to_bits(), mk_proximity(&dist).to_bits());
            prop_assert_eq!(scores.std_dev.to_bits(), std_dev(&dist).to_bits());
            let cv = variation_coefficient(&dist);
            prop_assert_eq!(scores.variation_coefficient.to_bits(), cv.to_bits());
            let cre = cumulative_residual_entropy(&dist);
            prop_assert_eq!(scores.cre.to_bits(), cre.to_bits());
            for &(slots, h) in &scores.shannon {
                prop_assert_eq!(h.to_bits(), shannon_entropy(&dist, slots).to_bits());
                let mut bins = vec![0u64; slots];
                for (v, w) in dist.pairs() {
                    bins[((v * slots as f64) as usize).min(slots - 1)] += w;
                }
                let direct: f64 = bins
                    .iter()
                    .filter(|&&w| w > 0)
                    .map(|&w| {
                        let p = w as f64 / total as f64;
                        -p * p.ln()
                    })
                    .sum();
                prop_assert_eq!(h.to_bits(), direct.to_bits());
            }
        }
    }
}
