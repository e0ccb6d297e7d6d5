//! Weighted empirical distributions on `[0, 1]`, and the sorted stream
//! every metric of this crate reads.
//!
//! # Sorted streams
//!
//! A metric needs a distribution's distinct values in ascending order, each
//! with its weight, and the total weight: that is the [`SortedStream`]
//! trait. [`WeightedDist`] is one, materialized. [`Ascending`] is another:
//! it wraps any iterator that yields `(value, weight)` pairs in ascending
//! order, such as a histogram read in its stored order, and merges equal
//! adjacent values on the fly exactly as [`WeightedDist::from_pairs`] merges
//! equal values (both go through one adapter). So a metric computed over an
//! [`Ascending`] stream sees the same pairs in the same order as over the
//! [`WeightedDist`] built from the same pairs, and every float operation
//! happens in the same order: the two results are bit-identical. Each metric
//! has one implementation, generic over the stream, and no metric allocates
//! anything the size of the distribution. Each metric is a running fold
//! over one pass of the stream: over its values (moments, Shannon bins) or
//! over the constant segments of its survival function (M-K, CRE). So
//! [`crate::UniformityScores`] feeds the bins and both integrals from a
//! single walk, with the same folds in the same order.

use serde::Serialize;

/// A weighted distribution on `[0, 1]`, read as its distinct values in
/// ascending order; see the module docs.
pub trait SortedStream {
    /// The distinct values in ascending order, each with its positive
    /// weight. Each call starts a fresh pass.
    fn pairs(&self) -> impl Iterator<Item = (f64, u64)> + '_;

    /// Total weight.
    fn total_weight(&self) -> u64;

    /// Whether the distribution carries no mass.
    fn is_empty(&self) -> bool {
        self.total_weight() == 0
    }
}

/// An iterator of `(value, weight)` pairs in ascending order of value,
/// with positive weights and values in `[0, 1]`, read as a [`SortedStream`]
/// whose total weight is `total`. Equal adjacent values are merged.
#[derive(Clone, Debug)]
pub struct Ascending<I> {
    pairs: I,
    total: u64,
}

impl<I: Iterator<Item = (f64, u64)> + Clone> Ascending<I> {
    /// Wraps `pairs`, whose weights must sum to `total`.
    pub fn new(pairs: I, total: u64) -> Self {
        Ascending { pairs, total }
    }
}

impl<I: Iterator<Item = (f64, u64)> + Clone> SortedStream for Ascending<I> {
    fn pairs(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        merge_equal(self.pairs.clone())
    }

    fn total_weight(&self) -> u64 {
        self.total
    }
}

/// Folds runs of equal values of an ascending stream into one pair carrying
/// the run's total weight.
fn merge_equal(pairs: impl Iterator<Item = (f64, u64)>) -> impl Iterator<Item = (f64, u64)> {
    let mut pairs = pairs.peekable();
    std::iter::from_fn(move || {
        let (v, mut w) = pairs.next()?;
        while let Some((_, more)) = pairs.next_if(|&(next, _)| next == v) {
            w += more;
        }
        Some((v, w))
    })
}

/// One ascending pass over `dist`: `pair(v, w)` for each distinct value,
/// and `segment(lo, hi, s)` for each constant segment of the survival
/// function (`P(X > λ) = s` for `λ ∈ [lo, hi)`; the segments cover
/// `[0, 1]` exactly). Calls nothing for an empty distribution. The
/// survival integrals and the Shannon bins read the stream through it, so
/// one walk can feed all of them.
pub(crate) fn walk<D: SortedStream + ?Sized>(
    dist: &D,
    mut pair: impl FnMut(f64, u64),
    mut segment: impl FnMut(f64, f64, f64),
) {
    let total_weight = dist.total_weight();
    if total_weight == 0 {
        return;
    }
    let total = total_weight as f64;
    let mut prev = 0.0f64;
    let mut below = 0u64;
    for (v, w) in dist.pairs() {
        debug_assert!(v >= prev, "a sorted stream ascends: {v} after {prev}");
        pair(v, w);
        if v > prev {
            segment(prev, v, (total_weight - below) as f64 / total);
            prev = v;
        }
        below += w;
    }
    if prev < 1.0 {
        segment(prev, 1.0, (total_weight - below) as f64 / total);
    }
}

/// A weighted empirical distribution with support in `[0, 1]`.
///
/// Stored as sorted distinct values with positive integer weights; all
/// derived quantities (survival function, moments, distances) are exact up to
/// floating-point arithmetic — no binning is involved unless explicitly
/// requested (Shannon entropy).
#[derive(Clone, Debug, Default, Serialize)]
pub struct WeightedDist {
    /// Sorted distinct values.
    values: Vec<f64>,
    /// Weight of each value (same length).
    weights: Vec<u64>,
    total: u64,
}

impl SortedStream for WeightedDist {
    fn pairs(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.values.iter().copied().zip(self.weights.iter().copied())
    }

    fn total_weight(&self) -> u64 {
        self.total
    }
}

impl WeightedDist {
    /// Builds a distribution from arbitrary `(value, weight)` pairs; values
    /// are sorted and duplicates merged. Pairs with zero weight are dropped.
    ///
    /// # Panics
    /// Panics if a value is not finite or lies outside `[0, 1]`.
    pub fn from_pairs(mut pairs: Vec<(f64, u64)>) -> Self {
        pairs.retain(|&(_, w)| w > 0);
        for &(v, _) in &pairs {
            assert!(v.is_finite() && (0.0..=1.0).contains(&v), "value {v} outside [0, 1]");
        }
        pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        let (values, weights): (Vec<f64>, Vec<u64>) = merge_equal(pairs.into_iter()).unzip();
        let total = weights.iter().sum();
        WeightedDist { values, weights, total }
    }

    /// Number of distinct values.
    pub fn support_size(&self) -> usize {
        self.values.len()
    }

    /// Survival function `P(X > x)`.
    pub fn survival(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        // weight of values <= x
        let idx = self.values.partition_point(|&v| v <= x);
        let below: u64 = self.weights[..idx].iter().sum();
        (self.total - below) as f64 / self.total as f64
    }

    /// Points `(v_i, P(X >= v_i))` of the inverse cumulative distribution,
    /// one per distinct value, descending in `y` — the curves of Figures 3
    /// and 4 of the paper.
    pub fn icd_points(&self) -> Vec<(f64, f64)> {
        if self.total == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.values.len());
        let mut below = 0u64;
        for (v, w) in self.pairs() {
            out.push((v, (self.total - below) as f64 / self.total as f64));
            below += w;
        }
        out
    }

    /// The constant segments of the survival function: `(lo, hi, s)` such
    /// that `P(X > λ) = s` for `λ ∈ [lo, hi)`, covering `[0, 1]` exactly.
    pub fn survival_segments(&self) -> Vec<(f64, f64, f64)> {
        let mut out = Vec::with_capacity(self.values.len() + 1);
        walk(self, |_, _| {}, |lo, hi, s| out.push((lo, hi, s)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_and_sorting() {
        let d =
            WeightedDist::from_pairs(vec![(0.5, 2), (0.25, 1), (0.5, 3), (1.0, 1), (0.1, 0)]);
        assert_eq!(d.total_weight(), 7);
        assert_eq!(d.support_size(), 3);
        let pairs: Vec<_> = d.pairs().collect();
        assert_eq!(pairs, vec![(0.25, 1), (0.5, 5), (1.0, 1)]);
    }

    #[test]
    fn survival_function_steps() {
        let d = WeightedDist::from_pairs(vec![(0.25, 1), (0.5, 2), (1.0, 1)]);
        assert_eq!(d.survival(0.0), 1.0);
        assert_eq!(d.survival(0.25), 0.75);
        assert_eq!(d.survival(0.3), 0.75);
        assert_eq!(d.survival(0.5), 0.25);
        assert_eq!(d.survival(1.0), 0.0);
    }

    #[test]
    fn icd_points_descend() {
        let d = WeightedDist::from_pairs(vec![(0.2, 1), (0.6, 1), (0.9, 2)]);
        let icd = d.icd_points();
        assert_eq!(icd.len(), 3);
        assert_eq!(icd[0], (0.2, 1.0));
        assert_eq!(icd[1], (0.6, 0.75));
        assert_eq!(icd[2], (0.9, 0.5));
    }

    #[test]
    fn segments_partition_unit_interval() {
        let d = WeightedDist::from_pairs(vec![(0.25, 1), (0.5, 1)]);
        let segs = d.survival_segments();
        assert_eq!(segs, vec![(0.0, 0.25, 1.0), (0.25, 0.5, 0.5), (0.5, 1.0, 0.0)]);
        // coverage: contiguous, starts at 0, ends at 1
        assert_eq!(segs.first().unwrap().0, 0.0);
        assert_eq!(segs.last().unwrap().1, 1.0);
        for w in segs.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn value_at_zero_is_allowed_and_at_one_closes() {
        let d = WeightedDist::from_pairs(vec![(0.0, 1), (1.0, 1)]);
        let segs = d.survival_segments();
        // [0,1) with S = 0.5 (the 0-value never counts as "X > λ" for λ>=0)
        assert_eq!(segs, vec![(0.0, 1.0, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_out_of_range() {
        WeightedDist::from_pairs(vec![(1.5, 1)]);
    }

    #[test]
    fn empty_distribution() {
        let d = WeightedDist::from_pairs(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.survival(0.5), 0.0);
        assert!(d.icd_points().is_empty());
        assert!(d.survival_segments().is_empty());
    }
}
