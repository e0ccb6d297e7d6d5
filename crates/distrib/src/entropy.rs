//! Entropy-based uniformity measures (Section 7 of the paper).

use crate::dist::walk;
use crate::SortedStream;

/// The weight of a distribution in `slots` equal bins of `[0, 1]`, filled
/// from an ascending stream.
pub(crate) struct Bins {
    weights: Vec<u64>,
    /// The bin the last value fell in.
    current: usize,
    /// `current + 1`: the scaled value from which on a value falls in a
    /// later bin.
    next: f64,
}

impl Bins {
    /// # Panics
    /// Panics if `slots == 0`.
    pub(crate) fn new(slots: usize) -> Self {
        assert!(slots > 0, "need at least one slot");
        Bins { weights: vec![0; slots], current: 0, next: 1.0 }
    }

    /// Adds weight `w` at value `v`, no smaller than the values before it.
    /// `v` falls in bin `⌊v · slots⌋` (1.0 in the last bin). Values ascend,
    /// so the bin changes only once `v · slots` reaches `current + 1` (an
    /// integer: the truncation reaches it exactly when the product does),
    /// and only then is the index recomputed.
    pub(crate) fn pair(&mut self, v: f64, w: u64) {
        let slots = self.weights.len();
        let scaled = v * slots as f64;
        if scaled >= self.next {
            self.current = (scaled as usize).min(slots - 1);
            self.next = (self.current + 1) as f64;
        }
        self.weights[self.current] += w;
    }

    /// `-Σ p_j ln p_j` over the bins, for a distribution of weight `total`.
    pub(crate) fn entropy(&self, total: u64) -> f64 {
        let total = total as f64;
        self.weights
            .iter()
            .filter(|&&w| w > 0)
            .map(|&w| {
                let p = w as f64 / total;
                -p * p.ln()
            })
            .sum()
    }
}

/// The cumulative residual entropy accumulated one survival segment at a
/// time.
pub(crate) struct Cre(f64);

impl Cre {
    /// Starts where `f64`'s `Sum` starts, at `-0.0`: a distribution with
    /// all its mass at 1 keeps the sign bit of its only, `-0.0`, term.
    pub(crate) fn new() -> Self {
        Cre(-0.0)
    }

    /// Adds `-∫ s ln s dλ` over `[a, b)`.
    pub(crate) fn segment(&mut self, a: f64, b: f64, s: f64) {
        self.0 += if s > 0.0 { -(b - a) * s * s.ln() } else { 0.0 };
    }

    pub(crate) fn value(&self) -> f64 {
        self.0
    }
}

/// Shannon entropy `H = -Σ p_j ln p_j` of the distribution discretized into
/// `slots` equal bins of `[0, 1]` (value 1.0 falls in the last bin).
///
/// The paper notes this measure "gives very satisfactory results" for
/// `slots ≈ 10` but is sensitive to the slot count — the reason it was not
/// retained. Returns `NaN` for an empty distribution.
///
/// # Panics
/// Panics if `slots == 0`.
pub fn shannon_entropy(dist: &(impl SortedStream + ?Sized), slots: usize) -> f64 {
    let mut bins = Bins::new(slots);
    if dist.is_empty() {
        return f64::NAN;
    }
    walk(dist, |v, w| bins.pair(v, w), |_, _, _| {});
    bins.entropy(dist.total_weight())
}

/// Cumulative residual entropy `ε(X) = -∫₀¹ P(X > λ) ln P(X > λ) dλ`,
/// computed in closed form over the constant segments of the survival
/// function (`0·ln 0 = 0` by convention).
///
/// Like the Shannon entropy it is maximized by the uniform density, but it
/// compares distributions on the common support `[0, 1]` without any binning.
/// Returns `NaN` for an empty distribution.
pub fn cumulative_residual_entropy(dist: &(impl SortedStream + ?Sized)) -> f64 {
    if dist.is_empty() {
        return f64::NAN;
    }
    let mut cre = Cre::new();
    walk(dist, |_, _| {}, |a, b, s| cre.segment(a, b, s));
    cre.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedDist;

    #[test]
    fn shannon_uniform_bins_maximize() {
        // one value per slot center: H = ln(slots)
        let slots = 10;
        let d = WeightedDist::from_pairs(
            (0..slots).map(|i| ((i as f64 + 0.5) / slots as f64, 1)).collect(),
        );
        let h = shannon_entropy(&d, slots as usize);
        assert!((h - (slots as f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn shannon_dirac_is_zero() {
        let d = WeightedDist::from_pairs(vec![(0.73, 42)]);
        assert_eq!(shannon_entropy(&d, 10), 0.0);
    }

    #[test]
    fn shannon_depends_on_slot_count() {
        // two close values: indistinguishable at 5 slots, distinct at 100
        let d = WeightedDist::from_pairs(vec![(0.50, 1), (0.52, 1)]);
        assert_eq!(shannon_entropy(&d, 5), 0.0);
        assert!(shannon_entropy(&d, 100) > 0.6);
    }

    #[test]
    fn value_one_falls_in_last_bin() {
        let d = WeightedDist::from_pairs(vec![(1.0, 1)]);
        assert_eq!(shannon_entropy(&d, 10), 0.0); // single bin occupied, no panic
    }

    #[test]
    fn cre_uniform_density_limit() {
        // For the uniform density on [0,1], S(λ) = 1-λ and
        // ε = -∫ (1-λ)ln(1-λ) dλ = 1/4. A fine uniform grid approaches it.
        let n = 2000;
        let d = WeightedDist::from_pairs((1..=n).map(|i| (i as f64 / n as f64, 1)).collect());
        let e = cumulative_residual_entropy(&d);
        assert!((e - 0.25).abs() < 2e-3, "cre = {e}");
    }

    #[test]
    fn cre_dirac_at_one() {
        // S = 1 on [0,1): ε = -∫ 1·ln 1 = 0
        let d = WeightedDist::from_pairs(vec![(1.0, 5)]);
        assert!(cumulative_residual_entropy(&d).abs() < 1e-12);
    }

    #[test]
    fn cre_monte_carlo_agreement() {
        let d = WeightedDist::from_pairs(vec![(0.15, 2), (0.4, 1), (0.66, 3), (0.95, 1)]);
        let exact = cumulative_residual_entropy(&d);
        let steps = 2_000_000;
        let mut num = 0.0;
        for i in 0..steps {
            let lam = (i as f64 + 0.5) / steps as f64;
            let s: f64 = d.survival(lam);
            if s > 0.0 {
                num += -s * s.ln();
            }
        }
        num /= steps as f64;
        assert!((exact - num).abs() < 1e-5, "exact={exact} numeric={num}");
    }

    #[test]
    fn empty_distributions_are_nan() {
        let d = WeightedDist::from_pairs(vec![]);
        assert!(shannon_entropy(&d, 10).is_nan());
        assert!(cumulative_residual_entropy(&d).is_nan());
    }
}
