//! Weighted moments: mean, standard deviation, variation coefficient.

use crate::SortedStream;

/// Weighted mean `E[X]`. `NaN` for an empty distribution.
pub fn mean(dist: &(impl SortedStream + ?Sized)) -> f64 {
    if dist.is_empty() {
        return f64::NAN;
    }
    let s: f64 = dist.pairs().map(|(v, w)| v * w as f64).sum();
    s / dist.total_weight() as f64
}

/// Weighted population standard deviation `σ = sqrt(E[(X - µ)²])`.
/// One of the five selection methods of Section 7 (select max σ). `NaN` for
/// an empty distribution.
pub fn std_dev(dist: &(impl SortedStream + ?Sized)) -> f64 {
    std_dev_about(dist, mean(dist))
}

/// [`std_dev`] about the already computed mean `mu` of `dist`.
fn std_dev_about(dist: &(impl SortedStream + ?Sized), mu: f64) -> f64 {
    if dist.is_empty() {
        return f64::NAN;
    }
    let s: f64 = dist.pairs().map(|(v, w)| (v - mu) * (v - mu) * w as f64).sum();
    (s / dist.total_weight() as f64).sqrt()
}

/// Variation coefficient `c_v = σ/µ`. The paper shows that maximizing it
/// over-favors distributions with tiny means (it selects no aggregation at
/// all) — kept for the Section 7 comparison. `NaN` for an empty distribution
/// or zero mean.
pub fn variation_coefficient(dist: &(impl SortedStream + ?Sized)) -> f64 {
    std_dev_and_variation_coefficient(dist).1
}

/// `(`[`std_dev`]`, `[`variation_coefficient`]`)` from one pass for the mean
/// and one for the deviation.
pub(crate) fn std_dev_and_variation_coefficient(
    dist: &(impl SortedStream + ?Sized),
) -> (f64, f64) {
    let mu = mean(dist);
    let sigma = std_dev_about(dist, mu);
    let cv = if mu <= 0.0 || mu.is_nan() { f64::NAN } else { sigma / mu };
    (sigma, cv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedDist;

    #[test]
    fn mean_and_std_of_two_point_mass() {
        let d = WeightedDist::from_pairs(vec![(0.0, 1), (1.0, 1)]);
        assert!((mean(&d) - 0.5).abs() < 1e-12);
        assert!((std_dev(&d) - 0.5).abs() < 1e-12);
        assert!((variation_coefficient(&d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_matter() {
        let d = WeightedDist::from_pairs(vec![(0.0, 3), (1.0, 1)]);
        assert!((mean(&d) - 0.25).abs() < 1e-12);
        // σ² = 0.75·0.0625 + 0.25·0.5625 = 0.1875; σ = sqrt(3)/4
        assert!((std_dev(&d) - 0.1875f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn dirac_has_zero_std() {
        let d = WeightedDist::from_pairs(vec![(0.42, 9)]);
        assert!((mean(&d) - 0.42).abs() < 1e-12);
        assert_eq!(std_dev(&d), 0.0);
        assert_eq!(variation_coefficient(&d), 0.0);
    }

    #[test]
    fn uniform_grid_matches_uniform_density_moments() {
        let n = 10_000;
        let d = WeightedDist::from_pairs((1..=n).map(|i| (i as f64 / n as f64, 1)).collect());
        assert!((mean(&d) - 0.5).abs() < 1e-3);
        assert!((std_dev(&d) - (1.0f64 / 12.0).sqrt()).abs() < 1e-3);
    }

    #[test]
    fn degenerate_cases_are_nan() {
        let empty = WeightedDist::from_pairs(vec![]);
        assert!(mean(&empty).is_nan());
        assert!(std_dev(&empty).is_nan());
        assert!(variation_coefficient(&empty).is_nan());
        let zero = WeightedDist::from_pairs(vec![(0.0, 5)]);
        assert!(variation_coefficient(&zero).is_nan());
    }
}
