//! Monge–Kantorovich distance to the uniform density distribution.
//!
//! The paper (Section 7) measures how uniformly spread a distribution `X` on
//! `[0, 1]` is by the area between its inverse cumulative distribution and
//! that of the uniform density (`y = 1 - λ`):
//!
//! `dist_MK(X) = ∫₀¹ |P(X > λ) - (1 - λ)| dλ`
//!
//! and selects the aggregation scale maximizing the **M-K proximity**
//! `1/2 - dist_MK(X)` (the distance is always below 1/2 on `[0, 1]`). The
//! integral is computed in closed form over the constant segments of the
//! survival function — no numerical quadrature.

use crate::dist::walk;
use crate::SortedStream;

/// `dist_MK` accumulated one survival segment at a time.
pub(crate) struct MkDistance(f64);

impl MkDistance {
    pub(crate) fn new() -> Self {
        MkDistance(0.0)
    }

    /// Adds `∫ |s - (1 - λ)| dλ` over `[a, b)`.
    pub(crate) fn segment(&mut self, a: f64, b: f64, s: f64) {
        // integrand |s - 1 + λ| = |λ - c| with c = 1 - s, over [a, b]
        let c = 1.0 - s;
        self.0 += if c <= a {
            // λ - c >= 0 throughout
            ((b - c) * (b - c) - (a - c) * (a - c)) / 2.0
        } else if c >= b {
            // c - λ >= 0 throughout
            ((c - a) * (c - a) - (c - b) * (c - b)) / 2.0
        } else {
            // sign change at λ = c
            ((c - a) * (c - a) + (b - c) * (b - c)) / 2.0
        };
    }

    pub(crate) fn value(&self) -> f64 {
        self.0
    }
}

/// Exact `∫₀¹ |P(X > λ) - (1 - λ)| dλ`.
///
/// Returns `NaN` for an empty distribution.
pub fn mk_distance_to_uniform(dist: &(impl SortedStream + ?Sized)) -> f64 {
    if dist.is_empty() {
        return f64::NAN;
    }
    let mut mk = MkDistance::new();
    walk(dist, |_, _| {}, |a, b, s| mk.segment(a, b, s));
    mk.value()
}

/// The M-K proximity `1/2 - dist_MK(X)` — the quantity maximized by the
/// occupancy method (Figures 3, 5 of the paper). Higher is closer to the
/// uniform density.
pub fn mk_proximity(dist: &(impl SortedStream + ?Sized)) -> f64 {
    proximity(mk_distance_to_uniform(dist))
}

/// The M-K proximity of a distribution at M-K distance `distance`.
pub(crate) fn proximity(distance: f64) -> f64 {
    0.5 - distance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedDist;

    fn dirac(x: f64) -> WeightedDist {
        WeightedDist::from_pairs(vec![(x, 1)])
    }

    #[test]
    fn dirac_at_one_has_distance_half() {
        // S(λ) = 1 on [0,1): ∫ |1 - 1 + λ| = ∫ λ = 1/2
        let d = mk_distance_to_uniform(&dirac(1.0));
        assert!((d - 0.5).abs() < 1e-12);
        assert!(mk_proximity(&dirac(1.0)).abs() < 1e-12);
    }

    #[test]
    fn dirac_at_zero_has_distance_half() {
        // S(λ) = 0 on [0,1]: ∫ (1 - λ) = 1/2
        let d = mk_distance_to_uniform(&dirac(0.0));
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dirac_at_half_distance_quarter() {
        // S = 1 on [0, .5), 0 on [.5, 1]:
        // ∫₀^.5 |λ| + ∫_.5^1 (1-λ) = 1/8 + 1/8 = 1/4
        let d = mk_distance_to_uniform(&dirac(0.5));
        assert!((d - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fine_uniform_grid_approaches_zero_distance() {
        for n in [10u32, 100, 1000] {
            let d =
                WeightedDist::from_pairs((1..=n).map(|i| (i as f64 / n as f64, 1)).collect());
            let dist = mk_distance_to_uniform(&d);
            // the empirical uniform grid is within O(1/n) of the density
            assert!(dist < 1.0 / n as f64, "n={n} dist={dist}");
        }
    }

    #[test]
    fn monte_carlo_agreement() {
        // Cross-check the closed form against numerical integration.
        let d = WeightedDist::from_pairs(vec![(0.1, 3), (0.35, 1), (0.5, 4), (0.8, 2)]);
        let exact = mk_distance_to_uniform(&d);
        let steps = 2_000_000;
        let mut num = 0.0;
        for i in 0..steps {
            let lam = (i as f64 + 0.5) / steps as f64;
            num += (d.survival(lam) - (1.0 - lam)).abs();
        }
        num /= steps as f64;
        assert!((exact - num).abs() < 1e-5, "exact={exact} numeric={num}");
    }

    #[test]
    fn proximity_is_bounded() {
        for pairs in
            [vec![(0.2, 5), (0.9, 1)], vec![(1.0, 7)], vec![(0.01, 1), (0.5, 1), (0.99, 1)]]
        {
            let p = mk_proximity(&WeightedDist::from_pairs(pairs));
            assert!((0.0..=0.5).contains(&p), "proximity {p} out of [0, 1/2]");
        }
    }

    #[test]
    fn empty_is_nan() {
        assert!(mk_distance_to_uniform(&WeightedDist::from_pairs(vec![])).is_nan());
    }
}
