//! The five selection methods of Section 7 behind one interface, and all
//! of their scores computed together.

use crate::dist::walk;
use crate::entropy::{Bins, Cre};
use crate::mk::{proximity, MkDistance};
use crate::moments::std_dev_and_variation_coefficient;
use crate::{
    cumulative_residual_entropy, mk_proximity, shannon_entropy, std_dev, variation_coefficient,
    SortedStream,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Slot counts at which the Shannon-entropy score is always evaluated
/// (the paper discusses k ∈ {5, 10, 20, 100}).
pub const SHANNON_SLOTS: [usize; 4] = [5, 10, 20, 100];

/// A method for scoring how uniformly a distribution is spread over `[0, 1]`.
/// Higher score = more uniformly spread; the occupancy method selects the
/// aggregation period maximizing the score.
///
/// The paper retains [`MkProximity`](SelectionMetric::MkProximity) as its
/// reference method ("conceptually simple and gives very satisfactory
/// results"); the others are provided for the Section 7 comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SelectionMetric {
    /// M-K proximity `1/2 - dist_MK` to the uniform density (the default).
    #[default]
    MkProximity,
    /// Standard deviation (selects slightly larger periods than M-K).
    StdDev,
    /// Variation coefficient (documented failure mode: selects ~no
    /// aggregation).
    VariationCoefficient,
    /// Shannon entropy over `slots` equal bins of `[0, 1]`.
    ShannonEntropy {
        /// Number of discretization slots (the paper uses 10).
        slots: usize,
    },
    /// Cumulative residual entropy.
    Cre,
}

impl SelectionMetric {
    /// All metrics compared in Section 7, with the paper's slot count.
    pub fn all() -> Vec<SelectionMetric> {
        vec![
            SelectionMetric::MkProximity,
            SelectionMetric::StdDev,
            SelectionMetric::VariationCoefficient,
            SelectionMetric::ShannonEntropy { slots: 10 },
            SelectionMetric::Cre,
        ]
    }

    /// Scores `dist`; `NaN` for empty distributions.
    pub fn score(&self, dist: &(impl SortedStream + ?Sized)) -> f64 {
        match *self {
            SelectionMetric::MkProximity => mk_proximity(dist),
            SelectionMetric::StdDev => std_dev(dist),
            SelectionMetric::VariationCoefficient => variation_coefficient(dist),
            SelectionMetric::ShannonEntropy { slots } => shannon_entropy(dist, slots),
            SelectionMetric::Cre => cumulative_residual_entropy(dist),
        }
    }
}

impl fmt::Display for SelectionMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionMetric::MkProximity => write!(f, "M-K proximity"),
            SelectionMetric::StdDev => write!(f, "standard deviation"),
            SelectionMetric::VariationCoefficient => write!(f, "variation coefficient"),
            SelectionMetric::ShannonEntropy { slots } => {
                write!(f, "Shannon entropy ({slots} slots)")
            }
            SelectionMetric::Cre => write!(f, "cumulative residual entropy"),
        }
    }
}

/// All Section 7 uniformity scores of one distribution, computed together:
/// one walk of the stream feeds the Shannon bins of every slot count and
/// both survival integrals (M-K and CRE), then the mean and the deviation
/// take one pass each. Each score runs the same fold as its own function,
/// in the same order, so it has exactly that function's bits.
#[derive(Clone, Debug, Serialize)]
pub struct UniformityScores {
    /// M-K proximity `1/2 - dist_MK` (the paper's reference method).
    pub mk_proximity: f64,
    /// Weighted standard deviation.
    pub std_dev: f64,
    /// Variation coefficient `σ/µ`.
    pub variation_coefficient: f64,
    /// Shannon entropy at each slot count of [`SHANNON_SLOTS`].
    pub shannon: Vec<(usize, f64)>,
    /// Cumulative residual entropy.
    pub cre: f64,
}

impl UniformityScores {
    /// Scores `dist` under every metric: a [`crate::WeightedDist`], or any
    /// [`SortedStream`]. Every score is `NaN` for an empty distribution.
    pub fn of(dist: &(impl SortedStream + ?Sized)) -> Self {
        if dist.is_empty() {
            let nan = f64::NAN;
            return UniformityScores {
                mk_proximity: nan,
                std_dev: nan,
                variation_coefficient: nan,
                shannon: SHANNON_SLOTS.map(|slots| (slots, nan)).to_vec(),
                cre: nan,
            };
        }
        let mut bins = SHANNON_SLOTS.map(Bins::new);
        let (mut mk, mut cre) = (MkDistance::new(), Cre::new());
        walk(
            dist,
            |v, w| bins.iter_mut().for_each(|b| b.pair(v, w)),
            |a, b, s| {
                mk.segment(a, b, s);
                cre.segment(a, b, s);
            },
        );
        let (std_dev, variation_coefficient) = std_dev_and_variation_coefficient(dist);
        let total = dist.total_weight();
        UniformityScores {
            mk_proximity: proximity(mk.value()),
            std_dev,
            variation_coefficient,
            shannon: SHANNON_SLOTS
                .into_iter()
                .zip(&bins)
                .map(|(s, b)| (s, b.entropy(total)))
                .collect(),
            cre: cre.value(),
        }
    }

    /// The score under `metric`. Shannon slot counts outside
    /// [`SHANNON_SLOTS`] return `NaN`.
    pub fn get(&self, metric: SelectionMetric) -> f64 {
        match metric {
            SelectionMetric::MkProximity => self.mk_proximity,
            SelectionMetric::StdDev => self.std_dev,
            SelectionMetric::VariationCoefficient => self.variation_coefficient,
            SelectionMetric::ShannonEntropy { slots } => self
                .shannon
                .iter()
                .find(|&&(s, _)| s == slots)
                .map(|&(_, v)| v)
                .unwrap_or(f64::NAN),
            SelectionMetric::Cre => self.cre,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedDist;

    fn spread() -> WeightedDist {
        WeightedDist::from_pairs((1..=20).map(|i| (i as f64 / 20.0, 1)).collect())
    }

    fn concentrated() -> WeightedDist {
        WeightedDist::from_pairs(vec![(1.0, 19), (0.95, 1)])
    }

    #[test]
    fn all_metrics_except_cv_prefer_the_spread_distribution() {
        for metric in SelectionMetric::all() {
            if metric == SelectionMetric::VariationCoefficient {
                continue; // documented failure mode
            }
            let s = metric.score(&spread());
            let c = metric.score(&concentrated());
            assert!(s > c, "{metric}: spread {s} <= concentrated {c}");
        }
    }

    #[test]
    fn cv_prefers_small_means() {
        // The paper's criticism: c_v favors distributions with tiny means.
        let tiny = WeightedDist::from_pairs(vec![(0.001, 10), (0.01, 1)]);
        let cv = SelectionMetric::VariationCoefficient;
        assert!(cv.score(&tiny) > cv.score(&spread()));
    }

    #[test]
    fn display_names() {
        assert_eq!(SelectionMetric::MkProximity.to_string(), "M-K proximity");
        assert_eq!(
            SelectionMetric::ShannonEntropy { slots: 10 }.to_string(),
            "Shannon entropy (10 slots)"
        );
    }

    #[test]
    fn default_is_mk() {
        assert_eq!(SelectionMetric::default(), SelectionMetric::MkProximity);
    }
}
