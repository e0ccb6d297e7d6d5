//! Grids of candidate aggregation scales.
//!
//! The method sweeps `Δ` from the timestamp resolution up to the full study
//! period `T`. Scales are parameterized by the integer window count
//! `K = T/Δ` (Definition 1), so a grid is a set of `K` values between 1 and
//! `K_max = T / Δ_min`.

use saturn_linkstream::LinkStream;
use serde::{Deserialize, Serialize};

/// Maximum window count accepted by the trip engine (`u32` step indices).
const K_LIMIT: u64 = (u32::MAX - 1) as u64;

/// A strategy generating candidate window counts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SweepGrid {
    /// `points` values of `Δ` spaced geometrically between `Δ_min` and `T`
    /// (the paper's figures span 4+ orders of magnitude of `Δ`, so this is
    /// the default).
    Geometric {
        /// Number of grid points.
        points: usize,
    },
    /// `points` values of `Δ` spaced linearly between `Δ_min` and `T`.
    Linear {
        /// Number of grid points.
        points: usize,
    },
    /// Explicit window counts (deduplicated, clamped to the valid range).
    ExplicitK(Vec<u64>),
}

impl Default for SweepGrid {
    fn default() -> Self {
        SweepGrid::Geometric { points: 64 }
    }
}

impl SweepGrid {
    /// The most `points` a geometric or linear grid may ask for: 85× the
    /// service default of 48, and small enough that materializing the grid
    /// is never the cost. Front ends reject larger requests before any
    /// work starts.
    pub const MAX_POINTS: usize = 4096;

    /// Materializes the window counts for `stream`, with the smallest
    /// aggregation period `delta_min` ticks (usually the timestamp
    /// resolution, 1). Returns values sorted descending (fine `Δ` first) and
    /// deduplicated; always contains at least `K = 1`.
    ///
    /// # Panics
    /// Panics if a geometric or linear grid asks for more than
    /// [`MAX_POINTS`](Self::MAX_POINTS) points.
    pub fn k_values(&self, stream: &LinkStream, delta_min: i64) -> Vec<u64> {
        if let SweepGrid::Geometric { points } | SweepGrid::Linear { points } = *self {
            assert!(
                points <= Self::MAX_POINTS,
                "a sweep grid takes at most {} points, not {points}",
                Self::MAX_POINTS
            );
        }
        let span = stream.span().max(0) as u64;
        let delta_min = delta_min.max(1) as u64;
        let k_max = (span / delta_min).clamp(1, K_LIMIT);
        let mut ks: Vec<u64> = match self {
            SweepGrid::Geometric { points } => {
                let p = (*points).max(2);
                // Δ_i geometric between delta_min and span  <=>  K_i = span/Δ_i
                // geometric between k_max and 1.
                (0..p)
                    .map(|i| {
                        let frac = i as f64 / (p - 1) as f64;
                        let k = (k_max as f64).powf(1.0 - frac);
                        (k.round() as u64).clamp(1, k_max)
                    })
                    .collect()
            }
            SweepGrid::Linear { points } => {
                let p = (*points).max(2);
                (0..p)
                    .map(|i| {
                        let frac = i as f64 / (p - 1) as f64;
                        // Δ linear => K = k_max / (1 + frac·(k_max - 1))
                        let delta = 1.0 + frac * (k_max as f64 - 1.0);
                        ((k_max as f64 / delta).round() as u64).clamp(1, k_max)
                    })
                    .collect()
            }
            SweepGrid::ExplicitK(ks) => ks.iter().map(|&k| k.clamp(1, k_max)).collect(),
        };
        ks.sort_unstable_by(|a, b| b.cmp(a));
        ks.dedup();
        if ks.is_empty() {
            ks.push(1);
        }
        ks
    }

    /// Window counts filling the open interval between two window counts
    /// (used for local refinement around the coarse-grid maximum). Returns
    /// up to `points` new values strictly between `k_lo` and `k_hi`
    /// (`k_lo < k_hi`), geometrically spaced, excluding the endpoints.
    pub fn refine_between(k_lo: u64, k_hi: u64, points: usize) -> Vec<u64> {
        debug_assert!(k_lo < k_hi);
        let mut out = Vec::new();
        let (lo, hi) = (k_lo as f64, k_hi as f64);
        for i in 1..=points {
            let frac = i as f64 / (points + 1) as f64;
            let k = (lo * (hi / lo).powf(frac)).round() as u64;
            if k > k_lo && k < k_hi {
                out.push(k);
            }
        }
        out.sort_unstable_by(|a, b| b.cmp(a));
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{Directedness, LinkStreamBuilder};

    fn stream(span: i64) -> LinkStream {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 0);
        b.add("b", "c", span);
        b.build().unwrap()
    }

    #[test]
    fn geometric_covers_both_ends() {
        let s = stream(10_000);
        let ks = SweepGrid::Geometric { points: 20 }.k_values(&s, 1);
        assert_eq!(*ks.first().unwrap(), 10_000); // Δ = resolution
        assert_eq!(*ks.last().unwrap(), 1); // Δ = T
        assert!(ks.windows(2).all(|w| w[0] > w[1]), "strictly descending");
    }

    #[test]
    fn linear_grid_is_valid() {
        let s = stream(1_000);
        let ks = SweepGrid::Linear { points: 10 }.k_values(&s, 1);
        assert!(ks.iter().all(|&k| (1..=1_000).contains(&k)));
        assert!(ks.contains(&1));
        assert!(ks.contains(&1_000));
    }

    #[test]
    fn explicit_is_clamped_and_deduped() {
        let s = stream(100);
        let ks = SweepGrid::ExplicitK(vec![5, 500, 5, 0, 1]).k_values(&s, 1);
        assert_eq!(ks, vec![100, 5, 1]); // 500 clamped to k_max=100, 0 to 1
    }

    #[test]
    fn delta_min_limits_k_max() {
        let s = stream(10_000);
        let ks = SweepGrid::Geometric { points: 10 }.k_values(&s, 100);
        assert_eq!(*ks.first().unwrap(), 100); // K_max = span/delta_min
    }

    #[test]
    fn zero_span_stream_yields_single_k() {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 5);
        let s = b.build().unwrap();
        let ks = SweepGrid::default().k_values(&s, 1);
        assert_eq!(ks, vec![1]);
    }

    #[test]
    fn refine_between_stays_strictly_inside() {
        let mid = SweepGrid::refine_between(10, 1000, 7);
        assert!(!mid.is_empty());
        assert!(mid.iter().all(|&k| k > 10 && k < 1000));
        assert!(mid.windows(2).all(|w| w[0] > w[1]));
        // adjacent counts leave nothing to refine
        assert!(SweepGrid::refine_between(10, 11, 7).is_empty());
    }
}
