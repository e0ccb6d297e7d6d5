//! Occupancy-rate distributions of minimal trips (Definition 7).
//!
//! The occupancy rate of a minimal trip is `hops/duration` where the duration
//! is counted in steps (`arr - dep + 1` for a graph series): the proportion
//! of time steps the trip spends hopping rather than waiting. Rates are exact
//! rationals; the histogram therefore keys on the reduced `(hops, duration)`
//! pair so no two distinct rates are ever merged by floating-point rounding.

use crate::{earliest_arrival_dp_in, DpOptions, EngineArena, TargetSet, Timeline, TripSink};
use rustc_hash::FxHashMap;
use saturn_linkstream::LinkStream;
use serde::Serialize;

/// Exact histogram of minimal-trip occupancy rates.
#[derive(Clone, Debug, Default, Serialize)]
pub struct OccupancyHistogram {
    /// `(hops, duration) -> multiplicity`, with `hops/duration` in lowest
    /// terms. Fx-hashed: the insert sits in the trip sink, once per minimal
    /// trip, and SipHash was measurable there at fine scales.
    counts: FxHashMap<(u32, u32), u64>,
    total: u64,
}

#[inline]
fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

impl OccupancyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one minimal trip with the given hop count and duration (in
    /// steps, `>= 1`).
    #[inline]
    pub fn record(&mut self, hops: u32, duration: u32) {
        debug_assert!(hops >= 1 && duration >= hops, "0 < hops <= duration violated");
        let g = gcd(hops, duration).max(1);
        *self.counts.entry((hops / g, duration / g)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total number of recorded trips.
    pub fn total_trips(&self) -> u64 {
        self.total
    }

    /// Whether no trip was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of distinct occupancy rates.
    pub fn distinct_rates(&self) -> usize {
        self.counts.len()
    }

    /// The rates and their multiplicities, sorted by increasing rate.
    /// Every rate lies in `(0, 1]` (Remark 2 of the paper).
    pub fn sorted_rates(&self) -> Vec<(f64, u64)> {
        let mut entries: Vec<(&(u32, u32), &u64)> = self.counts.iter().collect();
        // exact rational comparison: h1/d1 < h2/d2  <=>  h1*d2 < h2*d1
        entries.sort_unstable_by(|a, b| {
            let (h1, d1) = *a.0;
            let (h2, d2) = *b.0;
            (h1 as u64 * d2 as u64).cmp(&(h2 as u64 * d1 as u64))
        });
        entries.into_iter().map(|(&(h, d), &c)| (h as f64 / d as f64, c)).collect()
    }

    /// Mean occupancy rate.
    ///
    /// Summation runs in sorted key order: tiled sweeps merge per-tile
    /// histograms whose map insertion order differs from an untiled run's,
    /// and the float accumulation must not depend on hash iteration order
    /// for reports to stay bit-identical across tilings.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let mut entries: Vec<((u32, u32), u64)> =
            self.counts.iter().map(|(&key, &c)| (key, c)).collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        let s: f64 = entries.iter().map(|&((h, d), c)| c as f64 * h as f64 / d as f64).sum();
        s / self.total as f64
    }

    /// Fraction of trips with occupancy rate exactly 1 (fully saturated
    /// trips — the mass that grows past the saturation scale).
    pub fn fraction_at_one(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        self.counts.get(&(1, 1)).copied().unwrap_or(0) as f64 / self.total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &OccupancyHistogram) {
        for (&key, &c) in &other.counts {
            *self.counts.entry(key).or_insert(0) += c;
        }
        self.total += other.total;
    }
}

/// A histogram is its own trip sink: the engine records each minimal trip's
/// rate straight into it, so sweeps call [`crate::earliest_arrival_dp_in`]
/// with a tile/cancel [`crate::DpRun`] and keep the returned [`crate::DpStats`].
/// The engine is generic over its sink, so it is compiled in the calling
/// crate; `#[inline]` on this path keeps the per-trip record from becoming
/// an out-of-line cross-crate call there (measured ~10% of sweep time on a
/// 60-node ring).
impl TripSink for OccupancyHistogram {
    #[inline]
    fn minimal_trip(&mut self, _u: u32, _v: u32, dep: u32, arr: u32, hops: u32) {
        self.record(hops, arr - dep + 1);
    }
}

/// Computes the occupancy-rate distribution of all minimal trips of the
/// series `G_Δ` with `Δ = T/k`, for destinations in `targets`.
pub fn occupancy_histogram(
    stream: &LinkStream,
    k: u64,
    targets: &TargetSet,
) -> OccupancyHistogram {
    occupancy_histogram_in(&mut EngineArena::new(), &Timeline::aggregated(stream, k), targets)
}

/// Same as [`occupancy_histogram`], for an already-built timeline and a
/// caller-owned [`EngineArena`] (reused across runs of equal dimensions).
pub fn occupancy_histogram_in(
    arena: &mut EngineArena,
    timeline: &Timeline,
    targets: &TargetSet,
) -> OccupancyHistogram {
    let mut hist = OccupancyHistogram::new();
    earliest_arrival_dp_in(arena, timeline, targets, &mut hist, DpOptions::default());
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{io, Directedness};

    #[test]
    fn rates_are_reduced_and_sorted() {
        let mut h = OccupancyHistogram::new();
        h.record(1, 2);
        h.record(2, 4); // same rate as 1/2
        h.record(1, 1);
        h.record(1, 3);
        assert_eq!(h.total_trips(), 4);
        assert_eq!(h.distinct_rates(), 3);
        let rates = h.sorted_rates();
        assert_eq!(rates[0], (1.0 / 3.0, 1));
        assert_eq!(rates[1], (0.5, 2));
        assert_eq!(rates[2], (1.0, 1));
        assert!((h.fraction_at_one() - 0.25).abs() < 1e-12);
        assert!((h.mean() - (1.0 / 3.0 + 0.5 + 0.5 + 1.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn total_aggregation_all_rates_one() {
        // With K = 1 every minimal trip is a single link: occupancy 1
        // (Section 4: "when the aggregation period reaches its maximum
        // value... their occupation rate is 1").
        let s = io::read_str("a b 0\nb c 5\nc d 9\n", Directedness::Undirected).unwrap();
        let h = occupancy_histogram(&s, 1, &TargetSet::all(4));
        assert!(h.total_trips() > 0);
        assert_eq!(h.fraction_at_one(), 1.0);
    }

    #[test]
    fn fine_aggregation_has_low_rates() {
        // Chain spread over a long period: at fine scales trips wait a lot.
        let s = io::read_str("a b 0\nb c 50\nc d 100\n", Directedness::Undirected).unwrap();
        let h = occupancy_histogram(&s, 100, &TargetSet::all(4));
        // a->d trip: 3 hops over 100 steps => rate ~0.03 exists
        let min_rate = h.sorted_rates().first().unwrap().0;
        assert!(min_rate < 0.1, "min rate {min_rate}");
    }

    /// The histogram the sweep records through the arena engine equals the
    /// one [`crate::dp::baseline`] feeds, at every scale of a ring stream —
    /// counts, rates, and the bits of the mean.
    #[test]
    fn histograms_match_the_baseline_engine() {
        let mut b = saturn_linkstream::LinkStreamBuilder::indexed(Directedness::Undirected, 9);
        for i in 0..90u32 {
            b.add_indexed(i % 9, (i + 1) % 9, i64::from(i) * 6);
        }
        let s = b.build().unwrap();
        let targets = TargetSet::all(9);
        let mut arena = EngineArena::new();
        for k in [1u64, 3, 17, 90, 534] {
            let timeline = Timeline::aggregated(&s, k);
            let engine = occupancy_histogram_in(&mut arena, &timeline, &targets);
            let mut oracle = OccupancyHistogram::new();
            crate::dp::baseline::earliest_arrival_dp(
                &timeline,
                &targets,
                &mut oracle,
                DpOptions::default(),
            );
            assert_eq!(engine.total_trips(), oracle.total_trips(), "k={k}");
            assert_eq!(engine.sorted_rates(), oracle.sorted_rates(), "k={k}");
            assert_eq!(engine.mean().to_bits(), oracle.mean().to_bits(), "k={k}");
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = OccupancyHistogram::new();
        a.record(1, 2);
        let mut b = OccupancyHistogram::new();
        b.record(1, 2);
        b.record(1, 1);
        a.merge(&b);
        assert_eq!(a.total_trips(), 3);
        assert_eq!(a.sorted_rates(), vec![(0.5, 2), (1.0, 1)]);
    }

    #[test]
    fn empty_histogram_statistics() {
        let h = OccupancyHistogram::new();
        assert!(h.is_empty());
        assert!(h.mean().is_nan());
        assert!(h.fraction_at_one().is_nan());
        assert!(h.sorted_rates().is_empty());
    }
}
