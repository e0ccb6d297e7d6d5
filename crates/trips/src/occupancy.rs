//! Occupancy-rate distributions of minimal trips (Definition 7).
//!
//! The occupancy rate of a minimal trip is `hops/duration` where the duration
//! is counted in steps (`arr - dep + 1` for a graph series): the proportion
//! of time steps the trip spends hopping rather than waiting. Rates are exact
//! rationals; the histogram therefore keys on the reduced `(hops, duration)`
//! pair so no two distinct rates are ever merged by floating-point rounding.
//!
//! # Counter and sealed histogram
//!
//! Recording and querying are split between two types:
//!
//! * [`RateCounter`] is the mutable accumulator and the only rate-recording
//!   [`TripSink`]. It counts trips on the *unreduced* `(hops, duration)`
//!   key, so the per-trip path is an array increment (a dense front for
//!   `hops < 16` and `duration < 1024`, which takes most trips) or one
//!   `FxHashMap` insert (the rest), with no `gcd`.
//!   [`finish`](RateCounter::finish) seals the counts into a histogram and
//!   resets the counter for reuse: a sweep keeps one counter per worker
//!   next to its [`EngineArena`].
//! * [`OccupancyHistogram`] is the immutable result: a vector of
//!   `(reduced key, multiplicity)` in ascending order of rate, the order
//!   every uniformity score reads ([`rates`](OccupancyHistogram::rates)
//!   maps it to `f64` without sorting). Merging is a linear merge;
//!   `fraction_at_one` reads the last entry.
//!
//! # The rate order
//!
//! Keys compare by exact rate: `h1/d1 < h2/d2` exactly when
//! `h1·d2 < h2·d1`, two products of `u32`s that cannot overflow `u64`.
//! Distinct reduced keys are distinct rationals, so the order is total and
//! unique even where two rates round to the same `f64`.
//!
//! [`finish`](RateCounter::finish) moves the touched dense cells and the
//! drained map, as unreduced `(key, count)` pairs, into the histogram's own
//! vector, sorts it once by rate, folds runs of equal rate (adding their
//! counts) and only then reduces each survivor, with one `gcd`. Folding by
//! cross-multiplied equality is folding by equal reduced key: two keys have
//! the same lowest terms exactly when they are the same rational. So each
//! count of reduced key `r` is the sum of the counts of the unreduced keys
//! whose lowest terms are `r`, as if every trip had been reduced on its
//! own; integer sums do not depend on order. The seal allocates only the
//! histogram's vector, and no scratch outlives it: a retained per-worker
//! scratch raised the serving peak RSS by 10–14% when it was tried.
//!
//! **Exactness.** The histogram is therefore the same multiset however the
//! trips were split into tiles or counters. [`OccupancyHistogram::mean`]
//! sums `count · hops / duration` in ascending reduced-key order, an order
//! fixed by that multiset alone, so its floating-point result is
//! bit-identical to a per-trip reduction summed in key order, and so are
//! report bytes. The stored order is by rate, so `mean` rebuilds key order
//! with one stable bucket pass: within one hop count, descending rate is
//! ascending duration, so dealing the entries, read from the highest rate
//! down, into one bucket per hop count and reading the buckets by ascending
//! hop count yields ascending `(hops, duration)`. A bucket is found by
//! direct index when the largest hop count is small, and otherwise by
//! binary search over the sorted *distinct* hop counts present (never a
//! table per hop magnitude: hop counts reach `u32::MAX`); no hash map is
//! involved.

use crate::{earliest_arrival_dp_in, DpOptions, EngineArena, TargetSet, Timeline, TripSink};
use rustc_hash::FxHashMap;
use saturn_linkstream::LinkStream;
use std::cmp::Ordering;

/// Hop counts `< DENSE_HOPS` with durations `< DENSE_DURATION` count in the
/// dense front of a [`RateCounter`] (index `hops * DENSE_DURATION +
/// duration`); 16 × 1024 cells of `u64` are 128 KiB per counter.
const DENSE_HOPS: u32 = 16;
const DENSE_DURATION: u32 = 1024;
const DENSE_CELLS: usize = (DENSE_HOPS * DENSE_DURATION) as usize;

/// [`OccupancyHistogram::mean`] finds its hop buckets by direct index when
/// the largest hop count is at most this or the number of distinct rates
/// (so the table is never much longer than the histogram), and by binary
/// search over the distinct hop counts otherwise.
const DIRECT_BUCKETS: usize = 1 << 10;

#[inline]
fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// `hops/duration` (`hops >= 1`) in lowest terms. Hop counts are small,
/// so Euclid starts from `duration % hops`: one division brings the
/// duration down to the hop count's size.
fn reduce(hops: u32, duration: u32) -> (u32, u32) {
    let g = gcd(hops, duration % hops);
    (hops / g, duration / g)
}

/// `h1/d1` against `h2/d2`, exactly.
#[inline]
fn rate_cmp((h1, d1): (u32, u32), (h2, d2): (u32, u32)) -> Ordering {
    (u64::from(h1) * u64::from(d2)).cmp(&(u64::from(h2) * u64::from(d1)))
}

/// Reusable accumulator of minimal-trip occupancy rates, keyed on the
/// unreduced `(hops, duration)` pair; see the module docs.
#[derive(Debug)]
pub struct RateCounter {
    /// Counts of the small keys, indexed `hops * DENSE_DURATION + duration`.
    dense: Box<[u64]>,
    /// The dense cells with a non-zero count, in first-touch order.
    touched: Vec<u32>,
    /// Counts of the other keys, packed `hops << 32 | duration`.
    sparse: FxHashMap<u64, u64>,
}

impl Default for RateCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl RateCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        RateCounter {
            dense: vec![0; DENSE_CELLS].into_boxed_slice(),
            touched: Vec::new(),
            sparse: FxHashMap::default(),
        }
    }

    /// Records one minimal trip with the given hop count and duration (in
    /// steps, `>= 1`).
    #[inline(always)]
    pub fn record(&mut self, hops: u32, duration: u32) {
        debug_assert!(hops >= 1 && duration >= hops, "0 < hops <= duration violated");
        if hops < DENSE_HOPS && duration < DENSE_DURATION {
            let cell = (hops * DENSE_DURATION + duration) as usize;
            if self.dense[cell] == 0 {
                self.touched.push(cell as u32);
            }
            self.dense[cell] += 1;
        } else {
            *self.sparse.entry(u64::from(hops) << 32 | u64::from(duration)).or_insert(0) += 1;
        }
    }

    /// Seals the recorded trips into a histogram and resets the counter:
    /// the distinct unreduced keys are sorted by rate, equal rates folded,
    /// and each survivor reduced once (see the module docs). Only the dense
    /// cells that were touched are cleared, and the map keeps its capacity.
    pub fn finish(&mut self) -> OccupancyHistogram {
        let mut counts = Vec::with_capacity(self.touched.len() + self.sparse.len());
        for &cell in &self.touched {
            let count = std::mem::take(&mut self.dense[cell as usize]);
            counts.push(((cell / DENSE_DURATION, cell % DENSE_DURATION), count));
        }
        self.touched.clear();
        counts.extend(
            self.sparse.drain().map(|(key, count)| (((key >> 32) as u32, key as u32), count)),
        );
        counts.sort_unstable_by(|&(a, _), &(b, _)| rate_cmp(a, b));
        counts.dedup_by(|later, kept| {
            let same = rate_cmp(later.0, kept.0) == Ordering::Equal;
            if same {
                kept.1 += later.1;
            }
            same
        });
        let mut total = 0;
        for ((hops, duration), count) in &mut counts {
            (*hops, *duration) = reduce(*hops, *duration);
            total += *count;
        }
        OccupancyHistogram { counts, total }
    }
}

/// The counter is the engine's trip sink: sweeps call
/// [`crate::earliest_arrival_dp_in`] with a tile/cancel [`crate::DpRun`],
/// keep the returned [`crate::DpStats`] and then
/// [`finish`](RateCounter::finish) the counter. The engine is generic over
/// its sink, so it is compiled in the calling crate; `#[inline(always)]` on
/// this path keeps the per-trip record from becoming an out-of-line call
/// there (measured ~10% of sweep time on a 60-node ring). A plain
/// `#[inline]` is not enough once the sweep instantiates the engine in both
/// orientations ([`crate::mirrored_histogram_in`]): with two call sites the
/// inliner stopped taking it, and the backward sweep lost 10–30%.
impl TripSink for RateCounter {
    #[inline(always)]
    fn minimal_trip(&mut self, _u: u32, _v: u32, dep: u32, arr: u32, hops: u32) {
        self.record(hops, arr - dep + 1);
    }
}

/// Exact histogram of minimal-trip occupancy rates, sealed by
/// [`RateCounter::finish`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OccupancyHistogram {
    /// `((hops, duration), multiplicity)` with `hops/duration` in lowest
    /// terms, in ascending order of rate, each key once.
    counts: Vec<((u32, u32), u64)>,
    total: u64,
}

impl OccupancyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
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

    /// The rates and their multiplicities by increasing rate, read in the
    /// stored order: one pair per distinct rational, so two rates that
    /// round to the same `f64` give two adjacent pairs with equal values.
    /// Every rate lies in `(0, 1]` (Remark 2 of the paper).
    pub fn rates(&self) -> impl Iterator<Item = (f64, u64)> + Clone + '_ {
        self.counts.iter().map(|&((h, d), c)| (h as f64 / d as f64, c))
    }

    /// [`rates`](Self::rates), collected.
    pub fn sorted_rates(&self) -> Vec<(f64, u64)> {
        self.rates().collect()
    }

    /// Mean occupancy rate.
    ///
    /// Summation runs in ascending reduced-key order, which does not depend
    /// on how trips were split into tiles, so the float result is
    /// bit-identical across tilings and thread counts. The terms are dealt
    /// into that order by one bucket pass (see the module docs) into one
    /// buffer the size of the histogram; the bucket offsets and the sorted
    /// hop counts take at most two words per distinct rate, or 1,025 words
    /// for a histogram of fewer rates.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        // one bucket per distinct hop count, in ascending hop order: a
        // direct table when the largest hop count is small, a binary search
        // over the sorted distinct hop counts otherwise
        let max_hops = self.counts.iter().map(|&((h, _), _)| h).max().unwrap_or(0) as usize;
        let hops: Vec<u32> = if max_hops <= self.counts.len().max(DIRECT_BUCKETS) {
            Vec::new()
        } else {
            let mut hops: Vec<u32> = self.counts.iter().map(|&((h, _), _)| h).collect();
            hops.sort_unstable();
            hops.dedup();
            hops
        };
        let bucket = |h: u32| {
            if hops.is_empty() {
                h as usize
            } else {
                hops.binary_search(&h).expect("collected above")
            }
        };
        // bucket sizes, then their start offsets
        let mut start = vec![0usize; if hops.is_empty() { max_hops + 1 } else { hops.len() }];
        for &((h, _), _) in &self.counts {
            start[bucket(h)] += 1;
        }
        let mut offset = 0;
        for size in &mut start {
            offset += std::mem::replace(size, offset);
        }
        let mut terms = vec![0.0; self.counts.len()];
        for &((h, d), c) in self.counts.iter().rev() {
            let next = &mut start[bucket(h)];
            terms[*next] = c as f64 * h as f64 / d as f64;
            *next += 1;
        }
        let s: f64 = terms.into_iter().sum();
        s / self.total as f64
    }

    /// Fraction of trips with occupancy rate exactly 1 (fully saturated
    /// trips — the mass that grows past the saturation scale). Rate 1 is
    /// the largest a trip can have, so it can only be the last entry.
    pub fn fraction_at_one(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let at_one = match self.counts.last() {
            Some(&((1, 1), count)) => count,
            _ => 0,
        };
        at_one as f64 / self.total as f64
    }

    /// Merges another histogram into this one (a linear merge of the two
    /// rate-ordered vectors).
    ///
    /// **Contract: the order of merges never shows.** The merge is a
    /// rate-ordered union that adds integer counts, so merging any set of
    /// histograms in any order and grouping (by [`merge`](Self::merge) or
    /// [`merge_owned`](Self::merge_owned)) yields the same `counts` and
    /// `total`, hence equal histograms and bit-identical
    /// [`mean`](Self::mean) and [`sorted_rates`](Self::sorted_rates). A
    /// sweep relies on this to merge a scale's tiles in whatever order its
    /// workers finish them.
    pub fn merge(&mut self, other: &OccupancyHistogram) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            self.counts.clone_from(&other.counts);
        } else {
            self.counts = merged(&self.counts, &other.counts);
        }
        self.total += other.total;
    }

    /// [`merge`](Self::merge) taking `other` by value: merging into an
    /// empty histogram moves `other`'s storage instead of copying it.
    pub fn merge_owned(&mut self, other: OccupancyHistogram) {
        if self.is_empty() {
            *self = other;
        } else {
            self.merge(&other);
        }
    }
}

/// The union of two rate-ordered count vectors of reduced keys, adding the
/// counts of keys present in both (equal rates are equal reduced keys).
fn merged(a: &[((u32, u32), u64)], b: &[((u32, u32), u64)]) -> Vec<((u32, u32), u64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match rate_cmp(a[i].0, b[j].0) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
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
/// Each call records through a fresh [`RateCounter`]; a sweep that runs
/// many DPs per worker keeps one counter per worker instead.
pub fn occupancy_histogram_in(
    arena: &mut EngineArena,
    timeline: &Timeline,
    targets: &TargetSet,
) -> OccupancyHistogram {
    let mut counter = RateCounter::new();
    earliest_arrival_dp_in(arena, timeline, targets, &mut counter, DpOptions::default());
    counter.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{io, Directedness};

    /// A histogram of `(hops, duration)` trips, sealed by a fresh counter.
    fn histogram(trips: &[(u32, u32)]) -> OccupancyHistogram {
        let mut counter = RateCounter::new();
        for &(hops, duration) in trips {
            counter.record(hops, duration);
        }
        counter.finish()
    }

    #[test]
    fn rates_are_reduced_and_sorted() {
        // 2/4 and 1/2 are one rate; 3/2048 lives past the dense front
        let h = histogram(&[(1, 2), (2, 4), (1, 1), (1, 3), (3, 2048)]);
        assert_eq!(h.total_trips(), 5);
        assert_eq!(h.distinct_rates(), 4);
        let rates = h.sorted_rates();
        assert_eq!(rates[0], (3.0 / 2048.0, 1));
        assert_eq!(rates[1], (1.0 / 3.0, 1));
        assert_eq!(rates[2], (0.5, 2));
        assert_eq!(rates[3], (1.0, 1));
        assert!((h.fraction_at_one() - 0.2).abs() < 1e-12);
        let expected = (3.0 / 2048.0 + 1.0 / 3.0 + 0.5 + 0.5 + 1.0) / 5.0;
        assert!((h.mean() - expected).abs() < 1e-12);
    }

    /// Keys on both sides of the dense front's bounds reduce into one
    /// rate: 15/1020 (dense), 16/1088 and 30/2040 (sparse) are all 1/68.
    #[test]
    fn dense_and_sparse_keys_fold_into_one_rate() {
        let h = histogram(&[(15, 1020), (16, 1088), (30, 2040), (1, 68), (16, 16), (15, 15)]);
        assert_eq!(h.total_trips(), 6);
        assert_eq!(h.sorted_rates(), vec![(1.0 / 68.0, 4), (1.0, 2)]);
        assert_eq!(h.fraction_at_one(), 2.0 / 6.0);
    }

    /// `finish` resets the counter: a reused counter seals only the trips
    /// recorded since the previous `finish`.
    #[test]
    fn finish_resets_the_counter() {
        let mut counter = RateCounter::new();
        counter.record(1, 2);
        counter.record(20, 5000);
        assert_eq!(counter.finish().total_trips(), 2);
        assert!(counter.finish().is_empty());
        counter.record(1, 3);
        assert_eq!(counter.finish(), histogram(&[(1, 3)]));
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
        let mut counter = RateCounter::new();
        for k in [1u64, 3, 17, 90, 534] {
            let timeline = Timeline::aggregated(&s, k);
            let engine = occupancy_histogram_in(&mut arena, &timeline, &targets);
            crate::dp::baseline::earliest_arrival_dp(
                &timeline,
                &targets,
                &mut counter,
                DpOptions::default(),
            );
            let oracle = counter.finish();
            assert_eq!(engine.total_trips(), oracle.total_trips(), "k={k}");
            assert_eq!(engine.sorted_rates(), oracle.sorted_rates(), "k={k}");
            assert_eq!(engine.mean().to_bits(), oracle.mean().to_bits(), "k={k}");
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = histogram(&[(1, 2)]);
        let b = histogram(&[(1, 2), (1, 1)]);
        a.merge(&b);
        assert_eq!(a.total_trips(), 3);
        assert_eq!(a.sorted_rates(), vec![(0.5, 2), (1.0, 1)]);
        let mut c = OccupancyHistogram::new();
        c.merge_owned(b.clone());
        assert_eq!(c, b);
        c.merge_owned(histogram(&[(2, 4), (1, 5)]));
        assert_eq!(c, histogram(&[(1, 2), (1, 1), (1, 2), (1, 5)]));
    }

    #[test]
    fn empty_histogram_statistics() {
        let h = OccupancyHistogram::new();
        assert!(h.is_empty());
        assert!(h.mean().is_nan());
        assert!(h.fraction_at_one().is_nan());
        assert!(h.sorted_rates().is_empty());
        assert_eq!(RateCounter::new().finish(), h);
    }
}
