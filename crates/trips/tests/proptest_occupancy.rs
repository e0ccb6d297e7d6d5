//! Exactness of the rate counter and the sealed histogram: random
//! `(hops, duration)` multisets, split into random tiles, recorded through
//! one reused [`RateCounter`] and merged in random order, must equal a
//! reference that reduces every trip by its own `gcd` — in total, distinct
//! rates, sorted rates, saturated fraction and the bits of the mean.
//!
//! The draws straddle the counter's dense-front bounds (hops 15/16,
//! durations 1023/1024), reach `duration == u32::MAX`, include
//! `hops == duration`, and scale small rates by common factors so that
//! dense and sparse keys fold into one reduced rate. One family of draws
//! sits just below 1/2 with durations near `u32::MAX`: distinct reduced
//! rates there round to the same `f64`, so the exact rational order and the
//! float merge of the scores are both exercised. The scores a sweep records
//! (read off the histogram's stored order) must equal, bit for bit, the
//! scores of the distribution materialized from `sorted_rates`. A last
//! family checks the mean on both of its bucket paths: small hop counts,
//! and the same trips with hop counts lifted past 2^16.

use proptest::prelude::*;
use saturn_core::{histogram_scores, UniformityScores};
use saturn_distrib::WeightedDist;
use saturn_trips::{OccupancyHistogram, RateCounter};
use std::collections::BTreeMap;

fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One trip from drawn parts; `kind` picks the region of key space.
fn trip(kind: u32, a: u32, b: u32) -> (u32, u32) {
    match kind {
        // every hop count around the front's row bound, durations around
        // its column bound
        0 => {
            let hops = 1 + a % 17;
            (hops, (1_015 + b % 20).max(hops))
        }
        // rows 14..=17 with short durations, often `hops == duration`
        1 => {
            let hops = 14 + a % 4;
            (hops, hops + b % 6)
        }
        // saturated trips of any length
        2 => {
            let hops = 1 + a % 3_000;
            (hops, hops)
        }
        // anything, up to `u32::MAX`
        3 => {
            let duration = b.max(1);
            (1 + a % duration, duration)
        }
        // the longest duration, with small, boundary and extreme hop counts
        4 => ([1, 3, 15, 16, 255, u32::MAX - 1, u32::MAX][a as usize % 7], u32::MAX),
        // `(m - j)/(2m + 1 - 2j)` for `m = 2^31 - 1`: rates `1/2 - ε` whose
        // gaps (~2^-65) are far below an `f64` step near 1/2 (2^-54), so
        // distinct rationals collide in `f64`
        5 => {
            let j = a % 64 + (b % 3) * (1 << 20);
            (i32::MAX as u32 - j, u32::MAX - 2 * j)
        }
        // a small rate scaled by a common factor: the same reduced key
        // reached from dense and sparse unreduced keys
        _ => {
            let (h0, d0) = (1 + a % 3, 1 + a % 3 + b % 5);
            let factor = 1 + (a >> 8) % 700;
            (h0 * factor, d0 * factor)
        }
    }
}

fn arb_trips() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..7, any::<u32>(), any::<u32>()), 1..160)
        .prop_map(|parts| parts.into_iter().map(|(kind, a, b)| trip(kind, a, b)).collect())
}

/// The reference: a gcd per trip into an ordered map.
struct Reference {
    counts: BTreeMap<(u32, u32), u64>,
    total: u64,
}

impl Reference {
    fn of(trips: &[(u32, u32)]) -> Self {
        let mut counts = BTreeMap::new();
        for &(hops, duration) in trips {
            let g = gcd(hops, duration);
            *counts.entry((hops / g, duration / g)).or_insert(0) += 1;
        }
        Reference { counts, total: trips.len() as u64 }
    }

    fn sorted_rates(&self) -> Vec<(f64, u64)> {
        let mut entries: Vec<((u32, u32), u64)> =
            self.counts.iter().map(|(&key, &c)| (key, c)).collect();
        entries.sort_by(|&((h1, d1), _), &((h2, d2), _)| {
            (u64::from(h1) * u64::from(d2)).cmp(&(u64::from(h2) * u64::from(d1)))
        });
        entries.into_iter().map(|((h, d), c)| (h as f64 / d as f64, c)).collect()
    }

    /// Sums in ascending key order, as the histogram always has.
    fn mean(&self) -> f64 {
        let s: f64 =
            self.counts.iter().map(|(&(h, d), &c)| c as f64 * h as f64 / d as f64).sum();
        s / self.total as f64
    }

    fn fraction_at_one(&self) -> f64 {
        self.counts.get(&(1, 1)).copied().unwrap_or(0) as f64 / self.total as f64
    }
}

/// Asserts that the scores a sweep records for `h` equal those of the
/// distribution materialized from its sorted rates, field by field, bits
/// included.
fn assert_scores_match_the_materialized_distribution(h: &OccupancyHistogram) {
    let swept = histogram_scores(h);
    let dist = UniformityScores::of(&WeightedDist::from_pairs(h.sorted_rates()));
    let fields = |s: &UniformityScores| {
        let mut bits = vec![s.mk_proximity, s.std_dev, s.variation_coefficient, s.cre];
        bits.extend(s.shannon.iter().map(|&(_, h)| h));
        bits.into_iter().map(f64::to_bits).collect::<Vec<_>>()
    };
    assert_eq!(fields(&swept), fields(&dist));
    assert_eq!(swept.shannon.len(), dist.shannon.len());
}

/// Two reduced rates just below 1/2 that round to the same `f64` stay
/// apart, in exact order, and score as the merged `f64` value does.
#[test]
fn rates_that_collide_in_f64_stay_distinct_and_ordered() {
    let (hi, lo) = ((2_147_483_647, 4_294_967_295), (2_147_483_646, 4_294_967_293));
    assert_eq!(gcd(hi.0, hi.1), 1);
    assert_eq!(gcd(lo.0, lo.1), 1);
    let rate = |(h, d): (u32, u32)| h as f64 / d as f64;
    assert_eq!(rate(hi), rate(lo));
    // `lo < hi` exactly: 2147483646 · 4294967295 < 2147483647 · 4294967293
    assert!(u64::from(lo.0) * u64::from(hi.1) < u64::from(hi.0) * u64::from(lo.1));
    let mut counter = RateCounter::new();
    for _ in 0..3 {
        counter.record(hi.0, hi.1);
    }
    counter.record(lo.0, lo.1);
    counter.record(1, 2);
    let h = counter.finish();
    assert_eq!(h.distinct_rates(), 3);
    assert_eq!(h.sorted_rates(), vec![(rate(lo), 1), (rate(hi), 3), (0.5, 1)]);
    assert_eq!(WeightedDist::from_pairs(h.sorted_rates()).support_size(), 2);
    assert_scores_match_the_materialized_distribution(&h);
}

/// A deterministic permutation of `0..len` from `seed` (Fisher–Yates over
/// a splitmix64 stream).
fn permutation(len: usize, mut seed: u64) -> Vec<usize> {
    let mut next = || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn tiled_counts_merge_to_the_per_trip_reference(
        trips in arb_trips(),
        cuts in proptest::collection::vec(any::<u32>(), 0..8),
        order_seed in any::<u64>(),
        owned_mask in any::<u32>(),
    ) {
        // random tile boundaries (empty tiles included)
        let mut bounds: Vec<usize> =
            cuts.iter().map(|&c| c as usize % (trips.len() + 1)).collect();
        bounds.extend([0, trips.len()]);
        bounds.sort_unstable();
        let mut counter = RateCounter::new();
        let tiles: Vec<OccupancyHistogram> = bounds
            .windows(2)
            .map(|w| {
                for &(hops, duration) in &trips[w[0]..w[1]] {
                    counter.record(hops, duration);
                }
                counter.finish()
            })
            .collect();
        let mut merged = OccupancyHistogram::new();
        for (i, t) in permutation(tiles.len(), order_seed).into_iter().enumerate() {
            if owned_mask >> (i % 32) & 1 == 1 {
                merged.merge_owned(tiles[t].clone());
            } else {
                merged.merge(&tiles[t]);
            }
        }

        let reference = Reference::of(&trips);
        prop_assert_eq!(merged.total_trips(), reference.total);
        prop_assert_eq!(merged.distinct_rates(), reference.counts.len());
        prop_assert_eq!(merged.sorted_rates(), reference.sorted_rates());
        let at_one = reference.fraction_at_one().to_bits();
        prop_assert_eq!(merged.fraction_at_one().to_bits(), at_one);
        prop_assert_eq!(merged.mean().to_bits(), reference.mean().to_bits());
        assert_scores_match_the_materialized_distribution(&merged);

        // the reused counter was left empty, and sealing everything at
        // once gives the same histogram as any tiling
        prop_assert!(counter.finish().is_empty());
        for &(hops, duration) in &trips {
            counter.record(hops, duration);
        }
        prop_assert_eq!(counter.finish(), merged);
    }

    /// What a sweep relies on to merge a scale's tiles as workers finish
    /// them: the trips dealt at random into 1–8 parts, each sealed by its
    /// own counter, merge in any order (by `merge` or `merge_owned`) into
    /// the histogram one counter seals from all the trips.
    #[test]
    fn tile_histograms_merge_the_same_in_any_order(
        trips in arb_trips(),
        parts in 1usize..=8,
        deal in proptest::collection::vec(0usize..8, 160..161),
        order_seed in any::<u64>(),
        owned_mask in any::<u32>(),
    ) {
        let mut counters: Vec<RateCounter> = (0..parts).map(|_| RateCounter::new()).collect();
        for (&(hops, duration), &part) in trips.iter().zip(&deal) {
            counters[part % parts].record(hops, duration);
        }
        let sealed: Vec<OccupancyHistogram> = counters.iter_mut().map(|c| c.finish()).collect();
        let mut merged = OccupancyHistogram::new();
        for (i, p) in permutation(parts, order_seed).into_iter().enumerate() {
            if owned_mask >> i & 1 == 1 {
                merged.merge_owned(sealed[p].clone());
            } else {
                merged.merge(&sealed[p]);
            }
        }

        let mut one = RateCounter::new();
        for &(hops, duration) in &trips {
            one.record(hops, duration);
        }
        let whole = one.finish();
        prop_assert_eq!(merged.sorted_rates(), whole.sorted_rates());
        prop_assert_eq!(merged.mean().to_bits(), whole.mean().to_bits());
        prop_assert_eq!(merged, whole);
    }

    /// `mean` finds its hop buckets by direct index while hop counts are
    /// small and by binary search once they reach 2^16: the same trips
    /// with every hop count lifted past 2^16 take the second path, and both
    /// must sum in key order, to the bit.
    #[test]
    fn mean_sums_in_key_order_on_both_bucket_paths(
        parts in proptest::collection::vec((1u32..48, 0u32..2_000, 1usize..4), 1..160),
    ) {
        for lift in [0, 1 << 16] {
            let trips: Vec<(u32, u32)> = parts
                .iter()
                .flat_map(|&(h, extra, n)| std::iter::repeat_n((h + lift, h + lift + extra), n))
                .collect();
            let mut counter = RateCounter::new();
            for &(hops, duration) in &trips {
                counter.record(hops, duration);
            }
            let h = counter.finish();
            prop_assert_eq!(h.mean().to_bits(), Reference::of(&trips).mean().to_bits());
        }
    }
}
