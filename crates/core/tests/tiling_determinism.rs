//! Tiling, the engine's delta propagation and session refreshes must be
//! invisible: an [`OccupancyMethod`] run split into target tiles of any
//! width, on any thread count, refreshed through a session cache or swept
//! from scratch, must serialize to the *same bytes* as the untiled
//! single-threaded run — the property that keeps the analysis service's
//! content-addressed cache correct while the executor re-tiles work per
//! hardware. Tile widths 1, 3, `ncols`, and a proptest-chosen random width
//! are exercised across 1/2/4/8 threads, with refinement rounds on (the
//! narrow rounds are where auto-tiling matters most), on geometric grids
//! and on explicit divisor ladders. Every swept scale must match a
//! timeline built per scale and run through [`baseline`], the oracle
//! engine without delta watermarks or the degree-1 bypass.

use proptest::prelude::*;
use saturn_core::parallel::WorkerPool;
use saturn_core::{
    KeepPolicy, OccupancyMethod, SweepCache, SweepControl, SweepGrid, TargetSpec,
};
use saturn_distrib::{mk_proximity, WeightedDist};
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};
use saturn_trips::dp::baseline;
use saturn_trips::{DpOptions, OccupancyHistogram, RateCounter, TargetSet, Timeline};

/// A small random-ish stream driven by proptest-chosen parameters.
fn build_stream(n: u32, events: usize, gap: i64, twist: u32) -> LinkStream {
    let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, n);
    for i in 0..events {
        let u = (i as u32).wrapping_mul(twist | 1) % n;
        let v = (u + 1 + (i as u32 % (n - 1))) % n;
        if u != v {
            b.add_indexed(u, v, i as i64 * gap + (i as i64 % 5));
        }
    }
    b.build().expect("non-empty stream")
}

fn method(threads: usize, tile: usize) -> OccupancyMethod {
    OccupancyMethod::new()
        .grid(SweepGrid::Geometric { points: 8 })
        .threads(threads)
        .refine(1, 4)
        .keep(KeepPolicy::ScoresOnly)
        .tile(tile)
}

/// The per-scale figures of `report` that a histogram determines: `K`,
/// trips, distinct rates, and the bits of the mean, the saturated fraction
/// and the M-K proximity.
fn scales_of(report: &saturn_core::OccupancyReport) -> Vec<(u64, u64, usize, u64, u64, u64)> {
    report
        .results()
        .iter()
        .map(|r| {
            let mk = r.scores.mk_proximity.to_bits();
            (
                r.k,
                r.trips,
                r.distinct_rates,
                r.mean_rate.to_bits(),
                r.fraction_at_one.to_bits(),
                mk,
            )
        })
        .collect()
}

/// [`scales_of`] recomputed below the driver: each scale's timeline built
/// from scratch and run through [`baseline`] into one reused
/// [`RateCounter`], sealed into an [`OccupancyHistogram`] per scale.
fn baseline_scales(stream: &LinkStream, ks: &[u64]) -> Vec<(u64, u64, usize, u64, u64, u64)> {
    let targets = TargetSet::all(stream.node_count() as u32);
    let mut counter = RateCounter::new();
    ks.iter()
        .map(|&k| {
            let timeline = Timeline::aggregated(stream, k);
            baseline::earliest_arrival_dp(
                &timeline,
                &targets,
                &mut counter,
                DpOptions::default(),
            );
            let h: OccupancyHistogram = counter.finish();
            let mk = mk_proximity(&WeightedDist::from_pairs(h.sorted_rates())).to_bits();
            let (mean, at_one) = (h.mean().to_bits(), h.fraction_at_one().to_bits());
            (k, h.total_trips(), h.distinct_rates(), mean, at_one, mk)
        })
        .collect()
}

/// Asserts that every scale of `report` matches the [`baseline`] engine on
/// a scratch-built timeline.
fn assert_engine_agrees(stream: &LinkStream, report: &saturn_core::OccupancyReport) {
    let swept = scales_of(report);
    let ks: Vec<u64> = swept.iter().map(|s| s.0).collect();
    assert_eq!(baseline_scales(stream, &ks), swept);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance matrix: tile ∈ {1, 3, ncols, random} × threads ∈
    /// {1, 2, 4, 8}, every cell byte-identical to the untiled
    /// single-threaded reference, whose scales match the baseline engine
    /// (no delta watermarks).
    #[test]
    fn reports_are_bit_identical_across_threads_tiles_and_delta(
        n in 5u32..10,
        events in 40usize..90,
        gap in 3i64..9,
        twist in 1u32..64,
        random_tile in 1usize..16,
    ) {
        let stream = build_stream(n, events, gap, twist);
        let ncols = n as usize;
        let reference = method(1, ncols).run(&stream);
        assert_engine_agrees(&stream, &reference);
        let reference = reference.to_json();
        for &tile in &[1usize, 3, ncols, random_tile] {
            for &threads in &[1usize, 2, 4, 8] {
                let report = method(threads, tile).run(&stream).to_json();
                prop_assert_eq!(
                    &report,
                    &reference,
                    "tile={} threads={} diverged",
                    tile,
                    threads
                );
            }
        }
    }

    /// Same property under sampled destinations (tile ranges then cover a
    /// strict subset of nodes, exercising the col_start offset mapping).
    #[test]
    fn sampled_targets_tile_identically(
        n in 6u32..12,
        events in 40usize..80,
        sample in 2u32..5,
        tile in 1usize..6,
    ) {
        let stream = build_stream(n, events, 5, 7);
        let mk = |threads: usize, t: usize| {
            OccupancyMethod::new()
                .grid(SweepGrid::Geometric { points: 6 })
                .targets(TargetSpec::Sample { size: sample, seed: 3 })
                .threads(threads)
                .refine(1, 3)
                .tile(t)
                .run(&stream)
                .to_json()
        };
        let reference = mk(1, usize::MAX);
        prop_assert_eq!(mk(4, tile), reference.clone());
        prop_assert_eq!(mk(2, 1), reference.clone());
        prop_assert_eq!(mk(2, tile), reference);
    }

    /// The cancellation axis of the knob matrix: running under a
    /// [`SweepControl`] whose token never fires must serialize to the same
    /// bytes as the plain no-token run, across thread counts and tile
    /// widths — cancellation plumbing is an execution knob like tiling and
    /// must never reach report bytes or cache fingerprints.
    #[test]
    fn unfired_cancel_token_is_byte_identical(
        n in 5u32..10,
        events in 40usize..90,
        gap in 3i64..9,
        twist in 1u32..64,
        tile in 1usize..8,
    ) {
        let stream = build_stream(n, events, gap, twist);
        let reference = method(1, n as usize).run(&stream).to_json();
        for &threads in &[1usize, 4] {
            let ctl = SweepControl::new();
            let mut pool = WorkerPool::new(threads);
            let report = method(threads, tile)
                .try_run_on(&stream, &mut pool, &ctl)
                .expect("token never fires")
                .to_json();
            prop_assert_eq!(
                &report,
                &reference,
                "threads={} tile={}: an unfired token changed the report",
                threads,
                tile
            );
            let (done, total) = ctl.progress.snapshot();
            prop_assert_eq!(done, total);
        }
    }

    /// The session path: one [`SweepCache`] fed a base stream and then 1–3
    /// append batches, each refreshed with the batch's earliest timestamp
    /// as the dirty mark, must serialize every refresh to the bytes of a
    /// scratch [`OccupancyMethod::try_run_on`] over the same events — on
    /// threads {1, 2} × tile {auto, 3} — and account every scale as
    /// exactly one of reused / respliced / scratch.
    #[test]
    fn refresh_through_one_cache_matches_scratch_across_appends(
        directed in any::<bool>(),
        n in 4u32..9,
        raw in proptest::collection::vec((0u32..64, 0u32..64, 0i64..PERIOD), 24..70),
        cuts in proptest::collection::vec(1usize..24, 1..4),
    ) {
        // `v = u + 1 + d (mod n)` with `d < n - 1` keeps every link a
        // non-loop; batches arrive in arbitrary time order, as sessions
        // accept them
        let events: Vec<(u32, u32, i64)> = raw
            .into_iter()
            .map(|(a, d, t)| (a % n, (a % n + 1 + d % (n - 1)) % n, t))
            .collect();
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(events.len() - 1)).collect();
        bounds.push(events.len());
        bounds.sort_unstable();
        bounds.dedup();
        for &threads in &[1usize, 2] {
            for &tile in &[0usize, 3] {
                let method = OccupancyMethod::new()
                    .grid(SweepGrid::Geometric { points: 8 })
                    .refine(1, 3)
                    .tile(tile);
                let mut pool = WorkerPool::new(threads);
                let mut cache = SweepCache::new();
                let mut dirty_from = None;
                let mut prev = 0;
                for &end in &bounds {
                    let stream = prefix_stream(directed, n, &events[..end]);
                    let refreshed = method
                        .try_refresh_on(&stream, &mut pool, &SweepControl::new(), &mut cache, dirty_from)
                        .expect("token never fires")
                        .to_json();
                    let scratch = method
                        .try_run_on(&stream, &mut pool, &SweepControl::new())
                        .expect("token never fires")
                        .to_json();
                    prop_assert_eq!(
                        &refreshed,
                        &scratch,
                        "threads={} tile={} events={}..{}",
                        threads,
                        tile,
                        prev,
                        end
                    );
                    let stats = cache.stats;
                    prop_assert_eq!(
                        stats.scales_reused + stats.scales_respliced + stats.scales_scratch,
                        stats.scales_total,
                        "{:?}",
                        stats
                    );
                    // the next batch's dirty mark: its earliest timestamp
                    prev = end;
                    dirty_from = bounds
                        .iter()
                        .find(|&&b| b > end)
                        .map(|&next| events[end..next].iter().map(|e| e.2).min().unwrap());
                }
            }
        }
    }

    /// A random divisor ladder, where every scale's window count divides
    /// the finer ones: byte-identical across threads × tiles, and every
    /// scale matches its own timeline through the baseline engine.
    #[test]
    fn reports_are_byte_identical_on_divisor_ladders(
        n in 5u32..10,
        events in 40usize..90,
        gap in 3i64..9,
        twist in 1u32..64,
        base in 1u64..5,
        tile in 1usize..8,
    ) {
        let stream = build_stream(n, events, gap, twist);
        let ladder: Vec<u64> =
            [base * 240, base * 120, base * 24, base * 8, base * 2, base]
                .into();
        let mk = |threads: usize, t: usize| {
            OccupancyMethod::new()
                .grid(SweepGrid::ExplicitK(ladder.clone()))
                .threads(threads)
                .refine(1, 3)
                .tile(t)
                .run(&stream)
        };
        let reference = mk(1, usize::MAX);
        assert_engine_agrees(&stream, &reference);
        let reference = reference.to_json();
        for &threads in &[1usize, 4] {
            prop_assert_eq!(
                mk(threads, tile).to_json(),
                reference.clone(),
                "threads={} tile={} diverged",
                threads,
                tile
            );
        }
    }
}

/// Study period of the append-session streams.
const PERIOD: i64 = 400;

/// The pinned-period stream of `events[..len]`.
fn prefix_stream(directed: bool, n: u32, events: &[(u32, u32, i64)]) -> LinkStream {
    let directedness = if directed { Directedness::Directed } else { Directedness::Undirected };
    let mut b = LinkStreamBuilder::indexed(directedness, n);
    b.period(0, PERIOD);
    for &(u, v, t) in events {
        b.add_indexed(u, v, t);
    }
    b.build().expect("non-empty stream")
}

/// The auto tile width (tile = 0) must also be invisible, including on
/// pools wider than the scale count — the configuration the feature exists
/// for.
#[test]
fn auto_tiling_is_bit_identical_on_wide_pools() {
    let stream = build_stream(20, 160, 4, 11);
    let reference = OccupancyMethod::new()
        .grid(SweepGrid::ExplicitK(vec![1, 17, 170]))
        .threads(1)
        .refine(0, 0)
        .tile(usize::MAX)
        .run(&stream)
        .to_json();
    for threads in [2usize, 8] {
        let auto = OccupancyMethod::new()
            .grid(SweepGrid::ExplicitK(vec![1, 17, 170]))
            .threads(threads)
            .refine(0, 0)
            .tile(0)
            .run(&stream)
            .to_json();
        assert_eq!(auto, reference, "threads={threads}");
    }
}
