//! Property-based validation of the frontier-pruned, arena-reused engine:
//! on random small streams it must agree with (a) the retained baseline
//! engine (full-row snapshots, fresh tables, no watermarks, no degree-1
//! bypass) and (b) the brute-force earliest-arrival reference — on trips,
//! hops, and distance sums alike. The wide cases (65 to 200 nodes) check
//! rows spanning several 64-column words, on both merge paths.

use proptest::prelude::*;
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};
use saturn_trips::dp::{baseline, DistanceSums, NullSink};
use saturn_trips::reference::earliest_arrival_bruteforce;
use saturn_trips::{
    earliest_arrival_dp, earliest_arrival_dp_in, DpOptions, DpRun, EngineArena, TargetSet,
    Timeline, TripSink,
};
use std::collections::BTreeSet;

#[derive(Default)]
struct Collect(Vec<(u32, u32, u32, u32, u32)>);

impl TripSink for Collect {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
        self.0.push((u, v, dep, arr, hops));
    }
}

/// The stream of `events` over 6 nodes, self-loops dropped; `None` when no
/// event survives.
fn build_stream(directed: bool, events: Vec<(u32, u32, i64)>) -> Option<LinkStream> {
    let d = if directed { Directedness::Directed } else { Directedness::Undirected };
    let mut b = LinkStreamBuilder::indexed(d, 6);
    for (u, v, t) in events {
        if u != v {
            b.add_indexed(u, v, t);
        }
    }
    if b.is_empty() {
        return None;
    }
    Some(b.build().expect("non-empty"))
}

/// Up to 13 random events over 6 nodes in [0, 40].
fn arb_events() -> impl Strategy<Value = Vec<(u32, u32, i64)>> {
    proptest::collection::vec((0u32..6, 0u32..6, 0i64..41), 1..14)
}

/// A random stream over <= 6 nodes and <= 13 events in [0, 40].
fn arb_stream(directed: bool) -> impl Strategy<Value = LinkStream> {
    arb_events().prop_filter_map("needs at least one non-loop event", move |e| {
        build_stream(directed, e)
    })
}

/// [`arb_stream`] with a random directedness.
fn arb_any_stream() -> impl Strategy<Value = LinkStream> {
    (any::<bool>(), arb_events())
        .prop_filter_map("needs at least one non-loop event", |(d, e)| build_stream(d, e))
}

/// The exact timeline, or the `k`-window aggregation (`k` forced to 1 on a
/// zero-span stream).
fn timeline_of(stream: &LinkStream, exact: bool, k: u64) -> Timeline {
    if exact {
        Timeline::exact(stream)
    } else {
        Timeline::aggregated(stream, if stream.span() == 0 { 1 } else { k })
    }
}

/// The frontier engine, run on `arena`, and [`baseline`] must report the
/// same trip stream (order included), trip and traversal counts, and
/// distance sums.
fn assert_matches_baseline(arena: &mut EngineArena, timeline: &Timeline, targets: &TargetSet) {
    let options = DpOptions { collect_distances: true };
    let mut fast = Collect::default();
    let fs = earliest_arrival_dp_in(arena, timeline, targets, &mut fast, options);
    let mut slow = Collect::default();
    let bs = baseline::earliest_arrival_dp(timeline, targets, &mut slow, options);
    prop_assert_eq!(fast.0, slow.0);
    prop_assert_eq!(fs.trips, bs.trips);
    prop_assert_eq!(fs.traversals, bs.traversals);
    let (fd, bd) = (fs.distances.unwrap(), bs.distances.unwrap());
    prop_assert_eq!(fd.sum_dtime_steps, bd.sum_dtime_steps);
    prop_assert_eq!(fd.sum_dhops, bd.sum_dhops);
    prop_assert_eq!(fd.finite_triples, bd.finite_triples);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Frontier engine == baseline engine on aggregated undirected
    /// timelines.
    #[test]
    fn frontier_equals_baseline_undirected(stream in arb_stream(false), k in 1u64..24) {
        let timeline = timeline_of(&stream, false, k);
        assert_matches_baseline(&mut EngineArena::new(), &timeline, &TargetSet::all(6));
    }

    /// Same equivalence for directed streams on the exact timeline.
    #[test]
    fn frontier_equals_baseline_directed_exact(stream in arb_stream(true)) {
        let timeline = timeline_of(&stream, true, 1);
        assert_matches_baseline(&mut EngineArena::new(), &timeline, &TargetSet::all(6));
    }

    /// The full input matrix — {directed, undirected} streams × {exact,
    /// aggregated} timelines — against the baseline. The baseline has
    /// neither the degree-1 bypass nor delta watermarks, so every
    /// combination of single-edge and multi-edge steps, and of fresh and
    /// repeat firings of an edge, is checked against an implementation
    /// without either mechanism.
    #[test]
    fn frontier_equals_baseline_on_every_timeline_kind(
        stream in arb_any_stream(),
        exact in any::<bool>(),
        k in 1u64..24,
    ) {
        let timeline = timeline_of(&stream, exact, k);
        assert_matches_baseline(&mut EngineArena::new(), &timeline, &TargetSet::all(6));
    }

    /// Frontier engine == naive earliest-arrival reference: earliest
    /// arrivals, minimum hops, and the three distance sums all match the
    /// per-departure-step brute-force function.
    #[test]
    fn frontier_matches_naive_reference(stream in arb_stream(false), k in 1u64..20) {
        let timeline = timeline_of(&stream, false, k);
        let ea = earliest_arrival_bruteforce(&timeline, 3_000_000);

        // reference distance sums from the sampled EA functions
        let mut ref_dtime: i128 = 0;
        let mut ref_dhops: i128 = 0;
        let mut ref_triples: i128 = 0;
        for per_step in ea.values() {
            for (t, entry) in per_step.iter().enumerate() {
                if let Some((arr, hops)) = entry {
                    ref_dtime += (*arr as i128) - (t as i128) + 1;
                    ref_dhops += *hops as i128;
                    ref_triples += 1;
                }
            }
        }

        let stats = earliest_arrival_dp(
            &timeline,
            &TargetSet::all(6),
            &mut NullSink,
            DpOptions { collect_distances: true },
        );
        let d = stats.distances.unwrap();
        prop_assert_eq!(d.sum_dtime_steps, ref_dtime);
        prop_assert_eq!(d.sum_dhops, ref_dhops);
        prop_assert_eq!(d.finite_triples, ref_triples);
    }

    /// One arena carried across runs over random streams, scales and
    /// timeline kinds matches the baseline every run — the frontier-walk
    /// reset never leaks state between scales. Stale keys, watermarks, row
    /// and word change marks and dirty bitmaps from a previous run (whose
    /// pair ids mean different edges) must stay dead.
    #[test]
    fn arena_epoch_reuse_never_leaks(
        stream in arb_stream(false),
        ks in proptest::collection::vec(1u64..24, 1..6),
    ) {
        let mut arena = EngineArena::new();
        for (i, &k) in ks.iter().enumerate() {
            let timeline = timeline_of(&stream, i % 3 == 2, k);
            assert_matches_baseline(&mut arena, &timeline, &TargetSet::all(6));
        }
    }

    /// Sampled target sets agree between the two engines as well (frontier
    /// bookkeeping is per-column and must respect the restriction), on
    /// exact and aggregated timelines.
    #[test]
    fn frontier_equals_baseline_with_sampled_targets(
        stream in arb_stream(true),
        k in 1u64..16,
        exact in any::<bool>(),
        targets in proptest::collection::btree_set(0u32..6, 1..4),
    ) {
        let timeline = timeline_of(&stream, exact, k);
        let nodes: Vec<u32> = targets.into_iter().collect();
        assert_matches_baseline(&mut EngineArena::new(), &timeline, &TargetSet::from_nodes(6, &nodes));
    }

    /// Target-tiled execution partitions the untiled run exactly: for any
    /// tile size, one arena carried across all tiles yields trips, trip
    /// counts, and distance sums that merge to the full run's.
    #[test]
    fn tiled_runs_merge_to_the_untiled_run(
        stream in arb_stream(false),
        k in 1u64..24,
        tile in 1usize..7,
    ) {
        let timeline = timeline_of(&stream, false, k);
        let targets = TargetSet::all(6);
        let options = DpOptions { collect_distances: true };

        let mut full_sink = Collect::default();
        let full = earliest_arrival_dp(&timeline, &targets, &mut full_sink, options);
        let mut full_trips = full_sink.0;
        full_trips.sort_unstable();

        let mut arena = EngineArena::new();
        let mut trips = Vec::new();
        let mut count = 0u64;
        let mut dtime = 0i128;
        let mut dhops = 0i128;
        let mut triples = 0i128;
        for (start, len) in targets.tile_ranges(tile) {
            let mut sink = Collect::default();
            let run = DpRun { tile: Some((start, len)), options, cancel: None };
            let stats = earliest_arrival_dp_in(&mut arena, &timeline, &targets, &mut sink, run);
            trips.extend(sink.0);
            count += stats.trips;
            let d = stats.distances.unwrap();
            dtime += d.sum_dtime_steps;
            dhops += d.sum_dhops;
            triples += d.finite_triples;
        }
        trips.sort_unstable();
        prop_assert_eq!(trips, full_trips);
        prop_assert_eq!(count, full.trips);
        let fd = full.distances.unwrap();
        prop_assert_eq!(dtime, fd.sum_dtime_steps);
        prop_assert_eq!(dhops, fd.sum_dhops);
        prop_assert_eq!(triples, fd.finite_triples);
    }
}

/// A wide stream over `n` nodes: a ring walked `laps` times, three ticks
/// per hop (sparse rows), plus dense bursts `(first, size, at)` in which
/// the `size` nodes from `first` on (mod `n`) are all-pairs active at tick
/// `at` per mille of the ring's span (rows with many live cells per word).
fn wide_stream(n: u32, directed: bool, laps: i64, bursts: &[(u32, u32, i64)]) -> LinkStream {
    let d = if directed { Directedness::Directed } else { Directedness::Undirected };
    let mut b = LinkStreamBuilder::indexed(d, n);
    let span = laps * i64::from(n) * 3;
    for t in 0..laps * i64::from(n) {
        let i = (t % i64::from(n)) as u32;
        b.add_indexed(i, (i + 1) % n, t * 3);
    }
    for &(first, size, at) in bursts {
        let clique: Vec<u32> = (0..size).map(|i| (first + i) % n).collect();
        for &u in &clique {
            for &v in &clique {
                if u != v && (directed || u < v) {
                    b.add_indexed(u, v, span * at / 1000);
                }
            }
        }
    }
    b.build().expect("the ring is never empty")
}

/// `nodes` below `n` as a target set; every node when none is.
fn targets_of(n: u32, nodes: &BTreeSet<u32>) -> TargetSet {
    let nodes: Vec<u32> = nodes.iter().copied().filter(|&v| v < n).collect();
    if nodes.is_empty() {
        TargetSet::all(n)
    } else {
        TargetSet::from_nodes(n, &nodes)
    }
}

/// A cover of `[0, ncols)` whose tiles run wide, narrow, wide, rest, with
/// bounds falling inside 64-column words.
fn word_splitting_cover(ncols: u32) -> Vec<(u32, u32)> {
    let mut cuts: Vec<u32> = [0, 60, 63, 130].into_iter().filter(|&c| c < ncols).collect();
    cuts.push(ncols);
    cuts.windows(2).map(|w| (w[0], w[1] - w[0])).collect()
}

/// Runs `timeline` untiled and then over [`word_splitting_cover`], all on
/// one `arena` (so its geometry goes wide, narrow, wide), with distances
/// collected or not, and checks every run against [`baseline`]: each
/// tile's trip sequence is the baseline's restricted to its columns, and
/// the tiles' distance sums add up to the baseline's. Returns the runs'
/// summed stats.
fn assert_wide_matches_baseline(
    arena: &mut EngineArena,
    timeline: &Timeline,
    targets: &TargetSet,
    collect_distances: bool,
) -> saturn_trips::DpStats {
    let options = DpOptions { collect_distances };
    let mut slow = Collect::default();
    let bs = baseline::earliest_arrival_dp(timeline, targets, &mut slow, options);
    let mut runs = vec![None];
    runs.extend(word_splitting_cover(targets.len() as u32).into_iter().map(Some));
    let mut total = saturn_trips::DpStats::default();
    for tiles in [&runs[..1], &runs[1..]] {
        let mut sums = DistanceSums::default();
        for &tile in tiles {
            let mut fast = Collect::default();
            let run = DpRun { tile, options, cancel: None };
            let fs = earliest_arrival_dp_in(arena, timeline, targets, &mut fast, run);
            let (start, len) = tile.unwrap_or((0, targets.len() as u32));
            let cols = start..start + len;
            let expected: Vec<_> = slow
                .0
                .iter()
                .copied()
                .filter(|t| targets.col_of(t.1).is_some_and(|c| cols.contains(&c)))
                .collect();
            assert_eq!(fs.trips, expected.len() as u64, "tile {tile:?}");
            assert_eq!(fast.0, expected, "tile {tile:?}");
            assert_eq!(fs.traversals, bs.traversals);
            assert_eq!(fs.distances.is_some(), collect_distances);
            if let Some(d) = fs.distances {
                sums.sum_dtime_steps += d.sum_dtime_steps;
                sums.sum_dhops += d.sum_dhops;
                sums.finite_triples += d.finite_triples;
            }
            total.block_words += fs.block_words;
            total.walked_words += fs.walked_words;
        }
        if let Some(bd) = bs.distances {
            assert_eq!(sums.sum_dtime_steps, bd.sum_dtime_steps);
            assert_eq!(sums.sum_dhops, bd.sum_dhops);
            assert_eq!(sums.finite_triples, bd.finite_triples);
        }
    }
    total
}

/// Random bursts: first node, clique size, tick per mille of the span.
fn arb_bursts() -> impl Strategy<Value = Vec<(u32, u32, i64)>> {
    proptest::collection::vec((0u32..200, 2u32..48, 0i64..1001), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rows of two to four words, on random rings and bursts, both
    /// directednesses, exact and aggregated timelines, sampled targets,
    /// tiles splitting words, distances on and off, one arena throughout.
    #[test]
    fn wide_rows_match_baseline(
        n in 65u32..201,
        directed in any::<bool>(),
        laps in 1i64..4,
        bursts in arb_bursts(),
        k in 0u64..40,
        sampled in any::<bool>(),
        nodes in proptest::collection::btree_set(0u32..200, 1..160),
    ) {
        let stream = wide_stream(n, directed, laps, &bursts);
        let timeline = timeline_of(&stream, k == 0, k.max(1));
        let targets = if sampled { targets_of(n, &nodes) } else { TargetSet::all(n) };
        let mut arena = EngineArena::new();
        for collect in [false, true] {
            assert_wide_matches_baseline(&mut arena, &timeline, &targets, collect);
        }
    }
}

/// On a fixed two-word stream whose bursts give rows dense words and whose
/// ring leaves them sparse ones, both merge paths run — with distances on
/// and off, directed and undirected — and match [`baseline`].
#[test]
fn wide_rows_take_both_merge_paths() {
    for directed in [false, true] {
        let stream =
            wide_stream(150, directed, 2, &[(0, 40, 300), (70, 30, 600), (10, 3, 900)]);
        for collect in [false, true] {
            let mut arena = EngineArena::new();
            let mut total = saturn_trips::DpStats::default();
            for k in [0u64, 7, 60] {
                let timeline = timeline_of(&stream, k == 0, k);
                let stats = assert_wide_matches_baseline(
                    &mut arena,
                    &timeline,
                    &TargetSet::all(150),
                    collect,
                );
                total.block_words += stats.block_words;
                total.walked_words += stats.walked_words;
            }
            assert!(total.block_words > 0, "block path never ran (directed={directed})");
            assert!(total.walked_words > 0, "bit walk never ran (directed={directed})");
        }
    }
}
