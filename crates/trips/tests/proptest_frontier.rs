//! Property-based validation of the frontier-pruned, arena-reused engine:
//! on random small streams it must agree with (a) the retained baseline
//! engine (full-row snapshots, fresh tables, no watermarks, no degree-1
//! bypass) and (b) the brute-force earliest-arrival reference — on trips,
//! hops, and distance sums alike.

use proptest::prelude::*;
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};
use saturn_trips::dp::{baseline, NullSink};
use saturn_trips::reference::earliest_arrival_bruteforce;
use saturn_trips::{
    earliest_arrival_dp, earliest_arrival_dp_in, DpOptions, DpRun, EngineArena, TargetSet,
    Timeline, TripSink,
};

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
    /// timeline kinds matches the baseline every run — the epoch stamping
    /// never leaks state between scales. Stale watermarks, row marks and
    /// dirty bitmaps from a previous run (whose pair ids mean different
    /// edges) must stay dead.
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
