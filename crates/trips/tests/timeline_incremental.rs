//! Differential validation of incremental (adjacent-window merge) timeline
//! construction: on random streams and random divisor scale chains, a
//! timeline derived by `Timeline::aggregated_by_merge` must equal the
//! scratch-built timeline **field for field** — step indices, CSR offsets,
//! edge arrays, pair ids, distinct-pair count — and the DP engine must
//! produce identical trips, stats, and distance sums from either (with
//! delta propagation on and off, the machinery `proptest_frontier.rs`
//! exercises), so sweep reports match with incremental on or off.

use proptest::prelude::*;
use saturn_linkstream::{Directedness, LinkStreamBuilder};
use saturn_trips::{
    earliest_arrival_dp, occupancy_histogram_in, DpOptions, EngineArena, EventView, TargetSet,
    Timeline, TripSink,
};

#[derive(Default)]
struct Collect(Vec<(u32, u32, u32, u32, u32)>);

impl TripSink for Collect {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
        self.0.push((u, v, dep, arr, hops));
    }
}

/// A random stream over <= 7 nodes and <= 18 events in [0, 60].
fn arb_stream(directed: bool) -> impl Strategy<Value = saturn_linkstream::LinkStream> {
    let d = if directed { Directedness::Directed } else { Directedness::Undirected };
    proptest::collection::vec((0u32..7, 0u32..7, 0i64..61), 1..18).prop_filter_map(
        "needs at least one non-loop event",
        move |events| {
            let mut b = LinkStreamBuilder::indexed(d, 7);
            for (u, v, t) in events {
                if u != v {
                    b.add_indexed(u, v, t);
                }
            }
            if b.is_empty() {
                return None;
            }
            Some(b.build().expect("non-empty"))
        },
    )
}

/// Field-for-field equality of two timelines (panics with context, which
/// the proptest harness reports with the failing case's inputs).
fn assert_timelines_identical(a: &Timeline, b: &Timeline, what: &str) {
    assert_eq!(a.num_steps(), b.num_steps(), "{what}: num_steps");
    assert_eq!(a.nonempty_steps(), b.nonempty_steps(), "{what}: nonempty_steps");
    assert_eq!(a.distinct_pairs(), b.distinct_pairs(), "{what}: distinct_pairs");
    assert_eq!(a.total_edges(), b.total_edges(), "{what}: total_edges");
    assert_eq!(a.is_exact(), b.is_exact(), "{what}: is_exact");
    for i in 0..a.nonempty_steps() {
        let (x, y) = (a.step(i), b.step(i));
        assert_eq!(x.index, y.index, "{what}: step {i} index");
        assert_eq!(x.src, y.src, "{what}: step {i} src");
        assert_eq!(x.dst, y.dst, "{what}: step {i} dst");
        assert_eq!(x.pair, y.pair, "{what}: step {i} pair ids");
    }
    assert_eq!(a.checksum(), b.checksum(), "{what}: checksum");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Random stream × random divisor chain `k_fine = k_c·f2·f1 → k_mid =
    /// k_c·f2 → k_c`: every merge hop (including the composed fine→coarse
    /// hop and merge-of-merge chaining) equals the scratch build field for
    /// field.
    #[test]
    fn merged_timeline_equals_scratch_field_for_field(
        stream in arb_stream(false),
        k_c in 1u64..8,
        f1 in 1u64..7,
        f2 in 1u64..7,
    ) {
        let (k_c, f1, f2) =
            if stream.span() == 0 { (1, 1, 1) } else { (k_c, f1, f2) };
        let (k_mid, k_fine) = (k_c * f2, k_c * f2 * f1);
        let view = EventView::new(&stream);
        let fine = Timeline::aggregated_from_view(&view, k_fine);
        prop_assert!(fine.merge_compatible(k_mid));
        prop_assert!(fine.merge_compatible(k_c));

        let mid = fine.aggregated_by_merge(k_mid);
        assert_timelines_identical(
            &mid,
            &Timeline::aggregated_from_view(&view, k_mid),
            "fine -> mid",
        );
        // direct wide-ratio merge and chained merge-of-merge agree with
        // scratch (and hence with each other)
        let coarse_direct = fine.aggregated_by_merge(k_c);
        let coarse_chained = mid.aggregated_by_merge(k_c);
        let scratch = Timeline::aggregated_from_view(&view, k_c);
        assert_timelines_identical(&coarse_direct, &scratch, "fine -> coarse direct");
        assert_timelines_identical(&coarse_chained, &scratch, "fine -> mid -> coarse");
    }

    /// Directed streams keep edge orientation through merges.
    #[test]
    fn merged_timeline_matches_scratch_directed(
        stream in arb_stream(true),
        k_c in 1u64..10,
        ratio in 1u64..9,
    ) {
        let (k_c, ratio) = if stream.span() == 0 { (1, 1) } else { (k_c, ratio) };
        let view = EventView::new(&stream);
        let fine = Timeline::aggregated_from_view(&view, k_c * ratio);
        assert_timelines_identical(
            &fine.aggregated_by_merge(k_c),
            &Timeline::aggregated_from_view(&view, k_c),
            "directed merge",
        );
    }

    /// The DP level: the engine fed a merged timeline reports the same
    /// trip stream, stats, and distance sums as when fed the scratch
    /// timeline (the merged timeline's pair ids drive the delta watermarks,
    /// so this is the contract that keeps sweep reports identical whichever
    /// way a timeline was built).
    #[test]
    fn dp_results_match_on_merged_and_scratch_timelines(
        stream in arb_stream(false),
        k_c in 1u64..12,
        ratio in 2u64..8,
    ) {
        let (k_c, ratio) = if stream.span() == 0 { (1, 1) } else { (k_c, ratio) };
        let view = EventView::new(&stream);
        let merged =
            Timeline::aggregated_from_view(&view, k_c * ratio).aggregated_by_merge(k_c);
        let scratch = Timeline::aggregated_from_view(&view, k_c);
        let targets = TargetSet::all(7);
        let options = DpOptions { collect_distances: true };
        let mut from_merged = Collect::default();
        let ms = earliest_arrival_dp(&merged, &targets, &mut from_merged, options);
        let mut from_scratch = Collect::default();
        let ss = earliest_arrival_dp(&scratch, &targets, &mut from_scratch, options);
        prop_assert_eq!(&from_merged.0, &from_scratch.0);
        prop_assert_eq!(ms.trips, ss.trips);
        prop_assert_eq!(ms.traversals, ss.traversals);
        prop_assert_eq!(ms.chain_offers, ss.chain_offers);
        prop_assert_eq!(ms.snap_entries, ss.snap_entries);
        let (md, sd) = (ms.distances.unwrap(), ss.distances.unwrap());
        prop_assert_eq!(md.sum_dtime_steps, sd.sum_dtime_steps);
        prop_assert_eq!(md.sum_dhops, sd.sum_dhops);
        prop_assert_eq!(md.finite_triples, sd.finite_triples);
        // occupancy histograms (what sweep reports are built from) match too
        let mut arena = EngineArena::new();
        let hm = occupancy_histogram_in(&mut arena, &merged, &targets);
        let hs = occupancy_histogram_in(&mut arena, &scratch, &targets);
        prop_assert_eq!(hm.total_trips(), hs.total_trips());
        prop_assert_eq!(hm.distinct_rates(), hs.distinct_rates());
        prop_assert_eq!(hm.sorted_rates(), hs.sorted_rates());
    }
}
