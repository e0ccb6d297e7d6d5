//! `Timeline::aggregated_by_merge`, kept while perfbench's traced replay
//! calls it: on random streams and random divisor scale chains, a merged
//! timeline must equal the one built from the event view **field for
//! field** — step indices, CSR offsets, edge arrays, pair ids,
//! distinct-pair count. The sweep itself builds every scale from the view.

use proptest::prelude::*;
use saturn_linkstream::{Directedness, LinkStreamBuilder};
use saturn_trips::{EventView, Timeline};

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
    assert_eq!(a, b, "{what}: PartialEq");
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
}
