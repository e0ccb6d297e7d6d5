//! Property-based validation of aggregation and snapshot metrics.

use proptest::prelude::*;
use saturn_graphseries::{snapshot_means, GraphSeries};
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};

fn arb_stream() -> impl Strategy<Value = LinkStream> {
    proptest::collection::vec((0u32..10, 0u32..10, 0i64..500), 1..80).prop_filter_map(
        "non-empty",
        |events| {
            let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 10);
            for (u, v, t) in events {
                if u != v {
                    b.add_indexed(u, v, t);
                }
            }
            b.build().ok()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Total edge count across snapshots never exceeds the event count and
    /// never falls below the number of distinct pairs.
    #[test]
    fn edge_budget(stream in arb_stream(), k in 1u64..200) {
        let k = if stream.span() == 0 { 1 } else { k.min(stream.span() as u64).max(1) };
        let series = GraphSeries::aggregate(&stream, k);
        let mut pairs: Vec<_> = stream.events().iter().map(|l| (l.u, l.v)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        prop_assert!(series.total_edges() <= stream.len());
        prop_assert!(series.total_edges() >= pairs.len());
    }

    /// Snapshot metric ranges: density in [0,1], LCC in [1, n],
    /// non-isolated even-count-consistent with edges.
    #[test]
    fn metric_ranges(stream in arb_stream(), k in 1u64..100) {
        let k = if stream.span() == 0 { 1 } else { k.min(stream.span() as u64).max(1) };
        let series = GraphSeries::aggregate(&stream, k);
        for (_, snap) in series.snapshots() {
            prop_assert!((0.0..=1.0).contains(&snap.density()));
            let lcc = snap.largest_component();
            prop_assert!((1..=10).contains(&lcc));
            let ni = snap.non_isolated();
            prop_assert!(ni >= 2 || snap.edge_count() == 0);
            prop_assert!(ni <= 2 * snap.edge_count());
            prop_assert!(lcc <= ni.max(1));
        }
    }

    /// The streaming means equal the materialized-series means.
    #[test]
    fn streaming_equals_materialized(stream in arb_stream(), k in 1u64..60) {
        let k = if stream.span() == 0 { 1 } else { k.min(stream.span() as u64).max(1) };
        let a = snapshot_means(&stream, k);
        let series = GraphSeries::aggregate(&stream, k);
        let b = saturn_graphseries::metrics::snapshot_means_of_series(&series);
        prop_assert_eq!(a.non_empty, b.non_empty);
        prop_assert_eq!(a.total_edges, b.total_edges);
        prop_assert!((a.mean_density - b.mean_density).abs() < 1e-12);
        prop_assert!((a.mean_largest_component - b.mean_largest_component).abs() < 1e-12);
    }

    /// K = 1 gives the fully aggregated static graph: one snapshot holding
    /// every distinct pair.
    #[test]
    fn total_aggregation(stream in arb_stream()) {
        let series = GraphSeries::aggregate(&stream, 1);
        prop_assert_eq!(series.non_empty(), 1);
        let snap = series.snapshot_at(0).unwrap();
        let mut pairs: Vec<_> =
            stream.events().iter().map(|l| (l.u.raw(), l.v.raw())).collect();
        pairs.sort_unstable();
        pairs.dedup();
        prop_assert_eq!(snap.edge_count(), pairs.len());
    }

    /// Restriction then aggregation is consistent: the restricted stream's
    /// total aggregation holds exactly the pairs with events in the range.
    #[test]
    fn restrict_then_aggregate(stream in arb_stream(), a in 0i64..400, len in 1i64..200) {
        let begin = stream.t_begin() + (a % (stream.span().max(1)));
        let end = saturn_linkstream::Time::new(
            (begin.ticks() + len).min(stream.t_end().ticks()),
        );
        if let Some(sub) = stream.restrict(begin, end) {
            prop_assert!(sub.len() <= stream.len());
            prop_assert_eq!(sub.node_count(), stream.node_count());
            let series = GraphSeries::aggregate(&sub, 1);
            let snap = series.snapshot_at(0).unwrap();
            let mut expected: Vec<_> = stream
                .events()
                .iter()
                .filter(|l| l.t >= begin && l.t <= end)
                .map(|l| (l.u.raw(), l.v.raw()))
                .collect();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(snap.edges().to_vec(), expected);
        }
    }
}
