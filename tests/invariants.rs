//! Cross-crate property tests on randomly generated streams.

use proptest::prelude::*;
use saturn::distrib::{mk_distance_to_uniform, WeightedDist};
use saturn::prelude::*;
use saturn::trips::{earliest_arrival_dp, DpOptions, TripSink};

fn arb_stream() -> impl Strategy<Value = LinkStream> {
    proptest::collection::vec((0u32..8, 0u32..8, 0i64..200), 2..40).prop_filter_map(
        "non-empty",
        |events| {
            let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 8);
            for (u, v, t) in events {
                if u != v {
                    b.add_indexed(u, v, t);
                }
            }
            b.build().ok()
        },
    )
}

#[derive(Default)]
struct Collect(Vec<(u32, u32, u32, u32, u32)>);
impl TripSink for Collect {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
        self.0.push((u, v, dep, arr, hops));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// γ always lies inside [Δ_min, T], and the score curve is bounded by
    /// the M-K proximity ceiling of 1/2.
    #[test]
    fn gamma_is_well_bounded(stream in arb_stream()) {
        let report = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 10 })
            .threads(1)
            .refine(0, 0)
            .run(&stream);
        let gamma = report.gamma().expect("streams here are non-degenerate");
        prop_assert!(gamma.delta_ticks >= 0.0);
        prop_assert!(gamma.delta_ticks <= stream.span().max(1) as f64);
        for r in report.results() {
            prop_assert!(r.scores.mk_proximity <= 0.5 + 1e-12);
            prop_assert!(r.trips > 0, "every scale has at least the single-link trips");
        }
    }

    /// Aggregation never invents or loses pairs: the union of all snapshot
    /// edges equals the set of distinct pairs of the stream.
    #[test]
    fn aggregation_conserves_pairs(stream in arb_stream(), k in 1u64..50) {
        let k = if stream.span() == 0 { 1 } else { k.min(stream.span() as u64).max(1) };
        let series = GraphSeries::aggregate(&stream, k);
        let mut from_series: Vec<(u32, u32)> = series
            .snapshots()
            .flat_map(|(_, s)| s.edges().to_vec())
            .collect();
        from_series.sort_unstable();
        from_series.dedup();
        let mut from_stream: Vec<(u32, u32)> =
            stream.events().iter().map(|l| (l.u.raw(), l.v.raw())).collect();
        from_stream.sort_unstable();
        from_stream.dedup();
        prop_assert_eq!(from_series, from_stream);
    }

    /// Occupancy rates of every minimal trip lie in (0, 1]; total
    /// aggregation puts every rate at exactly 1.
    #[test]
    fn occupancy_rates_in_unit_interval(stream in arb_stream(), k in 1u64..60) {
        let k = if stream.span() == 0 { 1 } else { k.min(stream.span() as u64).max(1) };
        let timeline = Timeline::aggregated(&stream, k);
        let mut sink = Collect::default();
        earliest_arrival_dp(&timeline, &TargetSet::all(8), &mut sink, DpOptions::default());
        for &(_, _, dep, arr, hops) in &sink.0 {
            let dur = arr - dep + 1;
            prop_assert!(hops >= 1 && hops <= dur, "rate must be in (0, 1]");
        }
        if k == 1 {
            let all_saturated =
                sink.0.iter().all(|&(.., dep, _arr, hops)| dep == 0 && hops == 1);
            prop_assert!(all_saturated);
        }
    }

    /// The M-K distance is a metric-like quantity: within [0, 1/2] for any
    /// distribution built from trip rates.
    #[test]
    fn mk_distance_bounds(pairs in proptest::collection::vec((1u32..20, 1u32..20), 1..40)) {
        let values: Vec<(f64, u64)> = pairs
            .into_iter()
            .map(|(h, d)| {
                let (h, d) = if h <= d { (h, d) } else { (d, h) };
                (h as f64 / d as f64, 1)
            })
            .collect();
        let dist = WeightedDist::from_pairs(values);
        let d = mk_distance_to_uniform(&dist);
        prop_assert!((0.0..=0.5 + 1e-12).contains(&d));
    }

    /// Elongation means are always >= 1 (an aggregated trip can never be
    /// faster than the fastest underlying trip).
    #[test]
    fn elongation_at_least_one(stream in arb_stream(), k in 2u64..40) {
        let k = if stream.span() == 0 { 1 } else { k.min(stream.span() as u64).max(1) };
        let targets = TargetSet::all(8);
        let reference = ExactStream::new(&stream, false)
            .tile_trips(&mut saturn::trips::EngineArena::new(), &targets, (0, 8), None)
            .unwrap();
        let (timeline, partition) = (Timeline::aggregated(&stream, k), stream.partition(k).unwrap());
        let mut arena = saturn::trips::EngineArena::new();
        let e = saturn::trips::elongation_sums_in(&mut arena, &timeline, partition, &reference, &targets, None)
            .stats(&partition);
        if e.count > 0 {
            prop_assert!(e.mean >= 1.0 - 1e-9, "mean elongation {} < 1", e.mean);
        }
    }

    /// Windows indices are monotone in time and partition all events.
    #[test]
    fn window_partition_is_sound(stream in arb_stream(), k in 1u64..100) {
        let k = if stream.span() == 0 { 1 } else { k.min(stream.span().max(1) as u64).max(1) };
        let partition = stream.partition(k).unwrap();
        let mut prev = 0u64;
        let mut covered = 0usize;
        for (w, links) in partition.window_slices(&stream) {
            prop_assert!(w >= prev);
            prev = w;
            prop_assert!(w < k);
            covered += links.len();
            for l in links {
                prop_assert_eq!(partition.index(l.t), w);
            }
        }
        prop_assert_eq!(covered, stream.len());
    }
}
