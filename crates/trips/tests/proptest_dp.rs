//! Property-based validation of the earliest-arrival engine against the
//! brute-force reference, on random small link streams.

use proptest::prelude::*;
use saturn_linkstream::{Directedness, LinkStreamBuilder};
use saturn_trips::reference::{earliest_arrival_bruteforce, minimal_trips_bruteforce};
use saturn_trips::{earliest_arrival_dp, DpOptions, TargetSet, Timeline, TripSink};

#[derive(Default)]
struct Collect(Vec<(u32, u32, u32, u32, u32)>);

impl TripSink for Collect {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
        self.0.push((u, v, dep, arr, hops));
    }
}

/// A random stream over <= 6 nodes and <= 12 events in [0, 30].
fn arb_stream(directed: bool) -> impl Strategy<Value = saturn_linkstream::LinkStream> {
    let d = if directed { Directedness::Directed } else { Directedness::Undirected };
    proptest::collection::vec((0u32..6, 0u32..6, 0i64..31), 1..12).prop_filter_map(
        "needs at least one non-loop event",
        move |events| {
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
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The engine's minimal trips equal the brute-force enumeration of
    /// Definition 5 on the aggregated timeline, for every K.
    #[test]
    fn dp_matches_bruteforce_aggregated(
        stream in arb_stream(false),
        k in 1u64..20,
        directed_seed in any::<bool>(),
    ) {
        let _ = directed_seed;
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = Timeline::aggregated(&stream, k);
        let brute = minimal_trips_bruteforce(&timeline, 3_000_000);
        let mut sink = Collect::default();
        earliest_arrival_dp(&timeline, &TargetSet::all(6), &mut sink, DpOptions::default());
        let mut fast = sink.0;
        fast.sort_unstable();
        prop_assert_eq!(fast, brute);
    }

    /// Same property for directed streams on the exact timeline.
    #[test]
    fn dp_matches_bruteforce_exact_directed(stream in arb_stream(true)) {
        let timeline = Timeline::exact(&stream);
        let brute = minimal_trips_bruteforce(&timeline, 3_000_000);
        let mut sink = Collect::default();
        earliest_arrival_dp(&timeline, &TargetSet::all(6), &mut sink, DpOptions::default());
        let mut fast = sink.0;
        fast.sort_unstable();
        prop_assert_eq!(fast, brute);
    }

    /// Minimality: no trip interval of a pair strictly contains another.
    #[test]
    fn trips_are_minimal_and_rates_in_unit_interval(
        stream in arb_stream(false),
        k in 1u64..20,
    ) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = Timeline::aggregated(&stream, k);
        let mut sink = Collect::default();
        earliest_arrival_dp(&timeline, &TargetSet::all(6), &mut sink, DpOptions::default());
        let trips = sink.0;
        for &(u, v, dep, arr, hops) in &trips {
            // occupancy in (0, 1] (Remark 2 + Definition 7)
            let dur = arr - dep + 1;
            prop_assert!(hops >= 1 && hops <= dur);
            // no strictly nested trip of the same pair
            for &(u2, v2, d2, a2, _) in &trips {
                if (u, v) == (u2, v2) && (dep, arr) != (d2, a2) {
                    prop_assert!(
                        !(d2 >= dep && a2 <= arr),
                        "trip ({},{}) [{},{}] contains [{},{}]",
                        u, v, dep, arr, d2, a2
                    );
                }
            }
        }
    }

    /// The distance accumulator equals brute-force sums over all departure
    /// steps.
    #[test]
    fn distance_sums_match_bruteforce(
        stream in arb_stream(false),
        k in 1u64..16,
    ) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = Timeline::aggregated(&stream, k);
        let stats = earliest_arrival_dp(
            &timeline,
            &TargetSet::all(6),
            &mut saturn_trips::dp::NullSink,
            DpOptions { collect_distances: true },
        );
        let sums = stats.distances.unwrap();

        let ea = earliest_arrival_bruteforce(&timeline, 3_000_000);
        let mut dtime = 0i128;
        let mut dhops = 0i128;
        let mut cnt = 0i128;
        for per_step in ea.values() {
            for (t, entry) in per_step.iter().enumerate() {
                if let Some((arr, hops)) = entry {
                    dtime += (*arr as i128) - (t as i128) + 1;
                    dhops += *hops as i128;
                    cnt += 1;
                }
            }
        }
        prop_assert_eq!(sums.finite_triples, cnt);
        prop_assert_eq!(sums.sum_dtime_steps, dtime);
        prop_assert_eq!(sums.sum_dhops, dhops);
    }

    /// Target sampling returns exactly the full-run trips restricted to the
    /// sampled destinations.
    #[test]
    fn sampling_is_exact_restriction(
        stream in arb_stream(true),
        k in 1u64..12,
        targets in proptest::collection::btree_set(0u32..6, 1..4),
    ) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = Timeline::aggregated(&stream, k);
        let nodes: Vec<u32> = targets.into_iter().collect();

        let mut full = Collect::default();
        earliest_arrival_dp(&timeline, &TargetSet::all(6), &mut full, DpOptions::default());
        let mut expected: Vec<_> = full
            .0
            .into_iter()
            .filter(|&(_, v, ..)| nodes.contains(&v))
            .collect();
        expected.sort_unstable();

        let mut sampled = Collect::default();
        earliest_arrival_dp(
            &timeline,
            &TargetSet::from_nodes(6, &nodes),
            &mut sampled,
            DpOptions::default(),
        );
        let mut got = sampled.0;
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
