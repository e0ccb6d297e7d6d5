//! Property-based validation of the frontier-pruned, arena-reused engine:
//! on random small streams it must agree with (a) the retained baseline
//! engine (full-row snapshots, fresh tables) and (b) the brute-force
//! earliest-arrival reference — on trips, hops, and distance sums alike.

use proptest::prelude::*;
use saturn_linkstream::{Directedness, LinkStreamBuilder};
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

/// A random stream over <= 6 nodes and <= 14 events in [0, 40].
fn arb_stream(directed: bool) -> impl Strategy<Value = saturn_linkstream::LinkStream> {
    let d = if directed { Directedness::Directed } else { Directedness::Undirected };
    proptest::collection::vec((0u32..6, 0u32..6, 0i64..41), 1..14).prop_filter_map(
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

    /// Frontier engine (delta propagation on AND off) == baseline engine:
    /// identical trip streams (same order), traversal counts, and distance
    /// sums — undirected.
    #[test]
    fn frontier_equals_baseline_undirected(stream in arb_stream(false), k in 1u64..24) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = Timeline::aggregated(&stream, k);
        let options = DpOptions { collect_distances: true, ..Default::default() };
        let targets = TargetSet::all(6);

        let mut slow = Collect::default();
        let bs = baseline::earliest_arrival_dp(&timeline, &targets, &mut slow, options);
        for no_delta in [false, true] {
            let options = DpOptions { no_delta_propagation: no_delta, ..options };
            let mut fast = Collect::default();
            let fs = earliest_arrival_dp(&timeline, &targets, &mut fast, options);
            prop_assert_eq!(&fast.0, &slow.0, "no_delta={}", no_delta);
            prop_assert_eq!(fs.trips, bs.trips);
            prop_assert_eq!(fs.traversals, bs.traversals);
            let (fd, bd) = (fs.distances.unwrap(), bs.distances.unwrap());
            prop_assert_eq!(fd.sum_dtime_steps, bd.sum_dtime_steps);
            prop_assert_eq!(fd.sum_dhops, bd.sum_dhops);
            prop_assert_eq!(fd.finite_triples, bd.finite_triples);
        }
    }

    /// Same equivalence for directed streams on the exact timeline.
    #[test]
    fn frontier_equals_baseline_directed_exact(stream in arb_stream(true)) {
        let timeline = Timeline::exact(&stream);
        let options = DpOptions { collect_distances: true, ..Default::default() };
        let targets = TargetSet::all(6);

        let mut slow = Collect::default();
        let bs = baseline::earliest_arrival_dp(&timeline, &targets, &mut slow, options);
        for no_delta in [false, true] {
            let options = DpOptions { no_delta_propagation: no_delta, ..options };
            let mut fast = Collect::default();
            let fs = earliest_arrival_dp(&timeline, &targets, &mut fast, options);
            prop_assert_eq!(&fast.0, &slow.0, "no_delta={}", no_delta);
            prop_assert_eq!(fs.trips, bs.trips);
            let (fd, bd) = (fs.distances.unwrap(), bs.distances.unwrap());
            prop_assert_eq!(fd.sum_dtime_steps, bd.sum_dtime_steps);
            prop_assert_eq!(fd.sum_dhops, bd.sum_dhops);
            prop_assert_eq!(fd.finite_triples, bd.finite_triples);
        }
    }

    /// Frontier engine == naive earliest-arrival reference: earliest
    /// arrivals, minimum hops, and the three distance sums all match the
    /// per-departure-step brute-force function.
    #[test]
    fn frontier_matches_naive_reference(stream in arb_stream(false), k in 1u64..20) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = Timeline::aggregated(&stream, k);
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
            DpOptions { collect_distances: true, ..Default::default() },
        );
        let d = stats.distances.unwrap();
        prop_assert_eq!(d.sum_dtime_steps, ref_dtime);
        prop_assert_eq!(d.sum_dhops, ref_dhops);
        prop_assert_eq!(d.finite_triples, ref_triples);
    }

    /// One arena carried across runs over random streams and scales is
    /// indistinguishable from fresh allocation every run — the epoch
    /// stamping never leaks state between scales. Delta propagation is
    /// toggled per run, so stale watermarks / row marks / dirty bitmaps
    /// from a previous scale (whose pair ids mean different edges) must
    /// stay dead too.
    #[test]
    fn arena_epoch_reuse_never_leaks(
        stream in arb_stream(false),
        ks in proptest::collection::vec(1u64..24, 1..6),
    ) {
        let mut arena = EngineArena::new();
        for (i, &k) in ks.iter().enumerate() {
            let k = if stream.span() == 0 { 1 } else { k };
            let timeline = Timeline::aggregated(&stream, k);
            let options = DpOptions {
                collect_distances: true,
                no_delta_propagation: i % 2 == 1,
                ..Default::default()
            };

            let mut reused = Collect::default();
            let rs = earliest_arrival_dp_in(
                &mut arena, &timeline, &TargetSet::all(6), &mut reused, options,
            );
            let mut fresh = Collect::default();
            let fs = earliest_arrival_dp(&timeline, &TargetSet::all(6), &mut fresh, options);

            prop_assert_eq!(reused.0, fresh.0);
            prop_assert_eq!(rs.trips, fs.trips);
            let (rd, fd) = (rs.distances.unwrap(), fs.distances.unwrap());
            prop_assert_eq!(rd.sum_dtime_steps, fd.sum_dtime_steps);
            prop_assert_eq!(rd.sum_dhops, fd.sum_dhops);
            prop_assert_eq!(rd.finite_triples, fd.finite_triples);
        }
    }

    /// Sampled target sets agree between the two engines as well (frontier
    /// bookkeeping is per-column and must respect the restriction).
    #[test]
    fn frontier_equals_baseline_with_sampled_targets(
        stream in arb_stream(true),
        k in 1u64..16,
        targets in proptest::collection::btree_set(0u32..6, 1..4),
    ) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = Timeline::aggregated(&stream, k);
        let nodes: Vec<u32> = targets.into_iter().collect();
        let tset = TargetSet::from_nodes(6, &nodes);

        let mut fast = Collect::default();
        earliest_arrival_dp(&timeline, &tset, &mut fast, DpOptions::default());
        let mut slow = Collect::default();
        baseline::earliest_arrival_dp(&timeline, &tset, &mut slow, DpOptions::default());
        prop_assert_eq!(fast.0, slow.0);
    }

    /// Target-tiled execution partitions the untiled run exactly: for any
    /// tile size, one arena carried across all tiles yields trips, trip
    /// counts, and distance sums that merge to the full run's. The untiled
    /// reference runs with delta propagation *off* while the tiles run with
    /// the sampled setting, so the partition property holds across engine
    /// modes, not just within one.
    #[test]
    fn tiled_runs_merge_to_the_untiled_run(
        stream in arb_stream(false),
        k in 1u64..24,
        tile in 1usize..7,
        tiles_no_delta in any::<bool>(),
    ) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = Timeline::aggregated(&stream, k);
        let targets = TargetSet::all(6);
        let options = DpOptions {
            collect_distances: true,
            no_delta_propagation: true,
            ..Default::default()
        };

        let mut full_sink = Collect::default();
        let full = earliest_arrival_dp(&timeline, &targets, &mut full_sink, options);
        let mut full_trips = full_sink.0;
        full_trips.sort_unstable();

        let tile_options = DpOptions { no_delta_propagation: tiles_no_delta, ..options };
        let mut arena = EngineArena::new();
        let mut trips = Vec::new();
        let mut count = 0u64;
        let mut dtime = 0i128;
        let mut dhops = 0i128;
        let mut triples = 0i128;
        for (start, len) in targets.tile_ranges(tile) {
            let mut sink = Collect::default();
            let run = DpRun { tile: Some((start, len)), options: tile_options, cancel: None };
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

    /// The degree-1 snapshot bypass and delta propagation are invisible in
    /// every combination on random streams, both directednesses: the full
    /// 2×2 matrix of {degree-1 on/off} × {delta on/off} yields one trip
    /// stream (order included) and one set of stats.
    #[test]
    fn degree1_and_delta_matrix_is_invisible(
        stream in arb_stream(true),
        k in 1u64..24,
        directed_timeline in any::<bool>(),
    ) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = if directed_timeline {
            Timeline::exact(&stream)
        } else {
            Timeline::aggregated(&stream, k)
        };
        let options = DpOptions { collect_distances: true, ..Default::default() };
        let targets = TargetSet::all(6);

        let mut reference = Collect::default();
        let rs = earliest_arrival_dp(&timeline, &targets, &mut reference, options);
        for no_degree1 in [false, true] {
            for no_delta in [false, true] {
                if !no_degree1 && !no_delta {
                    continue; // the reference itself
                }
                let mut run = Collect::default();
                let os = earliest_arrival_dp(
                    &timeline,
                    &targets,
                    &mut run,
                    DpOptions {
                        no_degree1_fast_path: no_degree1,
                        no_delta_propagation: no_delta,
                        ..options
                    },
                );
                prop_assert_eq!(
                    &run.0, &reference.0,
                    "no_degree1={} no_delta={}", no_degree1, no_delta
                );
                prop_assert_eq!(os.trips, rs.trips);
                prop_assert_eq!(os.traversals, rs.traversals);
                let (od, rd) = (os.distances.unwrap(), rs.distances.unwrap());
                prop_assert_eq!(od.sum_dtime_steps, rd.sum_dtime_steps);
                prop_assert_eq!(od.sum_dhops, rd.sum_dhops);
                prop_assert_eq!(od.finite_triples, rd.finite_triples);
            }
        }
    }
}
