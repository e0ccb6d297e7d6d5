//! Elongation factors of aggregated minimal trips (Definition 8, Figure 8
//! right).
//!
//! The loss measured by lost transitions is pessimistic: a lost shortest
//! transition may be replaced by a slightly longer or later route, leaving
//! propagation almost unchanged. The elongation factor quantifies the actual
//! slowdown: for a minimal trip `(u, v, t_u, t_v)` of `G_Δ` spanning more
//! than one window, it is the ratio of its absolute duration
//! `(t_v - t_u + 1)·Δ` to the duration of the fastest minimal trip of the
//! original stream between the same nodes inside the same real-time range.
//! The aggregated DP runs on its reference's column tile, and per-tile
//! [`ElongationSums`] add up to the scale's statistics.

use crate::{
    earliest_arrival_dp_in, CancelToken, DpRun, EngineArena, StreamTrips, TargetSet, Timeline,
    TripSink,
};
use saturn_linkstream::{Time, WindowPartition};
use serde::Serialize;

/// Aggregate elongation statistics at one scale `Δ`.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ElongationStats {
    /// Number of windows `K`.
    pub k: u64,
    /// Window length `Δ` in ticks.
    pub delta_ticks: f64,
    /// Mean elongation factor over all multi-window minimal trips of `G_Δ`.
    pub mean: f64,
    /// Number of trips entering the mean.
    pub count: u64,
    /// Minimal trips confined to a single window (`t_u = t_v`), excluded by
    /// Definition 8.
    pub single_window: u64,
}

/// The elongation totals of one column tile at one scale, summed in the DP's
/// report order; a scale's tiles add up in ascending column order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ElongationSums {
    /// Sum of the elongation factors of the multi-window trips.
    pub sum: f64,
    /// Number of multi-window trips.
    pub count: u64,
    /// Number of single-window trips.
    pub single_window: u64,
}

impl ElongationSums {
    /// The statistics of the scale of `partition`.
    pub fn stats(&self, partition: &WindowPartition) -> ElongationStats {
        ElongationStats {
            k: partition.k(),
            delta_ticks: partition.delta_ticks(),
            mean: self.sum / self.count as f64, // NaN without multi-window trips
            count: self.count,
            single_window: self.single_window,
        }
    }
}

struct ElongationSink<'a> {
    reference: &'a StreamTrips,
    targets: &'a TargetSet,
    partition: WindowPartition,
    sums: ElongationSums,
}

impl ElongationSink<'_> {
    /// Fastest reference-trip duration for `(u, v)` whose departure *and*
    /// arrival fall inside windows `dep..=arr`.
    fn reference_duration(&self, u: u32, v: u32, dep: u32, arr: u32) -> Option<i64> {
        let col = self.targets.col_of(v).expect("trips end at targets");
        let trips = self.reference.pair(u, col)?;
        // first reference trip departing in window >= dep
        let start =
            trips.partition_point(|&(d, _)| self.partition.index(Time::new(d)) < dep as u64);
        let mut best: Option<i64> = None;
        for &(d, a) in &trips[start..] {
            if self.partition.index(Time::new(a)) > arr as u64 {
                break; // arrivals ascend: nothing further qualifies
            }
            let dur = a - d;
            best = Some(best.map_or(dur, |b| b.min(dur)));
        }
        best
    }
}

impl TripSink for ElongationSink<'_> {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, _hops: u32) {
        if dep == arr {
            self.sums.single_window += 1;
            return;
        }
        // The trip's links lie in strictly increasing windows, hence at
        // strictly increasing instants: a stream path inside the windows, so
        // a minimal stream trip fits there, in this same column's reference.
        let Some(time_l) = self.reference_duration(u, v, dep, arr) else {
            panic!(
                "aggregated trip {u} -> {v} over windows {dep}..={arr} has no reference trip \
                 in columns {:?}",
                self.reference.tile()
            );
        };
        // A zero-duration reference trip is a direct link in a window `w` of
        // `dep..=arr`: `(u, v, w, w)` would contradict this trip's minimality.
        assert!(
            time_l > 0,
            "aggregated trip {u} -> {v} over windows {dep}..={arr} has a zero-duration \
             reference trip (Definition 8 guarantees time_L != 0)"
        );
        let duration_abs = (arr - dep + 1) as f64 * self.partition.delta_ticks();
        self.sums.sum += duration_abs / time_l as f64;
        self.sums.count += 1;
    }
}

/// The elongation totals of the minimal trips of an aggregated timeline
/// against `reference` (the stream's minimal trips toward the same
/// `targets`), over the reference's columns, with the DP run in `arena`. A
/// fired `cancel` leaves them partial, for the caller to discard.
pub fn elongation_sums_in(
    arena: &mut EngineArena,
    timeline: &Timeline,
    partition: WindowPartition,
    reference: &StreamTrips,
    targets: &TargetSet,
    cancel: Option<&CancelToken>,
) -> ElongationSums {
    let sums = ElongationSums::default();
    let mut sink = ElongationSink { reference, targets, partition, sums };
    let run = DpRun { tile: Some(reference.tile()), cancel, ..Default::default() };
    earliest_arrival_dp_in(arena, timeline, targets, &mut sink, run);
    sink.sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactStream;
    use saturn_linkstream::{io, Directedness, LinkStream};

    fn stream_minimal_trips(
        s: &LinkStream,
        targets: &TargetSet,
        weighted: bool,
    ) -> StreamTrips {
        let (exact, all) = (ExactStream::new(s, weighted), (0, targets.len() as u32));
        exact.tile_trips(&mut EngineArena::new(), targets, all, None).unwrap()
    }

    fn elongation_stats(
        s: &LinkStream,
        reference: &StreamTrips,
        k: u64,
        targets: &TargetSet,
    ) -> ElongationStats {
        let (timeline, partition) = (Timeline::aggregated(s, k), s.partition(k).unwrap());
        let mut arena = EngineArena::new();
        elongation_sums_in(&mut arena, &timeline, partition, reference, targets, None)
            .stats(&partition)
    }

    #[test]
    fn perfect_aggregation_has_elongation_near_one() {
        // Chain with hops exactly one window apart at K = 10 (Δ = 10):
        // a-b@5, b-c@15: real trip duration 10; aggregated trip spans
        // windows 0..1, duration_abs = 2·10 = 20 => elongation 2.
        let s =
            io::read_str("a b 5\nb c 15\na z 0\na z 100\n", Directedness::Undirected).unwrap();
        let targets = TargetSet::all(4);
        let reference = stream_minimal_trips(&s, &targets, false);
        let e = elongation_stats(&s, &reference, 10, &targets);
        assert!(e.count > 0);
        assert!(e.mean >= 1.0, "mean elongation {: } must be >= 1", e.mean);
    }

    #[test]
    fn elongation_is_at_least_one_on_random_chains() {
        let text = "a b 0\nb c 7\nc d 19\nd e 23\na c 31\nb e 40\n";
        let s = io::read_str(text, Directedness::Undirected).unwrap();
        let targets = TargetSet::all(5);
        let reference = stream_minimal_trips(&s, &targets, false);
        for k in [2u64, 3, 5, 8, 13, 40] {
            let e = elongation_stats(&s, &reference, k, &targets);
            if e.count > 0 {
                assert!(e.mean >= 1.0 - 1e-9, "k={k}: mean elongation {} below 1", e.mean);
            }
        }
    }

    #[test]
    fn single_window_trips_are_excluded() {
        let s = io::read_str("a b 0\nb c 50\n", Directedness::Undirected).unwrap();
        let targets = TargetSet::all(3);
        let reference = stream_minimal_trips(&s, &targets, false);
        // K = 1: every trip is single-window
        let e = elongation_stats(&s, &reference, 1, &targets);
        assert_eq!(e.count, 0);
        assert!(e.single_window > 0);
        assert!(e.mean.is_nan());
    }

    #[test]
    fn exact_elongation_value_on_known_example() {
        // Stream: a-b@0, b-c@99 over [0, 99]; K = 2 (Δ = 49.5):
        // windows: t=0 -> w0, t=99 -> w1.
        // G_Δ trip a->c: dep 0, arr 1, duration_abs = 2·49.5 = 99.
        // Underlying fastest trip: (0, 99), duration 99. Elongation = 1.
        let s = io::read_str("a b 0\nb c 99\n", Directedness::Undirected).unwrap();
        let targets = TargetSet::all(3);
        let reference = stream_minimal_trips(&s, &targets, false);
        let e = elongation_stats(&s, &reference, 2, &targets);
        assert_eq!(e.count, 1);
        assert!((e.mean - 1.0).abs() < 1e-12, "mean = {}", e.mean);
    }

    /// The two impossible branches panic, naming the trip, when fed the
    /// reference of another stream.
    fn score_against(other: &str) {
        let s = io::read_str("a b 0\nb c 99\n", Directedness::Undirected).unwrap();
        let other = io::read_str(other, Directedness::Undirected).unwrap();
        let targets = TargetSet::all(3);
        let reference = stream_minimal_trips(&other, &targets, false);
        elongation_stats(&s, &reference, 2, &targets);
    }

    #[test]
    #[should_panic(
        expected = "aggregated trip 0 -> 2 over windows 0..=1 has no reference trip"
    )]
    fn a_trip_missing_from_the_reference_is_loud() {
        score_against("a b 0\nb c 0\n"); // same-instant hops chain no a -> c trip
    }

    #[test]
    #[should_panic(expected = "aggregated trip 0 -> 2 over windows 0..=1 has a zero-duration")]
    fn a_zero_duration_reference_trip_is_loud() {
        score_against("a b 0\nc a 99\n"); // a direct a - c link inside the windows
    }
}
