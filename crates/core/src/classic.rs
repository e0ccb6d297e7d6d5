//! Sweep of the classical graph-series parameters (Figure 2 / Section 3).
//!
//! The paper's motivating observation: density, connectedness and distance
//! statistics all drift smoothly from one extreme to the other as `Δ` grows,
//! exhibiting no qualitative change at any scale — which is why a dedicated
//! method (the occupancy method) is needed. This sweep reproduces those
//! curves.

use crate::parallel::WorkerPool;
use crate::{SweepGrid, TargetSpec};
use saturn_graphseries::SnapshotMeans;
use saturn_linkstream::LinkStream;
use saturn_trips::{
    distance_means_in, dp::max_tile_cols, DistanceMeans, EngineArena, EventView, Timeline,
};
use serde::Serialize;
use std::sync::Mutex;

/// The classical statistics of `G_Δ` at one scale.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ClassicPoint {
    /// Window count `K`.
    pub k: u64,
    /// Window length `Δ` in ticks.
    pub delta_ticks: f64,
    /// Per-snapshot means: density, degree, non-isolated vertices, largest
    /// connected component (Figure 2, top row).
    pub snapshots: SnapshotMeans,
    /// Temporal distance means: `d_time`, `d_hops`, `d_abstime` (Figure 2,
    /// bottom row).
    pub distances: DistanceMeans,
}

/// Sweeps the classical parameters over `grid` on `pool`, one item per scale:
/// the scale's one timeline feeds both the snapshot means and the distance
/// DP, which runs in its worker's arena, in budget-sized tiles
/// ([`max_tile_cols`]); the points depend on neither tiles nor pool size.
pub fn classic_sweep(
    stream: &LinkStream,
    grid: &SweepGrid,
    targets: TargetSpec,
    delta_min: i64,
    pool: &mut WorkerPool,
) -> Vec<ClassicPoint> {
    let tile_cols = max_tile_cols(stream.node_count());
    let targets = targets.build(stream.node_count() as u32);
    let (view, span) = (EventView::new(stream), stream.span());
    let ks = grid.k_values(stream, delta_min);
    let arenas: Vec<Mutex<EngineArena>> =
        (0..pool.parallelism()).map(|_| Mutex::default()).collect();
    let (n, directedness) = (stream.node_count() as u32, stream.directedness());
    let mut points = pool.map(&ks, |wid, &k| {
        let timeline = Timeline::aggregated_from_view(&view, k);
        let delta_ticks = span as f64 / k as f64;
        let windows = timeline.steps_asc().map(|step| step.edges());
        let snapshots = SnapshotMeans::of_windows(n, directedness, k, delta_ticks, windows);
        let mut arena = arenas[wid].lock().expect("arena poisoned");
        let distances = distance_means_in(&mut arena, &timeline, span, k, &targets, tile_cols);
        ClassicPoint { k, delta_ticks, snapshots, distances }
    });
    points.sort_unstable_by_key(|p| std::cmp::Reverse(p.k)); // Δ ascending
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use saturn_graphseries::GraphSeries;
    use saturn_linkstream::{Directedness, LinkStreamBuilder};

    fn stream() -> LinkStream {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 10);
        for i in 0..200i64 {
            b.add_indexed((i % 10) as u32, ((i * 3 + 1) % 10) as u32, i * 5);
        }
        b.build().unwrap()
    }

    #[test]
    fn monotone_drifts_match_the_paper() {
        let s = stream();
        let grid = SweepGrid::Geometric { points: 10 };
        let pts = classic_sweep(&s, &grid, TargetSpec::All, 1, &mut WorkerPool::new(2));
        assert!(pts.len() >= 5);
        let first = pts.first().unwrap(); // finest Δ
        let last = pts.last().unwrap(); // Δ = T
        assert_eq!(last.k, 1);
        // density increases with Δ (Figure 2 top-left)
        assert!(first.snapshots.mean_density < last.snapshots.mean_density);
        // LCC increases with Δ (top-right)
        assert!(
            first.snapshots.mean_largest_component <= last.snapshots.mean_largest_component
        );
        // d_time (in steps) decreases with Δ (bottom-left: ~1/Δ power law)
        assert!(first.distances.mean_dtime_steps > last.distances.mean_dtime_steps);
        // d_hops decreases toward 1 at Δ = T (bottom-right)
        assert!(last.distances.mean_dhops <= first.distances.mean_dhops);
        assert!((last.distances.mean_dhops - 1.0).abs() < 1e-9);
        // d_abstime at Δ = T equals T (single window: d_time = 1)
        assert!((last.distances.mean_dabstime_ticks - s.span() as f64).abs() < 1e-6);
    }

    #[test]
    fn points_are_delta_sorted() {
        let s = stream();
        let grid = SweepGrid::Linear { points: 6 };
        let pts = classic_sweep(&s, &grid, TargetSpec::All, 1, &mut WorkerPool::new(1));
        assert!(pts.windows(2).all(|w| w[0].delta_ticks < w[1].delta_ticks));
    }

    #[test]
    fn points_are_bit_identical_across_tile_widths() {
        let s = stream();
        let grid = SweepGrid::Geometric { points: 10 };
        let spec = TargetSpec::Sample { size: 7, seed: 3 };
        // floats print shortest round-trip: equal text is equal bits
        let json = |points: &[ClassicPoint]| serde_json::to_string(points).unwrap();
        let pts = classic_sweep(&s, &grid, spec, 1, &mut WorkerPool::new(1));
        assert_eq!(
            json(&pts),
            json(&classic_sweep(&s, &grid, spec, 1, &mut WorkerPool::new(3)))
        );
        // the budget fits this stream in one tile; narrower tiles sum the
        // same integer distance sums
        let (targets, mut arena) = (spec.build(10), EngineArena::new());
        for p in &pts {
            let timeline = Timeline::aggregated(&s, p.k);
            for width in [1, 2, 3, 7] {
                let d =
                    distance_means_in(&mut arena, &timeline, s.span(), p.k, &targets, width);
                assert_eq!(
                    json(&[ClassicPoint { distances: d, ..*p }]),
                    json(&[*p]),
                    "{width}"
                );
            }
        }
    }

    /// Every field of `m`, floats as bits.
    fn bits(m: &SnapshotMeans) -> [u64; 8] {
        [
            m.k,
            m.delta_ticks.to_bits(),
            m.non_empty as u64,
            m.total_edges as u64,
            m.mean_density.to_bits(),
            m.mean_degree.to_bits(),
            m.mean_non_isolated.to_bits(),
            m.mean_largest_component.to_bits(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The snapshot means the sweep reads from its timelines equal, to
        /// the bit, the means of the independently aggregated
        /// `GraphSeries` (Definition 1) at every scale, on both
        /// directednesses.
        #[test]
        fn timeline_means_equal_series_means(
            events in proptest::collection::vec((0u32..9, 1u32..9, 0i64..600), 1..150),
            directed in any::<bool>(),
            points in 2usize..9,
        ) {
            let dir = if directed { Directedness::Directed } else { Directedness::Undirected };
            let mut b = LinkStreamBuilder::indexed(dir, 9);
            for (u, shift, t) in events {
                b.add_indexed(u, (u + shift) % 9, t);
            }
            let s = b.build().unwrap();
            let grid = SweepGrid::Geometric { points };
            let pts = classic_sweep(&s, &grid, TargetSpec::All, 1, &mut WorkerPool::new(1));
            prop_assert!(!pts.is_empty());
            for p in &pts {
                let series = GraphSeries::aggregate(&s, p.k).means();
                prop_assert_eq!(bits(&p.snapshots), bits(&series), "k={}", p.k);
                prop_assert_eq!(p.delta_ticks.to_bits(), series.delta_ticks.to_bits());
            }
        }
    }
}
