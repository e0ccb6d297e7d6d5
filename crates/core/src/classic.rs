//! Sweep of the classical graph-series parameters (Figure 2 / Section 3).
//!
//! The paper's motivating observation: density, connectedness and distance
//! statistics all drift smoothly from one extreme to the other as `Δ` grows,
//! exhibiting no qualitative change at any scale — which is why a dedicated
//! method (the occupancy method) is needed. This sweep reproduces those
//! curves.

use crate::parallel::WorkerPool;
use crate::{SweepGrid, TargetSpec};
use saturn_graphseries::{snapshot_means, SnapshotMeans};
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

/// Sweeps the classical parameters over `grid` on `pool`, one item per scale
/// whose DP runs in its worker's arena, in budget-sized tiles
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
    let mut points = pool.map(&ks, |wid, &k| {
        let timeline = Timeline::aggregated_from_view(&view, k);
        let mut arena = arenas[wid].lock().expect("arena poisoned");
        let distances = distance_means_in(&mut arena, &timeline, span, k, &targets, tile_cols);
        let (delta_ticks, snapshots) = (span as f64 / k as f64, snapshot_means(stream, k));
        ClassicPoint { k, delta_ticks, snapshots, distances }
    });
    points.sort_unstable_by_key(|p| std::cmp::Reverse(p.k)); // Δ ascending
    points
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
