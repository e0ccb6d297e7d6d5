//! Information-loss validation sweeps (Section 8, Figure 8).
//!
//! Two direct measures of what aggregation destroys:
//!
//! * **lost shortest transitions** — the fraction of two-hop minimal trips of
//!   `L` whose hops collapse into a single window of `G_Δ` (their order, and
//!   hence the transition, is erased);
//! * **mean elongation factor** — how much slower the minimal trips of `G_Δ`
//!   are than the fastest corresponding trips of `L`.
//!
//! Both stay flat over several orders of magnitude of `Δ` and take off
//! around the saturation scale, validating the occupancy method's choice.
//!
//! The sweep runs on the shared pool in [`max_tile_cols`]`(n)`-wide target
//! tiles, whatever the thread count. Per tile, in column order, the exact
//! DP computes the tile's reference ([`ExactStream::tile_trips`]), then one
//! item per scale scores the same columns against it. Counts add up exactly,
//! elongation sums in tile order; one tile (≤ 2,989 nodes, all targets)
//! gives the untiled report bit for bit.

use crate::control::SweepControl;
use crate::parallel::WorkerPool;
use crate::{SweepGrid, TargetSpec};
use saturn_linkstream::LinkStream;
use saturn_trips::{
    dp::max_tile_cols, elongation_sums_in, lost_transition_weight, Cancelled, ElongationStats,
    ElongationSums, EngineArena, EventView, ExactStream, Timeline,
};
use serde::Serialize;
use std::sync::Mutex;

/// Loss measures at one scale.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ValidationPoint {
    /// Window count `K`.
    pub k: u64,
    /// Window length `Δ` in ticks.
    pub delta_ticks: f64,
    /// Fraction of shortest transitions lost (Figure 8, left).
    pub lost_transitions: f64,
    /// Elongation statistics (Figure 8, right).
    pub elongation: ElongationStats,
}

/// Result of a validation sweep.
#[derive(Clone, Debug, Serialize)]
pub struct ValidationReport {
    /// Per-scale measures, `Δ` ascending.
    pub points: Vec<ValidationPoint>,
    /// Number of minimal trips of the original stream (the elongation
    /// reference).
    pub reference_trips: u64,
    /// Number of shortest transitions (weighted) of the original stream.
    pub reference_transitions: u64,
}

/// Named knobs of a validation sweep.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ValidationOptions {
    /// Smallest aggregation period in ticks (1 = the resolution of integer
    /// timestamps).
    pub delta_min: i64,
    /// Count each two-hop trip with its number of middle nodes (the exact
    /// multiset of Definition 6) rather than once.
    pub weighted_transitions: bool,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions { delta_min: 1, weighted_transitions: true }
    }
}

/// Sweeps both loss measures over `grid` on `pool` under `ctl`: every DP
/// polls `ctl.cancel` (a fired token returns [`Cancelled`]), and
/// `ctl.progress` counts `(tile, scale)` items out of scales × tiles.
pub fn validation_sweep(
    stream: &LinkStream,
    grid: &SweepGrid,
    targets: TargetSpec,
    options: &ValidationOptions,
    pool: &mut WorkerPool,
    ctl: &SweepControl,
) -> Result<ValidationReport, Cancelled> {
    let tile_cols = max_tile_cols(stream.node_count());
    validation_sweep_tiled(stream, grid, targets, options, pool, ctl, tile_cols)
}

/// [`validation_sweep`] with tiles of at most `tile_cols` target columns.
pub(crate) fn validation_sweep_tiled(
    stream: &LinkStream,
    grid: &SweepGrid,
    targets: TargetSpec,
    options: &ValidationOptions,
    pool: &mut WorkerPool,
    ctl: &SweepControl,
    tile_cols: usize,
) -> Result<ValidationReport, Cancelled> {
    let targets = targets.build(stream.node_count() as u32);
    let ks = grid.k_values(stream, options.delta_min);
    let tiles = targets.tile_ranges(tile_cols);
    ctl.progress.set_total((ks.len() * tiles.len()) as u64);
    let exact = ExactStream::new(stream, options.weighted_transitions);
    let view = EventView::new(stream);
    let arenas: Vec<Mutex<EngineArena>> =
        (0..pool.parallelism()).map(|_| Mutex::default()).collect();
    let lock = |wid: usize| arenas[wid].lock().expect("arena poisoned");
    let cancel = Some(&ctl.cancel);

    let mut totals = vec![(0u64, ElongationSums::default()); ks.len()];
    let (mut reference_trips, mut reference_transitions) = (0, 0);
    for &tile in &tiles {
        let reference = exact.tile_trips(&mut lock(0), &targets, tile, cancel)?;
        reference_trips += reference.total_trips();
        reference_transitions += reference.transitions.total_weight;
        let items = pool.map(&ks, |wid, &k| {
            let partition = stream.partition(k).expect("grid yields valid k");
            let timeline = Timeline::aggregated_from_view(&view, k);
            let lost = lost_transition_weight(&reference.transitions, &partition);
            let mut arena = lock(wid);
            let sums = elongation_sums_in(
                &mut arena, &timeline, partition, &reference, &targets, cancel,
            );
            // a token fired mid-DP leaves the sums partial
            if ctl.cancel.is_cancelled() {
                return None;
            }
            ctl.progress.add_done(1);
            Some((lost, sums))
        });
        for (total, item) in totals.iter_mut().zip(items) {
            let (lost, tile) = item.ok_or(Cancelled)?;
            total.0 += lost;
            total.1.sum += tile.sum;
            total.1.count += tile.count;
            total.1.single_window += tile.single_window;
        }
    }

    let mut points: Vec<ValidationPoint> = ks
        .iter()
        .zip(totals)
        .map(|(&k, (lost, sums))| {
            let partition = stream.partition(k).expect("grid yields valid k");
            ValidationPoint {
                k,
                delta_ticks: partition.delta_ticks(),
                // 0 / 0 is NaN: the stream has no shortest transition
                lost_transitions: lost as f64 / reference_transitions as f64,
                elongation: sums.stats(&partition),
            }
        })
        .collect();
    points.sort_unstable_by_key(|p| std::cmp::Reverse(p.k));
    Ok(ValidationReport { points, reference_trips, reference_transitions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{Directedness, LinkStreamBuilder};

    fn stream() -> LinkStream {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 8);
        // chain-y activity with enough transitions
        for i in 0..160i64 {
            b.add_indexed((i % 8) as u32, ((i + 1) % 8) as u32, i * 7 + (i % 3));
        }
        b.build().unwrap()
    }

    /// A seeded random stream: `n` nodes, `links` links over `[0, 400)`.
    fn random_stream(
        seed: u64,
        n: u32,
        links: usize,
        directedness: Directedness,
    ) -> LinkStream {
        let mut state = seed;
        let mut next = move |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut b = LinkStreamBuilder::indexed(directedness, n);
        for _ in 0..links {
            let u = next(n as u64) as u32;
            let v = (u + 1 + next(n as u64 - 1) as u32) % n;
            b.add_indexed(u, v, next(400) as i64);
        }
        b.build().unwrap()
    }

    fn sweep(
        s: &LinkStream,
        grid: &SweepGrid,
        targets: TargetSpec,
        options: &ValidationOptions,
        pool: &mut WorkerPool,
        tile_cols: usize,
    ) -> ValidationReport {
        validation_sweep_tiled(s, grid, targets, options, pool, &SweepControl::new(), tile_cols)
            .expect("a sweep whose token never fires cannot be cancelled")
    }

    #[test]
    fn loss_is_monotone_in_delta_extremes() {
        let s = stream();
        let report = validation_sweep(
            &s,
            &SweepGrid::Geometric { points: 10 },
            TargetSpec::All,
            &ValidationOptions::default(),
            &mut WorkerPool::new(2),
            &SweepControl::new(),
        )
        .unwrap();
        assert!(report.reference_trips > 0);
        assert!(report.reference_transitions > 0);
        let first = report.points.first().unwrap();
        let last = report.points.last().unwrap();
        // finest scale: every timestamp its own window (almost) — low loss
        assert!(first.lost_transitions <= 0.2, "fine loss {}", first.lost_transitions);
        // Δ = T: everything collapses — total loss
        assert_eq!(last.k, 1);
        assert!((last.lost_transitions - 1.0).abs() < 1e-12);
    }

    #[test]
    fn elongation_starts_near_one() {
        let s = stream();
        let report = validation_sweep(
            &s,
            &SweepGrid::Geometric { points: 8 },
            TargetSpec::All,
            &ValidationOptions { weighted_transitions: false, ..Default::default() },
            &mut WorkerPool::new(1),
            &SweepControl::new(),
        )
        .unwrap();
        let fine = report.points.first().unwrap();
        if fine.elongation.count > 0 {
            assert!(
                (fine.elongation.mean - 1.0).abs() < 0.5,
                "fine-scale elongation should be near 1, got {}",
                fine.elongation.mean
            );
        }
        // every finite elongation mean is >= 1
        for p in &report.points {
            if p.elongation.count > 0 {
                assert!(
                    p.elongation.mean >= 1.0 - 1e-9,
                    "k={} mean={}",
                    p.k,
                    p.elongation.mean
                );
            }
        }
    }

    #[test]
    fn shared_pool_matches_transient_pool() {
        let s = stream();
        let grid = SweepGrid::Geometric { points: 8 };
        let opts = ValidationOptions::default();
        let ctl = SweepControl::new();
        let single =
            validation_sweep(&s, &grid, TargetSpec::All, &opts, &mut WorkerPool::new(1), &ctl)
                .unwrap();
        let mut pool = WorkerPool::new(3);
        // two consecutive sweeps on one pool: both must match exactly
        for _ in 0..2 {
            let ctl = SweepControl::new();
            let shared =
                validation_sweep(&s, &grid, TargetSpec::All, &opts, &mut pool, &ctl).unwrap();
            assert_eq!(shared.reference_trips, single.reference_trips);
            assert_eq!(shared.points.len(), single.points.len());
            for (a, b) in shared.points.iter().zip(&single.points) {
                assert_eq!(a.k, b.k);
                assert_eq!(a.lost_transitions.to_bits(), b.lost_transitions.to_bits());
                assert_eq!(a.elongation.mean.to_bits(), b.elongation.mean.to_bits());
            }
            // one tile covers this stream: progress counted one item per scale
            assert_eq!(ctl.progress.snapshot(), (8, 8));
        }
    }

    #[test]
    fn every_tile_width_gives_the_one_tile_report() {
        let grid = SweepGrid::Geometric { points: 9 };
        let mut pool = WorkerPool::new(2);
        for (seed, directedness) in [
            (1, Directedness::Undirected),
            (2, Directedness::Directed),
            (3, Directedness::Undirected),
        ] {
            let s = random_stream(seed, 9, 140, directedness);
            for targets in [TargetSpec::All, TargetSpec::Sample { size: 5, seed }] {
                for weighted_transitions in [true, false] {
                    let opts = ValidationOptions { weighted_transitions, ..Default::default() };
                    let whole = sweep(&s, &grid, targets, &opts, &mut pool, usize::MAX);
                    assert!(whole.reference_transitions > 0 && whole.points.len() > 3);
                    for width in [1, 2, 3, s.node_count()] {
                        let tiled = sweep(&s, &grid, targets, &opts, &mut pool, width);
                        assert_eq!(tiled.reference_trips, whole.reference_trips);
                        assert_eq!(tiled.reference_transitions, whole.reference_transitions);
                        assert_eq!(tiled.points.len(), whole.points.len());
                        for (a, b) in tiled.points.iter().zip(&whole.points) {
                            let at =
                                format!("seed {seed}, {targets:?}, width {width}, k {}", b.k);
                            assert_eq!(a.k, b.k, "{at}");
                            let lost =
                                (a.lost_transitions.to_bits(), b.lost_transitions.to_bits());
                            assert_eq!(lost.0, lost.1, "{at}");
                            let (ea, eb) = (a.elongation, b.elongation);
                            assert_eq!(
                                (ea.count, ea.single_window),
                                (eb.count, eb.single_window),
                                "{at}"
                            );
                            if eb.count == 0 {
                                assert!(ea.mean.is_nan(), "{at}");
                            } else {
                                let rel = (ea.mean - eb.mean).abs() / eb.mean;
                                assert!(rel <= 1e-12, "{at}: {} vs {}", ea.mean, eb.mean);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_multi_tile_sweep_is_bit_identical_across_pools() {
        let s = random_stream(7, 10, 200, Directedness::Undirected);
        let grid = SweepGrid::Geometric { points: 9 };
        let opts = ValidationOptions::default();
        let one = sweep(&s, &grid, TargetSpec::All, &opts, &mut WorkerPool::new(1), 3);
        let ctl = SweepControl::new();
        let three = validation_sweep_tiled(
            &s,
            &grid,
            TargetSpec::All,
            &opts,
            &mut WorkerPool::new(3),
            &ctl,
            3,
        )
        .unwrap();
        assert_eq!(
            serde_json::to_string(&one).unwrap(),
            serde_json::to_string(&three).unwrap()
        );
        for (a, b) in one.points.iter().zip(&three.points) {
            assert_eq!(a.elongation.mean.to_bits(), b.elongation.mean.to_bits());
        }
        // 4 tiles of at most 3 columns: one progress item per (tile, scale)
        let scales = one.points.len() as u64;
        assert_eq!(ctl.progress.snapshot(), (4 * scales, 4 * scales));
    }

    #[test]
    fn a_fired_token_cancels_the_sweep() {
        let s = random_stream(5, 10, 200, Directedness::Directed);
        let ctl = SweepControl::new();
        ctl.cancel.cancel();
        let grid = SweepGrid::Geometric { points: 6 };
        let opts = ValidationOptions::default();
        let result = validation_sweep_tiled(
            &s,
            &grid,
            TargetSpec::All,
            &opts,
            &mut WorkerPool::new(2),
            &ctl,
            3,
        );
        assert!(result.is_err());
        assert_eq!(ctl.progress.snapshot().0, 0);
    }
}
