//! Bit-identical results across worker-pool sizes, exercising the full
//! refinement path: the coarse sweep plus several refinement rounds all run
//! on one pool, each round on its own scoped workers with per-worker
//! arenas that live for the whole analysis, and nothing about thread
//! count, work-stealing order, or arena reuse may leak into the scores.

use saturn_core::{KeepPolicy, OccupancyMethod, SweepGrid, TargetSpec};
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};

fn bursty_stream(n: u32, reps: usize, gap: i64) -> LinkStream {
    let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, n);
    for r in 0..reps {
        let base = r as i64 * gap * (n as i64);
        for i in 0..n {
            b.add_indexed(i, (i + 1) % n, base + i as i64 * gap);
            if i % 3 == 0 {
                b.add_indexed(i, (i + 2) % n, base + i as i64 * gap + 1);
            }
        }
    }
    b.build().unwrap()
}

/// Runs the method with `threads` workers, refinement on.
fn run(stream: &LinkStream, threads: usize) -> saturn_core::OccupancyReport {
    OccupancyMethod::new()
        .grid(SweepGrid::Geometric { points: 14 })
        .threads(threads)
        .refine(3, 6)
        .keep(KeepPolicy::ScoresOnly)
        .run(stream)
}

#[test]
fn refinement_is_bit_identical_across_thread_counts() {
    let stream = bursty_stream(9, 12, 7);
    let reference = run(&stream, 1);
    assert!(reference.gamma().is_some(), "non-degenerate stream must yield γ");
    // refinement must actually have added scales beyond the coarse grid
    assert!(
        reference.results().len() > 14,
        "refinement path not exercised: {} scales",
        reference.results().len()
    );

    for threads in [2usize, 3, 8] {
        let other = run(&stream, threads);
        assert_eq!(reference.results().len(), other.results().len(), "threads={threads}");
        for (a, b) in reference.results().iter().zip(other.results()) {
            assert_eq!(a.k, b.k, "threads={threads}");
            assert_eq!(a.trips, b.trips, "threads={threads} k={}", a.k);
            assert_eq!(a.distinct_rates, b.distinct_rates, "threads={threads} k={}", a.k);
            // every score must match to the bit, not within epsilon
            assert_eq!(
                a.scores.mk_proximity.to_bits(),
                b.scores.mk_proximity.to_bits(),
                "threads={threads} k={}",
                a.k
            );
            assert_eq!(
                a.scores.std_dev.to_bits(),
                b.scores.std_dev.to_bits(),
                "threads={threads} k={}",
                a.k
            );
            assert_eq!(
                a.scores.cre.to_bits(),
                b.scores.cre.to_bits(),
                "threads={threads} k={}",
                a.k
            );
            assert_eq!(
                a.mean_rate.to_bits(),
                b.mean_rate.to_bits(),
                "threads={threads} k={}",
                a.k
            );
        }
        let (ga, gb) = (reference.gamma().unwrap(), other.gamma().unwrap());
        assert_eq!(ga.k, gb.k, "threads={threads}");
        assert_eq!(ga.score.to_bits(), gb.score.to_bits(), "threads={threads}");
    }
}

#[test]
fn sampled_targets_are_deterministic_across_threads_too() {
    let stream = bursty_stream(12, 8, 5);
    let mk = |threads: usize| {
        OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 10 })
            .targets(TargetSpec::Sample { size: 5, seed: 11 })
            .threads(threads)
            .refine(2, 4)
            .run(&stream)
    };
    let a = mk(1);
    let b = mk(4);
    assert_eq!(a.results().len(), b.results().len());
    for (x, y) in a.results().iter().zip(b.results()) {
        assert_eq!(x.k, y.k);
        assert_eq!(x.trips, y.trips);
        assert_eq!(x.scores.mk_proximity.to_bits(), y.scores.mk_proximity.to_bits());
    }
}
