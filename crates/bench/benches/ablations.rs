//! Ablation benches for the design choices called out in DESIGN.md §6:
//! selection-metric cost, grid strategy, and the distance-accumulation
//! option of the DP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use saturn_core::{OccupancyMethod, SweepGrid};
use saturn_distrib::{SelectionMetric, WeightedDist};
use saturn_synth::TimeUniform;
use saturn_trips::{dp::NullSink, earliest_arrival_dp, DpOptions, TargetSet, Timeline};

fn workload() -> saturn_linkstream::LinkStream {
    TimeUniform { nodes: 30, links_per_pair: 8, span: 50_000, seed: 5 }.generate()
}

/// Cost of each Section 7 uniformity metric on a realistic distribution.
fn bench_selection_metrics(c: &mut Criterion) {
    let stream = workload();
    let hist = saturn_trips::occupancy_histogram(&stream, 500, &TargetSet::all(30));
    let dist = WeightedDist::from_pairs(hist.sorted_rates());
    let mut group = c.benchmark_group("selection_metric_cost");
    for metric in SelectionMetric::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(metric.to_string().replace(' ', "_")),
            &metric,
            |b, m| b.iter(|| m.score(&dist)),
        );
    }
    group.finish();
}

/// Geometric vs linear grid at equal point count (γ quality is checked in
/// tests; this measures cost only — linear grids spend most points at
/// coarse scales where the DP is cheap).
fn bench_grid_strategy(c: &mut Criterion) {
    let stream = workload();
    let mut group = c.benchmark_group("grid_strategy");
    group.sample_size(10);
    for (label, grid) in [
        ("geometric", SweepGrid::Geometric { points: 16 }),
        ("linear", SweepGrid::Linear { points: 16 }),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &grid, |b, g| {
            b.iter(|| {
                OccupancyMethod::new().grid(g.clone()).threads(1).refine(0, 0).run(&stream)
            })
        });
    }
    group.finish();
}

/// DP with vs without the distance accumulator (the Figure 2 extra).
fn bench_distance_accumulation(c: &mut Criterion) {
    let stream = workload();
    let timeline = Timeline::aggregated(&stream, 2_000);
    let mut group = c.benchmark_group("dp_distance_option");
    for (label, collect) in [("trips_only", false), ("with_distances", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &collect, |b, &collect| {
            b.iter(|| {
                earliest_arrival_dp(
                    &timeline,
                    &TargetSet::all(30),
                    &mut NullSink,
                    DpOptions { collect_distances: collect },
                )
            })
        });
    }
    group.finish();
}

/// Refinement rounds: extra cost of sharpening γ.
fn bench_refinement(c: &mut Criterion) {
    let stream = workload();
    let mut group = c.benchmark_group("refinement_rounds");
    group.sample_size(10);
    for rounds in [0usize, 1, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(rounds), &rounds, |b, &r| {
            b.iter(|| {
                OccupancyMethod::new()
                    .grid(SweepGrid::Geometric { points: 16 })
                    .threads(1)
                    .refine(r, 8)
                    .run(&stream)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_selection_metrics,
    bench_grid_strategy,
    bench_distance_accumulation,
    bench_refinement
);
criterion_main!(benches);
