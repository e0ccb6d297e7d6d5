//! Emits `BENCH_sweep.json`: the sweep engine's performance trajectory,
//! committed to the repository so future PRs can track speedups/regressions
//! without re-running the whole suite.
//!
//! Three workloads bracket the engine's regimes:
//!
//! * `dense_uniform` — all-pairs activity on 60 nodes: rows saturate almost
//!   immediately, so the frontier bitmap degenerates to a sequential row
//!   walk (this bounds the *overhead* of the pruning machinery);
//! * `sparse_ring` — 600 nodes on a ring: per-row reachability stays far
//!   below `n` for most of the backward sweep (the regime of the paper's
//!   sparse contact datasets), where the pruning pays off outright;
//! * `sparse_burst` — 600 nodes with bursty contact trains (face-to-face
//!   dataset texture): the same edge recurs across consecutive fine-scale
//!   windows with unchanged continuation rows, the regime the engine's
//!   delta propagation targets.
//!
//! Per scale, the pipeline (shared sorted event view + frontier/arena
//! engine) is timed, and its checksum (trip stream + distance sums) is
//! hard-asserted equal to `dp::baseline`'s — the differential oracle at
//! bench scale. The median comes with the min and max of its reps, so a
//! reader can tell a change from the run-to-run spread.
//! The `intra_scale` section also times one dense scale's DP into a
//! counting sink and into the `RateCounter` trip sink (its `sink` row), with
//! the counter's histogram hard-asserted equal to the one `dp::baseline`
//! records. The same row times the histogram layer on the bench scale with
//! the most distinct rates: the counter's seal (`finish`) and the scoring a
//! sweep runs on the sealed histogram (scores, mean, saturated fraction).
//! End-to-end `OccupancyMethod::run` timings and a peak-RSS proxy (`VmHWM`)
//! round out the record.
//!
//! ```sh
//! cargo run --release -p saturn-bench --bin bench_sweep           # full
//! SATURN_FAST=1 cargo run --release -p saturn-bench --bin bench_sweep
//! SATURN_BENCH_OUT=BENCH_sweep.json  # output path (default)
//! ```

#![forbid(unsafe_code)]

use saturn_core::parallel::WorkerPool;
use saturn_core::{histogram_scores, OccupancyMethod, SweepCache, SweepControl, SweepGrid};
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};
use saturn_synth::TimeUniform;
use saturn_trips::dp::{baseline, NullSink};
use saturn_trips::{
    earliest_arrival_dp_in, occupancy_histogram_in, DpOptions, DpRun, DpStats, EngineArena,
    EventView, OccupancyHistogram, RateCounter, TargetSet, Timeline, TripSink,
};
use serde_json::Value;
use std::time::Instant;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `(min, median, max)` wall time of `reps` runs of `f`, in seconds.
fn time_spread<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, f64, f64) {
    spread(
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Median-of-`reps` wall time of `f`, in seconds.
fn time_median<R>(reps: usize, f: impl FnMut() -> R) -> f64 {
    time_spread(reps, f).1
}

/// `(min, median, max)` of `times`.
fn spread(mut times: Vec<f64>) -> (f64, f64, f64) {
    times.sort_by(f64::total_cmp);
    (times[0], times[times.len() / 2], times[times.len() - 1])
}

/// Peak resident set size in kilobytes, read from `/proc/self/status`
/// (`VmHWM`). `None` off Linux — the field is then absent from the JSON.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The CPU model name from `/proc/cpuinfo`; `None` off Linux.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn sparse_ring(n: u32, reps: i64) -> LinkStream {
    let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, n);
    for rep in 0..reps {
        for i in 0..n {
            b.add_indexed(i, (i + 1) % n, rep * 1000 + (i as i64 % 997));
        }
    }
    b.build().unwrap()
}

/// Bursty contact trains: every ring pair is active in short trains of
/// closely spaced events separated by long silences — the temporal texture
/// of face-to-face contact datasets (and the regime `dense_uniform` /
/// `sparse_ring` don't cover). Within a train the same edge fires in many
/// consecutive fine-scale windows while the rest of the graph is quiet, so
/// its continuation rows almost never change between firings: the workload
/// where delta propagation should shine.
fn sparse_burst(n: u32, trains: i64, burst: i64) -> LinkStream {
    let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, n);
    for train in 0..trains {
        for i in 0..n {
            // deterministic per-pair jitter desynchronizes train starts
            let start = train * 10_000 + (i as i64 * 389) % 7_919;
            for e in 0..burst {
                b.add_indexed(i, (i + 1) % n, start + e * 3);
            }
        }
    }
    b.build().unwrap()
}

/// An order-sensitive mixing fold over a trip stream.
#[derive(Default)]
struct TripChecksum(u64);

impl TripSink for TripChecksum {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
        let mut x = self.0 ^ (u as u64 | (v as u64) << 32);
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        x ^= dep as u64 | (arr as u64) << 20 | (hops as u64) << 44;
        self.0 = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
}

impl TripChecksum {
    /// The full-result checksum of a run that fed this sink: the trip fold
    /// plus the exact distance sums.
    fn digest(&self, stats: &DpStats) -> (u64, i128, i128, i128) {
        let d = stats.distances.expect("checksum runs collect distances");
        (self.0 ^ stats.trips, d.sum_dtime_steps, d.sum_dhops, d.finite_triples)
    }
}

/// What one workload's run measured.
struct WorkloadRun {
    json: Value,
    /// `(distinct rates, k)` of the scale with the most distinct rates.
    richest_scale: (usize, u64),
}

/// Times one workload across `scales`. Each scale's frontier-vs-baseline
/// checksum is hard-asserted: a mismatch is a correctness bug, so it aborts
/// the bench (and CI) rather than recording garbage trend data.
fn measure_workload(
    name: &str,
    stream: &LinkStream,
    scales: &[u64],
    reps: usize,
) -> WorkloadRun {
    let n = stream.node_count() as u32;
    let targets = TargetSet::all(n);
    let view = EventView::new(stream);
    println!("workload {name}: n={n} events={} span={}", stream.len(), stream.span());

    let mut per_scale = Vec::new();
    let mut all_match = true;
    let mut richest_scale = (0, 0);
    let checksum_options = DpOptions { collect_distances: true };
    for &k in scales {
        let timeline = Timeline::aggregated_from_view(&view, k);
        let mut frontier_sum = TripChecksum::default();
        let frontier = earliest_arrival_dp_in(
            &mut EngineArena::new(),
            &timeline,
            &targets,
            &mut frontier_sum,
            checksum_options,
        );
        let mut baseline_sum = TripChecksum::default();
        let oracle = baseline::earliest_arrival_dp(
            &timeline,
            &targets,
            &mut baseline_sum,
            checksum_options,
        );
        let ok = frontier_sum.digest(&frontier) == baseline_sum.digest(&oracle);
        all_match &= ok;
        assert!(ok, "frontier vs baseline checksum diverged: {name} k={k}");
        let traversals = frontier.traversals;
        let rates = occupancy_histogram_in(&mut EngineArena::new(), &timeline, &targets)
            .distinct_rates();
        richest_scale = richest_scale.max((rates, k));

        let mut arena = EngineArena::new();
        let (t_min, t_current, t_max) = time_spread(reps, || {
            let t = Timeline::aggregated_from_view(&view, k);
            earliest_arrival_dp_in(
                &mut arena,
                &t,
                &targets,
                &mut NullSink,
                DpOptions::default(),
            )
        });
        println!(
            "  k={k:>7}  current {:>9.3} ms  {:.1}M traversals/s",
            t_current * 1e3,
            traversals as f64 / t_current / 1e6,
        );
        per_scale.push(obj(vec![
            ("k", Value::Int(k as i128)),
            ("edges", Value::Int(timeline.total_edges() as i128)),
            ("traversals", Value::Int(traversals as i128)),
            ("current_pipeline_seconds", Value::Float(t_current)),
            ("current_pipeline_min_seconds", Value::Float(t_min)),
            ("current_pipeline_max_seconds", Value::Float(t_max)),
            ("traversals_per_second", Value::Float(traversals as f64 / t_current)),
            ("trips", Value::Int(frontier.trips as i128)),
            ("distinct_rates", Value::Int(rates as i128)),
            ("checksum_match", Value::Bool(ok)),
        ]));
    }
    let json = obj(vec![
        ("nodes", Value::Int(n as i128)),
        ("events", Value::Int(stream.len() as i128)),
        ("span_ticks", Value::Int(stream.span() as i128)),
        ("per_scale", Value::Array(per_scale)),
        ("checksums_match", Value::Bool(all_match)),
    ]);
    WorkloadRun { json, richest_scale }
}

/// Merges the tiles of `ranges` into one histogram with a shared arena and
/// a shared counter, as one sweep worker does.
fn tiled_histogram(
    arena: &mut EngineArena,
    counter: &mut RateCounter,
    timeline: &Timeline,
    targets: &TargetSet,
    ranges: &[(u32, u32)],
) -> OccupancyHistogram {
    let mut acc = OccupancyHistogram::new();
    for &(start, len) in ranges {
        let run = DpRun { tile: Some((start, len)), ..Default::default() };
        earliest_arrival_dp_in(arena, timeline, targets, counter, run);
        acc.merge_owned(counter.finish());
    }
    acc
}

/// A sink that only counts: the DP with the cheapest possible consumer.
#[derive(Default)]
struct CountingSink(u64);

impl TripSink for CountingSink {
    fn minimal_trip(&mut self, _: u32, _: u32, _: u32, _: u32, _: u32) {
        self.0 += 1;
    }
}

/// The scale of the bench with the most distinct rates, where the
/// `intra_scale.sink` row times the histogram layer.
struct RichestScale<'a> {
    workload: &'a str,
    stream: &'a LinkStream,
    k: u64,
}

/// The histogram layer on one scale: the untiled DP's trips sealed by
/// [`RateCounter::finish`] (timed alone, the DP is rerun untimed before
/// each seal), and the scoring a sweep runs on the sealed histogram.
fn measure_histogram_layer(scale: &RichestScale, reps: usize) -> Vec<(&'static str, Value)> {
    let targets = TargetSet::all(scale.stream.node_count() as u32);
    let timeline = Timeline::aggregated(scale.stream, scale.k);
    let mut arena = EngineArena::new();
    let mut counter = RateCounter::new();
    let mut hist = OccupancyHistogram::new();
    let seals = (0..reps)
        .map(|_| {
            earliest_arrival_dp_in(
                &mut arena,
                &timeline,
                &targets,
                &mut counter,
                DpOptions::default(),
            );
            let start = Instant::now();
            hist = std::hint::black_box(counter.finish());
            start.elapsed().as_secs_f64()
        })
        .collect();
    let (_, seal, _) = spread(seals);
    let score =
        time_median(reps, || (histogram_scores(&hist), hist.mean(), hist.fraction_at_one()));
    println!(
        "  intra_scale histogram layer ({} k={}, {} rates): seal {:.3} ms  score {:.3} ms",
        scale.workload,
        scale.k,
        hist.distinct_rates(),
        seal * 1e3,
        score * 1e3,
    );
    vec![
        ("seal_seconds", Value::Float(seal)),
        ("score_seconds", Value::Float(score)),
        ("seal_workload", Value::String(scale.workload.to_string())),
        ("seal_k", Value::Int(scale.k as i128)),
        ("seal_distinct_rates", Value::Int(hist.distinct_rates() as i128)),
    ]
}

/// The `intra_scale.sink` row: the untiled DP of one scale timed into a
/// counting sink and into a [`RateCounter`] sealed by `finish`, so their
/// ratio is the trip sink's share of the histogram DP. The histogram is
/// hard-asserted equal to the one the `dp::baseline` oracle records. The
/// row ends with [`measure_histogram_layer`] on `richest`.
fn measure_sink(
    arena: &mut EngineArena,
    timeline: &Timeline,
    targets: &TargetSet,
    richest: &RichestScale,
    reps: usize,
) -> Value {
    let t_counting = time_median(reps, || {
        let mut sink = CountingSink::default();
        earliest_arrival_dp_in(arena, timeline, targets, &mut sink, DpOptions::default());
        sink.0
    });
    let mut counter = RateCounter::new();
    let t_counter = time_median(reps, || {
        earliest_arrival_dp_in(arena, timeline, targets, &mut counter, DpOptions::default());
        counter.finish()
    });
    earliest_arrival_dp_in(arena, timeline, targets, &mut counter, DpOptions::default());
    let hist = counter.finish();
    baseline::earliest_arrival_dp(timeline, targets, &mut counter, DpOptions::default());
    let ok = hist == counter.finish();
    assert!(ok, "sink: the counter's histogram diverges from the baseline engine's");
    let overhead = t_counter / t_counting;
    println!(
        "  intra_scale sink: counting {:.3} ms  counter {:.3} ms  ({overhead:.3}x)  \
         {} trips, {} rates",
        t_counting * 1e3,
        t_counter * 1e3,
        hist.total_trips(),
        hist.distinct_rates(),
    );
    let mut row = vec![
        ("counting_seconds", Value::Float(t_counting)),
        ("counter_seconds", Value::Float(t_counter)),
        ("counter_vs_counting", Value::Float(overhead)),
        ("trips", Value::Int(hist.total_trips() as i128)),
        ("distinct_rates", Value::Int(hist.distinct_rates() as i128)),
        ("checksum_match", Value::Bool(ok)),
    ];
    row.extend(measure_histogram_layer(richest, reps));
    obj(row)
}

/// The `intra_scale` section: what splitting one scale into target tiles
/// costs (the sweep tiles for its memory budget only), and the wall time of
/// a one-scale sweep by worker count. Tiled-vs-untiled checksums are hard-asserted — a mismatch aborts the
/// bench (and CI) rather than recording garbage trend data.
fn measure_intra_scale(
    dense: &LinkStream,
    richest: &RichestScale,
    fast: bool,
    reps: usize,
) -> Value {
    // --- tile-size sensitivity on one dense scale, single-threaded --------
    let k = if fast { 1_000u64 } else { 10_000 };
    let targets = TargetSet::all(dense.node_count() as u32);
    let ncols = targets.len();
    let view = EventView::new(dense);
    let timeline = Timeline::aggregated_from_view(&view, k);
    let mut arena = EngineArena::new();
    let mut counter = RateCounter::new();
    let t_untiled =
        time_median(reps, || occupancy_histogram_in(&mut arena, &timeline, &targets));
    let reference = occupancy_histogram_in(&mut arena, &timeline, &targets);
    let sink = measure_sink(&mut arena, &timeline, &targets, richest, reps);

    let mut checksums_match = true;
    let mut tile_sensitivity = Vec::new();
    let mut overhead_at_two_tiles = f64::NAN;
    for tiles in [2usize, 4, 8] {
        let tile = ncols.div_ceil(tiles).max(1);
        let ranges = targets.tile_ranges(tile);
        let t = time_median(reps, || {
            tiled_histogram(&mut arena, &mut counter, &timeline, &targets, &ranges)
        });
        let merged = tiled_histogram(&mut arena, &mut counter, &timeline, &targets, &ranges);
        let ok = merged == reference;
        checksums_match &= ok;
        assert!(ok, "tiled histogram (tile={tile}) diverges from untiled");
        let overhead = t / t_untiled;
        if tiles == 2 {
            overhead_at_two_tiles = overhead;
        }
        println!(
            "  intra_scale dense k={k} tile={tile} ({} tiles): {:.3} ms ({overhead:.3}x untiled)",
            ranges.len(),
            t * 1e3,
        );
        tile_sensitivity.push(obj(vec![
            ("tile_cols", Value::Int(tile as i128)),
            ("tiles", Value::Int(ranges.len() as i128)),
            ("seconds", Value::Float(t)),
            ("overhead_vs_untiled", Value::Float(overhead)),
        ]));
    }

    // --- single-scale wall time vs worker count (one item: no tiling) -----
    let mut single_scale_threads = Vec::new();
    for threads in [1usize, 2, 4] {
        let t = time_median(reps.min(3), || {
            OccupancyMethod::new()
                .grid(SweepGrid::ExplicitK(vec![k]))
                .threads(threads)
                .refine(0, 0)
                .run(dense)
        });
        println!("  intra_scale single-scale threads={threads}: {:.3} ms", t * 1e3);
        single_scale_threads.push(obj(vec![
            ("threads", Value::Int(threads as i128)),
            ("run_seconds", Value::Float(t)),
        ]));
    }

    obj(vec![
        ("dense_scale_k", Value::Int(k as i128)),
        ("untiled_seconds", Value::Float(t_untiled)),
        ("tiled_single_thread_overhead", Value::Float(overhead_at_two_tiles)),
        ("checksums_match", Value::Bool(checksums_match)),
        ("sink", sink),
        ("tile_sensitivity", Value::Array(tile_sensitivity)),
        ("single_scale_threads", Value::Array(single_scale_threads)),
    ])
}

/// The `streaming` section: what an ingest session's sweep cache buys. A
/// pinned-period ring stream grows through append rounds landing in the
/// late suffix (the `/v1/streams` access pattern), and each round times a
/// warm [`OccupancyMethod::try_refresh_on`] against a scratch sweep of the
/// same grown stream. Refresh-vs-scratch reports are hard-asserted
/// byte-identical (`to_json`) — the session cache must be invisible in
/// report bytes, visible only in wall time. A final append-free refresh
/// records the full-reuse path (every scale served from cached histograms).
fn measure_streaming(fast: bool, reps: usize) -> Value {
    let n: u32 = if fast { 100 } else { 150 };
    let span: i64 = if fast { 40_000 } else { 100_000 };
    let comb: i64 = if fast { 250 } else { 500 };
    let rounds: i64 = 4;
    // small poll-between-batches appends: a live feed delivers a handful of
    // contact continuations between re-analyzes, not bulk backfills
    let batch: i64 = if fast { 12 } else { 24 };
    let points = if fast { 8 } else { 12 };
    let reps = reps.min(3);

    // base ring activity is a per-pair comb covering the whole pinned
    // period: every window at least `comb` wide provably holds every ring
    // edge. Append rounds then re-fire existing pairs 1-3 ticks after one
    // of their late comb events — the contact-train texture of streamed
    // face-to-face data, where a live edge keeps firing at closely spaced
    // timestamps. At every scale whose windows absorb that spacing the
    // appends deduplicate away, the spliced timeline comes back
    // field-for-field identical, and the cached histogram is served with
    // zero DP work; only the tick-finest scales recompute.
    let append_from = span * 9 / 10;
    let mut builder = LinkStreamBuilder::indexed(Directedness::Undirected, n);
    builder.period(0, span);
    for u in 0..n {
        let mut t = (u as i64 * 37) % comb;
        while t <= span {
            builder.add_indexed(u, (u + 1) % n, t);
            t += comb;
        }
    }
    let base = builder.snapshot().expect("non-empty base");

    // the method configuration `/v1/streams/<id>/analyze` runs: geometric
    // grid, default refinement
    let method = OccupancyMethod::new().grid(SweepGrid::Geometric { points }).threads(1);
    let mut pool = WorkerPool::new(1);
    let ctl = SweepControl::new();
    let mut cache = SweepCache::new();
    let cold_start = Instant::now();
    let cold = method
        .try_refresh_on(&base, &mut pool, &ctl, &mut cache, None)
        .expect("never cancelled");
    let cold_seconds = cold_start.elapsed().as_secs_f64();
    assert!(
        cold.to_json() == method.run_on(&base, &mut pool).to_json(),
        "streaming cold refresh diverged from scratch"
    );
    println!(
        "  streaming n={n} events_base={} points={points}: cold refresh {:.3} ms",
        base.len(),
        cold_seconds * 1e3,
    );

    let mut per_round = Vec::new();
    let mut all_identical = true;
    let (mut total_scratch, mut total_refresh) = (0.0f64, 0.0f64);
    let (mut reused, mut respliced, mut suffix_rebuilt) = (0u64, 0u64, 0u64);
    let mut scales = 0u64;
    let mut clean_refresh_seconds = 0.0f64;
    // round `rounds` appends nothing: the clean full-reuse refresh
    for r in 0..=rounds {
        let dirty = if r < rounds {
            let lo = append_from + (span - append_from) * r / rounds;
            for i in 0..batch {
                let u = ((i * 13 + r * 7) % n as i64) as u32;
                // the first comb event of pair u at or after `lo`, continued
                // one tick later (comb spacing keeps t off the comb itself)
                let t0 = lo + ((u as i64 * 37) % comb - lo).rem_euclid(comb);
                let t = (t0 + 1).min(span);
                builder.add_indexed(u, (u + 1) % n, t);
            }
            Some(lo)
        } else {
            None
        };
        let grown = builder.snapshot().expect("non-empty");
        let t_scratch = time_median(reps, || method.run_on(&grown, &mut pool));
        // each rep refreshes a clone of the pre-round cache, so every rep
        // does the same (warm) work; the clone cost lands on the refresh
        // side, making the reported speedup conservative
        let t_refresh = time_median(reps, || {
            let mut warm = cache.clone();
            method.try_refresh_on(&grown, &mut pool, &ctl, &mut warm, dirty)
        });
        let refreshed = method
            .try_refresh_on(&grown, &mut pool, &ctl, &mut cache, dirty)
            .expect("never cancelled");
        let stats = cache.stats;
        let ok = refreshed.to_json() == method.run_on(&grown, &mut pool).to_json();
        all_identical &= ok;
        assert!(ok, "streaming round {r}: refresh diverged from scratch");
        let speedup = t_scratch / t_refresh;
        println!(
            "  streaming round {r}: events={:>6}  scratch {:>8.3} ms  refresh {:>8.3} ms  \
             ({speedup:.2}x)  reused {}/{} respliced {} suffix_windows {}",
            grown.len(),
            t_scratch * 1e3,
            t_refresh * 1e3,
            stats.scales_reused,
            stats.scales_total,
            stats.scales_respliced,
            stats.suffix_windows_rebuilt,
        );
        if r < rounds {
            total_scratch += t_scratch;
            total_refresh += t_refresh;
        } else {
            clean_refresh_seconds = t_refresh;
        }
        reused += stats.scales_reused;
        respliced += stats.scales_respliced;
        suffix_rebuilt += stats.suffix_windows_rebuilt;
        scales = stats.scales_total;
        per_round.push(obj(vec![
            ("round", Value::Int(r as i128)),
            ("events", Value::Int(grown.len() as i128)),
            ("dirty_from", dirty.map_or(Value::Null, |t| Value::Int(t as i128))),
            ("scratch_seconds", Value::Float(t_scratch)),
            ("refresh_seconds", Value::Float(t_refresh)),
            ("speedup", Value::Float(speedup)),
            ("scales_total", Value::Int(stats.scales_total as i128)),
            ("scales_reused", Value::Int(stats.scales_reused as i128)),
            ("scales_respliced", Value::Int(stats.scales_respliced as i128)),
            ("scales_scratch", Value::Int(stats.scales_scratch as i128)),
            ("suffix_windows_rebuilt", Value::Int(stats.suffix_windows_rebuilt as i128)),
            ("reports_identical", Value::Bool(ok)),
        ]));
    }
    let events_appended = builder.len() as i64 - base.len() as i64;
    let speedup = total_scratch / total_refresh;
    println!(
        "  streaming totals: scratch {:.3} s  refresh {:.3} s  ({speedup:.2}x over append \
         rounds, clean refresh {:.3} ms)",
        total_scratch,
        total_refresh,
        clean_refresh_seconds * 1e3,
    );
    obj(vec![
        ("workload", Value::String("streaming_ring".to_string())),
        ("nodes", Value::Int(n as i128)),
        ("span_ticks", Value::Int(span as i128)),
        ("points", Value::Int(points as i128)),
        ("events_base", Value::Int(base.len() as i128)),
        ("events_appended", Value::Int(events_appended as i128)),
        ("append_rounds", Value::Int(rounds as i128)),
        ("cold_refresh_seconds", Value::Float(cold_seconds)),
        ("scales", Value::Int(scales as i128)),
        ("scales_reused", Value::Int(reused as i128)),
        ("scales_respliced", Value::Int(respliced as i128)),
        ("suffix_windows_rebuilt", Value::Int(suffix_rebuilt as i128)),
        ("scratch_seconds", Value::Float(total_scratch)),
        ("refresh_seconds", Value::Float(total_refresh)),
        ("clean_refresh_seconds", Value::Float(clean_refresh_seconds)),
        ("speedup", Value::Float(speedup)),
        ("reports_identical", Value::Bool(all_identical)),
        ("per_round", Value::Array(per_round)),
    ])
}

fn main() {
    let fast = saturn_bench::fast_mode();
    let reps = if fast { 3 } else { 5 };

    let dense = if fast {
        TimeUniform { nodes: 24, links_per_pair: 4, span: 20_000, seed: 7 }.generate()
    } else {
        TimeUniform { nodes: 60, links_per_pair: 6, span: 100_000, seed: 7 }.generate()
    };
    let sparse = if fast { sparse_ring(120, 10) } else { sparse_ring(600, 40) };
    let burst = if fast { sparse_burst(120, 4, 6) } else { sparse_burst(600, 8, 8) };
    let scales: Vec<u64> = if fast {
        vec![100, 1_000, 10_000]
    } else {
        vec![1_000, 2_000, 10_000, 20_000, 100_000]
    };

    let workloads =
        [("dense_uniform", &dense), ("sparse_ring", &sparse), ("sparse_burst", &burst)];
    let runs: Vec<WorkloadRun> = workloads
        .iter()
        .map(|&(name, stream)| measure_workload(name, stream, &scales, reps))
        .collect();
    let ((_, k), (workload, stream)) = runs
        .iter()
        .map(|run| run.richest_scale)
        .zip(workloads)
        .max_by_key(|&((rates, _), _)| rates)
        .expect("three workloads");
    let richest = RichestScale { workload, stream, k };

    println!("intra-scale parallelism (target tiling):");
    let intra_scale = measure_intra_scale(&dense, &richest, fast, reps);

    println!("streaming ingest refresh (session sweep cache) vs scratch sweeps:");
    let streaming = measure_streaming(fast, reps);

    // --- end-to-end method timings on the dense workload ------------------
    let grid = SweepGrid::Geometric { points: if fast { 10 } else { 16 } };
    let mut end_to_end = Vec::new();
    for threads in [1usize, 2, 4] {
        let t = time_median(reps.min(3), || {
            OccupancyMethod::new().grid(grid.clone()).threads(threads).refine(2, 6).run(&dense)
        });
        println!("method threads={threads}: {t:.3} s");
        end_to_end.push(obj(vec![
            ("threads", Value::Int(threads as i128)),
            ("run_seconds", Value::Float(t)),
        ]));
    }

    let mut top = vec![
        (
            "description",
            Value::String(
                "Sweep-engine perf trajectory: per-scale wall time of the pipeline \
                 (shared sorted event view + frontier/arena engine) with hard-asserted \
                 frontier-vs-baseline checksums, traversal throughput, end-to-end method \
                 timings. Regenerate: cargo run --release -p saturn-bench --bin bench_sweep"
                    .to_string(),
            ),
        ),
        (
            "host",
            obj(vec![
                (
                    "available_parallelism",
                    Value::Int(
                        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
                            as i128,
                    ),
                ),
                ("fast_mode", Value::Bool(fast)),
                ("cpu_model", cpu_model().map_or(Value::Null, Value::String)),
            ]),
        ),
    ];
    top.extend(
        workloads.iter().map(|&(name, _)| name).zip(runs.into_iter().map(|run| run.json)),
    );
    top.extend([
        ("intra_scale", intra_scale),
        ("streaming", streaming),
        ("end_to_end", Value::Array(end_to_end)),
    ]);
    if let Some(kb) = peak_rss_kb() {
        top.push(("peak_rss_kb", Value::Int(kb as i128)));
    }

    let out_path =
        std::env::var("SATURN_BENCH_OUT").unwrap_or_else(|_| "BENCH_sweep.json".to_string());
    std::fs::write(&out_path, obj(top).to_string_pretty()).expect("cannot write bench output");
    println!("wrote {out_path}");
}
