//! One full analysis as a user runs it, and its traced per-layer replay.
//!
//! [`analyze`] is the end-to-end unit of work: trace text → `read_str` →
//! `OccupancyMethod::run_on` → `to_json`. [`replay`] re-executes the same
//! analysis on one thread through the public per-layer entry points —
//! `EventView::new`, `Timeline::aggregated_from_view` /
//! `aggregated_by_merge` along the sweep's `merge_sources` plan (one plan
//! per round: the coarse grid, then each refinement round, as `run_on`
//! plans them), `occupancy_histogram_in`, histogram merge and scoring —
//! with a span around each call, so every layer gets a self time. A
//! counting-sink ablation (`earliest_arrival_dp_in` with a sink that only
//! counts) then splits the histogram DP into the DP proper and the trip
//! sink.

use crate::trace::Tracer;
use saturn_core::parallel::{merge_sources, WorkerPool};
use saturn_core::{
    OccupancyMethod, OccupancyReport, SweepGrid, TargetSpec, UniformityScores,
};
use saturn_distrib::WeightedDist;
use saturn_linkstream::{io, Directedness};
use saturn_trips::{
    earliest_arrival_dp_in, occupancy_histogram_in, DpOptions, EngineArena, EventView,
    OccupancyHistogram, Timeline, TripSink,
};

/// The replay may leave at most this share of its traced wall time outside
/// every named layer span; a larger gap fails the traced run.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.05;
/// The traced replay's wall time may differ from the untraced one-thread
/// analysis of the same trace by at most this share; a larger gap means the
/// replay no longer does the program's work, and fails the traced run.
pub const OVERHEAD_TOLERANCE: f64 = 0.30;
/// Refinement of every analysis: `OccupancyMethod`'s default, spelled out
/// because the replay has to plan the same rounds.
pub const REFINE_ROUNDS: usize = 2;
pub const REFINE_POINTS: usize = 8;

/// The method every workload runs: `grid`, default target set and
/// selection metric, and the default refinement.
pub fn method(grid: SweepGrid) -> OccupancyMethod {
    OccupancyMethod::new().grid(grid).refine(REFINE_ROUNDS, REFINE_POINTS)
}

/// One analysis from trace text to report JSON.
pub fn analyze(
    text: &str,
    directedness: Directedness,
    method: &OccupancyMethod,
    pool: &mut WorkerPool,
) -> (String, OccupancyReport) {
    let stream = io::read_str(text, directedness).expect("generated traces parse");
    let report = method.run_on(&stream, pool);
    (report.to_json(), report)
}

/// Replays `report`'s analysis `REPLAYS` times, each right after an
/// untraced one-thread analysis of the same text, so that both are timed
/// under the same host conditions. Returns the layers of the replay with the
/// median wall time and the median untraced time.
pub fn replay_against_untraced(
    tracer: &Tracer,
    text: &str,
    directedness: Directedness,
    grid: &SweepGrid,
    report: &OccupancyReport,
) -> (Layers, f64) {
    let method = method(grid.clone());
    let mut pool = WorkerPool::new(1);
    let mut untraced = Vec::new();
    let mut replays: Vec<Layers> = (0..REPLAYS)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(analyze(text, directedness, &method, &mut pool));
            untraced.push(t.elapsed().as_secs_f64());
            replay(tracer, text, directedness, grid, report)
        })
        .collect();
    replays.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    untraced.sort_by(f64::total_cmp);
    (replays.swap_remove(REPLAYS / 2), untraced[REPLAYS / 2])
}

/// Traced replays (and untraced analyses) per attributed trace.
const REPLAYS: usize = 5;

/// A sink that only counts: the DP with the cheapest possible consumer.
struct CountingSink(u64);

impl TripSink for CountingSink {
    fn minimal_trip(&mut self, _: u32, _: u32, _: u32, _: u32, _: u32) {
        self.0 += 1;
    }
}

/// Per-layer figures of one replayed analysis (sums over its scales).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub parse_s: f64,
    pub events: f64,
    pub view_s: f64,
    pub build_s: f64,
    pub steps: f64,
    pub edges: f64,
    /// Histogram DP: the DP plus the trip sink.
    pub hist_s: f64,
    /// Counting-sink DP: the DP alone.
    pub dp_s: f64,
    pub trips: f64,
    pub chain_offers: f64,
    pub traversals: f64,
    pub distinct_rates: f64,
    pub scales: f64,
    pub merge_s: f64,
    pub score_s: f64,
    pub to_json_s: f64,
    pub digest_s: f64,
    /// Wall time of the traced replay (the root span).
    pub wall_s: f64,
    /// Part of `wall_s` covered by no layer span.
    pub unattributed_s: f64,
    /// Scales whose replayed trips, rates or score differ from the report.
    pub mismatches: u64,
}

impl Layers {
    pub fn add(&mut self, o: &Layers) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        sum!(
            parse_s,
            events,
            view_s,
            build_s,
            steps,
            edges,
            hist_s,
            dp_s,
            trips,
            chain_offers,
            traversals,
            distinct_rates,
            scales,
            merge_s,
            score_s,
            to_json_s,
            digest_s,
            wall_s,
            unattributed_s
        );
        self.mismatches += o.mismatches;
    }

    /// Trip-sink time: histogram DP minus counting DP.
    pub fn sink_s(&self) -> f64 {
        self.hist_s - self.dp_s
    }
}

/// Replays on one thread the analysis `report` describes (the scales of
/// `grid`, then each refinement round), with spans
/// on `tracer` under a fresh request id, and returns the layer figures.
/// The tracer must be enabled.
pub fn replay(
    tracer: &Tracer,
    text: &str,
    directedness: Directedness,
    grid: &SweepGrid,
    report: &OccupancyReport,
) -> Layers {
    assert!(tracer.enabled(), "replay needs spans");
    let before = tracer.self_times();
    let request = tracer.request_id();
    let mut out = Layers::default();
    let mut timelines: Vec<Timeline> = Vec::new();
    let targets_spec = TargetSpec::All;
    let started = std::time::Instant::now();
    let targets = tracer.span("analysis.replay", 0, request, |root| {
        let stream = tracer.span("io.parse", root, request, |_| {
            io::read_str(text, directedness).expect("generated traces parse")
        });
        out.events = stream.len() as f64;
        let view = tracer.span("timeline.view", root, request, |_| EventView::new(&stream));
        let targets = targets_spec.build(stream.node_count() as u32);
        let mut arena = EngineArena::new();

        // round 0 is the coarse grid; each refinement round inserts scales
        // around the current maximum and gets its own merge plan, exactly
        // as `try_run_on` plans them
        let metric = report.metric();
        let mut ks = grid.k_values(&stream, 1);
        let mut round = ks.clone();
        let mut scored: Vec<(u64, f64)> = Vec::new();
        for r in 0..=REFINE_ROUNDS {
            if r > 0 {
                round = refinement(&ks, &scored);
                if round.is_empty() {
                    break;
                }
                ks.extend(&round);
                ks.sort_unstable_by(|a, b| b.cmp(a));
            }
            let sources = merge_sources(&round);
            let first = timelines.len();
            for (i, &k) in round.iter().enumerate() {
                let timeline =
                    tracer.span("timeline.build", root, request, |_| match sources[i] {
                        Some(j) => timelines[first + j].aggregated_by_merge(k),
                        None => Timeline::aggregated_from_view(&view, k),
                    });
                let hist = tracer.span("dp.hist", root, request, |_| {
                    occupancy_histogram_in(&mut arena, &timeline, &targets)
                });
                let merged = tracer.span("method.merge", root, request, |_| {
                    let mut merged = OccupancyHistogram::new();
                    merged.merge(&hist);
                    merged
                });
                let (scores, distinct, trips) =
                    tracer.span("method.score", root, request, |_| {
                        let dist = WeightedDist::from_pairs(merged.sorted_rates());
                        std::hint::black_box((merged.mean(), merged.fraction_at_one()));
                        (
                            UniformityScores::of(&dist),
                            merged.distinct_rates(),
                            merged.total_trips(),
                        )
                    });
                let listed = report.results().iter().find(|r| r.k == k);
                let agrees = listed.is_some_and(|r| {
                    r.trips == trips
                        && r.distinct_rates == distinct
                        && r.scores.mk_proximity.to_bits() == scores.mk_proximity.to_bits()
                });
                out.mismatches += u64::from(!agrees);
                scored.push((k, scores.get(metric)));
                out.steps += timeline.nonempty_steps() as f64;
                out.edges += timeline.total_edges() as f64;
                out.distinct_rates += distinct as f64;
                out.scales += 1.0;
                timelines.push(timeline);
            }
        }
        // a scale the report lists but the replay never planned
        out.mismatches += report.results().len().abs_diff(scored.len()) as u64;
        let json = tracer.span("report.to_json", root, request, |_| report.to_json());
        std::hint::black_box(json);
        targets
    });
    out.wall_s = started.elapsed().as_secs_f64();

    // the counting-sink ablation, outside the replayed analysis
    let mut arena = EngineArena::new();
    for timeline in &timelines {
        let stats = tracer.span("dp.count", 0, request, |_| {
            let mut sink = CountingSink(0);
            let stats = earliest_arrival_dp_in(
                &mut arena,
                timeline,
                &targets,
                &mut sink,
                DpOptions::default(),
            );
            debug_assert_eq!(sink.0, stats.trips);
            stats
        });
        out.trips += stats.trips as f64;
        out.chain_offers += stats.chain_offers as f64;
        out.traversals += stats.traversals as f64;
    }

    let after = tracer.self_times();
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    out.parse_s = delta("io.parse");
    out.view_s = delta("timeline.view");
    out.build_s = delta("timeline.build");
    out.hist_s = delta("dp.hist");
    out.dp_s = delta("dp.count");
    out.merge_s = delta("method.merge");
    out.score_s = delta("method.score");
    out.to_json_s = delta("report.to_json");
    out.unattributed_s = delta("analysis.replay");
    out
}

/// The scales the next refinement round adds, given the scales swept so far
/// (`ks`, descending) and their scores: up to `REFINE_POINTS` scales on
/// each side of the best one, toward its neighbors in `ks` (the rule of
/// `OccupancyMethod::try_run_on`, ties going to the finer scale).
fn refinement(ks: &[u64], scored: &[(u64, f64)]) -> Vec<u64> {
    let best = scored
        .iter()
        .filter(|(_, s)| s.is_finite())
        .fold(None, |best: Option<(u64, f64)>, &(k, s)| match best {
            Some((bk, bs)) if s < bs || (s == bs && k < bk) => Some((bk, bs)),
            _ => Some((k, s)),
        });
    let Some((best_k, _)) = best else { return Vec::new() };
    let pos = ks.binary_search_by(|a| best_k.cmp(a)).unwrap_or_else(|p| p);
    let k_above = if pos > 0 { ks[pos - 1] } else { best_k };
    let k_below = ks.get(pos + 1).copied().unwrap_or(best_k);
    let mut extra = Vec::new();
    if best_k < k_above {
        extra.extend(SweepGrid::refine_between(best_k, k_above, REFINE_POINTS));
    }
    if k_below < best_k {
        extra.extend(SweepGrid::refine_between(k_below, best_k, REFINE_POINTS));
    }
    extra.retain(|k| !ks.contains(k));
    extra.sort_unstable_by(|a, b| b.cmp(a));
    extra.dedup();
    extra
}
