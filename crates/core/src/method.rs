//! The occupancy method driver (Section 4 of the paper).

use crate::control::{SweepControl, TileSpan};
use crate::parallel::{sweep_queue, WorkerPool};
use crate::report::OccupancyReport;
use crate::SweepGrid;
use rustc_hash::FxHashMap;
use saturn_distrib::{Ascending, SelectionMetric, WeightedDist};
use saturn_linkstream::LinkStream;
use saturn_trips::{
    dp::max_tile_cols, earliest_arrival_dp_in, mirrored_histogram_in, Cancelled, Checkpoint,
    DpRun, EngineArena, EventView, Mirror, OccupancyHistogram, RateCounter, SavedKeys,
    TargetSet, Timeline,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub use saturn_distrib::{UniformityScores, SHANNON_SLOTS};

/// How destinations are chosen for the trip computations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TargetSpec {
    /// Every node is a destination — the paper's exact method,
    /// `O(n²)` memory.
    #[default]
    All,
    /// A deterministic sample of destinations — bounds memory to
    /// `O(n · size)` for very large networks; the occupancy distribution is
    /// estimated over trips toward the sampled destinations.
    Sample {
        /// Number of destination nodes.
        size: u32,
        /// Sampling seed.
        seed: u64,
    },
}

impl TargetSpec {
    /// Builds the concrete target set for a stream with `n` nodes.
    pub fn build(&self, n: u32) -> TargetSet {
        match *self {
            TargetSpec::All => TargetSet::all(n),
            TargetSpec::Sample { size, seed } => TargetSet::sample(n, size, seed),
        }
    }
}

/// Whether per-scale occupancy distributions are retained in the report
/// (needed to plot the ICDs of Figures 3, 4 and 7; costs memory).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KeepPolicy {
    /// Drop distributions, keep only their scores (the default).
    #[default]
    ScoresOnly,
    /// Keep the full distribution of every swept scale.
    All,
}

/// Telemetry of the latest [`OccupancyMethod::try_refresh_on`] call:
/// how much of the sweep the session cache absorbed. Never feeds report
/// bytes or fingerprints — observability only.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct RefreshStats {
    /// Scales the refresh was asked to analyze.
    pub scales_total: u64,
    /// Scales whose cached histogram was served without any DP work
    /// (planned timeline field-for-field equal to the cached one).
    pub scales_reused: u64,
    /// Scales recomputed on a suffix-spliced timeline
    /// (`Timeline::spliced_from_view`).
    pub scales_respliced: u64,
    /// Scales recomputed on a timeline built from the event view (cache
    /// miss, or a dirty mark reaching window 0).
    pub scales_scratch: u64,
    /// `(scale, tile)` work items skipped by histogram reuse: one per
    /// reused scale, more when the stream is too wide for one arena
    /// ([`max_tile_cols`]).
    pub tiles_skipped: u64,
    /// Windows re-scattered by splices, summed over respliced scales.
    pub suffix_windows_rebuilt: u64,
    /// Non-empty steps that DPs resumed from a checkpoint did not re-run,
    /// summed over their tiles.
    pub steps_skipped: u64,
}

/// The checkpoint ladder of a session scale: its rungs sit at the step
/// boundaries that leave `1/f` of its non-empty steps, for each `f` here.
/// An append at or after a rung's boundary re-runs only the steps after
/// it, so the rungs trade a few key tables per scale for refresh work
/// that follows the append instead of the stream. Each level halves the
/// last, so a refresh whose dirty suffix holds between 1⁄32 and ¼ of a
/// scale's non-empty steps re-runs at most twice that suffix (the rung
/// below it leaves at most twice as many steps); a longer suffix re-runs
/// the whole scale, a shorter one the last 1⁄32.
const RUNG_LADDER: [usize; 4] = [4, 8, 16, 32];

/// Per-session cap on the bytes of checkpoint key tables (`n² × 8` per
/// rung, half that when the keys pack into 32 bits). A scale whose rungs
/// might pass it (`rung_reserve`) records none and runs the backward DP.
/// A rung's prefix histogram is never larger than its scale's cached
/// histogram, so the histograms add at most twice the cache's own.
pub const CHECKPOINT_BUDGET_BYTES: usize = 64 << 20;

/// One checkpoint of a session scale's mirrored DP (`saturn_trips::dp`
/// docs, "Orientation and resume").
#[derive(Debug)]
struct Rung {
    /// The step boundary: the state after every step below it.
    step: u32,
    /// The full-width key table at `step`, `width` columns per row.
    keys: SavedKeys,
    width: usize,
    /// The trips that arrive before `step`.
    hist: OccupancyHistogram,
}

/// The rung boundaries of `timeline`, by ladder level: the boundary right
/// after the last step that leaves `1/f` of the non-empty steps, or `None`
/// when `1/f` of them rounds to none.
fn rung_steps(timeline: &Timeline) -> [Option<u32>; RUNG_LADDER.len()] {
    let steps = timeline.nonempty_steps();
    RUNG_LADDER.map(|f| (steps / f > 0).then(|| timeline.step(steps - steps / f - 1).index + 1))
}

/// The key-table bytes a scale of `k` windows over `n` nodes may record
/// past its first `kept` ladder levels, when it has at most `steps`
/// non-empty steps: one `n × n` table per level that `steps` can hold, at
/// 4 bytes per key when every key packs ([`SavedKeys::new`]; a key's
/// `ea < k` and its minimal hops `< n`), else 8.
fn rung_reserve(n: usize, k: u64, steps: usize, kept: usize) -> usize {
    let bits = |x: u64| u64::BITS - x.leading_zeros();
    let packs = bits(k.saturating_sub(1)) + bits((n as u64).saturating_sub(1)) <= 31;
    let key = if packs { size_of::<u32>() } else { size_of::<u64>() };
    let levels = RUNG_LADDER[kept..].iter().filter(|&&f| steps / f > 0).count();
    levels.saturating_mul(n).saturating_mul(n).saturating_mul(key)
}

/// One cached scale of a [`SweepCache`]: the timeline the histogram was
/// computed from (the reuse witness), the merged histogram itself, and up
/// to one checkpoint per ladder level, ascending, all computed from that
/// same timeline.
#[derive(Clone, Debug)]
struct CachedScale {
    timeline: Arc<Timeline>,
    hist: OccupancyHistogram,
    epoch: u64,
    rungs: Vec<Arc<Rung>>,
}

/// Per-session sweep memory for [`OccupancyMethod::try_refresh_on`]: the
/// per-scale timelines, merged histograms and DP checkpoints of the last
/// refresh, keyed by window count `K`. An ingest session owns one cache per stream and feeds
/// every incremental re-analysis through it; the cache never changes report
/// bytes — it only decides how much work a refresh can skip.
///
/// Entries are epoch-stamped: every refresh bumps the epoch, touches the
/// entries of the scales it analyzed, and on success prunes the rest (a
/// scale that left the grid would otherwise pin its timeline + histogram
/// forever). A refresh cancelled mid-way may leave the entries of its
/// completed rounds behind (a refine round updates the cache before the
/// next round runs); that is safe because an entry always pairs a timeline
/// with the histogram computed from exactly that timeline, and because the
/// caller keeps its dirty mark until a refresh *succeeds* — the mark then
/// still covers every event appended since the last successful refresh, so
/// the next splice stays conservative (and conservative splices are always
/// correct; see the timeline module's "Splice invariants").
///
/// The cache also remembers the identity (content digest + event count) of
/// the newest stream a refresh ran against. [`OccupancyMethod::try_refresh_on`]
/// uses it to reject snapshots that cannot be append-consistent with the
/// cached state — e.g. a stale snapshot racing a newer refresh of the same
/// session — by falling back to a scratch sweep instead of reusing entries
/// built from events the snapshot does not contain.
#[derive(Clone, Debug, Default)]
pub struct SweepCache {
    /// Target spec the cached histograms were computed under; a change
    /// invalidates everything (histograms are per-target-set).
    targets: Option<TargetSpec>,
    scales: FxHashMap<u64, CachedScale>,
    epoch: u64,
    /// `(stream_digest, event count)` of the newest stream a refresh ran
    /// against — stamped *before* sweeping, so even after a cancellation it
    /// upper-bounds the events any surviving entry may contain.
    stamp: Option<(u128, u64)>,
    /// Telemetry of the latest refresh (reset at the start of each).
    pub stats: RefreshStats,
}

impl SweepCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached scales.
    pub fn len(&self) -> usize {
        self.scales.len()
    }

    /// Whether the cache holds no scale.
    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }

    /// Bytes held by checkpoint key tables and their prefix histograms.
    #[cfg(test)]
    fn checkpoint_bytes(&self) -> usize {
        let hist_bytes = size_of::<((u32, u32), u64)>();
        let rungs = self.scales.values().flat_map(|entry| &entry.rungs);
        rungs.map(|rung| rung.keys.bytes() + rung.hist.distinct_rates() * hist_bytes).sum()
    }
}

/// The scores a sweep records for a scale: [`UniformityScores::of`] over
/// the histogram's rates read in their stored order, with no distribution
/// materialized. Bit-identical to scoring
/// `WeightedDist::from_pairs(hist.sorted_rates())`.
pub fn histogram_scores(hist: &OccupancyHistogram) -> UniformityScores {
    UniformityScores::of(&Ascending::new(hist.rates(), hist.total_trips()))
}

/// The analysis of one aggregation scale.
#[derive(Clone, Debug, Serialize)]
pub struct DeltaResult {
    /// Window count `K`.
    pub k: u64,
    /// Window length `Δ = T/K` in ticks.
    pub delta_ticks: f64,
    /// Number of minimal trips of `G_Δ`.
    pub trips: u64,
    /// Number of distinct occupancy rates.
    pub distinct_rates: usize,
    /// Mean occupancy rate.
    pub mean_rate: f64,
    /// Fraction of trips with occupancy rate exactly 1.
    pub fraction_at_one: f64,
    /// All uniformity scores.
    pub scores: UniformityScores,
    /// The full distribution, under [`KeepPolicy::All`].
    pub distribution: Option<WeightedDist>,
}

/// Configurable driver for the occupancy method.
///
/// The defaults reproduce the paper's setting: exact all-pairs trips,
/// geometric `Δ` grid from the tick resolution to `T`, M-K proximity
/// selection, local refinement around the coarse maximum, and all available
/// cores.
#[derive(Clone, Debug, Serialize)]
pub struct OccupancyMethod {
    grid: SweepGrid,
    metric: SelectionMetric,
    targets: TargetSpec,
    threads: usize,
    delta_min: i64,
    keep: KeepPolicy,
    refine_rounds: usize,
    refine_points: usize,
    tile: usize,
}

impl Default for OccupancyMethod {
    fn default() -> Self {
        OccupancyMethod {
            grid: SweepGrid::default(),
            metric: SelectionMetric::MkProximity,
            targets: TargetSpec::All,
            threads: 0,
            delta_min: 1,
            keep: KeepPolicy::ScoresOnly,
            refine_rounds: 2,
            refine_points: 8,
            tile: 0,
        }
    }
}

impl OccupancyMethod {
    /// Creates a driver with the paper's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the `Δ` grid strategy.
    pub fn grid(mut self, grid: SweepGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Sets the selection metric (default: M-K proximity).
    ///
    /// # Panics
    /// Panics on a Shannon entropy whose slot count is not one of
    /// [`SHANNON_SLOTS`] (`slots: 0` included): a sweep scores no other
    /// count, so such a metric could never select a scale.
    pub fn metric(mut self, metric: SelectionMetric) -> Self {
        if let SelectionMetric::ShannonEntropy { slots } = metric {
            assert!(
                SHANNON_SLOTS.contains(&slots),
                "Shannon entropy is scored at {SHANNON_SLOTS:?} slots only, not {slots}"
            );
        }
        self.metric = metric;
        self
    }

    /// Sets the destination policy (default: all nodes).
    pub fn targets(mut self, targets: TargetSpec) -> Self {
        self.targets = targets;
        self
    }

    /// Sets the worker thread count (0 = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the smallest aggregation period in ticks (default 1, the
    /// resolution of integer timestamps).
    pub fn delta_min(mut self, ticks: i64) -> Self {
        self.delta_min = ticks.max(1);
        self
    }

    /// Sets whether full distributions are kept in the report.
    pub fn keep(mut self, keep: KeepPolicy) -> Self {
        self.keep = keep;
        self
    }

    /// Configures local refinement around the coarse-grid maximum:
    /// `rounds` passes inserting up to `points` scales between the current
    /// maximum's neighbors. `rounds = 0` disables refinement.
    pub fn refine(mut self, rounds: usize, points: usize) -> Self {
        self.refine_rounds = rounds;
        self.refine_points = points;
        self
    }

    /// Narrows the target tiles to at most `tile` columns (default 0 = no
    /// override); the width never exceeds [`max_tile_cols`], the widest
    /// tile whose arena fits a worker's memory budget. Reports are
    /// bit-identical for every tile width (per-tile histograms merge
    /// exactly in any order), so the override exists for the byte-identity
    /// tests, which force narrow tiles. A session scale split into several
    /// tiles keeps no checkpoints ([`try_refresh_on`](Self::try_refresh_on)).
    pub fn tile(mut self, tile: usize) -> Self {
        self.tile = tile;
        self
    }

    /// Scores one scale's merged histogram; the distribution is built only
    /// when the report keeps it.
    fn delta_result(&self, span: i64, k: u64, hist: &OccupancyHistogram) -> DeltaResult {
        DeltaResult {
            k,
            delta_ticks: span as f64 / k as f64,
            trips: hist.total_trips(),
            distinct_rates: hist.distinct_rates(),
            mean_rate: hist.mean(),
            fraction_at_one: hist.fraction_at_one(),
            scores: histogram_scores(hist),
            distribution: matches!(self.keep, KeepPolicy::All)
                .then(|| WeightedDist::from_pairs(hist.sorted_rates())),
        }
    }

    /// Runs the method: sweeps the grid, optionally refines around the
    /// maximum, and returns the full report. The saturation scale is
    /// [`OccupancyReport::gamma`].
    ///
    /// Execution layout: the coarse sweep and every refinement round each
    /// run as one round on a [`WorkerPool`] of `threads` workers; each
    /// worker keeps an [`EngineArena`] and a [`RateCounter`] for the whole
    /// sweep (DP tables and the trip sink allocated once, reset per work
    /// item), all scales aggregate from one shared [`EventView`] sorted once
    /// up front, and work is queued as `(scale, target tile)` items, finest
    /// scales first. Scales are the parallel axis: a scale splits into
    /// tiles only when its arena would not fit a worker's memory budget
    /// ([`max_tile_cols`]), so a round with fewer scales than workers
    /// leaves some of them idle.
    pub fn run(&self, stream: &LinkStream) -> OccupancyReport {
        let mut pool = WorkerPool::new(self.threads);
        self.run_on(stream, &mut pool)
    }

    /// [`run`](OccupancyMethod::run) on a caller-owned pool. The analysis
    /// service keeps one [`WorkerPool`] per executor and dispatches every
    /// sweep onto it; `self.threads` is ignored here — the pool's
    /// parallelism governs.
    pub fn run_on(&self, stream: &LinkStream, pool: &mut WorkerPool) -> OccupancyReport {
        self.try_run_on(stream, pool, &SweepControl::new())
            .expect("a sweep whose token never fires cannot be cancelled")
    }

    /// [`run_on`](OccupancyMethod::run_on) under a caller-held
    /// [`SweepControl`]: firing `ctl.cancel` stops the sweep at the next
    /// `(scale, tile)` boundary (or within one DP stride inside a tile) and
    /// returns [`Cancelled`]; `ctl.progress` tracks completed scales while
    /// the sweep runs. With a never-fired token the report is bit-identical
    /// to [`run_on`](OccupancyMethod::run_on) — cancellation is an execution
    /// knob and never enters report bytes or cache fingerprints.
    pub fn try_run_on(
        &self,
        stream: &LinkStream,
        pool: &mut WorkerPool,
        ctl: &SweepControl,
    ) -> Result<OccupancyReport, Cancelled> {
        self.sweep(stream, pool, ctl, None, None)
    }

    /// [`try_run_on`](Self::try_run_on) through a per-session [`SweepCache`]:
    /// the incremental re-analysis primitive of ingest sessions.
    ///
    /// `dirty_from` is the earliest timestamp appended to `stream` since the
    /// cache's last *successful* refresh (`None` = nothing appended). Each
    /// grid scale then takes the cheapest sound path:
    ///
    /// * cache hit, nothing appended — the cached timeline is the current
    ///   one; its histogram is served with zero DP work;
    /// * cache hit, dirty mark — the cached timeline is suffix-spliced from
    ///   the dirty window on (`Timeline::spliced_from_view`); if the splice
    ///   comes back field-for-field identical (appends deduplicated away at
    ///   this scale), the cached histogram is served, otherwise the scale is
    ///   recomputed on the spliced timeline — resumed from its latest
    ///   checkpoint at or below the dirty window when it has one (below);
    /// * cache miss — built from the event view, exactly as in a cold
    ///   sweep.
    ///
    /// **Resume.** Under [`TargetSpec::All`], a session whose scales are
    /// one tile each (every stream up to 2,989 nodes, [`max_tile_cols`])
    /// runs every DP it computes in mirrored time
    /// (`saturn_trips::mirrored_histogram_in`, whose module docs prove it
    /// reports the backward DP's trips), where the state at a step boundary
    /// depends only on the steps before it.
    /// Each entry keeps up to one checkpoint per level of `RUNG_LADDER`:
    /// at the boundaries that leave ¼, ⅛, 1⁄16 and 1⁄32 of the scale's
    /// non-empty steps, the full-width key table and the histogram of the
    /// trips that arrive before it. A respliced scale whose dirty window is
    /// at or after a rung loads the latest such rung and runs only the
    /// steps after it; its histogram is the rung's prefix merged exactly
    /// with the suffix. The halving ladder bounds that re-run to twice the
    /// dirty suffix whenever the suffix holds between 1⁄32 and ¼ of the
    /// steps. Rungs at or before the resume point are kept, later ones are
    /// dropped before the round runs and re-recorded by it.
    /// [`CHECKPOINT_BUDGET_BYTES`] caps a session's key tables: a scale
    /// whose rungs would not fit keeps the backward DP and records none, as
    /// do tiled scales, sampled-target sessions and every scratch run. Checkpoints enter
    /// the cache with their entry, on success only, so they pair with the
    /// entry's timeline as its histogram does; `cache.stats.steps_skipped`
    /// counts the steps the resumed DPs did not re-run.
    ///
    /// Reports are **byte-identical** to a scratch [`try_run_on`](Self::try_run_on) over the
    /// same stream — both run the same sweep, the cache and the dirty mark
    /// only decide where each scale's timeline and histogram come from.
    /// Refinement rounds run through the cache too, so the refined scales
    /// of consecutive refreshes reuse each other. On success the cache
    /// holds exactly the scales of this refresh and `cache.stats` describes
    /// the work split. A cancelled refresh may leave the entries of its
    /// completed rounds in the cache — safe, because every entry pairs a
    /// timeline with the histogram computed from it — but the caller must
    /// keep its dirty mark until a refresh *succeeds*, so the mark always
    /// covers every event appended since the last successful refresh and
    /// the next splice stays conservative.
    ///
    /// A conservative (too early) `dirty_from` is always correct — it only
    /// shrinks the reusable prefix. Callers must pass a pinned-period
    /// stream: the study period may not move between refreshes feeding one
    /// cache (ingest sessions pin it at creation).
    ///
    /// The cache is stamped with the identity of the newest stream a
    /// refresh ran against. If `stream` cannot be an append-only extension
    /// consistent with that stamp and `dirty_from` — same event count but
    /// different digest, *fewer* events (a stale snapshot that raced a
    /// newer refresh of the same cache), or a changed digest with no dirty
    /// mark — the entries are discarded and every scale is computed from
    /// scratch: reusing them could serve histograms containing events this
    /// stream does not have. The report stays correct either way; only the
    /// amount of reuse changes.
    pub fn try_refresh_on(
        &self,
        stream: &LinkStream,
        pool: &mut WorkerPool,
        ctl: &SweepControl,
        cache: &mut SweepCache,
        dirty_from: Option<i64>,
    ) -> Result<OccupancyReport, Cancelled> {
        if cache.targets != Some(self.targets) {
            // histograms are per-target-set; a changed spec voids them all
            cache.scales.clear();
            cache.targets = Some(self.targets);
        }
        let identity =
            (crate::fingerprint::stream_digest(stream), stream.events().len() as u64);
        if let Some((digest, events)) = cache.stamp {
            // the stream must be append-consistent with the cached state:
            // unchanged, or strictly grown with a dirty mark covering the
            // growth. Anything else (a stale snapshot racing a newer
            // refresh, a rewritten stream, a claimed-clean change) would
            // let reuse serve bytes for a different stream.
            let consistent =
                identity.0 == digest || (dirty_from.is_some() && identity.1 > events);
            if !consistent {
                cache.scales.clear();
            }
        }
        // re-stamp *before* sweeping: entries this refresh touches are
        // built from `stream`, and a cancellation can leave them behind —
        // the stamp must stay an upper bound on what the entries may
        // contain, or a stale snapshot matching the old stamp could reuse
        // newer entries
        cache.stamp = Some(identity);
        cache.epoch += 1;
        cache.stats = RefreshStats::default();

        let report = self.sweep(stream, pool, ctl, Some(&mut *cache), dirty_from)?;
        // scales that left the grid since the last refresh would otherwise
        // pin their timeline + histogram forever
        let epoch = cache.epoch;
        cache.scales.retain(|_, entry| entry.epoch == epoch);
        Ok(report)
    }

    /// The one sweep behind every analysis: the coarse grid, then up to
    /// `refine_rounds` refinement rounds around the current maximum, each
    /// round one [`sweep_round`](Self::sweep_round). `cache` and
    /// `dirty_from` are the session state of
    /// [`try_refresh_on`](Self::try_refresh_on); a scratch run passes none.
    fn sweep(
        &self,
        stream: &LinkStream,
        pool: &mut WorkerPool,
        ctl: &SweepControl,
        mut cache: Option<&mut SweepCache>,
        dirty_from: Option<i64>,
    ) -> Result<OccupancyReport, Cancelled> {
        let input = SweepInput {
            stream,
            view: EventView::new(stream),
            targets: self.targets.build(stream.node_count() as u32),
            // One state per worker id; a worker only ever locks its own
            // slot, so the mutexes are uncontended — they exist to satisfy
            // `Sync`.
            workers: (0..pool.parallelism()).map(|_| Mutex::default()).collect(),
            ctl,
            dirty_from,
        };
        let mut ks = self.grid.k_values(stream, self.delta_min);
        ctl.progress.set_total(ks.len() as u64);
        let mut results = self.sweep_round(&input, pool, &ks, cache.as_deref_mut())?;

        for _ in 0..self.refine_rounds {
            // current argmax under the selection metric
            let Some(best_pos) = argmax(&results, self.metric) else { break };
            let best_k = results[best_pos].k;
            // neighbors of best_k in the sorted (descending) k list
            let pos = ks.binary_search_by(|a| best_k.cmp(a)).unwrap_or_else(|p| p);
            let k_above = if pos > 0 { ks[pos - 1] } else { best_k }; // finer (larger K)
            let k_below = ks.get(pos + 1).copied().unwrap_or(best_k); // coarser
            let mut extra = Vec::new();
            if best_k < k_above {
                extra.extend(SweepGrid::refine_between(best_k, k_above, self.refine_points));
            }
            if k_below < best_k {
                extra.extend(SweepGrid::refine_between(k_below, best_k, self.refine_points));
            }
            extra.retain(|k| !ks.contains(k));
            extra.sort_unstable_by(|a, b| b.cmp(a));
            extra.dedup();
            if extra.is_empty() {
                break;
            }
            ctl.progress.add_total(extra.len() as u64);
            results.extend(self.sweep_round(&input, pool, &extra, cache.as_deref_mut())?);
            ks.extend(extra);
            ks.sort_unstable_by(|a, b| b.cmp(a));
        }

        // Δ ascending (K descending)
        results.sort_unstable_by_key(|r| std::cmp::Reverse(r.k));
        Ok(OccupancyReport::new(self.metric, results))
    }

    /// Analyzes the `ks` scales (sorted descending) of one round on `pool`
    /// and scores them.
    ///
    /// **Plan.** Each scale takes its histogram from one of three places:
    /// a cached histogram whose timeline still equals the current one
    /// (reuse — no DP work), a DP run on a suffix-spliced seed timeline, or
    /// a DP run on a timeline built from the shared view. Only a session
    /// `cache` yields the first two; without one every scale is built.
    ///
    /// **Fan-out.** The scales to compute become one `(scale, tile)` queue
    /// (finest scales first) dispatched across the workers. The round's
    /// tile width is [`max_tile_cols`]`(n)`, narrowed only by the
    /// [`tile`](Self::tile) override, so a scale is one item unless its
    /// arena would overflow a worker's budget. A worker merges each tile it
    /// seals into its scale's `Slot`, and the worker whose tile is the
    /// scale's last scores the scale on the spot. Tiles merge exactly in any
    /// order ([`OccupancyHistogram::merge`]), so results are bit-identical
    /// for every thread count and tile width. A mirrored scale is always
    /// one item, so that item collects its rungs' key tables whole and
    /// builds the new cache entry's rungs itself. A scratch sweep frees a
    /// scale's histogram once it is scored; a session sweep keeps it for
    /// the cache.
    ///
    /// **Timelines.** Each scale owns one `Arc<Timeline>` slot shared by
    /// its tiles. A seeded scale's slot starts filled; any other is filled
    /// by the scale's first tile, which builds the timeline from the shared
    /// view (`Timeline::aggregated_from_view`, `O(E)`) under the slot's
    /// lock, so the scale's other tiles wait for that one build instead of
    /// repeating it. No worker ever holds two slot locks. The slot's
    /// refcount (its tiles, plus one when the cache will keep the timeline)
    /// releases the handle as soon as the last tile is done, so without a
    /// cache only the scales in flight hold timelines.
    ///
    /// **Cancellation** (`ctl.cancel`): workers poll the token before each
    /// queue item and thread it into the DP, which polls at a coarse step
    /// stride; a tile that ends after the token fired is not merged. A
    /// fired token makes this return [`Cancelled`]: partial merges and
    /// scores drop with the slots, and the cache is left untouched by this
    /// round. Progress (`ctl.progress`) advances by one when a scale is
    /// scored (reused scales complete at once).
    fn sweep_round(
        &self,
        input: &SweepInput,
        pool: &mut WorkerPool,
        ks: &[u64],
        mut cache: Option<&mut SweepCache>,
    ) -> Result<Vec<DeltaResult>, Cancelled> {
        let ctl = input.ctl;
        let n = input.stream.node_count();
        // tiles are a memory decision: a scale splits only when its arena
        // would not fit one worker's budget (or a test narrows them)
        let tile_cols = match self.tile {
            0 => max_tile_cols(n),
            tile => tile.min(max_tile_cols(n)),
        };
        // Plan: `seeds[i]` pre-fills scale i's timeline slot (reused or
        // spliced); `reused[i]` serves the cached histogram.
        let mut seeds: Vec<Option<Arc<Timeline>>> = vec![None; ks.len()];
        let mut reused = vec![false; ks.len()];
        // a session sweep over every node whose scales are one tile runs
        // its DPs in mirrored time and keeps checkpoints; `resume[i]` holds
        // the rungs a respliced scale may keep, ending with the one it
        // resumes from
        let mirrored = cache.is_some() && self.targets == TargetSpec::All && tile_cols >= n;
        let mut resume: Vec<Vec<Arc<Rung>>> = vec![Vec::new(); ks.len()];
        if let Some(cache) = cache.as_deref_mut() {
            let SweepCache { scales, stats, .. } = cache;
            stats.scales_total += ks.len() as u64;
            for (i, &k) in ks.iter().enumerate() {
                let Some(entry) = scales.get_mut(&k) else {
                    stats.scales_scratch += 1;
                    continue;
                };
                let mut dirty_window = None;
                let timeline = match input.dirty_from {
                    None => Arc::clone(&entry.timeline),
                    Some(t0) => {
                        let w = input
                            .stream
                            .partition(k)
                            .expect("grid window counts are valid for the stream")
                            .index(saturn_linkstream::Time::new(t0))
                            as u32;
                        if w > 0 {
                            stats.suffix_windows_rebuilt += k - w as u64;
                            dirty_window = Some(w);
                        }
                        Arc::new(entry.timeline.spliced_from_view(&input.view, w))
                    }
                };
                // deep-equality reuse gate: a timeline field-for-field equal
                // to the cached one means the cached histogram is still
                // exact (appends deduplicated away at this scale)
                reused[i] =
                    Arc::ptr_eq(&entry.timeline, &timeline) || *entry.timeline == *timeline;
                if reused[i] {
                    stats.scales_reused += 1;
                } else {
                    // the windows below `w` are the cached timeline's, so
                    // every rung at or below `w` stays a valid resume point;
                    // the others can never be valid again (the caller's
                    // dirty mark only moves down until a refresh succeeds),
                    // so they go now, before this round records new ones
                    let w = dirty_window.unwrap_or(0);
                    entry.rungs.retain(|rung| rung.step <= w && rung.width <= n);
                    resume[i].clone_from(&entry.rungs);
                    if dirty_window.is_some() {
                        stats.scales_respliced += 1;
                    } else {
                        stats.scales_scratch += 1;
                    }
                }
                seeds[i] = Some(if reused[i] { Arc::clone(&entry.timeline) } else { timeline });
            }
        }

        let computed = reused.iter().filter(|&&r| !r).count();
        ctl.progress.add_done((ks.len() - computed) as u64);
        // Which computed scales run mirrored: those that resume, and those
        // whose new rungs fit the session's checkpoint budget next to every
        // table the cache holds (stale entries included, so the count only
        // errs high). An unbuilt scale has at most `k` non-empty steps.
        let mut plans: Vec<Option<RungPlan>> = (0..ks.len()).map(|_| None).collect();
        if let Some(cache) = cache.as_deref().filter(|_| mirrored) {
            let rungs = cache.scales.values().flat_map(|entry| &entry.rungs);
            let mut held: usize = rungs.map(|rung| rung.keys.bytes()).sum();
            for (i, kept) in resume.iter_mut().enumerate().filter(|(i, _)| !reused[*i]) {
                let bound = usize::try_from(ks[i]).unwrap_or(usize::MAX);
                let steps = seeds[i].as_ref().map_or(bound, |t| t.nonempty_steps());
                let want = rung_reserve(n, ks[i], steps, kept.len());
                let record = held.saturating_add(want) <= CHECKPOINT_BUDGET_BYTES;
                if record {
                    held += want;
                }
                if record || !kept.is_empty() {
                    plans[i] = Some(RungPlan { kept: std::mem::take(kept), record });
                }
            }
        }
        let tile_ranges = input.targets.tile_ranges(tile_cols);
        let tiles_in_scale = tile_ranges.len();
        if let Some(cache) = cache.as_deref_mut() {
            cache.stats.tiles_skipped += ((ks.len() - computed) * tiles_in_scale) as u64;
        }
        let mut items = sweep_queue(ks, &tile_ranges);
        items.retain(|item| !reused[item.scale]);

        let keep_hist = cache.is_some();

        struct Slot {
            timeline: Mutex<Option<Arc<Timeline>>>,
            /// Consumers (tiles + the cache) not yet finished; the
            /// decrement to 0 clears `timeline`.
            remaining: AtomicUsize,
            /// Tiles not yet merged into `hist`; the last one sets `result`.
            tiles_left: AtomicUsize,
            hist: Mutex<OccupancyHistogram>,
            result: OnceLock<DeltaResult>,
            /// Mirrored scales: the rungs of the new cache entry.
            rungs: OnceLock<Vec<Arc<Rung>>>,
        }
        let slots: Vec<Slot> = seeds
            .into_iter()
            .map(|seed| Slot {
                timeline: Mutex::new(seed),
                remaining: AtomicUsize::new(tiles_in_scale + usize::from(keep_hist)),
                tiles_left: AtomicUsize::new(tiles_in_scale),
                hist: Mutex::new(OccupancyHistogram::new()),
                result: OnceLock::new(),
                rungs: OnceLock::new(),
            })
            .collect();

        /// Drops one consumer reference to scale `i`'s timeline, clearing
        /// the slot on the last one so the allocation frees as soon as the
        /// final in-flight clone drops, instead of living until the round
        /// returns.
        fn release(slots: &[Slot], i: usize) {
            if slots[i].remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *slots[i].timeline.lock().expect("timeline slot poisoned") = None;
            }
        }

        let span = input.stream.span();
        let steps_skipped = AtomicU64::new(0);
        pool.map(&items, |wid, item| {
            if ctl.cancel.is_cancelled() {
                return;
            }
            let mut worker = input.workers[wid].lock().expect("worker state poisoned");
            let WorkerState { arena, counter } = &mut *worker;
            let slot = &slots[item.scale];
            let timeline = Arc::clone(
                slot.timeline.lock().expect("timeline slot poisoned").get_or_insert_with(
                    || Arc::new(Timeline::aggregated_from_view(&input.view, item.k)),
                ),
            );
            let started = Instant::now();
            // a mirrored scale is one item, so it collects its own rungs:
            // per rung its step, the trips since the rung before (or the
            // resume point), and its key table
            let mut recorded: Vec<(u32, OccupancyHistogram, Vec<u64>)> = Vec::new();
            let stats = match &plans[item.scale] {
                None => {
                    let run = DpRun {
                        tile: Some((item.col_start, item.col_len)),
                        cancel: Some(&ctl.cancel),
                        ..Default::default()
                    };
                    earliest_arrival_dp_in(arena, &timeline, &input.targets, counter, run)
                }
                Some(plan) => {
                    let from = plan.kept.last();
                    let rungs: Vec<u32> = if plan.record {
                        rung_steps(&timeline)[plan.kept.len()..]
                            .iter()
                            .flatten()
                            .copied()
                            .filter(|&step| from.is_none_or(|rung| step > rung.step))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    if let Some(rung) = from {
                        let skipped = timeline.steps_before(rung.step) as u64;
                        steps_skipped.fetch_add(skipped, Ordering::Relaxed);
                    }
                    let mirror = Mirror {
                        from: from.map(|rung| Checkpoint {
                            step: rung.step,
                            keys: &rung.keys,
                            width: rung.width,
                        }),
                        rungs: &rungs,
                    };
                    let on_rung = |r: usize, keys: &[u64], segment| {
                        recorded.push((rungs[r], segment, keys.to_vec()));
                    };
                    mirrored_histogram_in(
                        arena,
                        &timeline,
                        counter,
                        Some(&ctl.cancel),
                        mirror,
                        on_rung,
                    )
                }
            };
            // sealing also resets the counter, so a tile cut short by the
            // token leaves no counts behind for this worker's next item
            let hist = counter.finish();
            let seconds = started.elapsed().as_secs_f64();
            drop((worker, timeline));
            release(&slots, item.scale);
            // A token fired mid-DP leaves `hist` partial; the guard keeps a
            // partial tile out of its scale's merge (and its garbage stats
            // from reaching the observer).
            if ctl.cancel.is_cancelled() {
                return;
            }
            slot.hist.lock().expect("histogram slot poisoned").merge_owned(hist);
            let last_tile_of_scale = slot.tiles_left.fetch_sub(1, Ordering::AcqRel) == 1;
            if last_tile_of_scale {
                // every tile is in: score the scale here, and free its
                // histogram unless the cache keeps it
                let mut merged = slot.hist.lock().expect("histogram slot poisoned");
                if let Some(plan) = &plans[item.scale] {
                    // a mirrored scale's histogram is its resume point's
                    // prefix, then each recorded rung's trips, then the
                    // trips after the last rung; each new rung keeps the
                    // prefix up to its own step
                    let mut prefix =
                        plan.kept.last().map(|rung| rung.hist.clone()).unwrap_or_default();
                    let mut rungs = plan.kept.clone();
                    for (step, segment, keys) in recorded {
                        prefix.merge_owned(segment);
                        rungs.push(Arc::new(Rung {
                            step,
                            keys: SavedKeys::new(keys),
                            width: n,
                            hist: prefix.clone(),
                        }));
                    }
                    prefix.merge_owned(std::mem::take(&mut *merged));
                    *merged = prefix;
                    slot.rungs.set(rungs).expect("recorded once");
                }
                slot.result.set(self.delta_result(span, item.k, &merged)).expect("scored once");
                if !keep_hist {
                    *merged = OccupancyHistogram::new();
                }
                ctl.progress.add_done(1);
            }
            if let Some(observer) = &ctl.observer {
                observer.tile_done(&TileSpan {
                    k: item.k,
                    col_start: item.col_start,
                    col_len: item.col_len,
                    seconds,
                    trips: stats.trips,
                    traversals: stats.traversals,
                    chain_offers: stats.chain_offers,
                    snap_entries: stats.snap_entries,
                    degree1_steps: stats.degree1_steps,
                    last_tile_of_scale,
                });
            }
        });
        if ctl.cancel.is_cancelled() {
            return Err(Cancelled);
        }
        if let Some(cache) = cache.as_deref_mut() {
            cache.stats.steps_skipped += steps_skipped.into_inner();
        }

        let mut results = Vec::with_capacity(ks.len());
        for ((&k, slot), reused) in ks.iter().zip(slots).zip(reused) {
            if reused {
                let cache = cache.as_deref_mut().expect("only a session sweep reuses scales");
                let entry = cache.scales.get_mut(&k).expect("reused scales are cached");
                entry.epoch = cache.epoch;
                results.push(self.delta_result(span, k, &entry.hist));
                continue;
            }
            results.push(slot.result.into_inner().expect("every computed scale is scored"));
            if let Some(cache) = cache.as_deref_mut() {
                let timeline = slot
                    .timeline
                    .into_inner()
                    .expect("timeline slot poisoned")
                    .expect("the cache holds a reference to every computed timeline");
                let hist = slot.hist.into_inner().expect("histogram slot poisoned");
                let rungs = slot.rungs.into_inner().unwrap_or_default();
                cache
                    .scales
                    .insert(k, CachedScale { timeline, hist, epoch: cache.epoch, rungs });
            }
        }
        Ok(results)
    }
}

/// How a mirrored scale uses its checkpoints.
struct RungPlan {
    /// The rungs its new entry keeps, ending with the one the DP resumes
    /// from (empty = a full run).
    kept: Vec<Arc<Rung>>,
    /// Whether the DP records the ladder levels past `kept`.
    record: bool,
}

/// What one analysis shares across all of its sweep rounds.
struct SweepInput<'a> {
    stream: &'a LinkStream,
    /// Every scale aggregates from this one sorted view.
    view: EventView,
    targets: TargetSet,
    /// One reusable state per worker id.
    workers: Vec<Mutex<WorkerState>>,
    ctl: &'a SweepControl,
    /// Earliest timestamp appended since the session cache's last
    /// successful refresh (session sweeps only).
    dirty_from: Option<i64>,
}

/// What a worker reuses across its work items: the DP arena and the trip
/// sink (both reset per item, neither ever reallocated per item).
#[derive(Default)]
struct WorkerState {
    arena: EngineArena,
    counter: RateCounter,
}

/// Index of the maximum finite score under `metric`, ties resolved toward
/// the smaller `Δ` (= larger `K`), the more conservative scale. One pass, no
/// allocation — this runs once per refinement round.
pub(crate) fn argmax(results: &[DeltaResult], metric: SelectionMetric) -> Option<usize> {
    let mut best: Option<(usize, f64, u64)> = None;
    for (i, r) in results.iter().enumerate() {
        let s = r.scores.get(metric);
        if !s.is_finite() {
            continue;
        }
        let better = match best {
            None => true,
            Some((_, bs, bk)) => s > bs || (s == bs && r.k > bk),
        };
        if better {
            best = Some((i, s, r.k));
        }
    }
    best.map(|(i, ..)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_distrib::SortedStream;
    use saturn_linkstream::{Directedness, LinkStreamBuilder};

    /// A stream with one link every `gap` ticks along a ring.
    fn ring_stream(n: u32, links: usize, gap: i64) -> LinkStream {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, n);
        for i in 0..links {
            let u = (i as u32) % n;
            b.add_indexed(u, (u + 1) % n, i as i64 * gap);
        }
        b.build().unwrap()
    }

    #[test]
    fn run_produces_sorted_results_and_gamma() {
        let s = ring_stream(8, 80, 7);
        let report = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 16 })
            .threads(2)
            .refine(1, 4)
            .run(&s);
        let deltas: Vec<f64> = report.results().iter().map(|r| r.delta_ticks).collect();
        assert!(deltas.windows(2).all(|w| w[0] < w[1]), "Δ ascending");
        let gamma = report.gamma().expect("gamma exists");
        assert!(gamma.delta_ticks >= 1.0);
        assert!(gamma.score.is_finite());
        // gamma is the max of the curve
        for r in report.results() {
            assert!(r.scores.mk_proximity <= gamma.score + 1e-12);
        }
    }

    #[test]
    fn extreme_scales_have_extreme_distributions() {
        let s = ring_stream(6, 120, 13);
        let report = OccupancyMethod::new()
            .grid(SweepGrid::ExplicitK(vec![1, s.span() as u64]))
            .threads(1)
            .refine(0, 0)
            .keep(KeepPolicy::All)
            .run(&s);
        let results = report.results();
        // Δ = T (K = 1): every trip has rate 1
        let coarse = results.last().unwrap();
        assert_eq!(coarse.k, 1);
        assert_eq!(coarse.fraction_at_one, 1.0);
        // Δ = 1 tick: low occupancy dominates; mean rate well below 1
        let fine = results.first().unwrap();
        assert!(fine.mean_rate < coarse.mean_rate);
        // both kept distributions present
        assert!(fine.distribution.is_some() && coarse.distribution.is_some());
    }

    fn score_bits(s: &UniformityScores) -> Vec<u64> {
        let mut fields = vec![s.mk_proximity, s.std_dev, s.variation_coefficient, s.cre];
        fields.extend(s.shannon.iter().map(|&(_, h)| h));
        fields.into_iter().map(f64::to_bits).collect()
    }

    /// Under `KeepPolicy::All` every kept distribution rescores to the bits
    /// the sweep recorded from the histogram, and its support is the
    /// scale's distinct rates as `f64`s.
    #[test]
    fn kept_distributions_agree_with_their_scores() {
        let s = saturn_synth::DatasetProfile::enron().scaled(0.1).generate(3);
        let report = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 10 })
            .threads(2)
            .keep(KeepPolicy::All)
            .run(&s);
        let view = EventView::new(&s);
        let targets = TargetSpec::All.build(s.node_count() as u32);
        let mut arena = EngineArena::new();
        assert!(report.results().len() >= 10);
        for r in report.results() {
            let dist = r.distribution.as_ref().expect("every distribution is kept");
            assert_eq!(
                score_bits(&UniformityScores::of(dist)),
                score_bits(&r.scores),
                "k={}",
                r.k
            );
            let timeline = Timeline::aggregated_from_view(&view, r.k);
            let hist = saturn_trips::occupancy_histogram_in(&mut arena, &timeline, &targets);
            let mut rates: Vec<f64> = hist.rates().map(|(v, _)| v).collect();
            rates.dedup();
            let support: Vec<f64> = dist.pairs().map(|(v, _)| v).collect();
            assert_eq!(support, rates, "k={}", r.k);
            assert_eq!(dist.total_weight(), r.trips, "k={}", r.k);
        }
    }

    #[test]
    #[should_panic(
        expected = "Shannon entropy is scored at [5, 10, 20, 100] slots only, not 7"
    )]
    fn unsupported_shannon_slot_count_is_rejected() {
        let _ = OccupancyMethod::new().metric(SelectionMetric::ShannonEntropy { slots: 7 });
    }

    #[test]
    fn supported_shannon_slot_count_selects_a_scale() {
        let report = OccupancyMethod::new()
            .metric(SelectionMetric::ShannonEntropy { slots: 10 })
            .grid(SweepGrid::Geometric { points: 12 })
            .threads(1)
            .run(&ring_stream(8, 80, 7));
        let gamma = report.gamma().expect("a healthy stream selects a scale");
        assert!(gamma.score.is_finite());
    }

    #[test]
    fn sampled_targets_run() {
        let s = ring_stream(10, 60, 11);
        let report = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 8 })
            .targets(TargetSpec::Sample { size: 4, seed: 7 })
            .threads(1)
            .refine(0, 0)
            .run(&s);
        assert!(report.gamma().is_some());
        assert!(report.results().iter().all(|r| r.trips > 0));
    }

    #[test]
    fn refinement_adds_scales_around_maximum() {
        let s = ring_stream(8, 80, 7);
        let coarse = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 8 })
            .threads(1)
            .refine(0, 0)
            .run(&s);
        let refined = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 8 })
            .threads(1)
            .refine(2, 6)
            .run(&s);
        assert!(refined.results().len() > coarse.results().len());
        // refinement can only improve (or keep) the best score
        assert!(refined.gamma().unwrap().score >= coarse.gamma().unwrap().score - 1e-12);
    }

    #[test]
    fn run_on_shared_pool_matches_run() {
        use crate::parallel::WorkerPool;
        let s = ring_stream(8, 80, 7);
        let method =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 10 }).refine(1, 4);
        let baseline = method.clone().threads(2).run(&s);
        let mut pool = WorkerPool::new(2);
        // the same pool serves consecutive analyses, as in the service
        for _ in 0..2 {
            let shared = method.run_on(&s, &mut pool);
            assert_eq!(shared.results().len(), baseline.results().len());
            for (x, y) in shared.results().iter().zip(baseline.results()) {
                assert_eq!(x.k, y.k);
                assert_eq!(x.trips, y.trips);
                assert_eq!(x.scores.mk_proximity.to_bits(), y.scores.mk_proximity.to_bits());
            }
        }
    }

    #[test]
    fn tiled_sweeps_are_bit_identical_to_untiled() {
        let s = ring_stream(9, 90, 6);
        let reference = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 10 })
            .threads(1)
            .refine(1, 4)
            .tile(usize::MAX) // explicit untiled
            .run(&s);
        let ref_json = reference.to_json();
        for tile in [1usize, 3, 4, 9, 0] {
            for threads in [1usize, 3] {
                let tiled = OccupancyMethod::new()
                    .grid(SweepGrid::Geometric { points: 10 })
                    .threads(threads)
                    .refine(1, 4)
                    .tile(tile)
                    .run(&s);
                assert_eq!(
                    tiled.to_json(),
                    ref_json,
                    "tile={tile} threads={threads} must not change the report"
                );
            }
        }
    }

    #[test]
    fn single_scale_fans_out_over_tiles() {
        // a one-scale sweep on a multi-worker pool: only tiling can feed it
        let s = ring_stream(24, 120, 7);
        let untiled = OccupancyMethod::new()
            .grid(SweepGrid::ExplicitK(vec![40]))
            .threads(1)
            .refine(0, 0)
            .tile(usize::MAX)
            .run(&s);
        let tiled = OccupancyMethod::new()
            .grid(SweepGrid::ExplicitK(vec![40]))
            .threads(4)
            .refine(0, 0)
            .tile(5) // 24 columns -> 5 tiles
            .run(&s);
        assert_eq!(tiled.to_json(), untiled.to_json());
    }

    /// Tiles are a memory decision only: a one-scale round on a 4-wide
    /// pool over a stream whose arena fits one worker runs as one item.
    #[test]
    fn a_single_scale_is_one_item_however_wide_the_pool() {
        use crate::control::SweepObserver;

        #[derive(Default)]
        struct Spans(Mutex<Vec<TileSpan>>);
        impl SweepObserver for Spans {
            fn tile_done(&self, span: &TileSpan) {
                self.0.lock().unwrap().push(*span);
            }
        }

        let s = ring_stream(60, 600, 3);
        let spans = Arc::new(Spans::default());
        let ctl = SweepControl::with_observer(Arc::clone(&spans) as _);
        OccupancyMethod::new()
            .grid(SweepGrid::ExplicitK(vec![200]))
            .refine(0, 0)
            .try_run_on(&s, &mut WorkerPool::new(4), &ctl)
            .unwrap();
        let spans = spans.0.lock().unwrap();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!((spans[0].col_start, spans[0].col_len), (0, 60));
        assert!(spans[0].last_tile_of_scale);
    }

    #[test]
    fn prefired_token_cancels_before_any_work() {
        let s = ring_stream(8, 80, 7);
        let ctl = SweepControl::new();
        ctl.cancel.cancel();
        let mut pool = WorkerPool::new(2);
        let method = OccupancyMethod::new().grid(SweepGrid::Geometric { points: 12 });
        assert!(matches!(method.try_run_on(&s, &mut pool, &ctl), Err(Cancelled)));
        let (done, total) = ctl.progress.snapshot();
        assert_eq!(done, 0);
        assert!(total > 0, "total is set before the sweep fans out");
    }

    #[test]
    fn token_fired_mid_sweep_stops_the_run() {
        // Many scales on a single worker: a watcher fires the token as soon
        // as the first scale completes, and the per-item poll turns the long
        // remaining tail into no-ops.
        let s = ring_stream(12, 360, 5);
        let ks: Vec<u64> = (2..=250).map(|i| 2 * i).collect();
        let method = OccupancyMethod::new().grid(SweepGrid::ExplicitK(ks.clone())).refine(0, 0);
        let ctl = Arc::new(SweepControl::new());
        let watcher = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || loop {
                let (done, _) = ctl.progress.snapshot();
                if done >= 1 {
                    ctl.cancel.cancel();
                    return;
                }
                if ctl.cancel.is_cancelled() {
                    return;
                }
                std::hint::spin_loop();
            })
        };
        let mut pool = WorkerPool::new(1);
        let result = method.try_run_on(&s, &mut pool, &ctl);
        // unblock the watcher in the (theoretical) case nothing completed
        ctl.cancel.cancel();
        watcher.join().unwrap();
        assert!(matches!(result, Err(Cancelled)));
        let (done, total) = ctl.progress.snapshot();
        assert!(done < total, "cancellation must leave scales unfinished ({done}/{total})");
    }

    /// Each worker reuses its arena and rate counter across work items. A
    /// sweep cancelled from the observer after its first tile (the other
    /// worker is then usually inside a DP, which stops at its next poll)
    /// must leave nothing behind: the next, uncancelled sweep on the same
    /// pool reports the same bytes as a fresh pool. So must a sweep
    /// cancelled right after a worker scored a scale, untiled and tiled.
    #[test]
    fn a_sweep_cancelled_mid_dp_leaves_no_state_for_the_next_sweep() {
        use crate::control::{SweepObserver, TileSpan};
        use saturn_trips::CancelToken;

        /// Cancels on the first tile, or with `on_scored` on the first tile
        /// that scores its scale (a worker has just merged, scored and
        /// dropped a histogram while others are mid-merge or mid-DP).
        struct Canceller {
            token: CancelToken,
            on_scored: bool,
        }
        impl SweepObserver for Canceller {
            fn tile_done(&self, span: &TileSpan) {
                if span.last_tile_of_scale || !self.on_scored {
                    self.token.cancel();
                }
            }
        }

        // fine scales: thousands of DP steps per tile, far above the
        // cancellation stride
        let s = ring_stream(30, 3000, 1);
        let method = OccupancyMethod::new()
            .grid(SweepGrid::ExplicitK(vec![3000, 1500, 40]))
            .refine(1, 3);
        let tiled = method.clone().tile(4);
        let mut pool = WorkerPool::new(2);
        for m in [&method, &tiled] {
            let fresh = m.run_on(&s, &mut WorkerPool::new(2)).to_json();
            for on_scored in [false, true] {
                let token = CancelToken::new();
                let ctl = SweepControl {
                    cancel: token.clone(),
                    observer: Some(Arc::new(Canceller { token, on_scored })),
                    ..SweepControl::default()
                };
                assert!(matches!(m.try_run_on(&s, &mut pool, &ctl), Err(Cancelled)));
                assert_eq!(m.run_on(&s, &mut pool).to_json(), fresh);
            }
        }
    }

    #[test]
    fn unfired_control_is_bit_identical_to_plain_run() {
        let s = ring_stream(9, 90, 6);
        let method =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 10 }).refine(1, 4);
        let mut pool = WorkerPool::new(2);
        let plain = method.run_on(&s, &mut pool).to_json();
        let ctl = SweepControl::new();
        let controlled = method.try_run_on(&s, &mut pool, &ctl).unwrap().to_json();
        assert_eq!(plain, controlled, "an unfired token must not change the report");
        let (done, total) = ctl.progress.snapshot();
        assert_eq!(done, total, "all scales accounted for");
        assert!(total > 0);
    }

    /// An attached observer sees every tile exactly once, tallies the
    /// scales through `last_tile_of_scale`, and — because it runs strictly
    /// after each tile's histogram is sealed — cannot change report bytes.
    #[test]
    fn observer_sees_every_tile_and_never_changes_bytes() {
        use crate::control::{SweepObserver, TileSpan};
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Debug, Default)]
        struct CountingObserver {
            tiles: AtomicU64,
            scales: AtomicU64,
            trips: AtomicU64,
        }
        impl SweepObserver for CountingObserver {
            fn tile_done(&self, span: &TileSpan) {
                self.tiles.fetch_add(1, Ordering::Relaxed);
                if span.last_tile_of_scale {
                    self.scales.fetch_add(1, Ordering::Relaxed);
                }
                self.trips.fetch_add(span.trips, Ordering::Relaxed);
            }
        }

        let s = ring_stream(9, 90, 6);
        // tile(2) splits scales into several spans each; refinement rounds
        // exercise repeated sweeps under one control
        let method = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 10 })
            .tile(2)
            .refine(1, 4);
        let mut pool = WorkerPool::new(2);
        let plain = method.run_on(&s, &mut pool).to_json();
        let observer = Arc::new(CountingObserver::default());
        let ctl = SweepControl::with_observer(Arc::clone(&observer) as _);
        let observed = method.try_run_on(&s, &mut pool, &ctl).unwrap().to_json();
        assert_eq!(plain, observed, "an observer must not change the report");
        let (done, total) = ctl.progress.snapshot();
        assert_eq!(done, total);
        assert_eq!(
            observer.scales.load(Ordering::Relaxed),
            total,
            "one last-tile span per scale"
        );
        assert!(
            observer.tiles.load(Ordering::Relaxed) >= total,
            "tiled scales emit at least one span each"
        );
        // the spans carry the DP's own numbers: summed trips match the
        // report's per-scale trip counts across coarse sweep + refinement
        let report = method.try_run_on(&s, &mut pool, &SweepControl::new()).unwrap();
        let coarse_trips: u64 = report.results().iter().map(|r| r.trips).sum();
        assert!(observer.trips.load(Ordering::Relaxed) >= coarse_trips);
    }

    /// Builds a pinned-period ring stream plus a grown twin with `extra`
    /// appended events landing strictly after the base activity.
    fn ring_with_appends(extra: usize) -> (LinkStream, LinkStream, i64) {
        let mut base = LinkStreamBuilder::indexed(Directedness::Undirected, 8);
        base.period(0, 1200);
        for i in 0..90usize {
            let u = (i as u32) % 8;
            base.add_indexed(u, (u + 1) % 8, i as i64 * 10); // t in [0, 890]
        }
        let old = base.clone().build().unwrap();
        let first_append_t = 900i64;
        let mut grown = base;
        for i in 0..extra {
            let u = (i as u32 * 3) % 8;
            grown.add_indexed(u, (u + 5) % 8, first_append_t + (i as i64 * 7) % 300);
        }
        (old, grown.build().unwrap(), first_append_t)
    }

    #[test]
    fn refresh_is_byte_identical_to_scratch_and_reuses_scales() {
        let (old, new, t0) = ring_with_appends(40);
        for threads in [1usize, 2] {
            let method =
                OccupancyMethod::new().grid(SweepGrid::Geometric { points: 12 }).refine(1, 4);
            let mut pool = WorkerPool::new(threads);
            let mut cache = SweepCache::new();
            // cold refresh == scratch run on the base stream
            let cold =
                method.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache, None);
            assert_eq!(cold.unwrap().to_json(), method.run_on(&old, &mut pool).to_json());
            assert!(cache.stats.scales_reused == 0 && cache.stats.scales_respliced == 0);
            assert!(!cache.is_empty());
            // warm refresh after appends == scratch run on the grown stream
            let warm = method
                .try_refresh_on(&new, &mut pool, &SweepControl::new(), &mut cache, Some(t0))
                .unwrap();
            assert_eq!(
                warm.to_json(),
                method.run_on(&new, &mut pool).to_json(),
                "refresh must be byte-identical to scratch (threads={threads})"
            );
            assert!(
                cache.stats.scales_respliced > 0,
                "late appends splice at least the finest scales: {:?}",
                cache.stats
            );
            assert!(cache.stats.suffix_windows_rebuilt > 0);
            // identical re-refresh with no appends: everything reuses
            let again = method
                .try_refresh_on(&new, &mut pool, &SweepControl::new(), &mut cache, None)
                .unwrap();
            assert_eq!(again.to_json(), warm.to_json());
            assert_eq!(
                cache.stats.scales_reused, cache.stats.scales_total,
                "{:?}",
                cache.stats
            );
            assert_eq!(cache.stats.scales_respliced + cache.stats.scales_scratch, 0);
            assert!(cache.stats.tiles_skipped > 0);
        }
    }

    #[test]
    fn repeated_appends_refresh_through_one_cache() {
        // three rounds of growth through one session cache, each checked
        // against a scratch sweep of the concatenated stream
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 6);
        b.period(0, 600);
        for i in 0..40i64 {
            b.add_indexed((i % 6) as u32, ((i + 1) % 6) as u32, i * 5);
        }
        let method =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 10 }).refine(1, 3);
        let mut pool = WorkerPool::new(1);
        let mut cache = SweepCache::new();
        let first = b.clone().build().unwrap();
        let cold = method
            .try_refresh_on(&first, &mut pool, &SweepControl::new(), &mut cache, None)
            .unwrap();
        assert_eq!(cold.to_json(), method.run_on(&first, &mut pool).to_json());
        let mut t = 200i64;
        for round in 0..3 {
            let t0 = t;
            for i in 0..15i64 {
                b.add_indexed((i % 6) as u32, ((i * 5 + 2) % 6) as u32, t);
                t += 7;
            }
            let grown = b.clone().build().unwrap();
            let refreshed = method
                .try_refresh_on(&grown, &mut pool, &SweepControl::new(), &mut cache, Some(t0))
                .unwrap();
            assert_eq!(
                refreshed.to_json(),
                method.run_on(&grown, &mut pool).to_json(),
                "round {round}"
            );
        }
    }

    #[test]
    fn refresh_invalidates_on_target_change_and_prunes_dropped_scales() {
        let (old, ..) = ring_with_appends(0);
        let mut pool = WorkerPool::new(1);
        let mut cache = SweepCache::new();
        let wide =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 12 }).refine(0, 0);
        wide.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache, None).unwrap();
        let cached_wide = cache.len();
        assert!(cached_wide > 0);
        // a narrower grid prunes the scales that left it
        let narrow =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 5 }).refine(0, 0);
        narrow.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache, None).unwrap();
        assert!(cache.len() < cached_wide, "{} -> {}", cached_wide, cache.len());
        // a different target spec voids the cache: nothing reuses
        let sampled = narrow.targets(TargetSpec::Sample { size: 4, seed: 1 });
        let report = sampled
            .try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache, None)
            .unwrap();
        assert_eq!(cache.stats.scales_reused, 0);
        assert_eq!(report.to_json(), sampled.run_on(&old, &mut pool).to_json());
    }

    #[test]
    fn cancelled_refresh_leaves_the_cache_untouched() {
        let (old, new, t0) = ring_with_appends(30);
        let method =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 10 }).refine(0, 0);
        let mut pool = WorkerPool::new(1);
        let mut cache = SweepCache::new();
        method.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache, None).unwrap();
        let before = cache.len();
        let ctl = SweepControl::new();
        ctl.cancel.cancel();
        assert!(matches!(
            method.try_refresh_on(&new, &mut pool, &ctl, &mut cache, Some(t0)),
            Err(Cancelled)
        ));
        assert_eq!(cache.len(), before, "cancelled refresh must not grow the cache");
        // keeping the dirty mark, the retry is still byte-identical
        let retry = method
            .try_refresh_on(&new, &mut pool, &SweepControl::new(), &mut cache, Some(t0))
            .unwrap();
        assert_eq!(retry.to_json(), method.run_on(&new, &mut pool).to_json());
    }

    #[test]
    fn refresh_of_an_inconsistent_snapshot_falls_back_to_scratch() {
        // simulates the executor race: a refresh of an OLDER snapshot
        // executes after a refresh of a newer one already advanced the
        // cache (concurrent refreshes of one session can run on different
        // executors and finish out of submission order)
        let (old, new, t0) = ring_with_appends(30);
        let method =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 10 }).refine(1, 3);
        let mut pool = WorkerPool::new(2);
        let mut cache = SweepCache::new();
        method.try_refresh_on(&new, &mut pool, &SweepControl::new(), &mut cache, None).unwrap();
        // the stale snapshot claims clean (it was cut before the racing
        // append): reusing the cached timelines would serve the newer
        // stream's histograms under the older stream's identity
        let stale = method
            .try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache, None)
            .unwrap();
        assert_eq!(stale.to_json(), method.run_on(&old, &mut pool).to_json());
        assert_eq!(cache.stats.scales_reused + cache.stats.scales_respliced, 0);
        // the fallback re-stamped the cache as the old stream's: an
        // identical follow-up refresh is fully reusable again
        let again = method
            .try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache, None)
            .unwrap();
        assert_eq!(again.to_json(), stale.to_json());
        assert_eq!(cache.stats.scales_reused, cache.stats.scales_total, "{:?}", cache.stats);

        // stale snapshot carrying a dirty mark (the racing append landed
        // below it): splicing would keep a prefix with phantom events or
        // trip the append-only assert — must scratch instead
        let mut cache = SweepCache::new();
        method
            .try_refresh_on(&new, &mut pool, &SweepControl::new(), &mut cache, Some(t0))
            .unwrap();
        let stale = method
            .try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache, Some(t0))
            .unwrap();
        assert_eq!(stale.to_json(), method.run_on(&old, &mut pool).to_json());
        assert_eq!(cache.stats.scales_reused + cache.stats.scales_respliced, 0);

        // a grown stream claiming clean (a caller that lost its dirty
        // mark) is equally inconsistent: scratch, not reuse
        let mut cache = SweepCache::new();
        method.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache, None).unwrap();
        let grown = method
            .try_refresh_on(&new, &mut pool, &SweepControl::new(), &mut cache, None)
            .unwrap();
        assert_eq!(grown.to_json(), method.run_on(&new, &mut pool).to_json());
        assert_eq!(cache.stats.scales_reused + cache.stats.scales_respliced, 0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let s = ring_stream(7, 70, 5);
        let a =
            OccupancyMethod::new().threads(1).grid(SweepGrid::Geometric { points: 12 }).run(&s);
        let b =
            OccupancyMethod::new().threads(4).grid(SweepGrid::Geometric { points: 12 }).run(&s);
        assert_eq!(a.results().len(), b.results().len());
        for (x, y) in a.results().iter().zip(b.results()) {
            assert_eq!(x.k, y.k);
            assert_eq!(x.trips, y.trips);
            assert_eq!(x.scores.mk_proximity.to_bits(), y.scores.mk_proximity.to_bits());
        }
    }

    /// A comb over the pinned period `[0, 2000]`: ring pair `u` fires
    /// every 40 ticks from `7u mod 40`, plus the `extra` events.
    fn comb(directed: bool, extra: &[(u32, u32, i64)]) -> LinkStream {
        let d = if directed { Directedness::Directed } else { Directedness::Undirected };
        let mut b = LinkStreamBuilder::indexed(d, 10);
        b.period(0, 2000);
        for u in 0..10u32 {
            for t in (i64::from(u * 7 % 40)..=2000).step_by(40) {
                b.add_indexed(u, (u + 1) % 10, t);
            }
        }
        for &(u, v, t) in extra {
            b.add_indexed(u, v, t);
        }
        b.build().unwrap()
    }

    /// A batch of chords landing at `at` (a fraction of the period).
    fn chords(at: f64, salt: u32) -> Vec<(u32, u32, i64)> {
        (0..4u32)
            .map(|i| {
                (i + salt, (i + salt + 3 + i % 4) % 10, (at * 2000.0) as i64 + i64::from(i))
            })
            .collect()
    }

    /// Asserts that admission reserved no less than each cached scale's
    /// key tables take (`rung_reserve` of the levels its timeline holds).
    fn assert_reserve_covers(cache: &SweepCache, n: usize) {
        for (&k, entry) in &cache.scales {
            let held: usize = entry.rungs.iter().map(|rung| rung.keys.bytes()).sum();
            let reserve = rung_reserve(n, k, entry.timeline.nonempty_steps(), 0);
            assert!(held <= reserve, "k={k}: {held} bytes recorded, {reserve} reserved");
        }
    }

    /// Admission reserves 8-byte keys once `ea < k` and `hops < n` need
    /// more than 31 bits together, else 4, and only the levels a scale's
    /// non-empty steps can hold: arithmetic alone, no table is allocated.
    #[test]
    fn rung_reserve_sizes_keys_and_levels() {
        let (n, table) = (65_536, 65_536 * 65_536);
        // k − 1 and n − 1 take 16 bits each: 32 bits, so 8-byte keys
        assert_eq!(rung_reserve(n, 65_536, 32, 0), 4 * table * 8);
        // k − 1 takes 15 bits: 31 bits, so the keys pack to 4 bytes
        assert_eq!(rung_reserve(n, 32_768, 32, 0), 4 * table * 4);
        // 10 steps hold the ¼ and ⅛ levels only (10 / 16 rounds to none)
        assert_eq!(rung_reserve(n, 65_536, 10, 0), 2 * table * 8);
        // levels already kept are not reserved again
        assert_eq!(rung_reserve(n, 65_536, 32, 1), 3 * table * 8);
        assert_eq!(rung_reserve(n, 65_536, 10, 2), 0);
    }

    /// Session refreshes resume each respliced scale from its latest rung
    /// at or below the dirty window: a late append resumes from a late
    /// rung, one past only the ¼ rung resumes earlier, one before every
    /// rung resumes nothing, and an out-of-order batch resumes from where
    /// its earliest event allows. A second session then appends once inside
    /// each interval of the ladder, from before ¼ to after 1⁄32: the resume
    /// point moves up one rung with each append, so the skipped steps rise.
    /// Every refresh is byte-identical to a scratch sweep, on both
    /// directednesses.
    #[test]
    fn refresh_resumes_from_the_latest_valid_rung() {
        for directed in [false, true] {
            let method =
                OccupancyMethod::new().grid(SweepGrid::Geometric { points: 8 }).refine(1, 3);
            let mut pool = WorkerPool::new(2);
            let mut cache = SweepCache::new();
            let mut events = Vec::new();
            let base = comb(directed, &events);
            method
                .try_refresh_on(&base, &mut pool, &SweepControl::new(), &mut cache, None)
                .unwrap();
            assert!(cache.checkpoint_bytes() > 0, "a cold refresh records rungs");
            assert_reserve_covers(&cache, 10);
            let mut skipped = Vec::new();
            // late, past only the ¼ rung, before every rung, then one batch
            // arriving out of order (a late event, then an earlier one)
            let batches = [vec![0.97], vec![0.8], vec![0.3], vec![0.99, 0.85]];
            for (i, batch) in batches.iter().enumerate() {
                let mut dirty = i64::MAX;
                for (j, &at) in batch.iter().enumerate() {
                    let chords = chords(at, (i + j) as u32);
                    dirty = dirty.min(chords.iter().map(|c| c.2).min().unwrap());
                    events.extend(chords);
                }
                let grown = comb(directed, &events);
                let refreshed = method
                    .try_refresh_on(
                        &grown,
                        &mut pool,
                        &SweepControl::new(),
                        &mut cache,
                        Some(dirty),
                    )
                    .unwrap();
                assert_eq!(
                    refreshed.to_json(),
                    method.run_on(&grown, &mut pool).to_json(),
                    "directed={directed} batch {i}"
                );
                skipped.push(cache.stats.steps_skipped);
                assert_reserve_covers(&cache, 10);
            }
            assert!(skipped[0] > skipped[1] && skipped[1] > 0, "{skipped:?}");
            assert_eq!(skipped[2], 0, "an append before every rung resumes nothing");
            assert!(skipped[3] > 0, "{skipped:?}");

            // one append per ladder interval: before ¼, ¼–⅛, ⅛–1⁄16,
            // 1⁄16–1⁄32, after 1⁄32 (of the period; the comb spreads the
            // non-empty steps evenly over it)
            let mut cache = SweepCache::new();
            let mut events = Vec::new();
            method
                .try_refresh_on(&base, &mut pool, &SweepControl::new(), &mut cache, None)
                .unwrap();
            let mut skipped = Vec::new();
            for (i, at) in [0.5, 0.81, 0.905, 0.953, 0.985].into_iter().enumerate() {
                let chords = chords(at, i as u32);
                let dirty = chords.iter().map(|c| c.2).min();
                events.extend(chords);
                let grown = comb(directed, &events);
                let refreshed = method
                    .try_refresh_on(&grown, &mut pool, &SweepControl::new(), &mut cache, dirty)
                    .unwrap();
                assert_eq!(
                    refreshed.to_json(),
                    method.run_on(&grown, &mut pool).to_json(),
                    "directed={directed} append at {at}"
                );
                skipped.push(cache.stats.steps_skipped);
            }
            // every rung is a resume point: each later interval skips more
            assert_eq!(skipped[0], 0, "an append before ¼ resumes nothing: {skipped:?}");
            assert!(skipped.windows(2).all(|w| w[0] < w[1]), "{skipped:?}");
        }
    }

    /// A session whose scales split into several tiles keeps the backward
    /// DP: no checkpoint is recorded or resumed, and every refresh across
    /// appends still equals scratch.
    #[test]
    fn tiled_session_scales_keep_no_checkpoints() {
        let method = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 8 })
            .refine(1, 3)
            .tile(3);
        let mut pool = WorkerPool::new(2);
        let mut cache = SweepCache::new();
        let mut events = Vec::new();
        method
            .try_refresh_on(&comb(true, &[]), &mut pool, &SweepControl::new(), &mut cache, None)
            .unwrap();
        assert_eq!(cache.checkpoint_bytes(), 0);
        for (i, at) in [0.97, 0.8, 0.99].into_iter().enumerate() {
            let chords = chords(at, i as u32);
            let dirty = chords.iter().map(|c| c.2).min();
            events.extend(chords);
            let grown = comb(true, &events);
            let refreshed = method
                .try_refresh_on(&grown, &mut pool, &SweepControl::new(), &mut cache, dirty)
                .unwrap();
            assert_eq!(refreshed.to_json(), method.run_on(&grown, &mut pool).to_json());
            assert!(cache.stats.scales_respliced > 0, "{:?}", cache.stats);
            assert_eq!(cache.stats.steps_skipped, 0);
            assert_eq!(cache.checkpoint_bytes(), 0);
        }
    }

    /// A cold 250-node session of 44 scales records every rung each scale's
    /// timeline can hold: its packed key tables fit the budget.
    #[test]
    fn a_wide_session_records_every_rung() {
        let n = 250u32;
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, n);
        b.period(0, 20_000);
        for i in 0..1000u32 {
            b.add_indexed(i % n, (i % n + 1 + i % 5) % n, i64::from(i) * 20);
        }
        let stream = b.build().unwrap();
        let ks: Vec<u64> = (0..44).map(|i| 1940 - 45 * i).collect();
        let method = OccupancyMethod::new().grid(SweepGrid::ExplicitK(ks)).refine(0, 0);
        let mut cache = SweepCache::new();
        method
            .try_refresh_on(
                &stream,
                &mut WorkerPool::new(2),
                &SweepControl::new(),
                &mut cache,
                None,
            )
            .unwrap();
        assert_eq!(cache.len(), 44);
        for (&k, entry) in &cache.scales {
            let steps = entry.timeline.nonempty_steps();
            let levels = RUNG_LADDER.iter().filter(|&&f| steps / f > 0).count();
            assert_eq!(entry.rungs.len(), levels, "k={k}: {steps} steps");
        }
        assert_reserve_covers(&cache, n as usize);
    }

    /// Sampled targets keep the backward DP: no checkpoint is recorded or
    /// resumed, and refreshes still equal scratch.
    #[test]
    fn sampled_target_sessions_keep_the_backward_dp() {
        let method = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 8 })
            .targets(TargetSpec::Sample { size: 4, seed: 3 });
        let mut pool = WorkerPool::new(2);
        let mut cache = SweepCache::new();
        method
            .try_refresh_on(
                &comb(false, &[]),
                &mut pool,
                &SweepControl::new(),
                &mut cache,
                None,
            )
            .unwrap();
        assert_eq!(cache.checkpoint_bytes(), 0);
        let batch = chords(0.97, 1);
        let grown = comb(false, &batch);
        let refreshed = method
            .try_refresh_on(
                &grown,
                &mut pool,
                &SweepControl::new(),
                &mut cache,
                Some(batch[0].2),
            )
            .unwrap();
        assert_eq!(refreshed.to_json(), method.run_on(&grown, &mut pool).to_json());
        assert!(cache.stats.scales_respliced > 0);
        assert_eq!(cache.stats.steps_skipped, 0);
    }

    /// A resumed refresh cancelled mid-sweep (from the observer, after its
    /// first tile) leaves the session consistent: the retry with the same
    /// dirty mark resumes again and equals scratch.
    #[test]
    fn a_cancelled_resumed_refresh_retries_byte_identically() {
        use crate::control::SweepObserver;
        use saturn_trips::CancelToken;

        struct Canceller(CancelToken);
        impl SweepObserver for Canceller {
            fn tile_done(&self, _: &TileSpan) {
                self.0.cancel();
            }
        }

        let method =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 10 }).refine(1, 3);
        let mut pool = WorkerPool::new(2);
        let mut cache = SweepCache::new();
        method
            .try_refresh_on(&comb(true, &[]), &mut pool, &SweepControl::new(), &mut cache, None)
            .unwrap();
        let batch = chords(0.9, 2);
        let grown = comb(true, &batch);
        let token = CancelToken::new();
        let ctl = SweepControl {
            cancel: token.clone(),
            observer: Some(Arc::new(Canceller(token))),
            ..SweepControl::default()
        };
        let dirty = Some(batch[0].2);
        assert!(matches!(
            method.try_refresh_on(&grown, &mut pool, &ctl, &mut cache, dirty),
            Err(Cancelled)
        ));
        let retry = method
            .try_refresh_on(&grown, &mut pool, &SweepControl::new(), &mut cache, dirty)
            .unwrap();
        assert_eq!(retry.to_json(), method.run_on(&grown, &mut pool).to_json());
        assert!(cache.stats.steps_skipped > 0, "{:?}", cache.stats);
    }
}
