//! The backward earliest-arrival dynamic program.
//!
//! This is the algorithm sketched in Section 5 of the paper: *"a dynamic
//! programming scheme going backward in time: at one step, knowing all the
//! minimal trips of the series starting not before time k+1, the algorithm
//! computes the minimal trips starting exactly at time k, their duration and
//! their minimum number of hops"*, with total complexity `O(nM)`.
//!
//! # State
//!
//! For every ordered pair `(u, v)` (with `v` restricted to the
//! [`TargetSet`]), the engine maintains while sweeping steps `k = K-1 .. 0`
//! one `u64` key `ea << 32 | hops`:
//!
//! * `ea[u][v]` — earliest arrival step among temporal paths departing at a
//!   step `>= k`,
//! * `hops[u][v]` — minimum hop count among paths achieving that arrival.
//!
//! Keys order exactly like the DP's preference (first `ea`, then `hops`),
//! so "candidate improves the cell" is one integer compare, and "candidate
//! improves `ea`" is a compare against the cell's key with its hops cleared.
//!
//! # Memory & layout invariants (the [`EngineArena`])
//!
//! The sweep calls this engine once per aggregation scale, with identical
//! table dimensions `n × |targets|` every time. All engine state therefore
//! lives in a caller-owned [`EngineArena`] that each worker thread allocates
//! once and reuses for every scale it processes. The invariants:
//!
//! * **Keys.** `u64::MAX` means unreachable; it is never a real key (hops
//!   stay far below `u32::MAX`), and a chain candidate is the continuation
//!   key plus one hop, saturating, so an unreachable source lane yields an
//!   unreachable candidate that never wins.
//! * **Reachability frontier.** A per-row bitmap (one bit per column) marks
//!   the cells whose key is not `MAX`. Backward in time, reachability only
//!   grows, so bits are set-only within a run, set in the same statement
//!   that writes the key. Walks visit set bits in ascending column order and
//!   skip zero 64-column words whole, which is decisive for early backward
//!   steps, where nearly every pair is still unreachable.
//! * **Frontier-walk reset.** Between runs, every key is `MAX` except those
//!   the previous run wrote, and its frontier names exactly those. The next
//!   run's `prepare` resets them by walking that frontier under the geometry
//!   it was written with, then clears the frontier words and their change
//!   marks, so a reset costs the previous run's reach, not the table. The
//!   frontier is updated before any sink call, so an abandoned run (a caught
//!   sink panic, a cancelled token) leaves nothing the walk misses. Only
//!   `collect_distances` runs keep a per-cell install-step table; a cell's
//!   step is written when it first becomes reachable, so it needs no reset.
//! * **Block snapshots.** At each step, rows that can be read as
//!   continuations are snapshotted one 64-column word at a time: a word
//!   with at least `BLOCK_MIN_CELLS` (16) cells to merge copies all its
//!   keys, a sparser word copies only those cells' keys, and each word
//!   records the cells and its change mark in a block header. Snapshot bounds are frozen
//!   before any edge of the step is applied, which is exactly the strict
//!   inequality of Remark 1 — same-step values can never be read back (see
//!   the ablation test `remark1_ablation.rs` for the naive in-place
//!   variant's failure).
//! * **CSR timelines.** Steps arrive as [`StepView`](crate::StepView) slices into the
//!   timeline's flat `edge_src` / `edge_dst` arrays ([`Timeline`] docs);
//!   the engine walks them with zero per-step allocation.
//! * **Tile locality.** The recurrence `ea[u][v] ← 1 + ea'[w][v]` never
//!   reads a column other than `v`, so the engine can run on any contiguous
//!   *column range* of the [`TargetSet`] in complete isolation
//!   ([`DpRun::tile`]): the arena's tables, frontier bitmap
//!   and snapshot slots are all sized `n × tile` (better cache residency at
//!   large `n`), columns are tile-local (`global − col_start`), and reported
//!   trips / distance sums / per-tile `OccupancyHistogram`s partition the
//!   untiled run exactly — merging tiles in ascending column order
//!   reproduces the untiled output bit for bit. Traversal counts are
//!   per-edge, not per-column, so `DpStats::traversals` repeats per tile.
//! * **Memory budget.** An arena whose tile is at most [`max_tile_cols`]
//!   wide reserves at most [`ARENA_BUDGET_BYTES`] ([`arena_bytes`]), and
//!   the sweep never runs a wider tile, so a worker's memory is bounded
//!   whatever `n` is. Untiled runs have no bound, but a key table the
//!   allocator refuses is an unwindable panic naming it, not an abort.
//! * **Degree-1 snapshot bypass.** A step carrying a single edge `(u, w)`
//!   skips the slot machinery entirely: direction `u → w` reads row `w`
//!   *live* (nothing has written it yet this step — merges only touch the
//!   reader's own row), and for undirected timelines row `u` alone is
//!   snapshotted before direction `u → w` dirties it, so direction `w → u`
//!   still sees pre-step values. The merges are identical to the general
//!   path's, so results are bit-identical; what is saved is one row
//!   snapshot, all `slot_of` bookkeeping, and (directed) every snapshot
//!   write. This attacks the snapshot-bound fine-scale tail where nearly
//!   every non-empty window holds one edge.
//!
//! # Delta propagation invariants
//!
//! The fine-scale tail is *merge-bound*: the same few edges fire step after
//! step, and each firing would re-merge every live cell of its continuation
//! row even though almost none of them changed since the previous firing.
//! The engine therefore tracks change per 64-column word, and only merges
//! the cells of words that changed:
//!
//! * **Per-(edge, direction) watermarks.** The timeline assigns every
//!   distinct `(src, dst)` pair a stable id ([`crate::StepView::pair`]); the arena
//!   keeps, at `wm[2 · pair + direction]`, the step at which that traversal
//!   direction last consumed its continuation row (`NEVER` = not yet this
//!   run; the table is refilled per run, `O(distinct pairs)`).
//! * **Change marks.** `marks[row · words + w]` records, for word `w` of
//!   `row`, the step `at` of its most recent change (any key write, hops
//!   ties included), the step `prev` of the change before, and the cells
//!   `recent` that changed at `at`; the report walk writes it from the
//!   step's dirty bits. With the backward sweep running `k = K-1 .. 0`, the
//!   cells changed since direction `d` last fired at step `L` are none when
//!   `at > L`, within `recent` when only `at <= L < prev`, and within the
//!   live cells otherwise (snapshot values are always pre-step, so same-step
//!   writes never leak in). The middle case is the steady state of a
//!   contact train, where an edge fires every step and each firing changes
//!   a cell or two. Alongside, a per-row mark (`row_changed_at`, the
//!   minimum of the row's `at`s) lets a consumer skip the *whole* row when
//!   `row_changed_at > L`.
//! * **Correctness (why skipped merges are no-ops).** Inductive invariant:
//!   after direction `(u, w)` fires at step `L`, every chain candidate
//!   `ea'[w][v] · 2^32 + hops'[w][v] + 1` built from row `w`'s pre-step-`L`
//!   keys is at least as large as `key[u][v]` — and keys only decrease. At a
//!   later (smaller) step `k`, a cell unchanged since `L` holds the *same*
//!   key it held at step `L`, so its candidate cannot pass the strict
//!   improvement test. A merge may also cover unchanged cells next to
//!   changed ones (a block merge covers every lane); their candidates fail
//!   the same test. Candidates that do
//!   not improve have *zero* side effects (no key write, no dirty bit, no
//!   distance flush), hence the filtered run's keys, trip stream, and
//!   distance sums are bit-identical to an unfiltered run's — enforced
//!   differentially against [`baseline`] (which keeps no watermarks) in
//!   `proptest_frontier.rs`, and across tile × thread combinations in
//!   `core/tests/tiling_determinism.rs`. The single-hop candidate `(k, 1)`
//!   is never filtered: it is new every step.
//! * **Why the crossover exists.** A word with at least `BLOCK_MIN_CELLS`
//!   (16) source cells to merge is merged branch-free over all its lanes
//!   (the block path): each lane is a saturating add, two compares and a
//!   `min`, and the changed and `ea`-improved lane masks come out directly
//!   as the dirty and `ea` bitmap words. A sparser word walks its cells'
//!   bits (the bit walk), paying per cell instead of per lane. Block-only
//!   merging loses on sparse rings and contact trains, where a word holds
//!   or changes a handful of cells; per-cell merging loses on dense rows,
//!   where every cell costs a data-dependent branch.
//! * **Filtered snapshots.** A pre-pass over the step's edges computes, per
//!   slotted row, the most permissive consumer watermark (`slot_maxlast`),
//!   and the snapshot copies only the cells changed since then, word by word
//!   (each direction then re-filters blocks by its own watermark). Rows with
//!   no consumer in the step — e.g. directed tails — and rows unchanged
//!   since every consumer's last visit copy nothing. This composes with the
//!   degree-1 bypass: a single-edge step whose rows are unchanged since the
//!   edge last fired does no snapshot work and no merge at all, which is
//!   the common case on bursty contact trains. In the degree-1 forward
//!   direction row `w` is read live, and its live marks are therefore
//!   pre-step exact; the reverse-direction snapshot is taken before the
//!   forward merges dirty row `u`.
//! * **Change tracking.** Every write lands in two per-slot bitmaps:
//!   `dirty_bits` (any change, hops ties included) feeds the change records,
//!   and `ea_bits` (strict `ea` improvements) is exactly the minimal-trip
//!   condition. Walking them with slots in ascending node order reports
//!   trips in canonical order with no per-step sort.
//!
//! [`baseline`] is the comparison oracle: the pre-rework engine (full-row
//! snapshots, per-run table allocation, `O(ncols)` chain scans, no
//! watermarks, no degree-1 bypass, a sorted dirty list for reporting), a
//! separate implementation the differential tests and the sweep bench check
//! this engine against.
//!
//! # Recurrence at step `k`
//!
//! For every edge `(u, w)` of step `k` (plus the reverse traversal when
//! undirected): the single hop yields candidate `(arrival = k, hops = 1)` for
//! target `w`, and chaining through `w` yields, for every target `v`,
//! candidate `(arrival = ea'[w][v], hops = 1 + hops'[w][v])` — where primed
//! values are **pre-step** values (rows read as continuations are snapshotted
//! first), so two edges of the same step can never chain, enforcing the
//! strict inequality of Remark 1.
//!
//! # Minimal trips
//!
//! A minimal trip is exactly a strict improvement of `ea`: `(u, v, k, a)` is
//! a minimal trip iff `a = ea_k[u][v] < ea_{k+1}[u][v]`. *Proof.* If
//! `ea_{k+1} = ea_k` then the same trip fits in `[k+1, a] ⊊ [k, a]`, so
//! `[k, a]` is not minimal; conversely if `ea_k < ea_{k+1}` then no trip fits
//! in `[k+1, a'] ⊆ [k, a]` with `a' <= a` (it would force
//! `ea_{k+1} <= a < ea_{k+1}`), and no trip fits in `[k, a']` with `a' < a`
//! (it would contradict `ea_k = a`); hence `[k, a]` is minimal. Trips are
//! reported once per step, after all its edges are processed (in ascending
//! `(row, target-column)` order within the step), so the sink always sees
//! final values.
//!
//! # Orientation and resume
//!
//! The engine runs in one of two orientations, monomorphized over a const
//! parameter so the backward hot loop is the one described above:
//! backward ([`earliest_arrival_dp_in`]), or mirrored
//! ([`mirrored_histogram_in`]), which walks the steps in *ascending*
//! order, reads step index `i` as `K − 1 − i` (`K` = the timeline's step
//! count) and turns every directed edge around. This is rust_road_router's
//! move of running a backward profile search forward on a reversed graph.
//!
//! * **The reversal bijection.** Let `M` be the mirrored timeline: step
//!   `K − 1 − i` of `M` holds `(w, u)` for each edge `(u, w)` of step `i`
//!   (the same edges when undirected). A temporal path from `v` to `u`
//!   over steps `s1 < … < sh` is, read backwards, a path of `M` from `u` to
//!   `v` over steps `K − 1 − sh < … < K − 1 − s1`, with the same hops, and
//!   conversely; strict step order (Remark 1) survives the map. So a trip
//!   `(v, u, d, a)` exists iff trip `(u, v, K − 1 − a, K − 1 − d)` of `M`
//!   does. The interval map `[d, a] ↦ [K − 1 − a, K − 1 − d]` is a
//!   bijection that preserves inclusion, so interval minimality — no trip
//!   in a strictly smaller interval — holds on one side iff on the other,
//!   and the paths inside matching intervals are the same paths, so the
//!   minimum hops agree. The backward engine run on `M` therefore reports
//!   exactly the minimal trips `(u, v, d, a, h) ↔ (v, u, K−1−a, K−1−d, h)`,
//!   and the mirrored run maps each one back before the sink sees it.
//!   Durations `a − d + 1`, hence occupancy rates, are unchanged. What does
//!   change is the grouping: `M`'s columns are the original *sources* and
//!   its rows must cover every destination, so a mirrored run always
//!   spans every node in one `n × n` table, and trips arrive by ascending
//!   original arrival — so only an order-free sink, the [`RateCounter`],
//!   may take them. The unit tests compare both orientations trip for trip
//!   and histogram for histogram.
//! * **What a checkpoint holds.** Before the first step at or above index
//!   `c`, the mirrored state depends on the steps below `c` alone: key
//!   `[u][v]` holds `K − 1` minus the latest departure of a path from `v`
//!   to `u` that arrives before `c`, with its minimum hops, and every trip
//!   reported so far arrives before `c`. A [`Checkpoint`] is `c` plus that
//!   table ([`SavedKeys`], packed into 32 bits when the keys fit). A run
//!   that loads it and walks the remaining steps reports exactly the trips
//!   that arrive at or after `c`, on any timeline whose steps below `c` are
//!   unchanged. A run hands its table and its sealed counter back at each
//!   rung of [`Mirror::rungs`], so one run both resumes and records. The
//!   table is whole because the run is: a scale too wide for one arena
//!   ([`max_tile_cols`]) runs backward in tiles and keeps no checkpoint.
//! * **Why `NEVER` watermarks keep the delta invariants.** A loaded run
//!   treats every loaded cell as changed at a virtual step `NEVER`, before
//!   every real step: change marks stay `UNCHANGED` (`at = NEVER`),
//!   `row_changed_at` stays `NEVER`, and every watermark starts at `NEVER`,
//!   as in a fresh run. A direction's first firing then has
//!   `last = NEVER`, so the word filter yields every live cell and the
//!   whole loaded row is merged, which establishes the inductive invariant
//!   of "Correctness" just as a fresh run's first firing does. Afterwards a
//!   word still marked `at = NEVER` reads as changed before the direction's
//!   last visit and is skipped — rightly, that visit merged it — and a
//!   word's first real change records `prev = NEVER`, which sends later
//!   consumers to `recent`, the only cells that changed since they merged
//!   the loaded ones. Watermarks are not saved at all: pair ids are view
//!   ranks, which an append may shift (the timeline's "Splice
//!   invariants"), so a saved watermark could name another pair. Loaded
//!   cells get their frontier bits, so the next `prepare` resets them.

use crate::cancel::CancelToken;
use crate::{OccupancyHistogram, RateCounter, TargetSet, Timeline};

/// Sentinel for "no path" in the baseline's `ea` table.
const NONE_EA: u32 = u32::MAX;
/// Sentinel for "value never set" / "no slot" / "not this run".
const NEVER: u32 = u32::MAX;
/// The key of an unreachable cell (module docs, "Keys").
const UNREACHED: u64 = u64::MAX;
/// The `ea` half of a key: a candidate improves `ea` iff it is below the
/// cell's key masked with this.
const EA_MASK: u64 = !(u32::MAX as u64);
/// The fewest cells to merge at which a word takes the branch-free block
/// path rather than the bit walk (module docs, "Why the crossover exists").
const BLOCK_MIN_CELLS: u32 = 16;
/// Steps between cancellation polls in the main DP loop: a fired
/// [`CancelToken`] stops a run within this many steps of one tile. Chosen so
/// the poll is amortized to nothing even on degree-1 timelines where a step
/// costs a handful of instructions.
pub const CANCEL_STRIDE: u32 = 512;

/// Per-worker byte budget for one arena's column-dependent tables (module
/// docs, "Memory budget"); [`max_tile_cols`] turns it into a tile width.
pub const ARENA_BUDGET_BYTES: usize = 256 << 20;

/// Bytes an arena reserves per (row, column), at most: the key, the
/// worst-case snapshot copy (a step touching every row copies every live
/// key) doubled for push growth, the install step of a distance-collecting
/// run, and two bytes for the per-word tables — the frontier, dirty and
/// `ea` bits, the change records and the snapshot block headers, each
/// doubled for growth (16 bits per column).
const ROW_COL_BYTES: usize = 3 * size_of::<u64>() + size_of::<u32>() + 2;
/// Bytes per row on top: the per-word tables' partial last word, doubled.
const ROW_BYTES: usize =
    2 * (3 * size_of::<u64>() + size_of::<WordMark>() + size_of::<Block>());

/// Upper bound on the bytes an arena reserves for its keys, install steps,
/// snapshot buffers and per-word tables over an `nrows × ncols` run.
pub fn arena_bytes(nrows: usize, ncols: usize) -> usize {
    nrows.saturating_mul(ncols.saturating_mul(ROW_COL_BYTES).saturating_add(ROW_BYTES))
}

/// The widest tile, in target columns, whose arena over `nrows` rows fits
/// [`ARENA_BUDGET_BYTES`]; at least 1, since a single column is the
/// narrowest layout the engine has.
pub fn max_tile_cols(nrows: usize) -> usize {
    ((ARENA_BUDGET_BYTES / nrows.max(1)).saturating_sub(ROW_BYTES) / ROW_COL_BYTES).max(1)
}

/// Receives every minimal trip discovered by the engine.
///
/// `dep` and `arr` are *step indices* of the timeline (window indices for
/// aggregated timelines, timestamp ranks for exact ones); `hops` is the
/// minimum hop count among temporal paths departing exactly at `dep` and
/// arriving exactly at `arr`.
pub trait TripSink {
    /// Called once per minimal trip, in non-increasing `dep` order.
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32);
}

/// A sink that discards trips (useful when only distances are wanted).
pub struct NullSink;

impl TripSink for NullSink {
    fn minimal_trip(&mut self, _: u32, _: u32, _: u32, _: u32, _: u32) {}
}

impl<F: FnMut(u32, u32, u32, u32, u32)> TripSink for F {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
        self(u, v, dep, arr, hops)
    }
}

/// Engine options. The engine has one execution mode; options only choose
/// what a run reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct DpOptions {
    /// Accumulate the exact sums needed for mean `d_time` / `d_hops` over all
    /// departure steps (Figure 2, bottom row). Costs one extra `u32` table.
    pub collect_distances: bool,
}

/// Raw distance sums over every `(u, v, departure step)` triple with a finite
/// distance. Durations are counted in *steps* (`arr - dep + 1`), matching the
/// paper's graph-series definition of `d_time`.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistanceSums {
    /// `Σ (arr - dep + 1)` over finite triples.
    pub sum_dtime_steps: i128,
    /// `Σ hops` over the same triples.
    pub sum_dhops: i128,
    /// Number of finite `(u, v, dep)` triples.
    pub finite_triples: i128,
}

/// Summary of one engine run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DpStats {
    /// Number of minimal trips reported.
    pub trips: u64,
    /// Total edge traversals processed (`M`, doubled for undirected).
    pub traversals: u64,
    /// Source cells merged into written rows, after delta filtering: every
    /// lane of a block-merged word, every live cell of a walked word
    /// (excludes the per-traversal single-hop candidate).
    pub chain_offers: u64,
    /// Snapshot cells copied across all steps, after delta filtering: every
    /// lane of a block word, every live cell of a sparse word.
    pub snap_entries: u64,
    /// Steps taken through the degree-1 fast path (single-edge steps with
    /// no slot machinery — the fine-scale tail's dominant step shape).
    /// Always 0 for the baseline engine, which has no such path.
    pub degree1_steps: u64,
    /// Words merged by the branch-free block path. Always 0 for the
    /// baseline engine.
    pub block_words: u64,
    /// Words merged by the per-cell bit walk. Always 0 for the baseline
    /// engine.
    pub walked_words: u64,
    /// Distance sums, if requested.
    pub distances: Option<DistanceSums>,
}

/// The header of one snapshotted 64-column word of a continuation row.
#[derive(Clone, Copy, Debug)]
struct Block {
    /// The word's cells some consumer still needs ([`WordMark::since`]).
    cells: u64,
    /// Offset of the copied keys in the snapshot buffer: one per lane when
    /// `cells` reaches `BLOCK_MIN_CELLS`, else one per `cells` bit, ascending.
    at: u32,
    /// Word index within the row.
    word: u32,
    /// The step of the word's latest change when copied.
    mark: u32,
}

/// The change record of one (row, word) (module docs, "Change marks").
#[derive(Clone, Copy, Debug)]
struct WordMark {
    /// The step of the word's most recent change (`NEVER` = none this run).
    at: u32,
    /// The step of the change before that (`NEVER` = none).
    prev: u32,
    /// The cells that changed at step `at`.
    recent: u64,
}

impl WordMark {
    const UNCHANGED: WordMark = WordMark { at: NEVER, prev: NEVER, recent: 0 };

    /// The cells of a word live in `live` that may have changed since a
    /// consumer last read it at step `last`: none when the word's latest
    /// change predates that visit, the latest change's cells when only it
    /// follows it, and every live cell otherwise.
    #[inline(always)]
    fn since(&self, live: u64, last: u32) -> u64 {
        if self.at > last {
            0
        } else if self.prev > last {
            self.recent
        } else {
            live
        }
    }
}

/// Reusable per-worker engine state; see the module docs for the reset and
/// frontier invariants. One arena serves any number of sequential runs; the
/// sweep gives each worker thread its own.
#[derive(Clone, Debug, Default)]
pub struct EngineArena {
    nrows: usize,
    ncols: usize,
    /// Words per row of every per-word table: `ceil(ncols / 64)`.
    words_per_row: usize,
    /// `ea << 32 | hops` per cell, `UNREACHED` when unreachable.
    keys: Vec<u64>,
    /// Per cell, the step its key was installed at; `collect_distances`
    /// runs only (the distance flush needs it).
    set_at: Vec<u32>,
    /// Per-row frontier bitmap (one bit per column): bit set = live key.
    frontier: Vec<u64>,
    /// Per (row, word): the word's change record.
    marks: Vec<WordMark>,
    /// Flat per-step snapshot of copied keys, and the copied words' headers.
    snap: Vec<u64>,
    blocks: Vec<Block>,
    /// Per snapshot slot: `(start, len)` into `blocks`.
    slot_bounds: Vec<(u32, u32)>,
    /// Per snapshot slot: the most permissive delta watermark among the
    /// step's consumers of the row (`0` = no consumer, `NEVER` = some
    /// consumer needs everything). Snapshots copy the cells changed since
    /// then ([`WordMark::since`]).
    slot_maxlast: Vec<u32>,
    /// node -> snapshot slot (`NEVER` = none), plus the slotted-node list.
    slot_of: Vec<u32>,
    slotted: Vec<u32>,
    /// The step's dirty-column set: one `words_per_row` bitmap tile per
    /// snapshot slot, bit set iff the cell changed this step. Iterating
    /// set bits (slots in ascending node order) reproduces the canonical
    /// ascending `(row, col)` report order with no sort at all.
    dirty_bits: Vec<u64>,
    /// Same geometry: bit set iff the cell's `ea` strictly improved this
    /// step — exactly the minimal-trip condition, so trip reporting is a
    /// walk of these bits.
    ea_bits: Vec<u64>,
    /// Reporting scratch: the step's `(node, slot)` pairs, sorted ascending
    /// by node before the report walk.
    report_order: Vec<(u32, u32)>,
    /// Per row: the minimum of its words' latest change steps (`NEVER` =
    /// unchanged this run), so a consumer watermark `L < row_changed_at[row]` proves the
    /// whole row unchanged since that consumer's last visit.
    row_changed_at: Vec<u32>,
    /// Delta watermarks, indexed `2 * pair_id + direction` over the
    /// timeline's distinct edge pairs: the step at which that (edge,
    /// direction) last consumed its continuation row (`NEVER` = not yet).
    wm: Vec<u32>,
}

/// The row one traversal writes: row `u`'s keys, frontier words and
/// install steps (empty unless collecting), its slot's dirty and `ea` words,
/// and the run's counters.
struct Writer<'a> {
    keys: &'a mut [u64],
    frontier: &'a mut [u64],
    set_at: &'a mut [u32],
    dirty: &'a mut [u64],
    ea: &'a mut [u64],
    k: u32,
    /// `u`'s own tile-local column (`NEVER` = outside the tile): no trip
    /// ends where it starts, so the diagonal is never merged.
    diag: u32,
    stats: &'a mut DpStats,
    sums: &'a mut DistanceSums,
}

impl Writer<'_> {
    /// Offers candidate key `cand` to column `c`.
    #[inline(always)]
    fn offer(&mut self, c: usize, cand: u64) {
        let cur = self.keys[c];
        if cand < cur {
            self.install(c, cur);
            self.keys[c] = cand;
            let (w, bit) = (c >> 6, 1u64 << (c & 63));
            self.frontier[w] |= bit;
            self.dirty[w] |= bit;
            if cand < cur & EA_MASK {
                self.ea[w] |= bit;
            }
        }
    }

    /// Before column `c`'s key `old` is replaced at step `k` (collecting
    /// runs only): flushes the distances `old` contributed over departure
    /// steps `[k + 1, set_at]`, and records `k` as the new install step.
    #[inline(always)]
    fn install(&mut self, c: usize, old: u64) {
        if self.set_at.is_empty() {
            return;
        }
        if old == UNREACHED {
            self.set_at[c] = self.k;
        } else if self.set_at[c] != self.k {
            flush_distances(old, self.set_at[c], self.k + 1, self.sums);
            self.set_at[c] = self.k;
        }
    }

    /// Merges the chain candidates of the cells `cells` of one continuation
    /// word into word `wi`: `src` holds the word's keys per lane for the
    /// block path (which merges every lane), and for the bit walk per lane
    /// (`packed == false`) or one per `cells` bit.
    #[inline(always)]
    fn merge(&mut self, wi: usize, cells: u64, src: &[u64], packed: bool) {
        let base = wi * 64;
        let diag = (self.diag as usize).wrapping_sub(base);
        if cells.count_ones() < BLOCK_MIN_CELLS {
            self.stats.walked_words += 1;
            let (mut bits, mut j) = (cells, 0);
            while bits != 0 {
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = src[if packed { j } else { c }];
                j += 1;
                if c != diag {
                    self.stats.chain_offers += 1;
                    self.offer(base + c, s + 1);
                }
            }
            return;
        }
        let width = (self.keys.len() - base).min(64);
        self.stats.block_words += 1;
        self.stats.chain_offers += width as u64;
        let (dst, src) = (&mut self.keys[base..base + width], &src[..width]);
        let diag_bit = if diag < 64 { 1u64 << diag } else { 0 };
        if !self.set_at.is_empty() {
            let mut gains = 0u64;
            for (i, (&d, &s)) in dst.iter().zip(src).enumerate() {
                gains |= u64::from(s.saturating_add(1) < d) << i;
            }
            gains &= !diag_bit;
            while gains != 0 {
                let c = gains.trailing_zeros() as usize;
                gains &= gains - 1;
                let old = self.keys[base + c];
                self.install(base + c, old);
            }
        }
        let dst = &mut self.keys[base..base + width];
        // lane masks shift in from the top (constant shifts only), so lane
        // `i` ends at bit `i` once the last lane is in
        let (mut changed, mut improved) = (0u64, 0u64);
        for (d, &s) in dst.iter_mut().zip(src) {
            let (cand, cur) = (s.saturating_add(1), *d);
            changed = changed >> 1 | u64::from(cand < cur) << 63;
            improved = improved >> 1 | u64::from(cand < cur & EA_MASK) << 63;
            *d = cur.min(cand);
        }
        (changed, improved) = (changed >> (64 - width), improved >> (64 - width));
        if changed & diag_bit != 0 {
            dst[diag] = UNREACHED;
            changed &= !diag_bit;
            improved &= !diag_bit;
        }
        self.frontier[wi] |= changed;
        self.dirty[wi] |= changed;
        self.ea[wi] |= improved;
    }
}

/// Adds the distances of key `key`, valid for departure steps `[lo, hi]`.
#[inline]
fn flush_distances(key: u64, hi: u32, lo: u32, sums: &mut DistanceSums) {
    let (hi, lo) = (hi as i128, lo as i128);
    if hi < lo {
        return;
    }
    let cnt = hi - lo + 1;
    // Σ_{t=lo..hi} (a - t + 1) = cnt·(a + 1) - Σ t
    let sum_t = (lo + hi) * cnt / 2;
    sums.sum_dtime_steps += cnt * ((key >> 32) as i128 + 1) - sum_t;
    sums.sum_dhops += cnt * (key as u32) as i128;
    sums.finite_triples += cnt;
}

/// Row `dst` (mutable) and row `src` (shared) of a row-major table of rows
/// `width` wide; `dst != src`.
fn two_rows<T>(table: &mut [T], width: usize, dst: usize, src: usize) -> (&mut [T], &[T]) {
    if dst < src {
        let (lo, hi) = table.split_at_mut(src * width);
        (&mut lo[dst * width..][..width], &hi[..width])
    } else {
        let (lo, hi) = table.split_at_mut(dst * width);
        (&mut hi[..width], &lo[src * width..][..width])
    }
}

/// Appends the cells of one row changed at or before step `maxlast` to the
/// snapshot, a word at a time (module docs, "Block snapshots"); returns the
/// keys copied.
fn snapshot_row(
    keys: &[u64],
    frontier: &[u64],
    marks: &[WordMark],
    maxlast: u32,
    snap: &mut Vec<u64>,
    blocks: &mut Vec<Block>,
) -> u64 {
    let start = snap.len();
    for (wi, (&live, mark)) in frontier.iter().zip(marks).enumerate() {
        let cells = mark.since(live, maxlast);
        if cells == 0 {
            continue;
        }
        blocks.push(Block { cells, at: snap.len() as u32, word: wi as u32, mark: mark.at });
        let lanes = &keys[wi * 64..(wi * 64 + 64).min(keys.len())];
        if cells.count_ones() >= BLOCK_MIN_CELLS {
            snap.extend_from_slice(lanes);
        } else {
            let mut bits = cells;
            while bits != 0 {
                snap.push(lanes[bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
    }
    (snap.len() - start) as u64
}

impl EngineArena {
    /// An empty arena; tables materialize on first use and are reused when
    /// dimensions repeat (the whole point: a sweep's scales all share
    /// `n × |targets|`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Readies the arena for a run over an `nrows × ncols` table.
    ///
    /// The previous run's keys are reset by walking its frontier under its
    /// own geometry (module docs), so geometry changes reuse the key buffer
    /// whenever it is large enough: workers of a tiled sweep alternate
    /// between full tiles and the remainder tile, and must not reallocate
    /// per item.
    fn prepare(&mut self, nrows: usize, ncols: usize, collect: bool) {
        let n_cells = nrows.checked_mul(ncols).expect("state table size overflow");
        let (old_ncols, old_words) = (self.ncols, self.words_per_row);
        let reuse = n_cells <= self.keys.len();
        for i in 0..self.nrows * old_words {
            let mut bits = std::mem::take(&mut self.frontier[i]);
            self.marks[i] = WordMark::UNCHANGED;
            let base = (i / old_words) * old_ncols + (i % old_words) * 64;
            while reuse && bits != 0 {
                self.keys[base + bits.trailing_zeros() as usize] = UNREACHED;
                bits &= bits - 1;
            }
        }
        if !reuse {
            self.keys = Vec::new();
            if self.keys.try_reserve_exact(n_cells).is_err() {
                let bytes = n_cells as u128 * size_of::<u64>() as u128;
                panic!("DP state table of {nrows} x {ncols} cells ({bytes} bytes) cannot be allocated");
            }
            self.keys.resize(n_cells, UNREACHED);
        }
        if collect && n_cells > self.set_at.len() {
            self.set_at = Vec::new();
            self.set_at.resize(n_cells, 0);
        }
        self.words_per_row = ncols.div_ceil(64);
        let words = nrows * self.words_per_row;
        if words > self.frontier.len() {
            self.frontier.resize(words, 0);
            self.marks.resize(words, WordMark::UNCHANGED);
        }
        if nrows > self.slot_of.len() {
            self.slot_of.resize(nrows, NEVER);
            self.row_changed_at.resize(nrows, NEVER);
        }
        (self.nrows, self.ncols) = (nrows, ncols);
        self.row_changed_at.fill(NEVER);
        self.slotted.clear();
        self.slot_bounds.clear();
        self.slot_maxlast.clear();
        self.snap.clear();
        self.blocks.clear();
        // normally already clear (the report walk clears the words it
        // visits, and step 5 of run releases slots), but a sink panic or a
        // cancellation can abandon a run mid-step
        self.dirty_bits.fill(0);
        self.ea_bits.fill(0);
        self.report_order.clear();
        self.slot_of.fill(NEVER);
    }

    /// Loads a checkpoint into a freshly prepared all-nodes arena: its
    /// keys and their frontier bits. The change marks stay "unchanged" and
    /// every watermark starts at `NEVER`, so each consumer's first firing
    /// merges every loaded cell (module docs, "Orientation and resume").
    fn load(&mut self, ck: &Checkpoint<'_>) {
        let (ncols, wpr) = (self.ncols, self.words_per_row);
        let cols = ck.width.min(ncols);
        if cols == 0 {
            return;
        }
        for row in 0..self.nrows.min(ck.keys.len() / ck.width) {
            for c in 0..cols {
                let key = ck.keys.get(row * ck.width + c);
                if key != UNREACHED {
                    self.keys[row * ncols + c] = key;
                    self.frontier[row * wpr + c / 64] |= 1 << (c % 64);
                }
            }
        }
    }

    /// One run over the steps from non-empty ordinal `walk.from` on, in
    /// the orientation `MIRROR` names (module docs, "Orientation and
    /// resume"): descending step index, or ascending with every index `i`
    /// read as `K − 1 − i` and directed edges reversed. Before the step of
    /// each ordinal in `walk.rungs` (mirrored runs only), `on_rung` gets the
    /// rung's position, the key table and the sink.
    fn run<S: TripSink, const MIRROR: bool>(
        &mut self,
        timeline: &Timeline,
        targets: &TargetSet,
        sink: &mut S,
        scope: &DpRun<'_>,
        walk: Walk<'_>,
        on_rung: &mut impl FnMut(usize, &[u64], &mut S),
    ) -> DpStats {
        let (col_start, options, cancel) =
            (scope.tile.map_or(0, |(start, _)| start), scope.options, scope.cancel);
        // Field-split the arena so the hot loops can hold a shared borrow of
        // the snapshot while mutating keys/frontier/dirty bits.
        let EngineArena {
            nrows,
            ncols,
            words_per_row,
            keys,
            set_at,
            frontier,
            marks,
            snap,
            blocks,
            slot_bounds,
            slot_maxlast,
            slot_of,
            slotted,
            dirty_bits,
            ea_bits,
            report_order,
            row_changed_at,
            wm,
        } = self;
        let (nrows, ncols, wpr) = (*nrows, *ncols, *words_per_row);
        let undirected = !timeline.is_directed();
        let collect = options.collect_distances;
        wm.clear();
        wm.resize(timeline.distinct_pairs() as usize * 2, NEVER);
        // Tile-local column of node `v`, if `v` is a destination inside
        // `[col_start, col_start + ncols)` — one array read plus a wrapping
        // range compare on the hot path.
        let col_end = col_start as usize + ncols;
        let local_col = |v: u32| -> Option<u32> {
            match targets.col_of(v) {
                Some(c) if (c as usize) >= col_start as usize && (c as usize) < col_end => {
                    Some(c - col_start)
                }
                _ => None,
            }
        };
        let mut sums = DistanceSums::default();
        let mut stats = DpStats::default();
        // The writer of row `u` into dirty-bitmap slot `slot`, whose
        // continuation row `w` is not borrowed by it (the degree-1 forward
        // direction reads row `w` live through `two_rows`).
        macro_rules! writer {
            ($keys:expr, $frontier:expr, $u:expr, $slot:expr, $k:expr) => {
                Writer {
                    keys: $keys,
                    frontier: $frontier,
                    set_at: if collect {
                        &mut set_at[$u as usize * ncols..][..ncols]
                    } else {
                        &mut []
                    },
                    dirty: &mut dirty_bits[$slot * wpr..][..wpr],
                    ea: &mut ea_bits[$slot * wpr..][..wpr],
                    k: $k,
                    diag: local_col($u).unwrap_or(NEVER),
                    stats: &mut stats,
                    sums: &mut sums,
                }
            };
        }

        // Cooperative cancellation: polled once per CANCEL_STRIDE steps —
        // coarse enough to stay invisible in the hot loop, fine enough that
        // an abandoned sweep stops in bounded time. Breaking between steps
        // leaves the arena in the same state a caught sink panic would;
        // `prepare` resets it, and the partial stats are discarded upstream.
        let mut cancel_countdown = CANCEL_STRIDE;
        let nsteps = timeline.nonempty_steps();
        // a mirrored run reads step index `i` as `last - i`
        let last = timeline.num_steps().saturating_sub(1);
        let mut next_rung = 0;
        for j in walk.from..nsteps {
            if let Some(token) = cancel {
                cancel_countdown -= 1;
                if cancel_countdown == 0 {
                    cancel_countdown = CANCEL_STRIDE;
                    if token.is_cancelled() {
                        break;
                    }
                }
            }
            while MIRROR && walk.rungs.get(next_rung).is_some_and(|&at| at <= j) {
                on_rung(next_rung, &keys[..nrows * ncols], sink);
                next_rung += 1;
            }
            let step = timeline.step(if MIRROR { j } else { nsteps - 1 - j });
            let k = if MIRROR { last - step.index } else { step.index };
            // time reversal turns a directed edge around
            let (src, dst) =
                if MIRROR && !undirected { (step.dst, step.src) } else { (step.src, step.dst) };
            let pair = step.pair;
            // the key of the single hop's candidate `(arrival = k, hops = 1)`
            let single_hop = u64::from(k) << 32 | 1;

            if pair.len() == 1 {
                // Degree-1 fast path (module docs): one edge `(eu, ew)`,
                // no slot machinery. Direction `eu -> ew` writes only row
                // `eu`, so row `ew` stays pre-step and is read live; for the
                // undirected reverse direction, row `eu`'s changed words are
                // snapshotted *before* the forward direction dirties it —
                // the strict inequality of Remark 1, with half the snapshot
                // writes and zero bookkeeping. Delta propagation applies per
                // direction: a continuation row unchanged since the
                // direction's last visit is skipped outright, and a changed
                // row only merges the words changed since.
                let (eu, ew) = (src[0], dst[0]);
                let (u, w) = (eu as usize, ew as usize);
                stats.degree1_steps += 1;
                debug_assert_ne!(eu, ew, "streams never carry self-loops");
                debug_assert!(snap.is_empty() && slotted.is_empty());
                // fixed dirty-bitmap slots: row eu -> 0, row ew -> 1
                if dirty_bits.len() < 2 * wpr {
                    dirty_bits.resize(2 * wpr, 0);
                    ea_bits.resize(2 * wpr, 0);
                }
                report_order.push((eu, 0));
                if undirected {
                    report_order.push((ew, 1));
                }
                let wi_fwd = pair[0] as usize * 2;
                let last_fwd = std::mem::replace(&mut wm[wi_fwd], k);
                // 0 when directed: no reverse direction reads the snapshot
                let last_rev =
                    if undirected { std::mem::replace(&mut wm[wi_fwd + 1], k) } else { 0 };
                if row_changed_at[u] <= last_rev {
                    stats.snap_entries += snapshot_row(
                        &keys[u * ncols..][..ncols],
                        &frontier[u * wpr..][..wpr],
                        &marks[u * wpr..][..wpr],
                        last_rev,
                        snap,
                        blocks,
                    );
                }
                // forward direction eu -> ew: merges row ew, read live
                {
                    stats.traversals += 1;
                    let (keys_u, keys_w) = two_rows(keys, ncols, u, w);
                    let (front_u, front_w) = two_rows(frontier, wpr, u, w);
                    let mut wr = writer!(keys_u, front_u, eu, 0, k);
                    if let Some(c) = local_col(ew) {
                        wr.offer(c as usize, single_hop);
                    }
                    if row_changed_at[w] <= last_fwd {
                        for (wi, (&live, mark)) in
                            front_w.iter().zip(&marks[w * wpr..]).enumerate()
                        {
                            let cells = mark.since(live, last_fwd);
                            if cells != 0 {
                                wr.merge(wi, cells, &keys_w[wi * 64..], false);
                            }
                        }
                    }
                }
                // reverse direction ew -> eu: merges the (already
                // delta-filtered) snapshot of row eu
                if undirected {
                    stats.traversals += 1;
                    let keys_w = &mut keys[w * ncols..][..ncols];
                    let mut wr = writer!(keys_w, &mut frontier[w * wpr..][..wpr], ew, 1, k);
                    if let Some(c) = local_col(eu) {
                        wr.offer(c as usize, single_hop);
                    }
                    for b in blocks.iter() {
                        wr.merge(b.word as usize, b.cells, &snap[b.at as usize..], true);
                    }
                }
            } else {
                // 1. Assign snapshot slots to every endpoint of the step. Reads
                //    go through edge heads, but in a directed timeline a tail
                //    `u` can be the head of another edge of the same step, so
                //    both endpoints are slotted uniformly.
                debug_assert!(slotted.is_empty());
                for &node in src.iter().chain(dst.iter()) {
                    if slot_of[node as usize] == NEVER {
                        let slot = slotted.len() as u32;
                        slot_of[node as usize] = slot;
                        slotted.push(node);
                        // 0 = "no consumer yet": live watermarks and marks
                        // at step k are always >= k + 1 >= 1, so 0 filters
                        // everything out
                        slot_maxlast.push(0);
                        report_order.push((node, slot));
                    }
                }
                let need = slotted.len() * wpr;
                if dirty_bits.len() < need {
                    dirty_bits.resize(need, 0);
                    ea_bits.resize(need, 0);
                }
                // 1b. Per slot, the most permissive consumer watermark: the
                //     snapshot below keeps exactly the words at least one of
                //     the step's consuming directions still needs.
                for e in 0..pair.len() {
                    let wi = pair[e] as usize * 2;
                    let heads: [(usize, u32); 2] = [(wi, dst[e]), (wi + 1, src[e])];
                    for &(wi, head) in &heads[..1 + undirected as usize] {
                        let slot = slot_of[head as usize] as usize;
                        slot_maxlast[slot] = slot_maxlast[slot].max(wm[wi]);
                    }
                }
                // 2. Snapshot the pre-step changed words of every slotted
                //    row — only pre-step values are ever read, which is
                //    exactly the strict inequality of Remark 1. A row whose
                //    most recent change predates every consumer's watermark
                //    copies nothing.
                for (&node, &maxlast) in slotted.iter().zip(slot_maxlast.iter()) {
                    let (row, start) = (node as usize, blocks.len() as u32);
                    if row_changed_at[row] <= maxlast {
                        stats.snap_entries += snapshot_row(
                            &keys[row * ncols..][..ncols],
                            &frontier[row * wpr..][..wpr],
                            &marks[row * wpr..][..wpr],
                            maxlast,
                            snap,
                            blocks,
                        );
                    }
                    slot_bounds.push((start, blocks.len() as u32 - start));
                }

                // 3. Process every traversal of the step against the snapshots,
                //    each direction filtering blocks by its own watermark (the
                //    shared snapshot was filtered by the *max* over consumers).
                for e in 0..pair.len() {
                    let (eu, ew) = (src[e], dst[e]);
                    let wi = pair[e] as usize * 2;
                    let dirs: [(u32, u32, usize); 2] = [(eu, ew, wi), (ew, eu, wi + 1)];
                    for &(u, w, wi) in &dirs[..1 + undirected as usize] {
                        stats.traversals += 1;
                        let slot = slot_of[u as usize] as usize;
                        let keys_u = &mut keys[u as usize * ncols..][..ncols];
                        let front_u = &mut frontier[u as usize * wpr..][..wpr];
                        let mut wr = writer!(keys_u, front_u, u, slot, k);
                        // single hop: u -> w at step k (never delta-filtered —
                        // its candidate `(k, 1)` is new every step)
                        if let Some(c) = local_col(w) {
                            wr.offer(c as usize, single_hop);
                        }
                        let last = std::mem::replace(&mut wm[wi], k);
                        // chain: u -(k)-> w, then w's pre-step words changed
                        // since this direction last consumed them
                        let (start, len) = slot_bounds[slot_of[w as usize] as usize];
                        for b in &blocks[start as usize..(start + len) as usize] {
                            if b.mark <= last {
                                wr.merge(
                                    b.word as usize,
                                    b.cells,
                                    &snap[b.at as usize..],
                                    true,
                                );
                            }
                        }
                    }
                }
            }

            // 4. Report the minimal trips of this step with final values,
            //    in ascending (row, target-column) order — deterministic
            //    regardless of frontier insertion order. (Equal to (u, v)
            //    order when the TargetSet's columns are node-sorted, which
            //    all built-in constructors guarantee except a caller-ordered
            //    TargetSet::from_nodes.) The per-slot dirty bitmaps are walked
            //    with slots in ascending node order: set bits ascend within a
            //    row, so the canonical order falls out with no per-step
            //    sort. An `ea_bits` bit is set iff the cell's ea strictly
            //    improved this step — exactly the minimal-trip condition —
            //    while `dirty_bits` (any change, hops ties included) sets
            //    the change marks the delta filters read.
            report_order.sort_unstable();
            for &(node, slot) in report_order.iter() {
                let (base, row) = (slot as usize * wpr, node as usize);
                for wi in 0..wpr {
                    let dirty = std::mem::take(&mut dirty_bits[base + wi]);
                    if dirty == 0 {
                        continue;
                    }
                    let mark = &mut marks[row * wpr + wi];
                    *mark = WordMark { at: k, prev: mark.at, recent: dirty };
                    row_changed_at[row] = k;
                    let mut bits = std::mem::take(&mut ea_bits[base + wi]);
                    while bits != 0 {
                        let c = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let key = keys[row * ncols + c];
                        let v = targets.node_of(col_start + c as u32);
                        let (ea, hops) = ((key >> 32) as u32, key as u32);
                        if MIRROR {
                            // mirrored trip (node, v, k, ea) is (v, node,
                            // last - ea, last - k) in forward time
                            sink.minimal_trip(v, node, last - ea, last - k, hops);
                        } else {
                            sink.minimal_trip(node, v, k, ea, hops);
                        }
                        stats.trips += 1;
                    }
                }
            }
            report_order.clear();

            // 5. Release snapshot slots and buffers (capacity kept).
            for &node in slotted.iter() {
                slot_of[node as usize] = NEVER;
            }
            slotted.clear();
            slot_bounds.clear();
            slot_maxlast.clear();
            snap.clear();
            blocks.clear();
        }
        // rungs past the last non-empty step (a cancelled run's output is
        // discarded anyway)
        for r in next_rung..walk.rungs.len() {
            on_rung(r, &keys[..nrows * ncols], sink);
        }

        // Final distance flush: each surviving key is valid for departure
        // steps [0, set_at]. Only frontier cells hold finite keys.
        if collect {
            for (i, &word) in frontier[..nrows * wpr].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let c = (i / wpr) * ncols + (i % wpr) * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    flush_distances(keys[c], set_at[c], 0, &mut sums);
                }
            }
            stats.distances = Some(sums);
        }
        stats
    }
}

/// The scope of one engine run: which target columns, under which
/// [`DpOptions`], and whether a [`CancelToken`] may stop it. A bare
/// `DpOptions` converts into an untiled, uncancellable run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DpRun<'a> {
    /// Target tile `(col_start, col_len)`: destinations `targets.node_of(c)`
    /// for `c` in `col_start .. col_start + col_len` (`None` = every
    /// column). Because the recurrence never reads across columns, tile runs
    /// are completely independent: the per-tile trips (reported with their
    /// global node ids), distance sums, and histograms partition the untiled
    /// run exactly, and merging tiles in ascending `col_start` order
    /// reproduces its output bit for bit. Arena state is sized
    /// `n × col_len` — the tiled sweep's memory/cache lever.
    /// `DpStats::traversals` counts every edge traversal of the timeline and
    /// is therefore repeated per tile, not partitioned.
    pub tile: Option<(u32, u32)>,
    /// Engine options.
    pub options: DpOptions,
    /// Cooperative cancellation, polled every [`CANCEL_STRIDE`] steps. A
    /// `None` (or never-fired) token takes the exact same code path and
    /// produces bit-identical output; once the token fires the run stops
    /// within one stride, its partial sink output and stats are meaningless,
    /// and the caller must discard them. The arena stays reusable either way.
    pub cancel: Option<&'a CancelToken>,
}

impl From<DpOptions> for DpRun<'_> {
    fn from(options: DpOptions) -> Self {
        DpRun { options, ..Default::default() }
    }
}

/// Runs the backward DP over `timeline`, reporting every minimal trip whose
/// destination lies in `targets` to `sink`. Allocates a fresh arena; sweeps
/// should hold an [`EngineArena`] per worker and call
/// [`earliest_arrival_dp_in`].
///
/// Complexity: `O(|targets| · M)` time worst-case — with the frontier
/// pruning, each traversal pays for *reachable* columns only — and
/// `O(n · |targets|)` memory, where `M` is the total edge count of the
/// timeline.
pub fn earliest_arrival_dp(
    timeline: &Timeline,
    targets: &TargetSet,
    sink: &mut impl TripSink,
    options: DpOptions,
) -> DpStats {
    let mut arena = EngineArena::new();
    earliest_arrival_dp_in(&mut arena, timeline, targets, sink, options)
}

/// [`earliest_arrival_dp`] against caller-owned state, scoped by a
/// [`DpRun`] (tile, options, cancel token; a plain [`DpOptions`] converts).
/// The arena's tables are reused (reset along the previous run's frontier,
/// not re-zeroed) — the hot configuration of the Δ sweep.
///
/// # Panics
/// Panics if the run's tile is empty or exceeds `targets.len()`.
pub fn earliest_arrival_dp_in<'a>(
    arena: &mut EngineArena,
    timeline: &Timeline,
    targets: &TargetSet,
    sink: &mut impl TripSink,
    run: impl Into<DpRun<'a>>,
) -> DpStats {
    let run = run.into();
    let (_, col_len) = tile_of(&run, targets);
    arena.prepare(timeline.n() as usize, col_len as usize, run.options.collect_distances);
    let walk = Walk { from: 0, rungs: &[] };
    arena.run::<_, false>(timeline, targets, sink, &run, walk, &mut |_, _, _| {})
}

/// The run's tile `(col_start, col_len)`, checked against `targets`.
fn tile_of(run: &DpRun<'_>, targets: &TargetSet) -> (u32, u32) {
    let (col_start, col_len) = run.tile.unwrap_or((0, targets.len() as u32));
    assert!(col_len > 0, "empty target tile");
    assert!(
        col_start as usize + col_len as usize <= targets.len(),
        "tile [{col_start}, {col_start}+{col_len}) out of range for {} targets",
        targets.len()
    );
    (col_start, col_len)
}

/// Where a run starts and where it stops to hand back its state: the first
/// non-empty step ordinal, and the ordinals (ascending, above `from`)
/// before whose step a mirrored run calls its rung callback.
struct Walk<'a> {
    from: usize,
    rungs: &'a [usize],
}

/// The key table a mirrored run saved at a step boundary (module docs,
/// "Orientation and resume").
#[derive(Clone, Copy, Debug)]
pub struct Checkpoint<'a> {
    /// The boundary: the table is the state after every step with a lower
    /// index and before any other.
    pub step: u32,
    /// Row-major keys of every column, `width` per row. Rows and columns
    /// past `width` (nodes that joined the stream after the checkpoint)
    /// load as unreachable.
    pub keys: &'a SavedKeys,
    /// Columns per row of `keys`.
    pub width: usize,
}

/// A saved key table: the keys themselves, or, when every reachable key's
/// `ea` and `hops` fit 31 bits together, each packed into a `u32` as
/// `ea << hop_bits | hops` (`u32::MAX` = unreachable), half the bytes.
#[derive(Debug)]
pub struct SavedKeys(Saved);

#[derive(Debug)]
enum Saved {
    Wide(Vec<u64>),
    Packed { keys: Vec<u32>, hop_bits: u32 },
}

impl SavedKeys {
    /// Saves `keys`, packed when they fit.
    pub fn new(keys: Vec<u64>) -> Self {
        let (mut ea, mut hops) = (0u32, 0u32);
        for &key in keys.iter().filter(|&&key| key != UNREACHED) {
            ea = ea.max((key >> 32) as u32);
            hops = hops.max(key as u32);
        }
        let hop_bits = u32::BITS - hops.leading_zeros();
        if hop_bits + u32::BITS - ea.leading_zeros() > 31 {
            return SavedKeys(Saved::Wide(keys));
        }
        let pack = |&key: &u64| match key {
            UNREACHED => u32::MAX,
            key => ((key >> 32) as u32) << hop_bits | key as u32,
        };
        SavedKeys(Saved::Packed { keys: keys.iter().map(pack).collect(), hop_bits })
    }

    /// Bytes of the saved keys.
    pub fn bytes(&self) -> usize {
        match &self.0 {
            Saved::Wide(keys) => keys.len() * size_of::<u64>(),
            Saved::Packed { keys, .. } => keys.len() * size_of::<u32>(),
        }
    }

    /// The number of keys.
    fn len(&self) -> usize {
        match &self.0 {
            Saved::Wide(keys) => keys.len(),
            Saved::Packed { keys, .. } => keys.len(),
        }
    }

    /// Key `i`, unpacked.
    fn get(&self, i: usize) -> u64 {
        match self.0 {
            Saved::Wide(ref keys) => keys[i],
            Saved::Packed { ref keys, hop_bits } => match keys[i] {
                u32::MAX => UNREACHED,
                key => {
                    u64::from(key >> hop_bits) << 32 | u64::from(key & ((1 << hop_bits) - 1))
                }
            },
        }
    }
}

/// The resume point and the rungs of a mirrored run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mirror<'a> {
    /// Start from this checkpoint instead of the first step.
    pub from: Option<Checkpoint<'a>>,
    /// Step boundaries, ascending and above `from`'s, at which the run
    /// hands back its key table and seals its counter.
    pub rungs: &'a [u32],
}

/// [`earliest_arrival_dp_in`] in mirrored time over every node, into a
/// [`RateCounter`]: the same engine over the steps in ascending order,
/// each index `i` read as `K − 1 − i` and directed edges reversed, which
/// reports every minimal trip of the backward run exactly once (module
/// docs, "Orientation and resume"). Trips arrive in no particular order,
/// so only an order-free sink like the counter may take them; the sealed
/// histogram equals the backward run's. The run is never tiled: its key
/// table is the whole `n × n` state a checkpoint saves. `cancel` stops it
/// as it stops a backward run ([`DpRun::cancel`]).
///
/// The run starts at `mirror.from` when given, and before the first step at
/// or above each boundary of `mirror.rungs` calls `on_rung` with the rung's
/// position in `mirror.rungs`, the `n × n` key table, and the counter
/// sealed so far (which resets it). Every trip lands in exactly one of the
/// histograms handed to `on_rung` or left in the counter at the end: the
/// ones that arrive before the first rung's boundary (after
/// `mirror.from`'s), then between consecutive rungs, then after the last.
///
/// # Panics
/// Panics if a rung is not above the resume point.
pub fn mirrored_histogram_in(
    arena: &mut EngineArena,
    timeline: &Timeline,
    counter: &mut RateCounter,
    cancel: Option<&CancelToken>,
    mirror: Mirror<'_>,
    mut on_rung: impl FnMut(usize, &[u64], OccupancyHistogram),
) -> DpStats {
    mirrored_in(arena, timeline, counter, cancel, mirror, &mut |r, keys, counter| {
        on_rung(r, keys, counter.finish())
    })
}

/// [`mirrored_histogram_in`] into any sink; crate-private, because only an
/// order-free sink may see a mirrored run's trips.
fn mirrored_in<S: TripSink>(
    arena: &mut EngineArena,
    timeline: &Timeline,
    sink: &mut S,
    cancel: Option<&CancelToken>,
    mirror: Mirror<'_>,
    on_rung: &mut impl FnMut(usize, &[u64], &mut S),
) -> DpStats {
    let targets = TargetSet::all(timeline.n());
    arena.prepare(targets.len(), targets.len(), false);
    let from = mirror.from.map_or(0, |ck| {
        arena.load(&ck);
        timeline.steps_before(ck.step)
    });
    let rungs: Vec<usize> = mirror.rungs.iter().map(|&c| timeline.steps_before(c)).collect();
    assert!(
        mirror.rungs.windows(2).all(|w| w[0] < w[1])
            && mirror.rungs.first().is_none_or(|&c| mirror.from.is_none_or(|ck| ck.step < c)),
        "rungs must ascend above the resume point"
    );
    let run = DpRun { cancel, ..Default::default() };
    arena.run::<_, true>(timeline, &targets, sink, &run, Walk { from, rungs: &rungs }, on_rung)
}

pub mod baseline {
    //! The pre-rework engine: fresh `O(n·|targets|)` tables per run,
    //! full-row `copy_from_slice` snapshots, `O(ncols)` chain scans.
    //!
    //! Kept as (a) the oracle for differential property tests of the
    //! frontier-pruned engine and (b) the baseline side of the speedup
    //! benches in `crates/bench` — `BENCH_sweep.json` tracks the ratio.

    use super::{DistanceSums, DpOptions, DpStats, TripSink, NEVER, NONE_EA};
    use crate::{TargetSet, Timeline};

    /// [`super::earliest_arrival_dp`]'s behavior-identical slow twin.
    pub fn earliest_arrival_dp(
        timeline: &Timeline,
        targets: &TargetSet,
        sink: &mut impl TripSink,
        options: DpOptions,
    ) -> DpStats {
        Engine::new(timeline, targets, options).run(timeline, sink)
    }

    struct Engine<'a> {
        targets: &'a TargetSet,
        ncols: usize,
        ea: Vec<u32>,
        hops: Vec<u32>,
        set_at: Vec<u32>,
        scratch_ea: Vec<u32>,
        scratch_hops: Vec<u32>,
        slot_of: Vec<u32>,
        slotted: Vec<u32>,
        dirty: Vec<(usize, u32)>,
        collect_distances: bool,
        sums: DistanceSums,
    }

    impl<'a> Engine<'a> {
        fn new(timeline: &Timeline, targets: &'a TargetSet, options: DpOptions) -> Self {
            let n = timeline.n() as usize;
            let ncols = targets.len();
            let cells = n.checked_mul(ncols).expect("state table size overflow");
            Engine {
                targets,
                ncols,
                ea: vec![NONE_EA; cells],
                hops: vec![0; cells],
                set_at: vec![NEVER; cells],
                scratch_ea: Vec::new(),
                scratch_hops: Vec::new(),
                slot_of: vec![NEVER; n],
                slotted: Vec::new(),
                dirty: Vec::new(),
                collect_distances: options.collect_distances,
                sums: DistanceSums::default(),
            }
        }

        #[inline]
        fn flush_distances(&mut self, idx: usize, new_k: u32) {
            if !self.collect_distances {
                return;
            }
            let a = self.ea[idx];
            if a == NONE_EA {
                return;
            }
            let hi = self.set_at[idx] as i128;
            let lo = new_k as i128 + 1;
            if hi < lo {
                return;
            }
            let cnt = hi - lo + 1;
            let sum_t = (lo + hi) * cnt / 2;
            self.sums.sum_dtime_steps += cnt * (a as i128 + 1) - sum_t;
            self.sums.sum_dhops += cnt * self.hops[idx] as i128;
            self.sums.finite_triples += cnt;
        }

        #[inline]
        fn offer(&mut self, idx: usize, k: u32, arr: u32, h: u32) {
            let cur = self.ea[idx];
            if arr < cur {
                if self.set_at[idx] != k {
                    self.flush_distances(idx, k);
                    self.dirty.push((idx, cur));
                    self.set_at[idx] = k;
                }
                self.ea[idx] = arr;
                self.hops[idx] = h;
            } else if arr == cur && arr != NONE_EA && h < self.hops[idx] {
                if self.set_at[idx] != k {
                    self.flush_distances(idx, k);
                    self.dirty.push((idx, cur));
                    self.set_at[idx] = k;
                }
                self.hops[idx] = h;
            }
        }

        fn run(mut self, timeline: &Timeline, sink: &mut impl TripSink) -> DpStats {
            let undirected = !timeline.is_directed();
            let ncols = self.ncols;
            let mut trips = 0u64;
            let mut traversals = 0u64;
            let mut chain_offers = 0u64;
            let mut snap_entries = 0u64;

            for step in timeline.steps_desc() {
                let k = step.index;
                debug_assert!(self.slotted.is_empty());
                for &node in step.src.iter().chain(step.dst.iter()) {
                    if self.slot_of[node as usize] == NEVER {
                        let slot = self.slotted.len();
                        self.slot_of[node as usize] = slot as u32;
                        self.slotted.push(node);
                        let need = (slot + 1) * ncols;
                        if self.scratch_ea.len() < need {
                            self.scratch_ea.resize(need, NONE_EA);
                            self.scratch_hops.resize(need, 0);
                        }
                        let src = node as usize * ncols;
                        self.scratch_ea[slot * ncols..need]
                            .copy_from_slice(&self.ea[src..src + ncols]);
                        self.scratch_hops[slot * ncols..need]
                            .copy_from_slice(&self.hops[src..src + ncols]);
                        snap_entries += ncols as u64;
                    }
                }

                for e in 0..step.len() {
                    let (eu, ew) = (step.src[e], step.dst[e]);
                    let dirs: [(u32, u32); 2] = [(eu, ew), (ew, eu)];
                    let ndirs = if undirected { 2 } else { 1 };
                    for &(u, w) in &dirs[..ndirs] {
                        traversals += 1;
                        let row = u as usize * ncols;
                        if let Some(c) = self.targets.col_of(w) {
                            self.offer(row + c as usize, k, k, 1);
                        }
                        let slot = self.slot_of[w as usize] as usize;
                        let su_col = self.targets.col_of(u);
                        let base = slot * ncols;
                        for c in 0..ncols {
                            let a = self.scratch_ea[base + c];
                            if a == NONE_EA {
                                continue;
                            }
                            if su_col == Some(c as u32) {
                                continue;
                            }
                            chain_offers += 1;
                            let h = 1 + self.scratch_hops[base + c];
                            self.offer(row + c, k, a, h);
                        }
                    }
                }

                self.dirty.sort_unstable_by_key(|&(idx, _)| idx);
                for &(idx, pre_ea) in &self.dirty {
                    let a = self.ea[idx];
                    if a < pre_ea {
                        let u = (idx / ncols) as u32;
                        let v = self.targets.node_of((idx % ncols) as u32);
                        sink.minimal_trip(u, v, k, a, self.hops[idx]);
                        trips += 1;
                    }
                }
                self.dirty.clear();

                for &node in &self.slotted {
                    self.slot_of[node as usize] = NEVER;
                }
                self.slotted.clear();
            }

            let distances = if self.collect_distances {
                for idx in 0..self.ea.len() {
                    let a = self.ea[idx];
                    if a == NONE_EA {
                        continue;
                    }
                    let hi = self.set_at[idx] as i128;
                    let cnt = hi + 1;
                    let sum_t = hi * (hi + 1) / 2;
                    self.sums.sum_dtime_steps += cnt * (a as i128 + 1) - sum_t;
                    self.sums.sum_dhops += cnt * self.hops[idx] as i128;
                    self.sums.finite_triples += cnt;
                }
                Some(self.sums)
            } else {
                None
            };

            DpStats {
                trips,
                traversals,
                chain_offers,
                snap_entries,
                degree1_steps: 0,
                block_words: 0,
                walked_words: 0,
                distances,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use saturn_linkstream::Directedness;

    /// Collects trips into a vector for inspection.
    #[derive(Default)]
    struct Collect(Vec<(u32, u32, u32, u32, u32)>);

    impl TripSink for Collect {
        fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
            self.0.push((u, v, dep, arr, hops));
        }
    }

    fn run(
        stream_text: &str,
        directedness: Directedness,
        k: u64,
    ) -> Vec<(u32, u32, u32, u32, u32)> {
        let s = saturn_linkstream::io::read_str(stream_text, directedness).unwrap();
        let t = Timeline::aggregated(&s, k);
        let mut sink = Collect::default();
        earliest_arrival_dp(&t, &TargetSet::all(t.n()), &mut sink, DpOptions::default());
        let mut out = sink.0;
        out.sort_unstable();
        out
    }

    #[test]
    fn single_link_single_trip() {
        // a-b at t=0; a-c at t=5
        let trips = run("a b 0\na c 5\n", Directedness::Undirected, 5);
        // Δ = 1: a-b in window 0 (both directions), a-c in window 4
        // trips: (a,b,0,0,1), (b,a,0,0,1), (a,c,4,4,1), (c,a,4,4,1), and
        // b -> c via a: edge ab at w0, ac at w4: b dep 0 arr 4 hops 2
        // c -> b: needs ca before ab: impossible.
        assert!(trips.contains(&(0, 1, 0, 0, 1)));
        assert!(trips.contains(&(1, 0, 0, 0, 1)));
        assert!(trips.contains(&(0, 2, 4, 4, 1)));
        assert!(trips.contains(&(1, 2, 0, 4, 2)));
        assert!(!trips.iter().any(|&(u, v, ..)| u == 2 && v == 1));
    }

    #[test]
    fn same_window_links_cannot_chain() {
        // Both links in one window (K = 1): no two-hop path (Remark 1 / Fig 1).
        let trips = run("a b 0\nb c 5\n", Directedness::Undirected, 1);
        // only the four single-link trips inside window 0
        assert_eq!(trips.len(), 4);
        assert!(trips.iter().all(|&(.., hops)| hops == 1));
        assert!(!trips.iter().any(|&(u, v, ..)| (u, v) == (0, 2)));
    }

    #[test]
    fn two_window_chain_exists() {
        let trips = run("a b 0\nb c 5\n", Directedness::Undirected, 2);
        // windows: ab in w0, bc in w1; a->c = (0, 2, dep 0, arr 1, hops 2)
        assert!(trips.contains(&(0, 2, 0, 1, 2)));
        // c->a would need cb then ba: cb is in w1, ba would need w>1: absent
        assert!(!trips.iter().any(|&(u, v, ..)| (u, v) == (2, 0)));
    }

    #[test]
    fn directed_edges_are_one_way() {
        let s =
            saturn_linkstream::io::read_str("a b 0\nb c 5\n", Directedness::Directed).unwrap();
        let t = Timeline::aggregated(&s, 2);
        let mut sink = Collect::default();
        earliest_arrival_dp(&t, &TargetSet::all(3), &mut sink, DpOptions::default());
        let trips = sink.0;
        assert!(trips.contains(&(0, 2, 0, 1, 2)));
        assert!(!trips.iter().any(|&(u, v, ..)| (u, v) == (1, 0))); // no b->a
        assert!(!trips.iter().any(|&(u, v, ..)| (u, v) == (2, 1)));
    }

    #[test]
    fn minimality_no_nested_trip() {
        // a-b at w0 and w2; b-c at w3.
        // a->c trips: dep 0: ab@0 then bc@3 -> arr 3. But ab@2 then bc@3 is
        // strictly inside: the minimal trips must be (2,3), not (0,3).
        let text = "a b 0\na b 20\nb c 30\n";
        let s = saturn_linkstream::io::read_str(text, Directedness::Undirected).unwrap();
        let t = Timeline::aggregated(&s, 4); // Δ=7.5: t=0->w0, 20->w2, 30->w3
        let mut sink = Collect::default();
        earliest_arrival_dp(&t, &TargetSet::all(3), &mut sink, DpOptions::default());
        let ac: Vec<_> = sink.0.iter().filter(|&&(u, v, ..)| (u, v) == (0, 2)).collect();
        assert_eq!(ac.len(), 1);
        assert_eq!(*ac[0], (0, 2, 2, 3, 2));
    }

    #[test]
    fn hops_are_minimum_at_earliest_arrival() {
        // Two routes a->d arriving at the same window 2:
        //   long: a-b@0, b-c@1, c-d@2 (3 hops)
        //   short: direct a-d@2 (1 hop)
        let text = "a b 0\nb c 10\nc d 20\na d 20\n";
        let s = saturn_linkstream::io::read_str(text, Directedness::Undirected).unwrap();
        let t = Timeline::aggregated(&s, 3); // windows of 20/3: w0={ab}, w1={bc}, w2={cd, ad}
        let mut sink = Collect::default();
        earliest_arrival_dp(&t, &TargetSet::all(4), &mut sink, DpOptions::default());
        let ad: Vec<_> = sink.0.iter().filter(|&&(u, v, ..)| (u, v) == (0, 3)).collect();
        // minimal trip dep 0..: earliest arrival w2 via either route; but the
        // direct link at w2 gives trip (2,2) which dominates (0,2): minimal
        // trips are (2,2,1 hop).
        assert_eq!(ad.len(), 1);
        assert_eq!(*ad[0], (0, 3, 2, 2, 1));
    }

    #[test]
    fn same_step_improvement_keeps_min_hops() {
        // Two paths arriving at the same step, both departing at step 0:
        // a-b@w0,b-d@w1 (2 hops) and a-c@w0,c-d@w1 (2 hops). Ensure hops
        // reported is 2 and a single trip per pair.
        let text = "a b 0\na c 0\nb d 10\nc d 10\n";
        let s = saturn_linkstream::io::read_str(text, Directedness::Undirected).unwrap();
        let t = Timeline::aggregated(&s, 2);
        let mut sink = Collect::default();
        earliest_arrival_dp(&t, &TargetSet::all(4), &mut sink, DpOptions::default());
        let ad: Vec<_> = sink.0.iter().filter(|&&(u, v, ..)| (u, v) == (0, 3)).collect();
        assert_eq!(ad.len(), 1);
        assert_eq!(*ad[0], (0, 3, 0, 1, 2));
    }

    #[test]
    fn target_sampling_restricts_destinations() {
        let text = "a b 0\nb c 10\nc d 20\n";
        let s = saturn_linkstream::io::read_str(text, Directedness::Undirected).unwrap();
        let t = Timeline::aggregated(&s, 3);
        let targets = TargetSet::from_nodes(4, &[3]); // only destination d
        let mut sink = Collect::default();
        earliest_arrival_dp(&t, &targets, &mut sink, DpOptions::default());
        assert!(!sink.0.is_empty());
        assert!(sink.0.iter().all(|&(_, v, ..)| v == 3));
    }

    #[test]
    fn distance_sums_match_manual_enumeration() {
        // Tiny stream; enumerate d_time by hand.
        // Windows (K=2): w0 = {ab}, w1 = {bc}. Pairs with finite distances:
        // (a,b): dep 0 -> arr 0 (d=1); dep 1 -> none.
        // (b,a): dep 0 -> arr 0 (d=1).
        // (b,c): dep 0 -> arr 1 (d=2); dep 1 -> arr 1 (d=1).
        // (c,b): cb exists at w1 only: dep 0 -> arr 1 (d=2), dep 1 -> d=1.
        // (a,c): dep 0 -> ab@0, bc@1, arr 1, d=2, hops 2.
        // (c,a): none.
        // Σ d_time = 1+1+ (2+1) + (2+1) + 2 = 10 ; triples = 7
        // Σ hops  = 1+1+ (1+1) + (1+1) + 2 = 8
        let s = saturn_linkstream::io::read_str("a b 0\nb c 10\n", Directedness::Undirected)
            .unwrap();
        let t = Timeline::aggregated(&s, 2);
        let stats = earliest_arrival_dp(
            &t,
            &TargetSet::all(3),
            &mut NullSink,
            DpOptions { collect_distances: true },
        );
        let d = stats.distances.unwrap();
        assert_eq!(d.finite_triples, 7);
        assert_eq!(d.sum_dtime_steps, 10);
        assert_eq!(d.sum_dhops, 8);
    }

    #[test]
    fn closure_sink_works() {
        let s = saturn_linkstream::io::read_str("a b 0\nb c 10\n", Directedness::Undirected)
            .unwrap();
        let t = Timeline::aggregated(&s, 2);
        let mut count = 0u32;
        let mut sink = |_u: u32, _v: u32, _d: u32, _a: u32, _h: u32| count += 1;
        let stats =
            earliest_arrival_dp(&t, &TargetSet::all(3), &mut sink, DpOptions::default());
        assert_eq!(stats.trips as u32, count);
    }

    /// An arena reused across runs of *different* scales and dimensions must
    /// behave exactly like fresh allocation.
    #[test]
    fn arena_reuse_is_transparent() {
        let s = saturn_linkstream::io::read_str(
            "a b 0\nb c 7\nc d 13\nd a 20\na c 27\nb d 33\n",
            Directedness::Undirected,
        )
        .unwrap();
        let mut arena = EngineArena::new();
        for &k in &[1u64, 2, 5, 9, 33, 9, 2] {
            let t = Timeline::aggregated(&s, k);
            let mut fresh_sink = Collect::default();
            let fresh = earliest_arrival_dp(
                &t,
                &TargetSet::all(4),
                &mut fresh_sink,
                DpOptions { collect_distances: true },
            );
            let mut reused_sink = Collect::default();
            let reused = earliest_arrival_dp_in(
                &mut arena,
                &t,
                &TargetSet::all(4),
                &mut reused_sink,
                DpOptions { collect_distances: true },
            );
            assert_eq!(fresh_sink.0, reused_sink.0, "k={k}");
            assert_eq!(fresh.trips, reused.trips, "k={k}");
            assert_eq!(fresh.traversals, reused.traversals, "k={k}");
            let (df, dr) = (fresh.distances.unwrap(), reused.distances.unwrap());
            assert_eq!(df.sum_dtime_steps, dr.sum_dtime_steps, "k={k}");
            assert_eq!(df.sum_dhops, dr.sum_dhops, "k={k}");
            assert_eq!(df.finite_triples, dr.finite_triples, "k={k}");
        }
        // dimension change mid-stream: arena must transparently reallocate
        let t = Timeline::aggregated(&s, 3);
        let targets = TargetSet::from_nodes(4, &[0, 2]);
        let mut a_sink = Collect::default();
        earliest_arrival_dp_in(&mut arena, &t, &targets, &mut a_sink, DpOptions::default());
        let mut f_sink = Collect::default();
        earliest_arrival_dp(&t, &targets, &mut f_sink, DpOptions::default());
        assert_eq!(a_sink.0, f_sink.0);
    }

    /// Tile runs partition the untiled run exactly: for every tile size,
    /// concatenating per-tile trips (each tile's stream re-sorted) and
    /// summing distance stats reproduces the full run.
    #[test]
    fn tiled_runs_partition_the_untiled_run() {
        let s = saturn_linkstream::io::read_str(
            "a b 0\nc d 3\nb c 7\nd e 9\na e 14\nb d 18\nc e 21\na c 25\n",
            Directedness::Undirected,
        )
        .unwrap();
        let targets = TargetSet::all(5);
        let mut arena = EngineArena::new();
        for &k in &[1u64, 3, 9, 25] {
            let t = Timeline::aggregated(&s, k);
            let mut full_sink = Collect::default();
            let full = earliest_arrival_dp(
                &t,
                &targets,
                &mut full_sink,
                DpOptions { collect_distances: true },
            );
            let mut full_trips = full_sink.0;
            full_trips.sort_unstable();
            for tile in [1usize, 2, 3, 5] {
                let mut trips = Vec::new();
                let mut trip_count = 0u64;
                let mut sums = DistanceSums::default();
                for (start, len) in targets.tile_ranges(tile) {
                    let mut sink = Collect::default();
                    let stats = earliest_arrival_dp_in(
                        &mut arena,
                        &t,
                        &targets,
                        &mut sink,
                        DpRun {
                            tile: Some((start, len)),
                            options: DpOptions { collect_distances: true },
                            cancel: None,
                        },
                    );
                    assert_eq!(stats.traversals, full.traversals, "k={k} tile={tile}");
                    trip_count += stats.trips;
                    let d = stats.distances.unwrap();
                    sums.sum_dtime_steps += d.sum_dtime_steps;
                    sums.sum_dhops += d.sum_dhops;
                    sums.finite_triples += d.finite_triples;
                    trips.extend(sink.0);
                }
                trips.sort_unstable();
                assert_eq!(trips, full_trips, "k={k} tile={tile}");
                assert_eq!(trip_count, full.trips, "k={k} tile={tile}");
                let fd = full.distances.unwrap();
                assert_eq!(sums.sum_dtime_steps, fd.sum_dtime_steps, "k={k} tile={tile}");
                assert_eq!(sums.sum_dhops, fd.sum_dhops, "k={k} tile={tile}");
                assert_eq!(sums.finite_triples, fd.finite_triples, "k={k} tile={tile}");
            }
        }
    }

    /// A single tile over a middle column range must equal the column
    /// restriction of the full run, with global node ids in the reports.
    #[test]
    fn middle_tile_reports_global_node_ids() {
        let s = saturn_linkstream::io::read_str(
            "a b 0\nb c 5\nc d 10\nd e 15\n",
            Directedness::Undirected,
        )
        .unwrap();
        let targets = TargetSet::all(5);
        let t = Timeline::aggregated(&s, 4);
        let mut full = Collect::default();
        earliest_arrival_dp(&t, &targets, &mut full, DpOptions::default());
        let expected: Vec<_> =
            full.0.iter().copied().filter(|&(_, v, ..)| v == 2 || v == 3).collect();
        let mut tile = Collect::default();
        let mut arena = EngineArena::new();
        let run = DpRun { tile: Some((2, 2)), ..Default::default() };
        earliest_arrival_dp_in(&mut arena, &t, &targets, &mut tile, run);
        assert_eq!(tile.0, expected);
    }

    /// The budget estimate bounds what an arena really reserves, on the
    /// worst case for every table, with and without the install-step table
    /// of distance-collecting runs: a complete graph fires in two windows,
    /// so at the earlier step every row is slotted and snapshots its whole
    /// (fully reachable) frontier.
    #[test]
    fn arena_reservations_stay_within_the_budget_estimate() {
        let n = 40u32;
        let mut text = String::new();
        for t in 0..2 {
            for u in 0..n {
                for v in u + 1..n {
                    text.push_str(&format!("{u} {v} {t}\n"));
                }
            }
        }
        let s = saturn_linkstream::io::read_str(&text, Directedness::Undirected).unwrap();
        let t = Timeline::aggregated(&s, 2);
        let targets = TargetSet::all(n);
        for (tile, collect) in [n, 7, 1].into_iter().flat_map(|t| [(t, false), (t, true)]) {
            let mut arena = EngineArena::new();
            let mut max_snap = 0;
            for (start, len) in targets.tile_ranges(tile as usize) {
                let options = DpOptions { collect_distances: collect };
                let run = DpRun { tile: Some((start, len)), options, cancel: None };
                let stats =
                    earliest_arrival_dp_in(&mut arena, &t, &targets, &mut NullSink, run);
                max_snap = max_snap.max(stats.snap_entries);
            }
            // every row but the target's own is reachable in every column
            assert!(max_snap >= u64::from((n - 1) * tile), "tile={tile}: worst case not hit");
            assert_eq!(arena.set_at.is_empty(), !collect);
            let reserved = (arena.keys.capacity()
                + arena.snap.capacity()
                + arena.frontier.capacity()
                + arena.dirty_bits.capacity()
                + arena.ea_bits.capacity())
                * size_of::<u64>()
                + arena.set_at.capacity() * size_of::<u32>()
                + arena.marks.capacity() * size_of::<WordMark>()
                + arena.blocks.capacity() * size_of::<Block>();
            let estimate = arena_bytes(n as usize, tile as usize);
            assert!(
                reserved <= estimate,
                "tile={tile} collect={collect}: {reserved} bytes > estimate {estimate}"
            );
        }
        // the cap is the widest tile the estimate admits
        for nrows in [1, 2, 40, 1000, 6000, 60_000, 10_000_000] {
            let cols = max_tile_cols(nrows);
            assert!(arena_bytes(nrows, cols) <= ARENA_BUDGET_BYTES || cols == 1, "n={nrows}");
            assert!(arena_bytes(nrows, cols + 1) > ARENA_BUDGET_BYTES, "n={nrows}");
        }
    }

    /// One all-target tile covers every stream of up to 2,989 nodes, the
    /// figure `core::validation` and the README quote.
    #[test]
    fn one_tile_holds_every_column_up_to_2989_nodes() {
        assert!(max_tile_cols(2989) >= 2989);
        assert!(max_tile_cols(2990) < 2990);
    }

    /// A key table the allocator refuses is a panic naming the table —
    /// unwindable, unlike the abort of an infallible allocation.
    #[test]
    #[should_panic(expected = "cannot be allocated")]
    fn an_unallocatable_table_panics_instead_of_aborting() {
        EngineArena::new().prepare(usize::MAX / 64, 2, false);
    }

    /// Asserts that the frontier engine, run on `arena`, and [`baseline`]
    /// report the same trip stream (order included), trip and traversal
    /// counts, and distance sums on `t`.
    fn assert_matches_baseline(arena: &mut EngineArena, t: &Timeline, targets: &TargetSet) {
        let options = DpOptions { collect_distances: true };
        let mut fast = Collect::default();
        let f = earliest_arrival_dp_in(arena, t, targets, &mut fast, options);
        let mut slow = Collect::default();
        let b = baseline::earliest_arrival_dp(t, targets, &mut slow, options);
        assert_eq!(fast.0, slow.0);
        assert_eq!(f.trips, b.trips);
        assert_eq!(f.traversals, b.traversals);
        let (df, db) = (f.distances.unwrap(), b.distances.unwrap());
        assert_eq!(df.sum_dtime_steps, db.sum_dtime_steps);
        assert_eq!(df.sum_dhops, db.sum_dhops);
        assert_eq!(df.finite_triples, db.finite_triples);
    }

    /// The degree-1 bypass must be invisible: the engine matches
    /// [`baseline`], which takes full-row snapshots on every step, on
    /// directed and undirected timelines alike.
    #[test]
    fn degree1_fast_path_is_invisible() {
        let text = "a b 0\nb c 7\nc d 13\nd a 20\na c 27\nb d 33\nc e 41\ne a 47\n";
        for directedness in [Directedness::Undirected, Directedness::Directed] {
            let s = saturn_linkstream::io::read_str(text, directedness).unwrap();
            for &k in &[2u64, 5, 13, 47] {
                let t = Timeline::aggregated(&s, k);
                assert!(
                    k < 13 || t.steps_desc().any(|step| step.len() == 1),
                    "fine scales must exercise single-edge steps (k={k})"
                );
                assert_matches_baseline(&mut EngineArena::new(), &t, &TargetSet::all(5));
            }
        }
    }

    /// Delta propagation must be invisible: the engine matches
    /// [`baseline`], which keeps no watermarks, across directednesses and
    /// scales, with one arena reused for all runs (watermark state from
    /// earlier scales must stay dead).
    #[test]
    fn delta_propagation_is_invisible() {
        let text = "a b 0\nb c 7\nc d 13\nd a 20\na c 27\nb d 33\nc e 41\ne a 47\n\
                    a b 50\nb c 57\nc d 63\nd a 70\n";
        let mut arena = EngineArena::new();
        for directedness in [Directedness::Undirected, Directedness::Directed] {
            let s = saturn_linkstream::io::read_str(text, directedness).unwrap();
            for &k in &[1u64, 2, 5, 13, 29, 70] {
                assert_matches_baseline(
                    &mut arena,
                    &Timeline::aggregated(&s, k),
                    &TargetSet::all(5),
                );
            }
        }
    }

    /// Delta filtering composes with tiling: every tile cover merges to the
    /// untiled run.
    #[test]
    fn delta_propagation_composes_with_tiles() {
        let s = saturn_linkstream::io::read_str(
            "a b 0\nc d 3\nb c 7\nd e 9\na e 14\nb d 18\nc e 21\na c 25\nb c 31\nd e 37\n",
            Directedness::Undirected,
        )
        .unwrap();
        let targets = TargetSet::all(5);
        let mut arena = EngineArena::new();
        for &k in &[3u64, 9, 37] {
            let t = Timeline::aggregated(&s, k);
            let mut full_sink = Collect::default();
            earliest_arrival_dp(&t, &targets, &mut full_sink, DpOptions::default());
            let mut full_trips = full_sink.0;
            full_trips.sort_unstable();
            for tile in [1usize, 2, 5] {
                let mut trips = Vec::new();
                for (start, len) in targets.tile_ranges(tile) {
                    let mut sink = Collect::default();
                    let run = DpRun { tile: Some((start, len)), ..Default::default() };
                    earliest_arrival_dp_in(&mut arena, &t, &targets, &mut sink, run);
                    trips.extend(sink.0);
                }
                trips.sort_unstable();
                assert_eq!(trips, full_trips, "k={k} tile={tile}");
            }
        }
    }

    /// The frontier-pruned engine and the baseline full-scan engine must be
    /// indistinguishable, including trip report order.
    #[test]
    fn frontier_engine_matches_baseline() {
        let s = saturn_linkstream::io::read_str(
            "a b 0\nc d 3\nb c 7\nd e 9\na e 14\nb d 18\nc e 21\na c 25\n",
            Directedness::Undirected,
        )
        .unwrap();
        for &k in &[1u64, 2, 4, 7, 13, 25] {
            assert_matches_baseline(
                &mut EngineArena::new(),
                &Timeline::aggregated(&s, k),
                &TargetSet::all(5),
            );
        }
    }

    /// A present-but-never-fired token must be invisible: identical trip
    /// stream and stats as the `None` path (the knob-matrix invariant at the
    /// engine level).
    #[test]
    fn unfired_token_is_invisible() {
        let s = saturn_linkstream::io::read_str(
            "a b 0\nb c 7\nc d 13\nd a 20\na c 27\nb d 33\n",
            Directedness::Undirected,
        )
        .unwrap();
        let t = Timeline::aggregated(&s, 17);
        let targets = TargetSet::all(4);
        let mut plain = Collect::default();
        let ps = earliest_arrival_dp(&t, &targets, &mut plain, DpOptions::default());
        let token = CancelToken::new();
        let mut arena = EngineArena::new();
        let mut with_token = Collect::default();
        let run = DpRun { cancel: Some(&token), ..Default::default() };
        let ts = earliest_arrival_dp_in(&mut arena, &t, &targets, &mut with_token, run);
        assert_eq!(plain.0, with_token.0);
        assert_eq!(ps.trips, ts.trips);
        assert_eq!(ps.traversals, ts.traversals);
    }

    /// A pre-fired token stops the run within one `CANCEL_STRIDE` of steps,
    /// and the arena remains reusable for a full run afterwards.
    #[test]
    fn fired_token_stops_early_and_arena_survives() {
        // > 3×CANCEL_STRIDE single-edge steps so several polls happen.
        let mut text = String::new();
        for i in 0..(3 * CANCEL_STRIDE + 100) {
            text.push_str(&format!("a b {i}\n"));
        }
        let s = saturn_linkstream::io::read_str(&text, Directedness::Undirected).unwrap();
        let k = u64::from(3 * CANCEL_STRIDE + 100);
        let t = Timeline::aggregated(&s, k);
        let targets = TargetSet::all(2);
        let mut full = Collect::default();
        let fs = earliest_arrival_dp(&t, &targets, &mut full, DpOptions::default());

        let token = CancelToken::new();
        token.cancel();
        let mut arena = EngineArena::new();
        let mut partial = Collect::default();
        let run = DpRun { cancel: Some(&token), ..Default::default() };
        let ps = earliest_arrival_dp_in(&mut arena, &t, &targets, &mut partial, run);
        // The backward DP walks steps newest-first; a pre-fired token lets at
        // most one stride of steps run before the poll breaks out.
        assert!(
            ps.trips <= u64::from(2 * CANCEL_STRIDE),
            "cancelled run did too much work: {} trips vs {} full",
            ps.trips,
            fs.trips
        );
        assert!(ps.trips < fs.trips, "cancellation had no effect");

        // Reusing the arena after an abandoned run must be sound and exact.
        let mut again = Collect::default();
        let rs =
            earliest_arrival_dp_in(&mut arena, &t, &targets, &mut again, DpOptions::default());
        assert_eq!(again.0, full.0);
        assert_eq!(rs.trips, fs.trips);
    }

    /// A reported trip: `(u, v, dep, arr, hops)`.
    type Trip = (u32, u32, u32, u32, u32);

    /// A mirrored run's output, split at its rungs: the trips (as the
    /// sink saw them) before each rung and after the last one, and each
    /// rung's key table.
    struct MirrorRun {
        segments: Vec<Vec<Trip>>,
        tables: Vec<Vec<u64>>,
    }

    /// Runs [`mirrored_in`] on `arena`, from `from`, sealing at `rungs`.
    fn mirrored_run(
        arena: &mut EngineArena,
        t: &Timeline,
        from: Option<Checkpoint<'_>>,
        rungs: &[u32],
    ) -> MirrorRun {
        let mut out =
            MirrorRun { segments: vec![Vec::new(); rungs.len() + 1], tables: Vec::new() };
        let mut sink = Collect::default();
        let (segments, tables) = (&mut out.segments, &mut out.tables);
        mirrored_in(arena, t, &mut sink, None, Mirror { from, rungs }, &mut |r, keys, sink| {
            segments[r].append(&mut sink.0);
            tables.push(keys.to_vec());
        });
        out.segments[rungs.len()].append(&mut sink.0);
        out
    }

    fn sorted(mut trips: Vec<Trip>) -> Vec<Trip> {
        trips.sort_unstable();
        trips
    }

    /// Up to 40 random events over `n` nodes in [0, 60], self-loops dropped.
    fn arb_stream() -> impl Strategy<Value = saturn_linkstream::LinkStream> {
        (any::<bool>(), any::<bool>(), 1usize..40, any::<u64>()).prop_filter_map(
            "needs a non-loop event",
            |(directed, wide, len, seed)| {
                let n = if wide { 70 } else { 6 };
                let d =
                    if directed { Directedness::Directed } else { Directedness::Undirected };
                let mut b = saturn_linkstream::LinkStreamBuilder::indexed(d, n);
                let mut x = seed | 1;
                let mut next = |m: u64| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % m
                };
                // a small hub set keeps the wide case's paths multi-hop
                let hubs = u64::from(n.min(9));
                for _ in 0..len {
                    let (u, v) = (next(hubs) as u32, next(u64::from(n)) as u32);
                    if u != v {
                        b.add_indexed(u, v, next(61) as i64);
                    }
                }
                (!b.is_empty()).then(|| b.build().expect("non-empty"))
            },
        )
    }

    fn timeline_of(stream: &saturn_linkstream::LinkStream, exact: bool, k: u64) -> Timeline {
        if exact {
            Timeline::exact(stream)
        } else {
            Timeline::aggregated(stream, if stream.span() == 0 { 1 } else { k })
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(150))]

        /// The mirrored run is the backward run in reverse time: the same
        /// trips once mapped back (as a multiset), the same sealed
        /// histogram through a counter, and the same `mean` bits — for
        /// both directednesses and exact and aggregated timelines, on one
        /// arena reused across all of it.
        #[test]
        fn mirrored_run_equals_backward_run(
            stream in arb_stream(),
            exact in any::<bool>(),
            k in 1u64..30,
        ) {
            let t = timeline_of(&stream, exact, k);
            let targets = TargetSet::all(t.n());
            let mut arena = EngineArena::new();
            let mut backward = Collect::default();
            earliest_arrival_dp_in(&mut arena, &t, &targets, &mut backward, DpOptions::default());
            let expected = occupancy_hist(&mut arena, &t, &targets);
            let run = mirrored_run(&mut arena, &t, None, &[]);
            prop_assert_eq!(sorted(run.segments.concat()), sorted(backward.0));
            let mut counter = RateCounter::new();
            mirrored_histogram_in(&mut arena, &t, &mut counter, None, Mirror::default(), |_, _, _| {});
            let hist = counter.finish();
            prop_assert_eq!(&hist, &expected);
            prop_assert_eq!(hist.mean().to_bits(), expected.mean().to_bits());
        }

        /// Resuming from any rung's checkpoint equals the uninterrupted
        /// run: the resumed trips are exactly its trips after the rung,
        /// and the later rungs hand back the same tables and segments.
        #[test]
        fn resuming_from_any_rung_equals_an_uninterrupted_run(
            stream in arb_stream(),
            exact in any::<bool>(),
            k in 1u64..30,
            cuts in proptest::collection::vec(0usize..64, 1..4),
        ) {
            let t = timeline_of(&stream, exact, k);
            let mut rungs: Vec<u32> = cuts.iter().map(|&c| (c % (t.num_steps() as usize + 1)) as u32).filter(|&c| c > 0).collect();
            rungs.sort_unstable();
            rungs.dedup();
            let mut arena = EngineArena::new();
            let full = mirrored_run(&mut arena, &t, None, &rungs);
            for (r, &c) in rungs.iter().enumerate() {
                let saved = SavedKeys::new(full.tables[r].clone());
                let from = Checkpoint { step: c, keys: &saved, width: t.n() as usize };
                let resumed = mirrored_run(&mut arena, &t, Some(from), &rungs[r + 1..]);
                let after: Vec<_> = full.segments[r + 1..].concat();
                prop_assert!(after.iter().all(|trip| trip.3 >= c), "rung {} splits by arrival", c);
                prop_assert_eq!(sorted(resumed.segments.concat()), sorted(after), "rung {}", c);
                for (later, table) in resumed.tables.iter().enumerate() {
                    prop_assert_eq!(table, &full.tables[r + 1 + later]);
                    prop_assert_eq!(sorted(resumed.segments[later].clone()), sorted(full.segments[r + 1 + later].clone()));
                }
            }
        }
    }

    fn occupancy_hist(
        arena: &mut EngineArena,
        t: &Timeline,
        targets: &TargetSet,
    ) -> OccupancyHistogram {
        crate::occupancy_histogram_in(arena, t, targets)
    }

    /// Saved tables pack into 32 bits exactly when `ea` and `hops` fit 31
    /// bits together, and unpack to the same keys either way.
    #[test]
    fn saved_keys_pack_when_they_fit_and_round_trip() {
        let fits = vec![UNREACHED, 5 << 32 | 3, (1 << 26) << 32 | 15, 1];
        let saved = SavedKeys::new(fits.clone());
        assert!(matches!(saved.0, Saved::Packed { hop_bits: 4, .. }), "{saved:?}");
        assert_eq!(saved.bytes(), 4 * size_of::<u32>());
        let wide = vec![UNREACHED, (1 << 26) << 32 | 16];
        assert!(matches!(SavedKeys::new(wide.clone()).0, Saved::Wide(_)));
        for keys in [fits, wide] {
            let saved = SavedKeys::new(keys.clone());
            assert_eq!((0..keys.len()).map(|i| saved.get(i)).collect::<Vec<_>>(), keys);
        }
    }

    /// A cancelled mirrored run leaves nothing behind: resuming from a
    /// checkpoint on the same arena afterwards still equals the
    /// uninterrupted run's suffix.
    #[test]
    fn resume_after_a_cancelled_run_on_the_same_arena_is_exact() {
        let mut text = String::new();
        for i in 0..(3 * CANCEL_STRIDE + 100) {
            let (u, v) = (i % 5, (i * 3 + 1) % 5);
            if u != v {
                text.push_str(&format!("{u} {v} {i}\n"));
            }
        }
        for directedness in [Directedness::Undirected, Directedness::Directed] {
            let s = saturn_linkstream::io::read_str(&text, directedness).unwrap();
            let t = Timeline::aggregated(&s, u64::from(3 * CANCEL_STRIDE + 100));
            let rungs = [t.num_steps() * 3 / 4, t.num_steps() * 15 / 16];
            let mut arena = EngineArena::new();
            let full = mirrored_run(&mut arena, &t, None, &rungs);
            let token = CancelToken::new();
            token.cancel();
            for (r, &c) in rungs.iter().enumerate() {
                let saved = SavedKeys::new(full.tables[r].clone());
                let from = Checkpoint { step: c, keys: &saved, width: t.n() as usize };
                let mut partial = Collect::default();
                let stats = mirrored_in(
                    &mut arena,
                    &t,
                    &mut partial,
                    Some(&token),
                    Mirror::default(),
                    &mut |_, _, _| {},
                );
                assert!(stats.traversals > 0 && partial.0.len() < full.segments.concat().len());
                let resumed = mirrored_run(&mut arena, &t, Some(from), &rungs[r + 1..]);
                assert_eq!(
                    sorted(resumed.segments.concat()),
                    sorted(full.segments[r + 1..].concat()),
                    "rung {c}"
                );
            }
        }
    }
}
