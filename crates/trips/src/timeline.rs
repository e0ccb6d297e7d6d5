//! Step sequences consumed by the dynamic program, in a flat CSR layout.
//!
//! The backward DP is agnostic to whether its steps are aggregation windows
//! of `G_Δ` or distinct timestamps of the raw stream `L`; both are "a finite
//! sequence of edge sets at strictly increasing steps". [`Timeline`] captures
//! that common shape, prepared once so the engine can iterate it in
//! descending order.
//!
//! # Layout
//!
//! A timeline is compressed-sparse-row over its non-empty steps: the edges
//! of all steps live in two contiguous parallel arrays (`edge_src`,
//! `edge_dst`), and `step_offsets[i]..step_offsets[i + 1]` delimits the
//! edges of the `i`-th non-empty step (`step_index[i]` holds its step
//! number). This replaces the earlier one-`Vec` -per-step layout: the DP
//! touches one flat allocation instead of chasing per-step vectors, and the
//! sweep stops paying an allocator round-trip per window.
//!
//! # The shared sorted event view
//!
//! Aggregating at scale `Δ = T/K` needs, per window, the *distinct* pairs
//! linked inside it. The naive route (bucket events per window, sort, dedup
//! — what this module did before the CSR rework) re-sorts every window of
//! every swept scale. [`EventView`] instead orders the stream **once** by
//! `(u, v, t)` — two stable counting passes over the `(t, u, v)`-sorted
//! events, `O(E + n)` — and records where each pair's run starts; for any
//! `K`, scanning that view yields each pair's windows in non-decreasing
//! order, so per-window dedup degenerates to comparing neighbors, and
//! grouping by window is a stable two-pass radix scatter — `O(E)` per
//! scale, no comparison sort, no per-window allocation. The occupancy
//! sweep builds one `EventView` and feeds it to every scale (see
//! [`Timeline::aggregated_from_view`]). The exact timeline is the same
//! scatter with a tick's step being the rank of its distinct timestamp
//! ([`Timeline::exact`]), so one piece of code turns events into
//! deduplicated steps.
//!
//! # Splice invariants (append-only suffix rebuild)
//!
//! A streaming ingest session appends events to a stream whose study
//! period is **pinned** at creation; re-analysis must not rebuild every
//! scale's timeline from scratch when only the trailing windows changed.
//! [`Timeline::spliced_from_view`] rebuilds exactly the window suffix
//! `[first_dirty, K)` from the grown [`EventView`] and keeps the CSR
//! prefix of the old timeline verbatim (modulo pair-id remapping). The
//! result is **field-for-field identical** to
//! [`aggregated_from_view`](Timeline::aggregated_from_view) of the new
//! view at the same `K`, resting on these invariants:
//!
//! * **Pinned study period.** Both timelines must partition the *same*
//!   `[t_begin, t_end]` into `K` windows. If the period grew with the
//!   appended events, every window boundary `Δ = T/K` would move and no
//!   prefix could be reused — which is why ingest sessions require an
//!   explicit period up front (and reject out-of-period appends).
//! * **Append-only superset.** The new view's events are a superset of
//!   the old ones, and every *new* event lands in a window
//!   `>= first_dirty`. Windows `< first_dirty` therefore hold exactly the
//!   event multiset they held before, so their deduplicated steps are
//!   unchanged and the old CSR prefix (rows `< first_dirty`) is reused
//!   byte-for-byte. A conservative (too small) `first_dirty` is always
//!   safe — it only rebuilds more suffix than strictly necessary.
//! * **Pair ids are view ranks.** Every timeline — aggregated, spliced or
//!   exact — assigns pair ids in `(u, v)`-sorted view order, so a pair's id
//!   is the index of its run in the view. Appends can introduce new pairs
//!   anywhere in that order, shifting the ranks of existing pairs, so the
//!   reused prefix remaps each old id to the pair's rank in the *new* view
//!   (a monotone map — within-step ascending `(u, v)` order survives).
//!   When the pair count
//!   is unchanged there is nothing to remap: an append-only superset with
//!   as many pairs has the same pairs, so the ids are copied verbatim.
//!   The spliced timeline's ids therefore match the scratch build's ids
//!   exactly, preserving the stable-id contract inside the one timeline.
//! * **Suffix by tick.** Window `index(t) >= first_dirty` exactly when
//!   `t >= t_begin + ⌈first_dirty · span / K⌉` (floor division makes the
//!   ceiling the first such tick), and no tick qualifies when
//!   `first_dirty == K`, since `t_end` clamps into window `K − 1`. Ticks
//!   ascend within a pair run, so one binary search per run finds its
//!   suffix events, and only those get a window index.
//! * **Dedup locality.** Same-pair-same-window repeats are adjacent in
//!   the view, and a window is either entirely in the prefix or entirely
//!   in the suffix — the scratch build's neighbor dedup commutes with the
//!   prefix/suffix split.
//!
//! The differential proptest `timeline_splice.rs` enforces splice-equals-
//! scratch over random streams × random append splits, and `Timeline`
//! derives `PartialEq` so callers (the sweep's session cache) can verify
//! "nothing actually changed at this scale" by direct comparison.

use saturn_linkstream::{LinkStream, WindowPartition};

/// A borrowed view of one non-empty step: its index in `0..num_steps` and
/// its deduplicated edge slices (`u <= v` holds per edge if undirected;
/// edges are in ascending `(u, v)` order).
#[derive(Clone, Copy, Debug)]
pub struct StepView<'a> {
    /// Step index (window index, or rank of the distinct timestamp).
    pub index: u32,
    /// Source endpoints of the step's distinct edges.
    pub src: &'a [u32],
    /// Destination endpoints, parallel to `src`.
    pub dst: &'a [u32],
    /// Stable pair id of each edge, parallel to `src`: every distinct
    /// `(src, dst)` pair of the timeline gets one id in
    /// `0..`[`Timeline::distinct_pairs`], identical across all the steps in
    /// which the pair recurs. The delta-propagation engine keys its
    /// per-(edge, direction) watermarks on these.
    pub pair: &'a [u32],
}

impl<'a> StepView<'a> {
    /// The step's edges as `(u, v)` pairs.
    #[inline]
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.src.iter().copied().zip(self.dst.iter().copied())
    }

    /// Number of distinct edges in the step.
    #[inline]
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the step carries no edge (never true for stored steps).
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

/// The stream's events re-sorted by `(u, v, t)`, shared by every scale of a
/// sweep, plus the index of its pair runs: the events of one `(u, v)` pair
/// are contiguous, and the `p`-th run holds the pair every aggregated
/// timeline gives id `p` (its rank among the distinct pairs). Building one
/// is `O(E + n)`; each [`Timeline::aggregated_from_view`] is then `O(E)`,
/// and a [`Timeline::spliced_from_view`] reaches each pair's suffix events
/// by a binary search in its run.
#[derive(Clone, Debug)]
pub struct EventView {
    n: u32,
    directed: bool,
    t_begin: saturn_linkstream::Time,
    t_end: saturn_linkstream::Time,
    /// Event endpoints and instants, sorted by `(src, dst, tick)`.
    src: Vec<u32>,
    dst: Vec<u32>,
    ticks: Vec<i64>,
    /// Start of each pair run, plus `len()` at the end: pair `p`'s events
    /// are `pair_starts[p]..pair_starts[p + 1]`.
    pair_starts: Vec<u32>,
}

impl EventView {
    /// Sorts `stream`'s events by `(u, v, t)` and indexes their pair runs.
    /// The stream is already sorted by `(t, u, v)`, so two stable counting
    /// passes — by `v`, then by `u` — give the `(u, v, t)` order without a
    /// comparison sort.
    ///
    /// # Panics
    /// Panics if the stream holds `>= u32::MAX` events (the view and the
    /// CSR timelines built from it index with `u32`).
    pub fn new(stream: &LinkStream) -> Self {
        let events = stream.events();
        assert!(events.len() < u32::MAX as usize, "event count exceeds engine limit");
        let n = stream.node_count();
        let by_dst =
            counting_order(n, events.iter().enumerate().map(|(i, l)| (i as u32, l.v.raw())));
        let order = counting_order(n, by_dst.iter().map(|&i| (i, events[i as usize].u.raw())));
        let mut src = Vec::with_capacity(events.len());
        let mut dst = Vec::with_capacity(events.len());
        let mut ticks = Vec::with_capacity(events.len());
        let mut pair_starts = Vec::new();
        for (at, &i) in order.iter().enumerate() {
            let l = &events[i as usize];
            let (u, v) = (l.u.raw(), l.v.raw());
            if src.last() != Some(&u) || dst.last() != Some(&v) {
                pair_starts.push(at as u32);
            }
            src.push(u);
            dst.push(v);
            ticks.push(l.t.ticks());
        }
        pair_starts.push(events.len() as u32);
        EventView {
            n: n as u32,
            directed: stream.is_directed(),
            t_begin: stream.t_begin(),
            t_end: stream.t_end(),
            src,
            dst,
            ticks,
            pair_starts,
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the view holds no event (never true for built streams).
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Number of distinct `(u, v)` pairs: the id space of every aggregated
    /// timeline built from the view.
    fn pairs(&self) -> usize {
        self.pair_starts.len() - 1
    }

    /// The `(u, v)` of pair `p`.
    fn pair(&self, p: usize) -> (u32, u32) {
        let at = self.pair_starts[p] as usize;
        (self.src[at], self.dst[at])
    }
}

/// The indices of `keyed` (`(index, key)` with keys `< n`), stably ordered
/// by key: one counting pass.
fn counting_order(n: usize, keyed: impl Iterator<Item = (u32, u32)> + Clone) -> Vec<u32> {
    let mut starts = vec![0u32; n + 1];
    for (_, key) in keyed.clone() {
        starts[key as usize + 1] += 1;
    }
    for k in 1..=n {
        starts[k] += starts[k - 1];
    }
    let mut out = vec![0u32; starts[n] as usize];
    for (i, key) in keyed {
        let at = &mut starts[key as usize];
        out[*at as usize] = i;
        *at += 1;
    }
    out
}

/// A prepared sequence of steps for the DP engine (see the module docs for
/// the CSR layout). `PartialEq` is field-for-field — two equal timelines
/// are interchangeable for the engine (the basis of the sweep cache's
/// scale-reuse test).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Timeline {
    n: u32,
    directed: bool,
    num_steps: u32,
    /// Indices of the non-empty steps, **ascending**.
    step_index: Vec<u32>,
    /// CSR offsets into the edge arrays; `len = step_index.len() + 1`.
    step_offsets: Vec<u32>,
    /// Edge sources, grouped by step, ascending `(u, v)` within a step.
    edge_src: Vec<u32>,
    /// Edge destinations, parallel to `edge_src`.
    edge_dst: Vec<u32>,
    /// Stable pair id of each edge, parallel to `edge_src` (see
    /// [`StepView::pair`]).
    edge_pair: Vec<u32>,
    /// Number of distinct `(src, dst)` pairs across all steps.
    distinct_pairs: u32,
    /// For exact timelines: tick of each step index (ascending). Empty for
    /// aggregated timelines.
    ticks: Vec<i64>,
}

/// Radix bucket width for the window-grouping scatter (16 bits keeps the
/// count array at 256 KiB and means a single pass for any sweep with
/// `K <= 65536`; a second pass covers the full `u32` step range).
const RADIX_BITS: u32 = 16;
const RADIX_SIZE: usize = 1 << RADIX_BITS;

impl Timeline {
    /// Builds the timeline of the aggregated series `G_Δ` with `Δ = T/k`:
    /// step `w` holds the distinct pairs linked inside window `w`.
    ///
    /// Sorts a fresh [`EventView`] internally; sweeps analyzing many scales
    /// of one stream should build the view once and call
    /// [`aggregated_from_view`](Timeline::aggregated_from_view).
    ///
    /// # Panics
    /// Panics if `k` is invalid for the stream's study period or exceeds
    /// `u32::MAX - 1` (the engine stores step indices as `u32`).
    pub fn aggregated(stream: &LinkStream, k: u64) -> Self {
        Self::aggregated_from_view(&EventView::new(stream), k)
    }

    /// Builds the aggregated timeline from a prepared [`EventView`] in
    /// `O(E)` — no comparison sort, no per-window allocation.
    ///
    /// # Panics
    /// As [`aggregated`](Timeline::aggregated).
    pub fn aggregated_from_view(view: &EventView, k: u64) -> Self {
        assert!(k < u32::MAX as u64, "window count {k} exceeds engine limit");
        let partition =
            WindowPartition::new(view.t_begin, view.t_end, k).expect("invalid window count");
        Self::scattered(view, k as u32, window_of(&partition))
    }

    /// Builds the exact timeline of the raw stream `L`: one step per distinct
    /// timestamp (links sharing an instant cannot be chained — Remark 1 — so
    /// an instant behaves exactly like one snapshot). It is the same scatter
    /// as [`aggregated_from_view`](Timeline::aggregated_from_view), with each
    /// event's step the rank of its distinct timestamp, so its pair ids are
    /// view ranks too.
    ///
    /// # Panics
    /// As [`EventView::new`].
    pub fn exact(stream: &LinkStream) -> Self {
        let mut ticks: Vec<i64> = stream.events().iter().map(|l| l.t.ticks()).collect();
        ticks.dedup(); // events are time-sorted
        let steps = ticks.len() as u32;
        let rank = |t: i64| ticks.partition_point(|&x| x < t) as u32;
        let mut timeline = Self::scattered(&EventView::new(stream), steps, rank);
        timeline.ticks = ticks;
        timeline
    }

    /// The `num_steps`-step timeline of every event of `view`, the step of
    /// tick `t` being `step_of(t)` (see [`window_edges`]).
    fn scattered(view: &EventView, num_steps: u32, step_of: impl Fn(i64) -> u32) -> Self {
        let (steps, edge_src, edge_dst, edge_pair) =
            window_edges(view, num_steps, 0, i64::MIN, step_of);
        let (mut step_index, mut step_offsets) = (Vec::new(), vec![0u32]);
        fold_steps(&steps, 0, 0, &mut step_index, &mut step_offsets);
        Timeline {
            n: view.n,
            directed: view.directed,
            num_steps,
            step_index,
            step_offsets,
            edge_src,
            edge_dst,
            edge_pair,
            distinct_pairs: view.pairs() as u32,
            ticks: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Whether edges are directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Total number of steps (windows `K`, or distinct timestamps).
    pub fn num_steps(&self) -> u32 {
        self.num_steps
    }

    /// Number of non-empty steps.
    pub fn nonempty_steps(&self) -> usize {
        self.step_index.len()
    }

    /// Number of non-empty steps with an index below `step`: the ordinal
    /// of the first non-empty step at or above it.
    pub fn steps_before(&self, step: u32) -> usize {
        self.step_index.partition_point(|&i| i < step)
    }

    /// The `i`-th non-empty step in **ascending** index order. Always
    /// inlined: the DP calls it once per step, from both orientations.
    #[inline(always)]
    pub fn step(&self, i: usize) -> StepView<'_> {
        let lo = self.step_offsets[i] as usize;
        let hi = self.step_offsets[i + 1] as usize;
        StepView {
            index: self.step_index[i],
            src: &self.edge_src[lo..hi],
            dst: &self.edge_dst[lo..hi],
            pair: &self.edge_pair[lo..hi],
        }
    }

    /// The non-empty steps in **descending** index order (DP iteration
    /// order).
    pub fn steps_desc(&self) -> impl Iterator<Item = StepView<'_>> {
        (0..self.nonempty_steps()).rev().map(|i| self.step(i))
    }

    /// The non-empty steps in ascending index order.
    pub fn steps_asc(&self) -> impl Iterator<Item = StepView<'_>> {
        (0..self.nonempty_steps()).map(|i| self.step(i))
    }

    /// Total number of edges `M` over all steps.
    pub fn total_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Number of distinct `(src, dst)` pairs across all steps — the id
    /// space of [`StepView::pair`]. The DP engine sizes its per-(edge,
    /// direction) delta watermarks as `2 × distinct_pairs`.
    pub fn distinct_pairs(&self) -> u32 {
        self.distinct_pairs
    }

    /// For exact timelines, the tick of step `index`; for aggregated
    /// timelines, `None`.
    pub fn tick_of(&self, index: u32) -> Option<i64> {
        self.ticks.get(index as usize).copied()
    }

    /// Whether this timeline is an exact (timestamp-indexed) one.
    pub fn is_exact(&self) -> bool {
        !self.ticks.is_empty()
    }

    /// The precondition of `aggregated_by_merge`: an aggregated timeline
    /// whose window count `k` divides.
    #[doc(hidden)]
    pub fn merge_compatible(&self, k: u64) -> bool {
        !self.is_exact()
            && k >= 1
            && k <= self.num_steps as u64
            && (self.num_steps as u64).is_multiple_of(k)
    }

    /// Only perfbench calls this (ROADMAP item 3 deletes it): the timeline
    /// of `k` windows, as a pair-id bitmap union of runs of adjacent windows.
    ///
    /// # Panics
    /// Panics unless `merge_compatible(k)` holds.
    #[doc(hidden)]
    pub fn aggregated_by_merge(&self, k: u64) -> Timeline {
        assert!(
            self.merge_compatible(k),
            "scales are not merge-compatible: {} windows -> {k}",
            self.num_steps
        );
        let r = self.num_steps as u64 / k;
        let coarse = |s: usize| (self.step_index[s] as u64 / r) as u32;
        let (mut step_index, mut step_offsets) = (Vec::new(), vec![0u32]);
        let (mut src, mut dst, mut pair) = (Vec::new(), Vec::new(), Vec::new());
        // a pair-id presence bitmap, cleared as it is walked, and each
        // present pair's endpoints: pair ids ascend with (u, v), so the
        // ordered bit walk is the window's sorted, deduplicated edge set
        let mut seen = vec![0u64; (self.distinct_pairs as usize).div_ceil(64)];
        let mut ends = vec![(0u32, 0u32); self.distinct_pairs as usize];
        let mut i = 0;
        while i < self.nonempty_steps() {
            let j = (i..self.nonempty_steps()).find(|&j| coarse(j) != coarse(i));
            let j = j.unwrap_or(self.nonempty_steps());
            let (mut lo, mut hi) = (usize::MAX, 0);
            for e in self.step_offsets[i] as usize..self.step_offsets[j] as usize {
                let p = self.edge_pair[e] as usize;
                seen[p >> 6] |= 1 << (p & 63);
                ends[p] = (self.edge_src[e], self.edge_dst[e]);
                (lo, hi) = (lo.min(p >> 6), hi.max(p >> 6));
            }
            for (word, slot) in (lo..=hi).zip(&mut seen[lo..=hi]) {
                let mut bits = std::mem::take(slot);
                while bits != 0 {
                    let p = word << 6 | bits.trailing_zeros() as usize;
                    src.push(ends[p].0);
                    dst.push(ends[p].1);
                    pair.push(p as u32);
                    bits &= bits - 1;
                }
            }
            step_index.push(coarse(i));
            step_offsets.push(src.len() as u32);
            i = j;
        }

        Timeline {
            n: self.n,
            directed: self.directed,
            num_steps: k as u32,
            step_index,
            step_offsets,
            edge_src: src,
            edge_dst: dst,
            edge_pair: pair,
            distinct_pairs: self.distinct_pairs,
            ticks: Vec::new(),
        }
    }

    /// Rebuilds only the window suffix `[first_dirty, K)` from the grown
    /// `view`, keeping this timeline's CSR prefix for the clean windows
    /// (module docs, "Splice invariants"). Field-for-field identical to
    /// [`aggregated_from_view`](Timeline::aggregated_from_view) of `view`
    /// at the same `K`, provided the study period is pinned, `view` is an
    /// append-only superset of the events this timeline was built from,
    /// and every appended event lands in a window `>= first_dirty`.
    /// `first_dirty == 0` is a plain scratch rebuild; a conservative
    /// (too small) `first_dirty` is always correct, just slower.
    ///
    /// Cost is `O(P log E + S + M_prefix)` for `P` pairs, `S` suffix
    /// events and `M_prefix` prefix edges: one binary search per pair run
    /// of the view for its first suffix tick, a window index only for the
    /// suffix events (the radix scatter and CSR fold touch only those and
    /// `K - first_dirty` buckets), and a copy of the prefix — verbatim when
    /// the pair count is unchanged, else with each old pair id remapped by
    /// one binary search over the pairs.
    ///
    /// # Panics
    /// Panics if this timeline is exact, or `first_dirty > num_steps`, or
    /// the pair count changed and a prefix pair is absent from the view
    /// (an append-only violation).
    pub fn spliced_from_view(&self, view: &EventView, first_dirty: u32) -> Timeline {
        assert!(!self.is_exact(), "suffix splice applies to aggregated timelines only");
        assert!(
            first_dirty <= self.num_steps,
            "first_dirty {first_dirty} exceeds window count {}",
            self.num_steps
        );
        let partition = WindowPartition::new(view.t_begin, view.t_end, self.num_steps as u64)
            .expect("invalid window count");
        let (win, src, dst, pair) = window_edges(
            view,
            self.num_steps,
            first_dirty,
            first_tick(&partition, first_dirty),
            window_of(&partition),
        );
        let distinct_pairs = view.pairs() as u32;

        // Reuse the clean CSR prefix (steps with window < first_dirty). An
        // append-only superset with as many pairs has the same pairs, so
        // their ids carry over verbatim; otherwise each old id is remapped
        // to the pair's rank in the new view.
        let p = self.step_index.partition_point(|&w| w < first_dirty);
        let prefix_edges = self.step_offsets[p] as usize;
        // every array is allocated once, at its final length
        let joined = |prefix: &[u32], suffix: &[u32]| {
            let mut out = Vec::with_capacity(prefix.len() + suffix.len());
            out.extend_from_slice(prefix);
            out.extend_from_slice(suffix);
            out
        };
        let edge_src = joined(&self.edge_src[..prefix_edges], &src);
        let edge_dst = joined(&self.edge_dst[..prefix_edges], &dst);
        let mut step_index = Vec::with_capacity(p + win.len());
        step_index.extend_from_slice(&self.step_index[..p]);
        let mut step_offsets = Vec::with_capacity(p + 1 + win.len());
        step_offsets.extend_from_slice(&self.step_offsets[..=p]);
        let mut edge_pair: Vec<u32> = Vec::with_capacity(prefix_edges + pair.len());
        if distinct_pairs == self.distinct_pairs {
            edge_pair.extend_from_slice(&self.edge_pair[..prefix_edges]);
        } else {
            let mut remap = vec![u32::MAX; self.distinct_pairs as usize];
            for e in 0..prefix_edges {
                let old = self.edge_pair[e] as usize;
                if remap[old] == u32::MAX {
                    let uv = (self.edge_src[e], self.edge_dst[e]);
                    let at = view.pair_starts[..view.pairs()].partition_point(|&start| {
                        (view.src[start as usize], view.dst[start as usize]) < uv
                    });
                    assert!(
                        at < view.pairs() && view.pair(at) == uv,
                        "prefix pair absent from the view: splice requires an append-only superset"
                    );
                    remap[old] = at as u32;
                }
                edge_pair.push(remap[old]);
            }
        }

        // Append the rebuilt suffix, folding equal-window runs into the CSR
        // arrays with indices and offsets shifted back up.
        edge_pair.extend_from_slice(&pair);
        fold_steps(&win, first_dirty, prefix_edges as u32, &mut step_index, &mut step_offsets);

        Timeline {
            n: view.n,
            directed: view.directed,
            num_steps: self.num_steps,
            step_index,
            step_offsets,
            edge_src,
            edge_dst,
            edge_pair,
            distinct_pairs,
            ticks: Vec::new(),
        }
    }
}

/// The window of a tick under `partition`.
fn window_of(partition: &WindowPartition) -> impl Fn(i64) -> u32 + '_ {
    |t| partition.index(saturn_linkstream::Time::new(t)) as u32
}

/// The first tick whose window under `partition` is `>= first_dirty`:
/// `t_begin + ⌈first_dirty · span / K⌉` (module docs, "Splice invariants").
fn first_tick(partition: &WindowPartition, first_dirty: u32) -> i64 {
    let (k, span) = (i128::from(partition.k()), i128::from(partition.span()));
    let offset = (i128::from(first_dirty) * span + k - 1) / k;
    (i128::from(partition.t_begin().ticks()) + offset) as i64
}

/// The deduplicated edges of the steps `>= first_dirty` of a `k`-step
/// timeline whose step of tick `t` is `step_of(t)` (non-decreasing in `t`),
/// as parallel `(step − first_dirty, src, dst, pair id)` arrays grouped by
/// step; within a step, edges ascend by pair id, i.e. by `(u, v)`. This is
/// the one scatter behind every timeline: windows of `G_Δ`, their suffix
/// splice, and the distinct timestamps of the exact timeline.
///
/// Per pair run of the view (pair id = run index), the edges start at
/// `first_tick`, the first tick whose step is `>= first_dirty`, found by
/// one binary search; there is none when `first_dirty == k`. Within a run
/// ticks ascend, so same-pair-same-step repeats are adjacent and collapse
/// by neighbor comparison — no hashing, no comparison sort. A stable radix
/// scatter by step then keeps the pair order inside each.
fn window_edges(
    view: &EventView,
    k: u32,
    first_dirty: u32,
    first_tick: i64,
    step_of: impl Fn(i64) -> u32,
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    // a full build keeps up to every event
    let cap = if first_dirty == 0 { view.len() } else { 0 };
    let (mut win, mut src, mut dst, mut pair) = (
        Vec::with_capacity(cap),
        Vec::with_capacity(cap),
        Vec::with_capacity(cap),
        Vec::with_capacity(cap),
    );
    if first_dirty < k {
        for p in 0..view.pairs() {
            let (lo, hi) = (view.pair_starts[p] as usize, view.pair_starts[p + 1] as usize);
            let from = lo + view.ticks[lo..hi].partition_point(|&t| t < first_tick);
            let mut prev_win = u32::MAX;
            for i in from..hi {
                let w = step_of(view.ticks[i]);
                if w != prev_win {
                    prev_win = w;
                    win.push(w - first_dirty);
                    src.push(view.src[i]);
                    dst.push(view.dst[i]);
                    pair.push(p as u32);
                }
            }
        }
    }
    // (the u32 bound is guaranteed by EventView::new, asserted here too
    // since the radix offsets are u32 arithmetic)
    assert!(src.len() < u32::MAX as usize, "edge count exceeds engine limit");
    radix_by_window(win, src, dst, pair, k - first_dirty)
}

/// Appends one CSR step per run of equal windows in the window-grouped
/// `win` (shifted back up by `first_dirty`), whose edges start at edge
/// `base`.
fn fold_steps(
    win: &[u32],
    first_dirty: u32,
    base: u32,
    step_index: &mut Vec<u32>,
    step_offsets: &mut Vec<u32>,
) {
    let mut end = base;
    for run in win.chunk_by(|a, b| a == b) {
        end += run.len() as u32;
        step_index.push(run[0] + first_dirty);
        step_offsets.push(end);
    }
}

/// Stable counting-sort of the `(win, src, dst, pair)` quads by `win`: one
/// pass when every window index fits 16 bits, else a classic two-pass LSD
/// radix (low 16 bits, then high bits). Returns the reordered arrays.
fn radix_by_window(
    win: Vec<u32>,
    src: Vec<u32>,
    dst: Vec<u32>,
    pair: Vec<u32>,
    k: u32,
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    if win.is_empty() {
        return (win, src, dst, pair);
    }
    if (k as usize) <= RADIX_SIZE {
        let mut counts = vec![0u32; k.max(1) as usize];
        radix_pass((win, src, dst, pair), &mut counts, |w| w as usize)
    } else {
        let mut lo_counts = vec![0u32; RADIX_SIZE];
        let cur = radix_pass((win, src, dst, pair), &mut lo_counts, |w| {
            (w as usize) & (RADIX_SIZE - 1)
        });
        let mut hi_counts = vec![0u32; (((k - 1) as usize) >> RADIX_BITS) + 1];
        radix_pass(cur, &mut hi_counts, |w| (w >> RADIX_BITS) as usize)
    }
}

fn radix_pass(
    (win, src, dst, pair): (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>),
    counts: &mut [u32],
    bucket: impl Fn(u32) -> usize,
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    for &w in &win {
        counts[bucket(w)] += 1;
    }
    let mut offset = 0u32;
    for c in counts.iter_mut() {
        let n = *c;
        *c = offset;
        offset += n;
    }
    let len = win.len();
    let mut out_win = vec![0u32; len];
    let mut out_src = vec![0u32; len];
    let mut out_dst = vec![0u32; len];
    let mut out_pair = vec![0u32; len];
    for i in 0..len {
        let b = bucket(win[i]);
        let pos = counts[b] as usize;
        counts[b] += 1;
        out_win[pos] = win[i];
        out_src[pos] = src[i];
        out_dst[pos] = dst[i];
        out_pair[pos] = pair[i];
    }
    (out_win, out_src, out_dst, out_pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use saturn_linkstream::{Directedness, LinkStreamBuilder};

    fn stream() -> LinkStream {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 0);
        b.add("a", "b", 1); // same pair again
        b.add("b", "c", 1);
        b.add("c", "d", 9);
        b.build().unwrap()
    }

    #[test]
    fn aggregated_timeline_dedups_per_window() {
        let s = stream();
        let t = Timeline::aggregated(&s, 3); // Δ = 3: [0,3), [3,6), [6,9]
        assert_eq!(t.num_steps(), 3);
        assert!(!t.is_exact());
        let steps: Vec<(u32, usize)> = t.steps_desc().map(|s| (s.index, s.len())).collect();
        // window 0: {ab, bc}; window 2: {cd}; descending order
        assert_eq!(steps, vec![(2, 1), (0, 2)]);
        assert_eq!(t.total_edges(), 3);
    }

    #[test]
    fn exact_timeline_steps_are_distinct_timestamps() {
        let s = stream();
        let t = Timeline::exact(&s);
        assert!(t.is_exact());
        assert_eq!(t.num_steps(), 3); // t = 0, 1, 9
        assert_eq!(t.tick_of(0), Some(0));
        assert_eq!(t.tick_of(1), Some(1));
        assert_eq!(t.tick_of(2), Some(9));
        // descending
        let idx: Vec<u32> = t.steps_desc().map(|s| s.index).collect();
        assert_eq!(idx, vec![2, 1, 0]);
        // step at t=1 holds both ab (duplicate event collapses) and bc
        let mid: Vec<(u32, u32)> = t.steps_desc().nth(1).unwrap().edges().collect();
        assert_eq!(mid, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn total_aggregation_single_step() {
        let s = stream();
        let t = Timeline::aggregated(&s, 1);
        assert_eq!(t.num_steps(), 1);
        assert_eq!(t.nonempty_steps(), 1);
        assert_eq!(t.step(0).len(), 3); // ab, bc, cd
    }

    #[test]
    fn directed_edges_are_kept_oriented() {
        let mut b = LinkStreamBuilder::new(Directedness::Directed);
        b.add("a", "b", 0);
        b.add("b", "a", 0);
        let s = b.build().unwrap();
        let t = Timeline::exact(&s);
        assert!(t.is_directed());
        let edges: Vec<(u32, u32)> = t.step(0).edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn view_reuse_matches_fresh_aggregation() {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 9);
        for i in 0..200i64 {
            b.add_indexed((i % 9) as u32, ((i * 5 + 1) % 9) as u32, (i * 13) % 997);
        }
        let s = b.build().unwrap();
        let view = EventView::new(&s);
        for k in [1u64, 2, 7, 100, 996, 997] {
            let fresh = Timeline::aggregated(&s, k);
            let shared = Timeline::aggregated_from_view(&view, k);
            assert_eq!(fresh.nonempty_steps(), shared.nonempty_steps(), "k={k}");
            for (a, b) in fresh.steps_desc().zip(shared.steps_desc()) {
                assert_eq!(a.index, b.index, "k={k}");
                assert_eq!(a.src, b.src, "k={k}");
                assert_eq!(a.dst, b.dst, "k={k}");
            }
        }
    }

    #[test]
    fn csr_edges_are_sorted_within_each_step() {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 12);
        for i in 0..300i64 {
            b.add_indexed((i * 7 % 12) as u32, (i * 11 % 12) as u32, i % 50);
        }
        let s = b.build().unwrap();
        for k in [1u64, 3, 17, 50] {
            let t = Timeline::aggregated(&s, k);
            for step in t.steps_desc() {
                let edges: Vec<(u32, u32)> = step.edges().collect();
                assert!(edges.windows(2).all(|w| w[0] < w[1]), "k={k} step={}", step.index);
            }
        }
    }

    /// Pair ids are a bijection with the distinct `(src, dst)` pairs: the
    /// same pair carries the same id in every step it recurs in, different
    /// pairs never share an id, and ids cover `0..distinct_pairs` — on both
    /// the aggregated and the exact construction paths.
    #[test]
    fn pair_ids_are_stable_across_steps() {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 10);
        for i in 0..400i64 {
            b.add_indexed((i * 3 % 10) as u32, (i * 7 % 10) as u32, i % 83);
        }
        let s = b.build().unwrap();
        let timelines =
            [Timeline::exact(&s), Timeline::aggregated(&s, 5), Timeline::aggregated(&s, 80)];
        for t in &timelines {
            let mut id_of = std::collections::HashMap::new();
            for step in t.steps_asc() {
                for ((u, v), &p) in step.edges().zip(step.pair.iter()) {
                    assert!(p < t.distinct_pairs());
                    assert_eq!(*id_of.entry((u, v)).or_insert(p), p, "pair ({u},{v})");
                }
            }
            assert_eq!(id_of.len(), t.distinct_pairs() as usize);
            let distinct_ids: std::collections::HashSet<u32> =
                id_of.values().copied().collect();
            assert_eq!(distinct_ids.len(), t.distinct_pairs() as usize);
        }
    }

    proptest! {
        /// The exact timeline's steps, ascending, are the stream's timestamp
        /// groups with duplicate pairs removed, `tick_of` follows the
        /// distinct ticks, and pair ids are view ranks.
        #[test]
        fn exact_steps_are_the_deduplicated_timestamp_groups(
            events in proptest::collection::vec((0u32..8, 1u32..8, -40i64..40), 1..150),
            directed in any::<bool>(),
        ) {
            let dir = if directed { Directedness::Directed } else { Directedness::Undirected };
            let mut b = LinkStreamBuilder::indexed(dir, 8);
            for (u, shift, t) in events {
                b.add_indexed(u, (u + shift) % 8, t);
            }
            let s = b.build().unwrap();
            let (t, view) = (Timeline::exact(&s), EventView::new(&s));
            let groups: Vec<_> = s.timestamp_groups().collect();
            prop_assert_eq!(t.num_steps() as usize, groups.len());
            prop_assert_eq!(t.nonempty_steps(), groups.len());
            prop_assert_eq!(t.distinct_pairs() as usize, view.pairs());
            for (i, (step, (tick, links))) in t.steps_asc().zip(&groups).enumerate() {
                prop_assert_eq!(step.index as usize, i);
                prop_assert_eq!(t.tick_of(step.index), Some(tick.ticks()));
                let mut want: Vec<(u32, u32)> =
                    links.iter().map(|l| (l.u.raw(), l.v.raw())).collect();
                want.sort_unstable();
                want.dedup();
                prop_assert_eq!(step.edges().collect::<Vec<_>>(), want);
                for (edge, &p) in step.edges().zip(step.pair) {
                    prop_assert_eq!(view.pair(p as usize), edge);
                }
            }
            prop_assert_eq!(t.tick_of(groups.len() as u32), None);
        }
    }

    /// Strict structural equality — every field the engine can observe.
    fn assert_identical(a: &Timeline, b: &Timeline, what: &str) {
        assert_eq!(a.num_steps(), b.num_steps(), "{what}: num_steps");
        assert_eq!(a.nonempty_steps(), b.nonempty_steps(), "{what}: nonempty_steps");
        assert_eq!(a.distinct_pairs(), b.distinct_pairs(), "{what}: distinct_pairs");
        assert_eq!(a.is_exact(), b.is_exact(), "{what}: is_exact");
        assert_eq!(a.is_directed(), b.is_directed(), "{what}: directedness");
        for i in 0..a.nonempty_steps() {
            let (x, y) = (a.step(i), b.step(i));
            assert_eq!(x.index, y.index, "{what}: step {i} index");
            assert_eq!(x.src, y.src, "{what}: step {i} src");
            assert_eq!(x.dst, y.dst, "{what}: step {i} dst");
            assert_eq!(x.pair, y.pair, "{what}: step {i} pair ids");
        }
        assert_eq!(a, b, "{what}: PartialEq");
    }

    #[test]
    fn merge_equals_scratch_across_divisor_ladder() {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 11);
        for i in 0..500i64 {
            b.add_indexed((i * 3 % 11) as u32, (i * 7 % 11) as u32, (i * 17) % 1201);
        }
        let s = b.build().unwrap();
        let view = EventView::new(&s);
        // fine -> coarse ladder: every hop divides the previous window count
        for (k_fine, k_coarse) in
            [(1200u64, 600u64), (600, 120), (120, 12), (12, 1), (1200, 12)]
        {
            let fine = Timeline::aggregated_from_view(&view, k_fine);
            assert!(fine.merge_compatible(k_coarse), "{k_fine} -> {k_coarse}");
            let merged = fine.aggregated_by_merge(k_coarse);
            let scratch = Timeline::aggregated_from_view(&view, k_coarse);
            assert_identical(&merged, &scratch, &format!("merge {k_fine} -> {k_coarse}"));
        }
        // chained merges compose: 1200 -> 120 -> 12 equals scratch at 12
        let chained = Timeline::aggregated_from_view(&view, 1200)
            .aggregated_by_merge(120)
            .aggregated_by_merge(12);
        assert_identical(&chained, &Timeline::aggregated(&s, 12), "chained 1200->120->12");
    }

    #[test]
    fn splice_equals_scratch_across_append_splits() {
        // base stream + appended suffix under a pinned period [0, 1200]
        let k = 48u64;
        let mut base = LinkStreamBuilder::indexed(Directedness::Undirected, 9);
        base.period(0, 1200);
        for i in 0..300i64 {
            base.add_indexed((i * 3 % 9) as u32, (i * 7 % 9) as u32, (i * 11) % 900);
        }
        let old = base.clone().build().unwrap();
        // appends land at t >= 900: windows >= ceil-free index of t=900;
        // the pair pattern differs from the base, so new pairs interleave
        // into the sorted pair order and shift the ranks of old pairs
        let mut grown = base;
        for i in 0..80i64 {
            grown.add_indexed((i % 9) as u32, ((i * 5 + 1) % 9) as u32, 900 + (i * 3) % 300);
        }
        let new = grown.build().unwrap();
        assert_eq!((new.t_begin(), new.t_end()), (old.t_begin(), old.t_end()), "pinned");
        let old_tl = Timeline::aggregated(&old, k);
        let view = EventView::new(&new);
        let scratch = Timeline::aggregated_from_view(&view, k);
        // the tight first_dirty (window of the earliest append) plus
        // conservative picks down to 0 (the scratch-rebuild degenerate)
        let tight = new.partition(k).unwrap().index(saturn_linkstream::Time::new(900)) as u32;
        for fd in [tight, tight / 2, 7, 1, 0] {
            let spliced = old_tl.spliced_from_view(&view, fd);
            assert_identical(&spliced, &scratch, &format!("splice first_dirty={fd}"));
            assert_eq!(spliced, scratch, "PartialEq agrees (first_dirty={fd})");
        }
    }

    #[test]
    fn splice_with_no_dirty_suffix_is_identity() {
        let s = stream();
        let view = EventView::new(&s);
        let t = Timeline::aggregated(&s, 3);
        // first_dirty == num_steps: the whole timeline is clean prefix
        assert_identical(&t.spliced_from_view(&view, 3), &t, "no-op splice");
        assert_eq!(t.spliced_from_view(&view, 3), t);
    }

    /// A stream over the pinned period `[0, 1000]` whose pairs all avoid
    /// node 0, plus `extra`.
    fn pinned(extra: &[(u32, u32, i64)]) -> LinkStream {
        let mut b = LinkStreamBuilder::indexed(Directedness::Directed, 6);
        b.period(0, 1000);
        for i in 0..60i64 {
            b.add_indexed(1 + (i % 5) as u32, 1 + ((i + 2) % 5) as u32, i * 16);
        }
        for &(u, v, t) in extra {
            b.add_indexed(u, v, t);
        }
        b.build().unwrap()
    }

    #[test]
    fn splice_of_the_full_window_count_is_identity_with_events_at_t_end() {
        // events at t_end land in window K − 1 by the clamp; no tick is in
        // window K, so a splice there must keep every edge
        let s = pinned(&[(1, 2, 1000), (3, 4, 999)]);
        let view = EventView::new(&s);
        for k in [1u64, 7, 8, 1000] {
            let t = Timeline::aggregated_from_view(&view, k);
            assert_identical(&t.spliced_from_view(&view, k as u32), &t, &format!("k={k}"));
        }
    }

    #[test]
    fn splice_takes_appends_at_t_end_into_the_last_window() {
        let old = pinned(&[]);
        let new = pinned(&[(2, 1, 1000), (1, 3, 1000)]);
        let view = EventView::new(&new);
        for k in [3u64, 7, 8, 1000] {
            let spliced = Timeline::aggregated(&old, k).spliced_from_view(&view, k as u32 - 1);
            let scratch = Timeline::aggregated_from_view(&view, k);
            assert_identical(&spliced, &scratch, &format!("k={k}"));
        }
    }

    #[test]
    fn splice_takes_appends_on_the_first_tick_of_the_dirty_window() {
        // K = 7 starts window 3 at 3000/7 ≈ 428.6, so its first tick is
        // the ceiling 429 while 428 stays in window 2; K = 8 starts it
        // exactly at 375
        for (k, first, before) in [(7u64, 429i64, 428i64), (8, 375, 374)] {
            let p = WindowPartition::new(
                saturn_linkstream::Time::new(0),
                saturn_linkstream::Time::new(1000),
                k,
            )
            .unwrap();
            assert_eq!(p.index(saturn_linkstream::Time::new(first)), 3);
            assert_eq!(p.index(saturn_linkstream::Time::new(before)), 2);
            let old = pinned(&[(5, 1, before)]);
            let new = pinned(&[(5, 1, before), (5, 1, first), (2, 5, first)]);
            let view = EventView::new(&new);
            let spliced = Timeline::aggregated(&old, k).spliced_from_view(&view, 3);
            assert_identical(
                &spliced,
                &Timeline::aggregated_from_view(&view, k),
                &format!("k={k}"),
            );
        }
    }

    #[test]
    fn splice_remaps_when_a_new_pair_sorts_before_every_old_one() {
        let old = pinned(&[]);
        let new = pinned(&[(0, 1, 990)]);
        let view = EventView::new(&new);
        let old_tl = Timeline::aggregated(&old, 10);
        assert_eq!(view.pairs() as u32, old_tl.distinct_pairs() + 1);
        let spliced = old_tl.spliced_from_view(&view, 9);
        let scratch = Timeline::aggregated_from_view(&view, 10);
        assert_identical(&spliced, &scratch, "new lowest pair");
        // every old pair's id moved up by one
        assert_eq!(
            spliced.step(0).pair.iter().map(|p| p - 1).collect::<Vec<_>>(),
            old_tl.step(0).pair
        );
    }

    #[test]
    #[should_panic(expected = "prefix pair absent from the view")]
    fn splice_rejects_a_view_missing_a_prefix_pair() {
        let old = pinned(&[(0, 1, 10)]);
        // the grown view lacks (0, 1) and adds two pairs, so the pair
        // count changes and the prefix ids go through the remap
        let new = pinned(&[(0, 2, 990), (0, 3, 990)]);
        Timeline::aggregated(&old, 10).spliced_from_view(&EventView::new(&new), 9);
    }

    #[test]
    fn view_indexes_pair_runs() {
        let s = pinned(&[(0, 1, 10), (0, 1, 20)]);
        let view = EventView::new(&s);
        assert_eq!(view.pairs() as u32, Timeline::aggregated(&s, 1).distinct_pairs());
        assert_eq!(view.pair(0), (0, 1));
        assert_eq!(view.pair_starts[..2], [0, 2]);
        for p in 0..view.pairs() {
            let (lo, hi) = (view.pair_starts[p] as usize, view.pair_starts[p + 1] as usize);
            assert!(lo < hi);
            assert!((lo..hi).all(|i| (view.src[i], view.dst[i]) == view.pair(p)));
            assert!(view.ticks[lo..hi].windows(2).all(|w| w[0] < w[1]));
        }
        assert!((1..view.pairs()).all(|p| view.pair(p - 1) < view.pair(p)));
    }

    #[test]
    #[should_panic(expected = "aggregated timelines only")]
    fn splice_rejects_exact_timelines() {
        let s = stream();
        Timeline::exact(&s).spliced_from_view(&EventView::new(&s), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds window count")]
    fn splice_rejects_out_of_range_first_dirty() {
        let s = stream();
        Timeline::aggregated(&s, 3).spliced_from_view(&EventView::new(&s), 4);
    }

    #[test]
    fn merge_compatibility_predicate() {
        let s = stream();
        let t = Timeline::aggregated(&s, 9);
        assert!(t.merge_compatible(9)); // ratio 1
        assert!(t.merge_compatible(3));
        assert!(t.merge_compatible(1));
        assert!(!t.merge_compatible(2)); // non-divisor
        assert!(!t.merge_compatible(4));
        assert!(!t.merge_compatible(0));
        assert!(!t.merge_compatible(18)); // refining is not merging
        assert!(!Timeline::exact(&s).merge_compatible(1)); // exact path never merges
    }

    #[test]
    #[should_panic(expected = "not merge-compatible")]
    fn merge_rejects_non_divisor_ratio() {
        let s = stream();
        Timeline::aggregated(&s, 9).aggregated_by_merge(2);
    }

    #[test]
    fn merge_ratio_one_is_identity() {
        let s = stream();
        let t = Timeline::aggregated(&s, 3);
        assert_identical(&t.aggregated_by_merge(3), &t, "ratio-1 merge");
    }

    #[test]
    fn merge_handles_wide_ratios_through_the_bitmap_union_path() {
        // >2 non-empty fine steps per coarse window exercises the pair-id
        // bitmap union; a bursty pair recurring across fine windows inside
        // one coarse window exercises dedup
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 6);
        for i in 0..240i64 {
            b.add_indexed((i % 5) as u32, 5, i * 5 % 1200);
            b.add_indexed(0, 1, i * 7 % 1200); // recurrent pair
        }
        let s = b.build().unwrap();
        let view = EventView::new(&s);
        let fine = Timeline::aggregated_from_view(&view, 1200);
        for k in [240u64, 48, 8, 2] {
            let merged = fine.aggregated_by_merge(k);
            assert_identical(
                &merged,
                &Timeline::aggregated_from_view(&view, k),
                &format!("wide-ratio merge 1200 -> {k}"),
            );
        }
    }

    #[test]
    fn radix_handles_many_windows() {
        // force the two-pass path: K > 65536
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 4);
        for i in 0..120i64 {
            b.add_indexed((i % 4) as u32, ((i + 1) % 4) as u32, i * 1_000);
        }
        let s = b.build().unwrap();
        let k = 100_000u64;
        let t = Timeline::aggregated(&s, k);
        assert_eq!(t.num_steps(), k as u32);
        // all step indices strictly ascending
        let idx: Vec<u32> = t.steps_asc().map(|s| s.index).collect();
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t.total_edges(), 120); // every event lands in its own window
    }
}
