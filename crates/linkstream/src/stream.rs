//! The validated, time-sorted link-stream container and its builder.

use crate::{BuildError, Link, NodeId, NodeInterner, Time, WindowPartition};
use serde::Serialize;

/// Whether links carry an orientation.
///
/// The occupancy method applies to both cases (paper, Section 2): an
/// undirected link can be traversed in either direction by a temporal path, a
/// directed link only from source to target.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum Directedness {
    /// Links are ordered pairs; temporal paths follow the arrow.
    Directed,
    /// Links are unordered pairs (stored with `u <= v`).
    Undirected,
}

impl Directedness {
    /// `true` for [`Directedness::Directed`].
    pub const fn is_directed(self) -> bool {
        matches!(self, Directedness::Directed)
    }
}

/// A finite collection of `(u, v, t)` triplets over a study period.
///
/// Invariants maintained by construction:
/// * events are sorted by `(t, u, v)` and exact duplicates are removed
///   (the stream is a *set* of triplets, as in the paper);
/// * self-loops are dropped (they can never participate in a temporal path);
/// * in an undirected stream every stored link satisfies `u <= v`;
/// * every event instant lies inside the study period
///   `[t_begin, t_end]`, whose length `T = t_end - t_begin` is the
///   denominator of every aggregation scale `Δ = T/K`.
#[derive(Clone, Debug, Serialize)]
pub struct LinkStream {
    directedness: Directedness,
    labels: Vec<String>,
    events: Vec<Link>,
    t_begin: Time,
    t_end: Time,
    dropped_self_loops: usize,
    dropped_duplicates: usize,
}

impl LinkStream {
    /// Orientation of the links.
    pub fn directedness(&self) -> Directedness {
        self.directedness
    }

    /// Shorthand for `self.directedness().is_directed()`.
    pub fn is_directed(&self) -> bool {
        self.directedness.is_directed()
    }

    /// Number of nodes `n = |V|`.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of distinct link events `|L|`.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream holds no event (never true for built streams).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, sorted by `(t, u, v)`.
    pub fn events(&self) -> &[Link] {
        &self.events
    }

    /// External label of a node.
    pub fn label(&self, id: NodeId) -> &str {
        &self.labels[id.index()]
    }

    /// All labels, indexed by [`NodeId`].
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Start of the study period.
    pub fn t_begin(&self) -> Time {
        self.t_begin
    }

    /// End of the study period (inclusive).
    pub fn t_end(&self) -> Time {
        self.t_end
    }

    /// Length `T` of the study period, in ticks.
    pub fn span(&self) -> i64 {
        self.t_end - self.t_begin
    }

    /// Number of self-loop triplets discarded at build time.
    pub fn dropped_self_loops(&self) -> usize {
        self.dropped_self_loops
    }

    /// Number of exact duplicate triplets discarded at build time.
    pub fn dropped_duplicates(&self) -> usize {
        self.dropped_duplicates
    }

    /// Builds the exact partition of the study period into `k` equal windows
    /// (aggregation scale `Δ = T/k`, Definition 1).
    pub fn partition(&self, k: u64) -> Result<WindowPartition, crate::windows::WindowError> {
        WindowPartition::new(self.t_begin, self.t_end, k)
    }

    /// Iterates over groups of events sharing the same timestamp, in
    /// ascending time order.
    pub fn timestamp_groups(&self) -> impl Iterator<Item = (Time, &[Link])> {
        self.events.chunk_by(|a, b| a.t == b.t).map(|g| (g[0].t, g))
    }

    /// Number of distinct timestamps carrying at least one event.
    pub fn distinct_timestamps(&self) -> usize {
        self.timestamp_groups().count()
    }

    /// Restricts the stream to the sub-period `[begin, end]`, keeping the
    /// events inside it and setting the study period to exactly that range.
    /// Returns `None` when the range is inverted, outside the study period,
    /// or contains no event. Node identities (and labels) are preserved, so
    /// results on the restriction compare directly with the full stream —
    /// the primitive behind per-activity-segment analysis (the paper's
    /// Section 9 perspective on temporal heterogeneity).
    pub fn restrict(&self, begin: Time, end: Time) -> Option<LinkStream> {
        if begin > end || begin < self.t_begin || end > self.t_end {
            return None;
        }
        let lo = self.events.partition_point(|l| l.t < begin);
        let hi = self.events.partition_point(|l| l.t <= end);
        if lo == hi {
            return None;
        }
        Some(LinkStream {
            directedness: self.directedness,
            labels: self.labels.clone(),
            events: self.events[lo..hi].to_vec(),
            t_begin: begin,
            t_end: end,
            dropped_self_loops: 0,
            dropped_duplicates: 0,
        })
    }

    /// Summary statistics of the stream.
    pub fn stats(&self) -> StreamStats {
        let n = self.node_count().max(1);
        let m = self.len();
        let involvements = 2.0 * m as f64 / n as f64;
        let span = self.span();
        StreamStats {
            nodes: self.node_count(),
            links: m,
            distinct_timestamps: self.distinct_timestamps(),
            t_begin: self.t_begin,
            t_end: self.t_end,
            span,
            mean_links_per_node: involvements,
            mean_inter_contact: if involvements > 0.0 {
                span as f64 / involvements
            } else {
                f64::INFINITY
            },
            dropped_self_loops: self.dropped_self_loops,
            dropped_duplicates: self.dropped_duplicates,
        }
    }
}

/// Summary statistics of a [`LinkStream`], as produced by
/// [`LinkStream::stats`].
#[derive(Clone, Copy, Debug, Serialize)]
pub struct StreamStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of distinct link events.
    pub links: usize,
    /// Number of distinct event timestamps.
    pub distinct_timestamps: usize,
    /// Start of the study period.
    pub t_begin: Time,
    /// End of the study period.
    pub t_end: Time,
    /// `t_end - t_begin`, in ticks.
    pub span: i64,
    /// Average number of link involvements per node (each link counts for
    /// both endpoints), i.e. `2m/n`.
    pub mean_links_per_node: f64,
    /// Mean inter-contact time of a node, `T / (2m/n)` ticks — the x-axis of
    /// Figure 6 (left) in the paper.
    pub mean_inter_contact: f64,
    /// Self-loop triplets discarded at build time.
    pub dropped_self_loops: usize,
    /// Exact duplicate triplets discarded at build time.
    pub dropped_duplicates: usize,
}

#[derive(Clone)]
enum NodeMode {
    /// Nodes are interned from string labels.
    Labeled(NodeInterner),
    /// Nodes are raw indices `0..n`; labels are the decimal indices.
    Indexed(u32),
}

/// Incremental constructor for [`LinkStream`].
///
/// Two node-identification styles are supported and must not be mixed:
/// string labels via [`add`](LinkStreamBuilder::add) (ids assigned in order of
/// first appearance) or raw dense indices via
/// [`add_indexed`](LinkStreamBuilder::add_indexed) on a builder created with
/// [`indexed`](LinkStreamBuilder::indexed).
///
/// Long-lived ingest sessions keep one builder, append to it, and analyze
/// frozen [`snapshot`](LinkStreamBuilder::snapshot)s of the stream-so-far.
/// The builder keeps the events it has already frozen canonical (sorted
/// by `(t, u, v)`, duplicates dropped), so a snapshot sorts only the
/// events appended since the last one and merges them in.
#[derive(Clone)]
pub struct LinkStreamBuilder {
    directedness: Directedness,
    mode: NodeMode,
    /// Canonical events: sorted by `(t, u, v)`, no duplicates.
    events: Vec<Link>,
    /// Events recorded since `events` was last brought up to date, in
    /// arrival order.
    tail: Vec<Link>,
    /// Duplicates dropped while merging `tail` into `events`.
    duplicates: usize,
    period: Option<(Time, Time)>,
    self_loops: usize,
}

/// The canonical event order of a [`LinkStream`].
fn canonical(link: &Link) -> (Time, NodeId, NodeId) {
    (link.t, link.u, link.v)
}

impl LinkStreamBuilder {
    /// Creates a label-mode builder.
    pub fn new(directedness: Directedness) -> Self {
        LinkStreamBuilder {
            directedness,
            mode: NodeMode::Labeled(NodeInterner::new()),
            events: Vec::new(),
            tail: Vec::new(),
            duplicates: 0,
            period: None,
            self_loops: 0,
        }
    }

    /// Creates an index-mode builder over exactly `n_nodes` nodes
    /// (ids `0..n_nodes`); nodes without any link remain in the node set.
    pub fn indexed(directedness: Directedness, n_nodes: u32) -> Self {
        LinkStreamBuilder {
            directedness,
            mode: NodeMode::Indexed(n_nodes),
            events: Vec::new(),
            tail: Vec::new(),
            duplicates: 0,
            period: None,
            self_loops: 0,
        }
    }

    /// Declares the study period `[begin, end]` explicitly. When omitted, the
    /// observed `[min t, max t]` is used.
    pub fn period(&mut self, begin: impl Into<Time>, end: impl Into<Time>) -> &mut Self {
        self.period = Some((begin.into(), end.into()));
        self
    }

    /// Records a triplet identified by string labels.
    ///
    /// # Panics
    /// Panics if the builder was created with
    /// [`indexed`](LinkStreamBuilder::indexed).
    pub fn add(&mut self, u: &str, v: &str, t: impl Into<Time>) -> &mut Self {
        let NodeMode::Labeled(interner) = &mut self.mode else {
            panic!("LinkStreamBuilder::add called on an index-mode builder");
        };
        let u = interner.intern(u);
        let v = interner.intern(v);
        self.push(u, v, t.into());
        self
    }

    /// Records a triplet identified by raw node indices.
    ///
    /// # Panics
    /// Panics if the builder is label-mode, or if an index is out of range.
    pub fn add_indexed(&mut self, u: u32, v: u32, t: impl Into<Time>) -> &mut Self {
        let NodeMode::Indexed(n) = self.mode else {
            panic!("LinkStreamBuilder::add_indexed called on a label-mode builder");
        };
        assert!(u < n && v < n, "node index out of range: ({u}, {v}) with n = {n}");
        self.push(NodeId(u), NodeId(v), t.into());
        self
    }

    fn push(&mut self, u: NodeId, v: NodeId, t: Time) {
        if u == v {
            self.self_loops += 1;
            return;
        }
        let (u, v) = match self.directedness {
            Directedness::Directed => (u, v),
            Directedness::Undirected => {
                if u.raw() <= v.raw() {
                    (u, v)
                } else {
                    (v, u)
                }
            }
        };
        self.tail.push(Link::new(u, v, t));
    }

    /// Number of triplets recorded so far (self-loops excluded, duplicates
    /// included), however the recording was split between snapshots.
    pub fn len(&self) -> usize {
        self.events.len() + self.duplicates + self.tail.len()
    }

    /// Whether no triplet has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.tail.is_empty()
    }

    /// Merges the events recorded since the last merge into the canonical
    /// ones, counting the duplicates it drops. Costs a sort of the new
    /// events, a merge with the canonical events at or after the earliest
    /// of them — for appends late in the period, about the size of the
    /// append — and one deduplicating pass.
    fn merge_tail(&mut self) {
        let mut tail = std::mem::take(&mut self.tail);
        tail.sort_unstable_by_key(canonical);
        let Some(first) = tail.first() else { return };
        let from = self.events.partition_point(|l| canonical(l) < canonical(first));
        if self.events.is_empty() {
            // a one-shot build keeps its one copy of the events
            self.events = tail;
        } else {
            let in_order = from == self.events.len();
            self.events.append(&mut tail);
            if !in_order {
                // two sorted runs: the stable sort merges them in one pass
                self.events[from..].sort_by_key(canonical);
            }
        }
        let before = self.events.len();
        self.events.dedup();
        self.duplicates += before - self.events.len();
    }

    /// Freezes the stream-so-far without consuming the builder: the
    /// append-session primitive. A snapshot after `n` appends is
    /// byte-identical to a one-shot [`build`](LinkStreamBuilder::build) of
    /// the same `n` events (and counts the same dropped duplicates), so
    /// incremental and scratch analyses share cache keys. Only the events
    /// recorded since the previous snapshot are sorted; the rest are
    /// already canonical.
    pub fn snapshot(&mut self) -> Result<LinkStream, BuildError> {
        self.merge_tail();
        let labels = match &self.mode {
            NodeMode::Labeled(interner) => interner.labels().to_vec(),
            NodeMode::Indexed(n) => indexed_labels(*n),
        };
        self.freeze(self.events.clone(), labels)
    }

    /// Validates, sorts, deduplicates and freezes the stream.
    pub fn build(mut self) -> Result<LinkStream, BuildError> {
        self.merge_tail();
        let events = std::mem::take(&mut self.events);
        let labels = match std::mem::replace(&mut self.mode, NodeMode::Indexed(0)) {
            NodeMode::Labeled(interner) => interner.into_labels(),
            NodeMode::Indexed(n) => indexed_labels(n),
        };
        self.freeze(events, labels)
    }

    /// Checks the period of canonical `events` and wraps them with
    /// `labels` into a stream.
    fn freeze(&self, events: Vec<Link>, labels: Vec<String>) -> Result<LinkStream, BuildError> {
        let (Some(first), Some(last)) = (events.first(), events.last()) else {
            return Err(BuildError::Empty);
        };
        let (observed_begin, observed_end) = (first.t, last.t);
        let (t_begin, t_end) = match self.period {
            None => (observed_begin, observed_end),
            Some((b, e)) => {
                if b > e {
                    return Err(BuildError::InvertedPeriod {
                        begin: b.ticks(),
                        end: e.ticks(),
                    });
                }
                if observed_begin < b || observed_end > e {
                    let event = if observed_begin < b { observed_begin } else { observed_end };
                    return Err(BuildError::PeriodTooShort {
                        event: event.ticks(),
                        begin: b.ticks(),
                        end: e.ticks(),
                    });
                }
                (b, e)
            }
        };
        check_span(t_begin, t_end)?;
        Ok(LinkStream {
            directedness: self.directedness,
            labels,
            events,
            t_begin,
            t_end,
            dropped_self_loops: self.self_loops,
            dropped_duplicates: self.duplicates,
        })
    }
}

/// The labels of an index-mode stream over `n` nodes: the decimal indices.
fn indexed_labels(n: u32) -> Vec<String> {
    (0..n).map(|i| i.to_string()).collect()
}

/// The span `end - begin` of a non-inverted study period, or
/// [`BuildError::SpanOverflow`] when it does not fit in an `i64` — every
/// [`LinkStream`] keeps `span() >= 0` exact.
pub fn check_span(begin: Time, end: Time) -> Result<i64, BuildError> {
    end.ticks()
        .checked_sub(begin.ticks())
        .ok_or(BuildError::SpanOverflow { begin: begin.ticks(), end: end.ticks() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LinkStream {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("b", "a", 5); // will be normalized and re-sorted
        b.add("a", "b", 5); // duplicate after normalization
        b.add("a", "c", 2);
        b.add("c", "c", 3); // self-loop, dropped
        b.build().unwrap()
    }

    #[test]
    fn build_sorts_normalizes_and_dedups() {
        let s = sample();
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped_duplicates(), 1);
        assert_eq!(s.dropped_self_loops(), 1);
        let ts: Vec<i64> = s.events().iter().map(|l| l.t.ticks()).collect();
        assert_eq!(ts, vec![2, 5]);
        // undirected normalization: u <= v everywhere
        assert!(s.events().iter().all(|l| l.u.raw() <= l.v.raw()));
    }

    #[test]
    fn observed_period_is_default() {
        let s = sample();
        assert_eq!(s.t_begin(), Time::new(2));
        assert_eq!(s.t_end(), Time::new(5));
        assert_eq!(s.span(), 3);
    }

    #[test]
    fn explicit_period_is_validated() {
        let mut b = LinkStreamBuilder::new(Directedness::Directed);
        b.add("a", "b", 5);
        b.period(0, 3);
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::PeriodTooShort { event: 5, begin: 0, end: 3 }
        );

        let mut b = LinkStreamBuilder::new(Directedness::Directed);
        b.add("a", "b", 5);
        b.period(9, 3);
        assert_eq!(b.build().unwrap_err(), BuildError::InvertedPeriod { begin: 9, end: 3 });

        let mut b = LinkStreamBuilder::new(Directedness::Directed);
        b.add("a", "b", 5);
        b.period(0, 10);
        let s = b.build().unwrap();
        assert_eq!(s.span(), 10);
    }

    /// A period whose length overflows `i64` is a typed error, whether it
    /// is observed from the events or declared; the longest representable
    /// span still builds.
    #[test]
    fn span_overflow_is_rejected() {
        let (min, max) = (i64::MIN, i64::MAX);
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", min);
        b.add("a", "c", max);
        assert_eq!(b.build().unwrap_err(), BuildError::SpanOverflow { begin: min, end: max });

        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 0);
        b.period(-1, max);
        assert_eq!(b.build().unwrap_err(), BuildError::SpanOverflow { begin: -1, end: max });

        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", min);
        b.add("a", "c", -1);
        assert_eq!(b.build().unwrap().span(), max);
        assert_eq!(check_span(Time::new(0), Time::MAX), Ok(max));
        assert!(check_span(Time::MIN, Time::new(0)).is_err());
    }

    #[test]
    fn snapshot_equals_one_shot_build_and_keeps_accepting() {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.period(0, 20);
        b.add("a", "b", 1);
        b.add("b", "c", 5);
        let first = b.snapshot().unwrap();

        let mut oneshot = LinkStreamBuilder::new(Directedness::Undirected);
        oneshot.period(0, 20);
        oneshot.add("a", "b", 1);
        oneshot.add("b", "c", 5);
        let scratch = oneshot.build().unwrap();
        assert_eq!(first.events(), scratch.events());
        assert_eq!(first.labels(), scratch.labels());
        assert_eq!((first.t_begin(), first.t_end()), (scratch.t_begin(), scratch.t_end()));

        // the builder survives the snapshot and keeps interning: new labels
        // get ids after the existing ones, so earlier events keep their ids
        b.add("c", "d", 9);
        let second = b.snapshot().unwrap();
        assert_eq!(second.len(), 3);
        assert_eq!(second.labels()[..3], first.labels()[..]);
        assert_eq!(second.events()[..2], first.events()[..]);
    }

    #[test]
    fn empty_build_fails() {
        let b = LinkStreamBuilder::new(Directedness::Directed);
        assert_eq!(b.build().unwrap_err(), BuildError::Empty);

        // a stream of only self-loops is also empty
        let mut b = LinkStreamBuilder::new(Directedness::Directed);
        b.add("a", "a", 1);
        assert_eq!(b.build().unwrap_err(), BuildError::Empty);
    }

    #[test]
    fn directed_keeps_orientation_and_distinguishes_reverse() {
        let mut b = LinkStreamBuilder::new(Directedness::Directed);
        b.add("a", "b", 1);
        b.add("b", "a", 1);
        let s = b.build().unwrap();
        assert_eq!(s.len(), 2); // (a,b) and (b,a) are different directed links
    }

    #[test]
    fn undirected_merges_reverse_duplicates() {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 1);
        b.add("b", "a", 1);
        let s = b.build().unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn indexed_mode_keeps_isolated_nodes() {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 10);
        b.add_indexed(0, 1, 0);
        b.add_indexed(1, 2, 4);
        let s = b.build().unwrap();
        assert_eq!(s.node_count(), 10);
        assert_eq!(s.label(NodeId(7)), "7");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indexed_mode_checks_bounds() {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 2);
        b.add_indexed(0, 2, 0);
    }

    #[test]
    #[should_panic(expected = "index-mode builder")]
    fn mixing_modes_panics() {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 2);
        b.add("a", "b", 0);
    }

    #[test]
    fn timestamp_groups_cover_all_events() {
        let mut b = LinkStreamBuilder::new(Directedness::Directed);
        b.add("a", "b", 1);
        b.add("b", "c", 1);
        b.add("c", "d", 4);
        let s = b.build().unwrap();
        let groups: Vec<(i64, usize)> =
            s.timestamp_groups().map(|(t, g)| (t.ticks(), g.len())).collect();
        assert_eq!(groups, vec![(1, 2), (4, 1)]);
        assert_eq!(s.distinct_timestamps(), 2);
    }

    #[test]
    fn stats_report_inter_contact_time() {
        // 2 nodes, 4 links over span 100 => 4 involvements per node
        // => inter-contact = 100 / 4 = 25
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        for t in [0, 30, 60, 100] {
            b.add("a", "b", t);
        }
        let s = b.build().unwrap();
        let st = s.stats();
        assert_eq!(st.links, 4);
        assert!((st.mean_inter_contact - 25.0).abs() < 1e-12);
    }

    #[test]
    fn restrict_keeps_nodes_and_sets_period() {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 0);
        b.add("b", "c", 10);
        b.add("c", "d", 20);
        b.add("d", "e", 30);
        let s = b.build().unwrap();

        let r = s.restrict(Time::new(8), Time::new(22)).unwrap();
        assert_eq!(r.len(), 2); // t = 10, 20
        assert_eq!(r.t_begin(), Time::new(8));
        assert_eq!(r.t_end(), Time::new(22));
        assert_eq!(r.node_count(), s.node_count()); // identities preserved
        assert_eq!(r.label(NodeId(4)), "e");

        // inverted, out-of-period and empty ranges
        assert!(s.restrict(Time::new(22), Time::new(8)).is_none());
        assert!(s.restrict(Time::new(-5), Time::new(10)).is_none());
        assert!(s.restrict(Time::new(11), Time::new(19)).is_none());
    }

    #[test]
    fn single_instant_stream_has_zero_span() {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 7);
        b.add("b", "c", 7);
        let s = b.build().unwrap();
        assert_eq!(s.span(), 0);
        assert_eq!(s.distinct_timestamps(), 1);
    }
}
