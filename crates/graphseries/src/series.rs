//! The aggregated graph series `G_Δ`.

use crate::{Snapshot, SnapshotMeans};
use saturn_linkstream::{Directedness, LinkStream, WindowPartition};
use serde::Serialize;

/// The series `G_Δ = (G_1, ..., G_K)` obtained by aggregating a link stream
/// on `K` disjoint windows of equal length `Δ = T/K` (Definition 1).
///
/// Only non-empty snapshots are materialized (a series with millions of
/// windows at fine scales would otherwise be dominated by empty graphs); each
/// is stored with its window index. [`GraphSeries::snapshot_at`] treats
/// missing windows as empty graphs over the same node set.
#[derive(Clone, Debug, Serialize)]
pub struct GraphSeries {
    partition: WindowPartition,
    n: u32,
    directedness: Directedness,
    /// `(window_index, snapshot)` for non-empty windows, ascending.
    snapshots: Vec<(u64, Snapshot)>,
}

impl GraphSeries {
    /// Aggregates `stream` over `k` equal windows.
    ///
    /// # Panics
    /// Panics if `k` is invalid for the stream's study period (zero, or
    /// `k > 1` for a zero-length period); use
    /// [`LinkStream::partition`] to validate `k` beforehand when it comes
    /// from untrusted input.
    pub fn aggregate(stream: &LinkStream, k: u64) -> Self {
        let partition =
            stream.partition(k).expect("invalid window count for this stream's study period");
        let n = stream.node_count() as u32;
        let snapshots = partition
            .window_slices(stream)
            .map(|(w, links)| (w, Snapshot::from_links(n, stream.directedness(), links)))
            .collect();
        GraphSeries { partition, n, directedness: stream.directedness(), snapshots }
    }

    /// The window partition that produced the series.
    pub fn partition(&self) -> &WindowPartition {
        &self.partition
    }

    /// Number of windows `K` (including empty ones).
    pub fn k(&self) -> u64 {
        self.partition.k()
    }

    /// Window length `Δ` in ticks.
    pub fn delta_ticks(&self) -> f64 {
        self.partition.delta_ticks()
    }

    /// Number of nodes of every graph of the series.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Orientation inherited from the stream.
    pub fn directedness(&self) -> Directedness {
        self.directedness
    }

    /// Number of non-empty snapshots.
    pub fn non_empty(&self) -> usize {
        self.snapshots.len()
    }

    /// Iterates over `(window_index, snapshot)` for non-empty windows, in
    /// ascending window order.
    pub fn snapshots(&self) -> impl Iterator<Item = (u64, &Snapshot)> {
        self.snapshots.iter().map(|(w, s)| (*w, s))
    }

    /// The snapshot of window `w`, or `None` if that window is empty.
    pub fn snapshot_at(&self, w: u64) -> Option<&Snapshot> {
        self.snapshots
            .binary_search_by_key(&w, |(wi, _)| *wi)
            .ok()
            .map(|i| &self.snapshots[i].1)
    }

    /// The means of the per-snapshot statistics over the non-empty
    /// snapshots ([`SnapshotMeans::of_windows`]).
    pub fn means(&self) -> SnapshotMeans {
        let windows = self.snapshots().map(|(_, s)| s.edges().iter().copied());
        SnapshotMeans::of_windows(
            self.n,
            self.directedness,
            self.k(),
            self.delta_ticks(),
            windows,
        )
    }

    /// Total number of edges `M = Σ_k |E_k|` over the whole series — the `M`
    /// of the paper's `O(nM)` complexity statement.
    pub fn total_edges(&self) -> usize {
        self.snapshots.iter().map(|(_, s)| s.edge_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{Directedness, LinkStreamBuilder};

    fn stream() -> LinkStream {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 0);
        b.add("a", "b", 1); // same pair, same window at Δ=5 -> dedup in E_1
        b.add("b", "c", 2);
        b.add("c", "d", 7);
        b.add("a", "d", 10);
        b.build().unwrap()
    }

    #[test]
    fn aggregate_dedups_within_window() {
        let s = stream();
        let g = GraphSeries::aggregate(&s, 2); // Δ = 5: [0,5) and [5,10]
        assert_eq!(g.k(), 2);
        assert_eq!(g.non_empty(), 2);
        let w0 = g.snapshot_at(0).unwrap();
        assert_eq!(w0.edge_count(), 2); // ab (deduped), bc
        let w1 = g.snapshot_at(1).unwrap();
        assert_eq!(w1.edge_count(), 2); // cd, ad
        assert_eq!(g.total_edges(), 4);
    }

    #[test]
    fn total_aggregation_is_one_static_graph() {
        let s = stream();
        let g = GraphSeries::aggregate(&s, 1);
        assert_eq!(g.k(), 1);
        assert_eq!(g.non_empty(), 1);
        assert_eq!(g.snapshot_at(0).unwrap().edge_count(), 4); // ab, bc, cd, ad
    }

    #[test]
    fn empty_windows_are_skipped_but_indexed() {
        let s = stream();
        let g = GraphSeries::aggregate(&s, 11); // Δ = 10/11 < 1: one event per window at most
        assert!(g.non_empty() <= 5);
        assert!(g.snapshot_at(5).is_none() || g.snapshot_at(5).unwrap().edge_count() > 0);
        // every snapshot's window index is < k
        assert!(g.snapshots().all(|(w, _)| w < g.k()));
    }

    #[test]
    fn finest_scale_one_event_per_window() {
        let s = stream();
        // Δ = 1 tick: K = span = 10
        let g = GraphSeries::aggregate(&s, 10);
        // events at t=0,1,2,7,10; t=10 clamps into window 9 with... t=7 -> w7
        assert_eq!(g.total_edges(), 5);
        assert_eq!(g.snapshot_at(0).unwrap().edge_count(), 1);
    }

    #[test]
    fn node_set_is_fixed_across_snapshots() {
        let s = stream();
        let g = GraphSeries::aggregate(&s, 3);
        for (_, snap) in g.snapshots() {
            assert_eq!(snap.n(), 4);
        }
    }
}
