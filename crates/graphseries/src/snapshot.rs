//! One aggregated graph `G_k = (V, E_k)`.

use saturn_linkstream::{Directedness, Link};
use serde::Serialize;

use crate::UnionFind;

/// A static graph over the fixed node set `V = 0..n`, holding the distinct
/// edges observed in one aggregation window.
///
/// Edges are stored sorted and deduplicated; in an undirected snapshot every
/// edge satisfies `u <= v`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Snapshot {
    n: u32,
    directedness: Directedness,
    edges: Vec<(u32, u32)>,
}

impl Snapshot {
    /// Builds a snapshot from the raw link events of one window, removing
    /// duplicate pairs (Definition 1 keeps each pair at most once).
    pub fn from_links(n: u32, directedness: Directedness, links: &[Link]) -> Self {
        let mut edges: Vec<(u32, u32)> = links.iter().map(|l| (l.u.raw(), l.v.raw())).collect();
        edges.sort_unstable();
        edges.dedup();
        Snapshot { n, directedness, edges }
    }

    /// Builds a snapshot directly from deduplicated edge pairs.
    ///
    /// # Panics
    /// Panics in debug builds if the pairs are not sorted/deduplicated or
    /// contain an endpoint `>= n`.
    pub fn from_edges(n: u32, directedness: Directedness, edges: Vec<(u32, u32)>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must be sorted+dedup");
        debug_assert!(edges.iter().all(|&(u, v)| u < n && v < n), "endpoint out of range");
        Snapshot { n, directedness, edges }
    }

    /// Number of nodes `n` (the fixed node set of the series).
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Orientation inherited from the stream.
    pub fn directedness(&self) -> Directedness {
        self.directedness
    }

    /// The distinct edges, sorted.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Number of distinct edges `|E_k|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Graph density: `m / (n(n-1))` if directed, `2m / (n(n-1))` if
    /// undirected. Zero for graphs with fewer than two nodes.
    pub fn density(&self) -> f64 {
        density(self.n, self.directedness, self.edge_count())
    }

    /// Mean degree over **all** `n` nodes (isolated ones included). Each edge
    /// contributes to both endpoints, so this is `2m/n` — the paper notes it
    /// equals density up to the factor `n - 1`.
    pub fn mean_degree(&self) -> f64 {
        mean_degree(self.n, self.edge_count())
    }

    /// Number of nodes incident to at least one edge.
    pub fn non_isolated(&self) -> usize {
        self.connectivity().non_isolated
    }

    /// Size (node count) of the largest connected component, using weak
    /// connectivity for directed snapshots. An empty snapshot has a largest
    /// component of size 1 when `n > 0` (an isolated vertex), 0 otherwise.
    pub fn largest_component(&self) -> usize {
        self.connectivity().largest_component
    }

    fn connectivity(&self) -> Connectivity {
        connectivity(&mut UnionFind::new(self.n as usize), self.edges.iter().copied())
    }

    /// Whether the given (oriented as stored) edge is present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        let key = if self.directedness.is_directed() || u <= v { (u, v) } else { (v, u) };
        self.edges.binary_search(&key).is_ok()
    }
}

/// Density of a snapshot over `n` nodes with `m` distinct edges (see
/// [`Snapshot::density`]).
pub(crate) fn density(n: u32, directedness: Directedness, m: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let pairs = n as f64 * (n as f64 - 1.0);
    match directedness {
        Directedness::Directed => m as f64 / pairs,
        Directedness::Undirected => 2.0 * m as f64 / pairs,
    }
}

/// Mean degree of a snapshot over `n` nodes with `m` distinct edges (see
/// [`Snapshot::mean_degree`]).
pub(crate) fn mean_degree(n: u32, m: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    2.0 * m as f64 / n as f64
}

/// The connectivity statistics of one snapshot.
pub(crate) struct Connectivity {
    /// Number of edges read.
    pub(crate) edges: usize,
    /// See [`Snapshot::non_isolated`].
    pub(crate) non_isolated: usize,
    /// See [`Snapshot::largest_component`].
    pub(crate) largest_component: usize,
}

/// The connectivity of the snapshot over `uf`'s nodes whose distinct edges
/// are `edges`, on `uf` (reset first, so one forest serves every window of
/// a series).
pub(crate) fn connectivity(
    uf: &mut UnionFind,
    edges: impl IntoIterator<Item = (u32, u32)>,
) -> Connectivity {
    uf.reset();
    let (mut m, mut largest) = (0, u32::from(!uf.is_empty()));
    for (u, v) in edges {
        m += 1;
        uf.union(u, v);
        largest = largest.max(uf.component_size(u));
    }
    Connectivity { edges: m, non_isolated: uf.touched(), largest_component: largest as usize }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{NodeId, Time};

    fn link(u: u32, v: u32) -> Link {
        Link::new(NodeId(u), NodeId(v), Time::new(0))
    }

    #[test]
    fn from_links_dedups() {
        let s = Snapshot::from_links(
            4,
            Directedness::Undirected,
            &[link(0, 1), link(0, 1), link(2, 3)],
        );
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.edges(), &[(0, 1), (2, 3)]);
    }

    #[test]
    fn density_undirected_and_directed() {
        // 4 nodes, 3 edges
        let e = vec![(0, 1), (1, 2), (2, 3)];
        let und = Snapshot::from_edges(4, Directedness::Undirected, e.clone());
        assert!((und.density() - 3.0 / 6.0).abs() < 1e-12);
        let dir = Snapshot::from_edges(4, Directedness::Directed, e);
        assert!((dir.density() - 3.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sizes() {
        let s = Snapshot::from_edges(0, Directedness::Undirected, vec![]);
        assert_eq!(s.density(), 0.0);
        assert_eq!(s.mean_degree(), 0.0);
        assert_eq!(s.largest_component(), 0);
        let s1 = Snapshot::from_edges(1, Directedness::Undirected, vec![]);
        assert_eq!(s1.largest_component(), 1);
    }

    #[test]
    fn connectivity_metrics() {
        // components: {0,1,2}, {3,4}, {5} isolated; n = 6
        let s = Snapshot::from_edges(6, Directedness::Undirected, vec![(0, 1), (1, 2), (3, 4)]);
        assert_eq!(s.non_isolated(), 5);
        assert_eq!(s.largest_component(), 3);
        assert!((s.mean_degree() - 6.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn directed_uses_weak_connectivity() {
        let s = Snapshot::from_edges(3, Directedness::Directed, vec![(0, 1), (2, 1)]);
        assert_eq!(s.largest_component(), 3); // 0 -> 1 <- 2 weakly connected
    }

    #[test]
    fn has_edge_handles_orientation() {
        let und = Snapshot::from_edges(3, Directedness::Undirected, vec![(0, 2)]);
        assert!(und.has_edge(0, 2));
        assert!(und.has_edge(2, 0));
        let dir = Snapshot::from_edges(3, Directedness::Directed, vec![(0, 2)]);
        assert!(dir.has_edge(0, 2));
        assert!(!dir.has_edge(2, 0));
    }
}
