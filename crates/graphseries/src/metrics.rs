//! Means of the classical per-snapshot statistics over a series (Figure 2).
//!
//! The paper's Section 3 shows that these quantities vary smoothly with the
//! aggregation period and therefore cannot reveal the saturation scale — they
//! are reproduced here both as the baseline the occupancy method is compared
//! against and as generally useful series descriptors.
//!
//! Means are taken over the **non-empty** snapshots of the series (at fine
//! scales almost all windows are empty and would otherwise drown the
//! statistics; the paper's reported minima — e.g. a largest component of 2.3
//! nodes for Irvine at Δ = 1s — are only consistent with this convention).
//!
//! Each statistic is defined once, on [`Snapshot`](crate::Snapshot)'s
//! side; [`SnapshotMeans::of_windows`] is the one implementation of their
//! means.

use crate::snapshot::{connectivity, density, mean_degree};
use crate::UnionFind;
use saturn_linkstream::Directedness;
use serde::Serialize;

/// Mean per-snapshot statistics of an aggregated series at one scale `Δ`.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SnapshotMeans {
    /// Number of windows `K` of the series.
    pub k: u64,
    /// Window length `Δ` in ticks.
    pub delta_ticks: f64,
    /// Number of non-empty snapshots the means are taken over.
    pub non_empty: usize,
    /// Total number of distinct edges `M` over the series.
    pub total_edges: usize,
    /// Mean snapshot density.
    pub mean_density: f64,
    /// Mean snapshot degree (over all `n` nodes).
    pub mean_degree: f64,
    /// Mean number of non-isolated vertices per snapshot.
    pub mean_non_isolated: f64,
    /// Mean size of the largest connected component per snapshot.
    pub mean_largest_component: f64,
}

impl SnapshotMeans {
    /// The means over the non-empty windows of a `k`-window series over `n`
    /// nodes, each given as its distinct edges, in ascending window order
    /// (the sums are taken in that order). One versioned [`UnionFind`]
    /// serves every window. [`GraphSeries::means`](crate::GraphSeries::means)
    /// feeds it materialized snapshots; a sweep can feed it the steps of a
    /// timeline it has already built.
    pub fn of_windows<W: IntoIterator<Item = (u32, u32)>>(
        n: u32,
        directedness: Directedness,
        k: u64,
        delta_ticks: f64,
        windows: impl IntoIterator<Item = W>,
    ) -> Self {
        let mut uf = UnionFind::new(n as usize);
        let (mut non_empty, mut total_edges) = (0usize, 0usize);
        let (mut density_sum, mut degree_sum) = (0.0f64, 0.0f64);
        let (mut non_isolated_sum, mut largest_sum) = (0.0f64, 0.0f64);
        for edges in windows {
            let c = connectivity(&mut uf, edges);
            non_empty += 1;
            total_edges += c.edges;
            density_sum += density(n, directedness, c.edges);
            degree_sum += mean_degree(n, c.edges);
            non_isolated_sum += c.non_isolated as f64;
            largest_sum += c.largest_component as f64;
        }
        let d = non_empty.max(1) as f64;
        SnapshotMeans {
            k,
            delta_ticks,
            non_empty,
            total_edges,
            mean_density: density_sum / d,
            mean_degree: degree_sum / d,
            mean_non_isolated: non_isolated_sum / d,
            mean_largest_component: largest_sum / d,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphSeries;
    use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};

    fn stream() -> LinkStream {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 0);
        b.add("b", "c", 1);
        b.add("c", "d", 6);
        b.add("d", "e", 8);
        b.add("a", "e", 10);
        b.build().unwrap()
    }

    #[test]
    fn total_aggregation_values() {
        let s = stream();
        let m = GraphSeries::aggregate(&s, 1).means();
        assert_eq!(m.non_empty, 1);
        // one pentagon over 5 nodes: density 5/10, degree 2, all 5 non-isolated, lcc 5
        assert!((m.mean_density - 0.5).abs() < 1e-12);
        assert!((m.mean_degree - 2.0).abs() < 1e-12);
        assert_eq!(m.mean_non_isolated, 5.0);
        assert_eq!(m.mean_largest_component, 5.0);
    }

    #[test]
    fn density_grows_with_delta() {
        let s = stream();
        let fine = GraphSeries::aggregate(&s, 10).means();
        let coarse = GraphSeries::aggregate(&s, 1).means();
        assert!(fine.mean_density < coarse.mean_density);
        assert!(fine.mean_largest_component < coarse.mean_largest_component);
    }
}
