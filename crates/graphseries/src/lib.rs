//! Snapshot graphs and aggregation of link streams into graph series.
//!
//! This crate implements Definition 1 of the paper: given a link stream `L`
//! over a study period of length `T` and an integer `K >= 1`, the aggregated
//! series `G_Δ` (with `Δ = T/K`) consists of the `K` graphs
//! `G_k = (V, E_k)` where `E_k` holds every pair `{u, v}` linked at least
//! once inside window `k`.
//!
//! It also provides the *classical* per-snapshot statistics whose smooth,
//! featureless variation with `Δ` motivates the occupancy method (Figure 2
//! and Section 3 of the paper): density, mean degree, number of non-isolated
//! vertices and size of the largest connected component. Each is defined
//! once, behind [`Snapshot`]'s methods, and [`SnapshotMeans::of_windows`]
//! averages them over any sequence of deduplicated edge windows: the
//! snapshots of a [`GraphSeries`] ([`GraphSeries::means`]), or the steps of
//! a timeline a sweep has already built, so a sweep aggregates each scale
//! once.
//!
//! ```
//! use saturn_linkstream::{Directedness, LinkStreamBuilder};
//! use saturn_graphseries::GraphSeries;
//!
//! let mut b = LinkStreamBuilder::new(Directedness::Undirected);
//! b.add("a", "b", 0);
//! b.add("b", "c", 4);
//! b.add("a", "c", 9);
//! let stream = b.build().unwrap();
//!
//! let series = GraphSeries::aggregate(&stream, 3); // Δ = 3 ticks
//! assert_eq!(series.k(), 3);
//! assert_eq!(series.non_empty(), 3);
//! assert_eq!(series.total_edges(), 3);
//! ```

#![forbid(unsafe_code)]

pub mod metrics;
pub mod series;
pub mod snapshot;
pub mod union_find;

pub use metrics::SnapshotMeans;
pub use series::GraphSeries;
pub use snapshot::Snapshot;
pub use union_find::UnionFind;
