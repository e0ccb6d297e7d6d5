//! Weighted empirical distributions on `[0, 1]` and uniformity measures.
//!
//! The occupancy method compares, for every aggregation scale `Δ`, the
//! distribution of occupancy rates with the uniform density on `[0, 1]`
//! (Section 4 of the paper), and Section 7 studies five candidate measures of
//! "how uniformly spread" a distribution is. This crate provides:
//!
//! * [`SortedStream`] — what every metric reads: distinct values in
//!   ascending order with their weights. [`WeightedDist`] is one (an exact
//!   weighted empirical distribution with its survival function / inverse
//!   cumulative distribution, ICD); [`Ascending`] reads any ascending
//!   `(value, weight)` iterator as one without materializing it, with the
//!   same float results bit for bit (see the [`dist`] module docs),
//! * [`mk_distance_to_uniform`] / [`mk_proximity`] — the Monge–Kantorovich
//!   distance to the uniform density, computed in closed form,
//! * [`shannon_entropy`] and [`cumulative_residual_entropy`],
//! * weighted moments (mean, standard deviation, variation coefficient),
//! * [`SelectionMetric`] — the five selection methods of Section 7 behind a
//!   single scoring interface (higher score = more uniformly spread), and
//!   [`UniformityScores`] — all of their scores from one walk of the stream
//!   plus the two moment passes, bit-identical to each metric's own
//!   function.
//!
//! ```
//! use saturn_distrib::{WeightedDist, mk_proximity};
//!
//! // mass concentrated at 1 (total aggregation): far from uniform
//! let one = WeightedDist::from_pairs(vec![(1.0, 10)]);
//! // evenly spread mass: close to uniform
//! let spread = WeightedDist::from_pairs((1..=10).map(|i| (i as f64 / 10.0, 1)).collect());
//! assert!(mk_proximity(&spread) > mk_proximity(&one));
//! ```

#![forbid(unsafe_code)]

pub mod dist;
pub mod entropy;
pub mod mk;
pub mod moments;
pub mod uniformity;

pub use dist::{Ascending, SortedStream, WeightedDist};
pub use entropy::{cumulative_residual_entropy, shannon_entropy};
pub use mk::{mk_distance_to_uniform, mk_proximity};
pub use moments::{mean, std_dev, variation_coefficient};
pub use uniformity::{SelectionMetric, UniformityScores, SHANNON_SLOTS};
