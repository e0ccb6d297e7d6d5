//! The occupancy method: automatic detection of the saturation scale of a
//! link stream.
//!
//! This crate is the paper's primary contribution (Léo, Crespelle, Fleury,
//! *Non-Altering Time Scales for Aggregation of Dynamic Networks into Series
//! of Graphs*, CoNEXT 2015). Given a link stream, it determines the
//! **saturation scale γ**: the largest aggregation period `Δ` such that the
//! series of graphs `G_Δ` still faithfully describes the propagation
//! properties of the original stream. Aggregating with `Δ > γ` alters
//! propagation (transitions become unordered inside windows); `Δ <= γ`
//! mostly preserves it.
//!
//! The method is fully automatic and parameter-free: for each candidate `Δ`
//! it computes the distribution of occupancy rates of all minimal trips of
//! `G_Δ` and selects the `Δ` whose distribution is maximally spread over
//! `[0, 1]`, detected as the maximum Monge–Kantorovich proximity to the
//! uniform density distribution.
//!
//! ```
//! use saturn_core::{OccupancyMethod, SweepGrid};
//! use saturn_linkstream::{Directedness, LinkStreamBuilder};
//!
//! // A toy stream: regular activity every 10 ticks.
//! let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 6);
//! for i in 0..60i64 {
//!     b.add_indexed((i % 6) as u32, ((i + 1) % 6) as u32, i * 10);
//! }
//! let stream = b.build().unwrap();
//!
//! let report = OccupancyMethod::new()
//!     .grid(SweepGrid::Geometric { points: 24 })
//!     .threads(1)
//!     .run(&stream);
//! let gamma = report.gamma().expect("non-degenerate stream");
//! assert!(gamma.delta_ticks > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod classic;
pub mod control;
pub mod fingerprint;
pub mod grid;
pub mod heterogeneity;
pub mod method;
pub mod parallel;
pub mod report;
pub mod selection;
pub mod validation;

pub use classic::{classic_sweep, ClassicPoint};
pub use control::{
    json_trace_from_env, JsonTraceObserver, SweepControl, SweepObserver, SweepProgress,
    TileSpan,
};
pub use grid::SweepGrid;
pub use heterogeneity::{
    heterogeneous_analysis, segment_activity, ActivityClass, ActivitySegment,
    HeterogeneityConfig, HeterogeneityReport,
};
pub use method::{
    histogram_scores, DeltaResult, KeepPolicy, OccupancyMethod, RefreshStats, SweepCache,
    TargetSpec, UniformityScores,
};
pub use parallel::WorkerPool;
pub use report::{GammaResult, OccupancyReport};
pub use saturn_trips::{CancelToken, Cancelled};
pub use selection::{compare_selection_methods, SelectionComparison};
pub use validation::{validation_sweep, ValidationOptions, ValidationPoint, ValidationReport};
