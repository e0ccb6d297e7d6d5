//! Temporal paths, minimal trips and occupancy rates.
//!
//! This crate implements the computational heart of the occupancy method
//! (Léo, Crespelle, Fleury, CoNEXT 2015): the backward dynamic program that
//! enumerates, in `O(nM)` time, all *minimal trips* of a graph series or of a
//! raw link stream, together with their durations and minimum hop counts
//! (Section 5 of the paper).
//!
//! # Concepts (Definitions 2–8 of the paper)
//!
//! * A **temporal path** is a sequence of edges that chains endpoints and
//!   occurs at *strictly increasing* steps — two links of the same snapshot
//!   (or the same instant) can never be chained (Remark 1).
//! * A **trip** `(u, v, t_dep, t_arr)` exists when some temporal path leaves
//!   `u` and reaches `v` entirely within `[t_dep, t_arr]`; it is **minimal**
//!   when no trip between the same nodes fits in a strictly smaller interval.
//! * The **occupancy rate** of a minimal trip is `hops/duration` — the
//!   fraction of its time steps spent moving rather than waiting.
//! * A **shortest transition** is a two-hop temporal path realizing a minimal
//!   trip; the fraction of them falling inside a single aggregation window is
//!   the loss measure of Section 8, and the **elongation factor** compares
//!   each aggregated minimal trip with the fastest underlying trip of the
//!   original stream.
//!
//! # Entry points
//!
//! * [`Timeline`] — a prepared step sequence, either
//!   [`aggregated`](Timeline::aggregated) (windows of `G_Δ`) or
//!   [`exact`](Timeline::exact) (distinct timestamps of `L`);
//! * [`earliest_arrival_dp`] — the generic engine, feeding minimal trips to a
//!   [`TripSink`];
//! * [`occupancy_histogram`], [`distance_means_in`], [`ExactStream`],
//!   [`elongation_sums_in`] — the high-level analyses built on the engine;
//! * [`reference`](mod@reference) — small brute-force implementations used to validate the
//!   engine in tests.
//!
//! ```
//! use saturn_linkstream::{Directedness, LinkStreamBuilder};
//! use saturn_trips::{occupancy_histogram, TargetSet};
//!
//! let mut b = LinkStreamBuilder::new(Directedness::Undirected);
//! b.add("a", "b", 0);
//! b.add("b", "c", 5);
//! b.add("c", "d", 9);
//! let stream = b.build().unwrap();
//!
//! // Aggregate over K = 10 windows and collect all minimal-trip occupancy rates.
//! let hist = occupancy_histogram(&stream, 10, &TargetSet::all(4));
//! assert!(hist.total_trips() > 0);
//! ```

pub mod cancel;
pub mod distances;
pub mod dp;
pub mod elongation;
pub mod occupancy;
pub mod reference;
pub mod stream_trips;
pub mod target;
pub mod timeline;
pub mod transitions;

pub use cancel::{CancelToken, Cancelled};
pub use distances::{distance_means_in, DistanceMeans};
pub use dp::{
    earliest_arrival_dp, earliest_arrival_dp_in, DpOptions, DpRun, DpStats, EngineArena,
    TripSink, CANCEL_STRIDE,
};
pub use elongation::{elongation_sums_in, ElongationStats, ElongationSums};
pub use occupancy::{
    occupancy_histogram, occupancy_histogram_in, OccupancyHistogram, RateCounter,
};
pub use stream_trips::{ExactStream, StreamTrips};
pub use target::TargetSet;
pub use timeline::{EventView, StepView, Timeline};
pub use transitions::{
    lost_transition_fraction, lost_transition_weight, ShortestTransitions, Transition,
};
