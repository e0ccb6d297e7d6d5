//! Link-stream substrate for saturation-scale analysis.
//!
//! A *link stream* is a finite collection of triplets `(u, v, t)` meaning that
//! nodes `u` and `v` share a link at time `t` (Léo, Crespelle, Fleury,
//! CoNEXT 2015). This crate provides the foundational data model used by the
//! rest of the workspace:
//!
//! * [`Time`] — integer-tick timestamps (discrete time; continuous time is
//!   represented by choosing a fine enough tick resolution),
//! * [`NodeId`] / [`NodeInterner`] — dense node identifiers and label mapping,
//! * [`Link`] — one `(u, v, t)` triplet,
//! * [`LinkStream`] / [`LinkStreamBuilder`] — the validated, time-sorted
//!   stream container,
//! * [`WindowPartition`] — the exact `Δ = T/K` partition of the study period
//!   into `K` equal disjoint windows (Definition 1 of the paper),
//! * [`io`] — plain-text and KONECT-style parsers and writers.
//!
//! # Quick example
//!
//! ```
//! use saturn_linkstream::{Directedness, LinkStreamBuilder};
//!
//! let mut b = LinkStreamBuilder::new(Directedness::Undirected);
//! b.add("a", "b", 0);
//! b.add("b", "c", 3);
//! b.add("c", "d", 7);
//! let stream = b.build().unwrap();
//! assert_eq!(stream.node_count(), 4);
//! assert_eq!(stream.len(), 3);
//! assert_eq!(stream.span(), 7);
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod event;
pub mod interval;
pub mod io;
pub mod node;
pub mod stream;
pub mod time;
pub mod windows;

pub use error::{BuildError, ParseError};
pub use event::Link;
pub use interval::{IntervalLink, IntervalStream, IntervalStreamBuilder};
pub use node::{NodeId, NodeInterner};
pub use stream::{check_span, Directedness, LinkStream, LinkStreamBuilder, StreamStats};
pub use time::Time;
pub use windows::WindowPartition;
