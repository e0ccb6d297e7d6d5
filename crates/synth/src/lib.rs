//! Synthetic link-stream generators.
//!
//! Two families reproduce Section 6 of the paper exactly:
//!
//! * [`TimeUniform`] — `N` links per node pair, timestamps uniform over
//!   `[0, T]` (Figure 6 left: γ is proportional to the mean inter-contact
//!   time);
//! * [`TwoMode`] — alternating high- and low-activity periods (Figure 6
//!   right: γ stays at the high-activity value until low activity dominates
//!   ~80% of the time).
//!
//! The third family, [`profiles`], synthesizes statistically analogous
//! stand-ins for the four real traces evaluated in Section 5 (UC Irvine
//! messages, Facebook wall posts, Enron emails, Manufacturing emails), which
//! cannot be downloaded in this offline environment: same node count, event
//! count, duration and directedness as published, with heavy-tailed node
//! activity, repeated ties, circadian + weekly rhythm, and reply bursts. See
//! DESIGN.md for the substitution rationale.
//!
//! ```
//! use saturn_synth::TimeUniform;
//!
//! let stream = TimeUniform { nodes: 10, links_per_pair: 4, span: 10_000, seed: 1 }
//!     .generate();
//! assert_eq!(stream.node_count(), 10);
//! // 45 pairs × 4 links (minus rare same-tick duplicates)
//! assert!(stream.len() > 170);
//! ```

#![forbid(unsafe_code)]

pub mod circadian;
pub mod contacts;
pub mod poisson;
pub mod profiles;
pub mod reply;
pub mod time_uniform;
pub mod two_mode;

pub use circadian::CircadianProfile;
pub use contacts::ContactModel;
pub use profiles::DatasetProfile;
pub use time_uniform::TimeUniform;
pub use two_mode::TwoMode;
