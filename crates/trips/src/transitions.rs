//! Shortest transitions and the lost-transition loss measure (Section 8).
//!
//! A *transition* is a two-hop temporal path `((a, b, t1), (b, c, t2))`; it
//! is a *shortest transition* when `(a, c, t1, t2)` is a minimal trip of the
//! link stream (Definition 6). Shortest transitions are the elementary units
//! of propagation: if every shortest transition survives aggregation, every
//! minimal trip does, and the propagation possibilities of the stream are
//! unchanged.
//!
//! A shortest transition is *lost* at scale `Δ` exactly when its two hops
//! fall inside the same aggregation window (the order of the two links is
//! then erased). The fraction of lost shortest transitions as a function of
//! `Δ` is the paper's first validation measure (Figure 8, left).

use saturn_linkstream::{Time, WindowPartition};
use serde::Serialize;

/// One shortest transition, reduced to what the loss measure needs: its two
/// hop instants and its multiplicity (number of distinct middle nodes
/// realizing the same minimal trip).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Transition {
    /// Instant of the first hop.
    pub t1: i64,
    /// Instant of the second hop (`t1 < t2`).
    pub t2: i64,
    /// Number of two-hop paths with these instants realizing the trip.
    pub weight: u64,
}

/// All shortest transitions of a link stream.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ShortestTransitions {
    /// The transitions, in no particular order.
    pub items: Vec<Transition>,
    /// Sum of the weights.
    pub total_weight: u64,
}

impl ShortestTransitions {
    /// Adds a transition.
    pub fn push(&mut self, t1: i64, t2: i64, weight: u64) {
        debug_assert!(t1 < t2, "a transition chains strictly increasing instants");
        self.items.push(Transition { t1, t2, weight });
        self.total_weight += weight;
    }

    /// Number of distinct `(t1, t2)` transition records.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the stream has no shortest transition.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Weight of the shortest transitions whose two hops fall inside one window
/// of `partition` — the transitions that no longer exist in `G_Δ`.
pub fn lost_transition_weight(
    transitions: &ShortestTransitions,
    partition: &WindowPartition,
) -> u64 {
    transitions
        .items
        .iter()
        .filter(|tr| partition.index(Time::new(tr.t1)) == partition.index(Time::new(tr.t2)))
        .map(|tr| tr.weight)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_fraction_counts_same_window_pairs() {
        let mut tr = ShortestTransitions::default();
        tr.push(0, 1, 1); // windows at Δ=5 over [0,10]: both in w0 -> lost
        tr.push(2, 7, 2); // w0 and w1 -> kept
        tr.push(6, 9, 1); // both w1 -> lost
        let p = WindowPartition::new(Time::new(0), Time::new(10), 2).unwrap();
        assert_eq!((lost_transition_weight(&tr, &p), tr.total_weight), (2, 4));
    }

    #[test]
    fn finest_partition_loses_nothing() {
        let mut tr = ShortestTransitions::default();
        tr.push(0, 1, 1);
        tr.push(3, 9, 1);
        let p = WindowPartition::new(Time::new(0), Time::new(10), 10).unwrap();
        assert_eq!(lost_transition_weight(&tr, &p), 0);
    }

    #[test]
    fn total_aggregation_loses_everything() {
        let mut tr = ShortestTransitions::default();
        tr.push(0, 1, 1);
        tr.push(3, 9, 4);
        let p = WindowPartition::new(Time::new(0), Time::new(10), 1).unwrap();
        assert_eq!(lost_transition_weight(&tr, &p), tr.total_weight);
    }

    #[test]
    fn empty_transitions_lose_nothing() {
        let tr = ShortestTransitions::default();
        let p = WindowPartition::new(Time::new(0), Time::new(10), 2).unwrap();
        assert_eq!(lost_transition_weight(&tr, &p), 0);
    }
}
