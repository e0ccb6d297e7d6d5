//! Minimal trips of the raw link stream `L`, one target-column tile at a
//! time.
//!
//! Running the earliest-arrival DP on the *exact* timeline (one step per
//! distinct timestamp) yields the minimal trips of the original stream. They
//! serve two purposes in Section 8 of the paper: the two-hop ones are the
//! *shortest transitions* (loss measure, Figure 8 left), and the per-pair
//! trip lists are the reference against which aggregated trips are compared
//! by the *elongation factor* (Figure 8 right).
//!
//! A reference covers one column tile of the [`TargetSet`], stored CSR-style
//! by (column, source). Aggregated trips toward `v` only meet reference trips
//! toward `v`, so a sweep can score every scale against one tile's reference
//! and drop it before the next: memory grows with the tile, not the stream.
//! The tiles partition the untiled reference exactly, transitions included.

use crate::{
    earliest_arrival_dp_in, CancelToken, Cancelled, DpRun, EngineArena, ShortestTransitions,
    TargetSet, Timeline,
};
use saturn_linkstream::LinkStream;

/// The minimal trips of a link stream toward one column tile of a
/// [`TargetSet`], plus the tile's shortest transitions.
#[derive(Clone, Debug)]
pub struct StreamTrips {
    /// Node count, the sources per column.
    n: usize,
    tile: (u32, u32),
    /// `u`'s trips toward the tile's `c`-th column: `offsets[c·n + u]..`.
    offsets: Vec<usize>,
    /// `(departure tick, arrival tick)`, ascending in both within a pair (its
    /// minimal trips nest like a staircase).
    trips: Vec<(i64, i64)>,
    /// The two-hop minimal trips, weighted by their number of middle nodes.
    pub transitions: ShortestTransitions,
}

impl StreamTrips {
    /// The column tile `(col_start, col_len)` this reference covers.
    pub fn tile(&self) -> (u32, u32) {
        self.tile
    }

    /// The minimal trips from `u` toward the destination of target column
    /// `col` (with [`TargetSet::all`], column and node coincide), if `col`
    /// lies in the tile and the pair has any.
    pub fn pair(&self, u: u32, col: u32) -> Option<&[(i64, i64)]> {
        let c = col.checked_sub(self.tile.0).filter(|&c| c < self.tile.1)?;
        let bucket = c as usize * self.n + u as usize;
        let trips = &self.trips[self.offsets[bucket]..self.offsets[bucket + 1]];
        (!trips.is_empty()).then_some(trips)
    }

    /// Number of minimal trips in the tile.
    pub fn total_trips(&self) -> u64 {
        self.trips.len() as u64
    }
}

/// A stream prepared for reference runs, once per sweep: its
/// [`Timeline::exact`] and, to weigh shortest transitions, every arc
/// `(u, t, v)` (both ways when undirected), sorted for middle-node lookups.
#[derive(Clone, Debug)]
pub struct ExactStream {
    timeline: Timeline,
    arcs: Option<Vec<(u32, i64, u32)>>,
}

impl ExactStream {
    /// Prepares `stream`. With `weighted_transitions`, a two-hop trip counts
    /// with its number of middle nodes (the multiset of Definition 6), else
    /// once, which only rescales the loss curve.
    pub fn new(stream: &LinkStream, weighted_transitions: bool) -> Self {
        let arcs = weighted_transitions.then(|| {
            let mut arcs = Vec::with_capacity(stream.len() * 2);
            for l in stream.events() {
                let (u, v, t) = (l.u.raw(), l.v.raw(), l.t.ticks());
                arcs.push((u, t, v));
                if !stream.is_directed() {
                    arcs.push((v, t, u));
                }
            }
            arcs.sort_unstable();
            arcs
        });
        ExactStream { timeline: Timeline::exact(stream), arcs }
    }

    /// The weight of two-hop trip `(u, v, t1, t2)`: the arcs `(u, b, t1)`,
    /// `b != v`, continued by an arc `(b, v, t2)`.
    fn weight(&self, u: u32, v: u32, t1: i64, t2: i64) -> u64 {
        let Some(arcs) = &self.arcs else { return 1 };
        let from = &arcs[arcs.partition_point(|&arc| arc < (u, t1, 0))..];
        let hops = from.iter().take_while(|&&(a, t, _)| (a, t) == (u, t1));
        let mids = hops.filter(|&&(_, _, b)| b != v && arcs.binary_search(&(b, t2, v)).is_ok());
        let weight = mids.count() as u64;
        debug_assert!(weight >= 1, "a 2-hop minimal trip must have a middle node");
        weight.max(1)
    }

    /// The minimal trips toward target columns `tile = (col_start, col_len)`,
    /// from the exact-timeline DP in `arena`. A fired `cancel` returns
    /// [`Cancelled`].
    pub fn tile_trips(
        &self,
        arena: &mut EngineArena,
        targets: &TargetSet,
        tile: (u32, u32),
        cancel: Option<&CancelToken>,
    ) -> Result<StreamTrips, Cancelled> {
        let n = self.timeline.n() as usize;
        let tick = |step| self.timeline.tick_of(step).expect("exact timeline");
        // per-bucket counts (then offsets), `(bucket, dep, arr)` steps in
        // report order, and the two-hop `(u, v, t1, t2)` to weigh
        let mut offsets = vec![0; n * tile.1 as usize + 1];
        let (mut raw, mut two_hop) = (Vec::new(), Vec::new());
        let mut sink = |u: u32, v: u32, dep: u32, arr: u32, hops: u32| {
            let col = targets.col_of(v).expect("trips end at targets") - tile.0;
            let bucket = col as usize * n + u as usize;
            offsets[bucket] += 1;
            raw.push((bucket, dep, arr));
            if hops == 2 {
                two_hop.push((u, v, tick(dep), tick(arr)));
            }
        };
        let run = DpRun { tile: Some(tile), cancel, ..Default::default() };
        earliest_arrival_dp_in(arena, &self.timeline, targets, &mut sink, run);
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(Cancelled);
        }

        // bucket ends, then fill back to front: departures arrive descending,
        // so buckets come out ascending and `offsets[b]` ends at their start
        offsets.iter_mut().fold(0, |end, offset| {
            *offset += end;
            *offset
        });
        let mut trips = vec![(0, 0); raw.len()];
        for (bucket, dep, arr) in raw {
            offsets[bucket] -= 1;
            trips[offsets[bucket]] = (tick(dep), tick(arr));
        }
        let mut transitions = ShortestTransitions::default();
        for (u, v, t1, t2) in two_hop {
            transitions.push(t1, t2, self.weight(u, v, t1, t2));
        }
        Ok(StreamTrips { n, tile, offsets, trips, transitions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{io, Directedness};

    /// Every minimal trip of `s`, as one tile over all columns.
    fn stream_minimal_trips(
        s: &LinkStream,
        targets: &TargetSet,
        weighted: bool,
    ) -> StreamTrips {
        let (exact, all) = (ExactStream::new(s, weighted), (0, targets.len() as u32));
        exact.tile_trips(&mut EngineArena::new(), targets, all, None).unwrap()
    }

    #[test]
    fn chain_produces_expected_trips() {
        // a-b@1, b-c@5: minimal trips include (a,c,1,5) with 2 hops.
        let s = io::read_str("a b 1\nb c 5\n", Directedness::Undirected).unwrap();
        let trips = stream_minimal_trips(&s, &TargetSet::all(3), true);
        assert_eq!(trips.pair(0, 2), Some(&[(1i64, 5i64)][..]));
        assert_eq!(trips.transitions.len(), 1);
        assert_eq!(trips.transitions.items[0].weight, 1);
        // single-link trips exist too
        assert_eq!(trips.pair(0, 1), Some(&[(1i64, 1i64)][..]));
        // no c -> a trip
        assert!(trips.pair(2, 0).is_none());
    }

    #[test]
    fn multiplicity_counts_middle_nodes() {
        // two middle nodes b, d: a-b@0, a-d@0, b-c@5, d-c@5
        let s = io::read_str("a b 0\na d 0\nb c 5\nd c 5\n", Directedness::Undirected).unwrap();
        let trips = stream_minimal_trips(&s, &TargetSet::all(4), true);
        let tr: Vec<_> =
            trips.transitions.items.iter().filter(|t| (t.t1, t.t2) == (0, 5)).collect();
        // the (a,c,0,5) trip has weight 2; (b,d)/(d,b) trips via a->? ...
        // check at least the a->c one carries weight 2
        assert!(tr.iter().any(|t| t.weight == 2), "transitions: {tr:?}");
    }

    #[test]
    fn unweighted_mode_counts_once() {
        let s = io::read_str("a b 0\na d 0\nb c 5\nd c 5\n", Directedness::Undirected).unwrap();
        let w = stream_minimal_trips(&s, &TargetSet::all(4), true);
        let u = stream_minimal_trips(&s, &TargetSet::all(4), false);
        assert_eq!(w.transitions.len(), u.transitions.len());
        assert!(w.transitions.total_weight > u.transitions.total_weight);
    }

    #[test]
    fn pair_lists_are_ascending_staircases() {
        let s = io::read_str(
            "a b 0\nb c 2\na b 10\nb c 12\na b 20\nb c 30\n",
            Directedness::Undirected,
        )
        .unwrap();
        let trips = stream_minimal_trips(&s, &TargetSet::all(3), false);
        let ac = trips.pair(0, 2).unwrap();
        assert!(ac.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        // trips: dep 0 -> arr 2, dep 10 -> arr 12, dep 20 -> arr 30
        assert_eq!(ac, &[(0, 2), (10, 12), (20, 30)]);
    }

    #[test]
    fn same_instant_links_cannot_form_transitions() {
        let s = io::read_str("a b 5\nb c 5\n", Directedness::Undirected).unwrap();
        let trips = stream_minimal_trips(&s, &TargetSet::all(3), true);
        assert!(trips.pair(0, 2).is_none());
        assert!(trips.transitions.is_empty());
    }

    #[test]
    fn directed_transitions_follow_arrows() {
        let s = io::read_str("a b 0\nc b 5\n", Directedness::Directed).unwrap();
        // a->b then b has no outgoing link: no a->? transition; c->b@5 only.
        let trips = stream_minimal_trips(&s, &TargetSet::all(3), true);
        assert!(trips.transitions.is_empty());
        assert!(trips.pair(0, 2).is_none());
    }

    /// A seeded random stream of `links` links among `n` nodes over `[0, 300)`.
    fn random_stream(
        seed: u64,
        n: u32,
        links: usize,
        directedness: Directedness,
    ) -> LinkStream {
        let mut state = seed;
        let mut next = move |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut b = saturn_linkstream::LinkStreamBuilder::indexed(directedness, n);
        for _ in 0..links {
            let u = next(n as u64) as u32;
            let v = (u + 1 + next(n as u64 - 1) as u32) % n;
            b.add_indexed(u, v, next(300) as i64);
        }
        b.build().unwrap()
    }

    /// Every `(source, destination, departure, arrival)` trip of `trips`, and
    /// its transitions as sorted `(t1, t2, weight)`, checking the staircase
    /// order of every pair on the way.
    fn contents(
        trips: &StreamTrips,
        targets: &TargetSet,
        n: u32,
    ) -> (Vec<[i64; 4]>, Vec<[i64; 3]>) {
        let (start, len) = trips.tile();
        let mut all = Vec::new();
        for col in start..start + len {
            for u in 0..n {
                let pair = trips.pair(u, col).unwrap_or_default();
                assert!(pair.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
                let v = targets.node_of(col) as i64;
                all.extend(pair.iter().map(|&(d, a)| [u as i64, v, d, a]));
            }
        }
        let mut transitions: Vec<_> =
            trips.transitions.items.iter().map(|t| [t.t1, t.t2, t.weight as i64]).collect();
        transitions.sort_unstable();
        (all, transitions)
    }

    #[test]
    fn tiles_partition_the_untiled_reference() {
        for (seed, directedness) in [(1, Directedness::Undirected), (2, Directedness::Directed)]
        {
            let s = random_stream(seed, 11, 160, directedness);
            for targets in [TargetSet::all(11), TargetSet::sample(11, 6, seed)] {
                for weighted in [true, false] {
                    let exact = ExactStream::new(&s, weighted);
                    let mut arena = EngineArena::new();
                    let whole = stream_minimal_trips(&s, &targets, weighted);
                    let (want, mut want_tr) = contents(&whole, &targets, 11);
                    want_tr.sort_unstable();
                    assert!(!want.is_empty() && !want_tr.is_empty());
                    for width in [1, 2, 3, targets.len()] {
                        let (mut got, mut got_tr) = (Vec::new(), Vec::new());
                        let mut total = 0;
                        for tile in targets.tile_ranges(width) {
                            let part =
                                exact.tile_trips(&mut arena, &targets, tile, None).unwrap();
                            assert_eq!(part.tile(), tile);
                            total += part.total_trips();
                            let (trips, transitions) = contents(&part, &targets, 11);
                            got.extend(trips);
                            got_tr.extend(transitions);
                        }
                        got_tr.sort_unstable();
                        assert_eq!(total, whole.total_trips());
                        assert_eq!(got, want, "seed {seed}, width {width}");
                        assert_eq!(got_tr, want_tr, "seed {seed}, width {width}");
                        let weight: u64 = got_tr.iter().map(|t| t[2] as u64).sum();
                        assert_eq!(weight, whole.transitions.total_weight);
                    }
                }
            }
        }
    }

    #[test]
    fn a_fired_token_cancels_the_reference() {
        let s = random_stream(3, 8, 100, Directedness::Undirected);
        let token = CancelToken::new();
        token.cancel();
        let targets = TargetSet::all(8);
        let run = ExactStream::new(&s, true).tile_trips(
            &mut EngineArena::new(),
            &targets,
            (0, 8),
            Some(&token),
        );
        assert!(run.is_err());
    }
}
