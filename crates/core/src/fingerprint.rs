//! Content-addressed fingerprints of link streams and analysis requests.
//!
//! The long-lived analysis service caches serialized reports keyed by *what
//! was asked of which data*: the canonical event set (the stream is a set of
//! `(u, v, t)` triplets sorted by `(t, u, v)` with duplicates and self-loops
//! removed at build time), its directedness and study period, and the request
//! parameters that influence the result (grid, target spec, sweep knobs).
//! Two requests with the same key are guaranteed the same report — the sweep
//! is deterministic across thread counts (see `core/tests/determinism.rs`) —
//! so a cache hit can be served byte-identically without touching the engine.
//!
//! Keys are 128-bit: two independently seeded [`FxHasher`] streams over the
//! same input words. Fx is not cryptographic; this is a cache key for a
//! trusted deployment, not an integrity check, and 128 bits make accidental
//! collisions astronomically unlikely at any realistic cache population.

use crate::{SweepGrid, TargetSpec};
use rustc_hash::FxHasher;
use saturn_linkstream::LinkStream;
use std::hash::Hasher;

/// Domain-separation constant mixed into the second hash lane so the two
/// 64-bit halves of a key never collapse to the same function.
const LANE_B_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A 128-bit content digest accumulator (two seeded Fx lanes).
#[derive(Clone)]
pub struct Digest {
    a: FxHasher,
    b: FxHasher,
}

impl Digest {
    /// Starts a digest in `domain` (a short static tag keeping digests of
    /// different kinds — streams, analyze requests, validate requests — in
    /// disjoint key spaces).
    pub fn new(domain: &str) -> Self {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        b.write_u64(LANE_B_SEED);
        a.write(domain.as_bytes());
        b.write(domain.as_bytes());
        Digest { a, b }
    }

    /// Mixes one unsigned word into both lanes.
    pub fn write_u64(&mut self, word: u64) {
        self.a.write_u64(word);
        self.b.write_u64(word);
    }

    /// Mixes one signed word into both lanes.
    pub fn write_i64(&mut self, word: i64) {
        self.write_u64(word as u64);
    }

    /// Mixes a 128-bit key (e.g. a nested [`stream_digest`]) into both
    /// lanes.
    pub fn write_u128(&mut self, key: u128) {
        self.write_u64((key >> 64) as u64);
        self.write_u64(key as u64);
    }

    /// Mixes a byte string (length-prefixed, so `("ab", "c")` and
    /// `("a", "bc")` digest differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.a.write(s.as_bytes());
        self.b.write(s.as_bytes());
    }

    /// Finalizes the 128-bit key.
    pub fn finish(self) -> u128 {
        ((self.a.finish() as u128) << 64) | self.b.finish() as u128
    }
}

/// Canonical content digest of a stream: directedness, node labels, study
/// period, build-time drop counters, and every event. The digest is taken
/// over *labels*, not interned node ids, with labels and events put into a
/// canonical order first — node numbering depends on the order labels first
/// appear in the input, so two files listing the same triplets in different
/// line orders still share a digest. That is what makes report caching
/// *content*-addressed rather than byte-addressed.
///
/// The drop counters are included because they are part of the observable
/// stats surface (`saturn stats` reports them), so inputs differing only in
/// discarded rows stay distinguishable.
pub fn stream_digest(stream: &LinkStream) -> u128 {
    let mut d = Digest::new("saturn.stream.v1");
    d.write_u64(stream.is_directed() as u64);
    d.write_u64(stream.node_count() as u64);
    let mut labels: Vec<&str> = stream.labels().iter().map(String::as_str).collect();
    labels.sort_unstable();
    for label in labels {
        d.write_str(label);
    }
    d.write_i64(stream.t_begin().ticks());
    d.write_i64(stream.t_end().ticks());
    d.write_u64(stream.dropped_self_loops() as u64);
    d.write_u64(stream.dropped_duplicates() as u64);
    d.write_u64(stream.len() as u64);
    // canonical event order: (t, label_u, label_v), with undirected pairs
    // normalized label-lexicographically (id-order `u <= v` is
    // interning-dependent)
    let mut events: Vec<(i64, &str, &str)> = stream
        .events()
        .iter()
        .map(|link| {
            let (mut a, mut b) = (stream.label(link.u), stream.label(link.v));
            if !stream.is_directed() && a > b {
                std::mem::swap(&mut a, &mut b);
            }
            (link.t.ticks(), a, b)
        })
        .collect();
    events.sort_unstable();
    for (t, a, b) in events {
        d.write_i64(t);
        d.write_str(a);
        d.write_str(b);
    }
    d.finish()
}

/// Mixes a sweep grid into a digest.
pub fn write_grid(d: &mut Digest, grid: &SweepGrid) {
    match grid {
        SweepGrid::Geometric { points } => {
            d.write_u64(1);
            d.write_u64(*points as u64);
        }
        SweepGrid::Linear { points } => {
            d.write_u64(2);
            d.write_u64(*points as u64);
        }
        SweepGrid::ExplicitK(ks) => {
            d.write_u64(3);
            d.write_u64(ks.len() as u64);
            for &k in ks {
                d.write_u64(k);
            }
        }
    }
}

/// Mixes a target spec into a digest.
pub fn write_targets(d: &mut Digest, targets: &TargetSpec) {
    match *targets {
        TargetSpec::All => d.write_u64(1),
        TargetSpec::Sample { size, seed } => {
            d.write_u64(2);
            d.write_u64(size as u64);
            d.write_u64(seed);
        }
    }
}

/// Lower-hex rendering of a key (stable across runs; suitable as an HTTP
/// cache identifier).
pub fn hex(key: u128) -> String {
    format!("{key:032x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{io, Directedness};

    #[test]
    fn same_content_same_digest_across_input_noise() {
        let a = io::read_str("a b 1\nb c 5\n", Directedness::Undirected).unwrap();
        // KONECT layout, reordered lines, comments — same canonical content
        let b = io::read_str("% hdr\nb c 9 5\na b 4 1\n", Directedness::Undirected).unwrap();
        assert_eq!(stream_digest(&a), stream_digest(&b));
    }

    #[test]
    fn content_changes_change_the_digest() {
        let base = io::read_str("a b 1\nb c 5\n", Directedness::Undirected).unwrap();
        let shifted = io::read_str("a b 1\nb c 6\n", Directedness::Undirected).unwrap();
        let directed = io::read_str("a b 1\nb c 5\n", Directedness::Directed).unwrap();
        let relabeled = io::read_str("a b 1\nb d 5\n", Directedness::Undirected).unwrap();
        let with_dup = io::read_str("a b 1\na b 1\nb c 5\n", Directedness::Undirected).unwrap();
        let d0 = stream_digest(&base);
        assert_ne!(d0, stream_digest(&shifted));
        assert_ne!(d0, stream_digest(&directed));
        assert_ne!(d0, stream_digest(&relabeled));
        // same canonical events, but the duplicate is an observable stat
        assert_ne!(d0, stream_digest(&with_dup));
    }

    #[test]
    fn request_parameters_separate_keys() {
        let s = io::read_str("a b 1\nb c 5\n", Directedness::Undirected).unwrap();
        let key = |points: usize, targets: &TargetSpec| {
            let mut d = Digest::new("saturn.analyze.v1");
            d.write_u128(stream_digest(&s));
            write_grid(&mut d, &SweepGrid::Geometric { points });
            write_targets(&mut d, targets);
            d.finish()
        };
        let all = TargetSpec::All;
        let sampled = TargetSpec::Sample { size: 8, seed: 3 };
        assert_ne!(key(16, &all), key(24, &all));
        assert_ne!(key(16, &all), key(16, &sampled));
        assert_ne!(key(16, &sampled), key(16, &TargetSpec::Sample { size: 8, seed: 4 }));
    }

    /// Pinned key values: the report cache survives engine reworks only if
    /// fingerprints never move (a moved key silently invalidates every
    /// cached report and breaks cold/cached byte-identity guarantees made
    /// to clients). These constants were recorded when the digest scheme
    /// was introduced; an engine or digest change that shifts them must be
    /// a deliberate, versioned decision (bump the domain tags), not an
    /// accident — this test makes the accident loud. Execution knobs
    /// (`tile`, `threads`, executors, session caches) must never feed
    /// these digests.
    #[test]
    fn fingerprints_are_pinned() {
        let s = io::read_str("a b 1\nb c 5\nc a 9\n", Directedness::Undirected).unwrap();
        assert_eq!(
            hex(stream_digest(&s)),
            "99bdfba880adc220837ee81b786ac528",
            "stream digest moved"
        );
        let mut d = Digest::new("saturn.analyze.v1");
        d.write_u128(stream_digest(&s));
        write_grid(&mut d, &SweepGrid::Geometric { points: 16 });
        write_targets(&mut d, &TargetSpec::All);
        assert_eq!(
            hex(d.finish()),
            "1d8eaee1c57818b6acd707e5584443d1",
            "analyze request digest moved"
        );
    }

    #[test]
    fn domains_are_disjoint_and_hex_is_stable() {
        let mut a = Digest::new("saturn.analyze.v1");
        let mut v = Digest::new("saturn.validate.v1");
        a.write_u64(7);
        v.write_u64(7);
        let (ka, kv) = (a.finish(), v.finish());
        assert_ne!(ka, kv);
        assert_eq!(hex(ka).len(), 32);
        assert_eq!(hex(ka), hex(ka));
    }
}
