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

    /// Mixes a string (length-prefixed, so `("ab", "c")` and `("a", "bc")`
    /// digest differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Mixes words split by [`str_words`] into both lanes.
    fn write_words(&mut self, words: &[u64]) {
        for &word in words {
            self.write_u64(word);
        }
    }

    /// Mixes raw bytes, length-prefixed like [`write_str`](Self::write_str)
    /// (a string digests the same as its bytes). Input need not be UTF-8:
    /// the server digests request bodies before it parses them.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.a.write(bytes);
        self.b.write(bytes);
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
///
/// The canonical event order is `(t, label_u, label_v)`, with undirected
/// pairs normalized label-lexicographically (id order `u <= v` depends on
/// interning). Labels are sorted once and each event is ordered by its
/// endpoints' label ranks, which order exactly as the labels do; the
/// stream is already time-sorted, so only the events of one instant are
/// sorted together. Each label's [`Digest::write_str`] words are split
/// once and replayed per event.
pub fn stream_digest(stream: &LinkStream) -> u128 {
    let mut d = Digest::new("saturn.stream.v1");
    d.write_u64(stream.is_directed() as u64);
    d.write_u64(stream.node_count() as u64);
    let labels = stream.labels();
    let mut by_label: Vec<u32> = (0..labels.len() as u32).collect();
    by_label.sort_unstable_by(|&a, &b| labels[a as usize].cmp(&labels[b as usize]));
    // `rank[id]` is the label's position in byte order; the rank-`r`
    // label's words are `words[starts[r]..starts[r + 1]]`
    let mut rank = vec![0u32; labels.len()];
    let mut words = Vec::new();
    let mut starts = Vec::with_capacity(labels.len() + 1);
    for (r, &id) in by_label.iter().enumerate() {
        rank[id as usize] = r as u32;
        starts.push(words.len());
        str_words(&labels[id as usize], &mut words);
        d.write_words(&words[starts[r]..]);
    }
    starts.push(words.len());
    let label_words = |r: u64| &words[starts[r as usize]..starts[r as usize + 1]];
    d.write_i64(stream.t_begin().ticks());
    d.write_i64(stream.t_end().ticks());
    d.write_u64(stream.dropped_self_loops() as u64);
    d.write_u64(stream.dropped_duplicates() as u64);
    d.write_u64(stream.len() as u64);
    let mut pairs = Vec::new();
    for group in stream.events().chunk_by(|a, b| a.t == b.t) {
        pairs.clear();
        pairs.extend(group.iter().map(|link| {
            let (mut a, mut b) = (rank[link.u.index()], rank[link.v.index()]);
            if !stream.is_directed() && a > b {
                std::mem::swap(&mut a, &mut b);
            }
            (a as u64) << 32 | b as u64
        }));
        pairs.sort_unstable();
        let t = group[0].t.ticks();
        for &pair in &pairs {
            d.write_i64(t);
            d.write_words(label_words(pair >> 32));
            d.write_words(label_words(pair & u64::from(u32::MAX)));
        }
    }
    d.finish()
}

/// Appends the words [`Digest::write_str`] mixes for `s`: its length, then
/// its bytes as little-endian 8-byte words, the last one zero-padded (the
/// Fx lanes' own chunking). Replaying them with `write_words` digests
/// exactly like `write_str(s)`.
fn str_words(s: &str, out: &mut Vec<u64>) {
    out.push(s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        out.push(u64::from_le_bytes(word));
    }
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
    use proptest::prelude::*;
    use saturn_linkstream::{io, Directedness, LinkStreamBuilder};

    /// The digest as first specified: labels and `(t, label_u, label_v)`
    /// events sorted as strings, every label written with `write_str`.
    fn string_sorted_digest(stream: &LinkStream) -> u128 {
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

    /// Labels of every shape the word split must handle: empty, under,
    /// at and over 8 bytes, multi-byte UTF-8, and prefixes of each other
    /// (so rank order and byte order must agree on them).
    const LABELS: [&str; 12] = [
        "",
        "a",
        "b",
        "ab",
        "n7",
        "node-001",
        "node-0010",
        "a-much-longer-label-x",
        "é",
        "日本",
        "ünïcödé-label",
        "\u{1F600}",
    ];

    #[test]
    fn str_words_replay_write_str() {
        for label in LABELS.iter().copied().chain(["12345678", "1234567", "123456789"]) {
            let mut words = Vec::new();
            str_words(label, &mut words);
            let mut replayed = Digest::new("saturn.test.v1");
            replayed.write_words(&words);
            let mut direct = Digest::new("saturn.test.v1");
            direct.write_str(label);
            assert_eq!(replayed.finish(), direct.finish(), "label {label:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The rank-ordered digest equals the string-sorted one on random
        /// streams of both directednesses, with duplicates and self-loops
        /// dropped at build time.
        #[test]
        fn stream_digest_equals_the_string_sorted_digest(
            events in proptest::collection::vec((0usize..12, 0usize..12, 0i64..40), 1..120),
            directed in any::<bool>(),
        ) {
            let dir = if directed { Directedness::Directed } else { Directedness::Undirected };
            let mut b = LinkStreamBuilder::new(dir);
            for &(u, v, t) in &events {
                b.add(LABELS[u], LABELS[v], t);
            }
            // a stream of self-loops only does not build
            let Ok(stream) = b.build() else { continue };
            prop_assert_eq!(stream_digest(&stream), string_sorted_digest(&stream));
        }
    }

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

    /// Pinned like the stream and request digests: the server's parse memo
    /// keys raw request bodies with [`Digest::write_bytes`], and a string
    /// digests the same as its bytes (so [`Digest::write_str`], under every
    /// pinned digest above, cannot move without this one moving too).
    #[test]
    fn byte_digests_are_pinned() {
        let body: &[u8] = b"a b 1\nb c 5\nc a 9\n";
        let bytes = |domain: &str, body: &[u8]| {
            let mut d = Digest::new(domain);
            d.write_bytes(body);
            d.finish()
        };
        assert_eq!(
            hex(bytes("saturn.body.v1", body)),
            "ef12933df70bb76c5f663b66fa144880",
            "byte digest moved"
        );
        let mut d = Digest::new("saturn.body.v1");
        d.write_str(std::str::from_utf8(body).unwrap());
        assert_eq!(d.finish(), bytes("saturn.body.v1", body), "str and bytes disagree");
        // length-prefixed: the split point of two writes shows
        let mut ab_c = Digest::new("saturn.body.v1");
        ab_c.write_bytes(b"ab");
        ab_c.write_bytes(b"c");
        let mut a_bc = Digest::new("saturn.body.v1");
        a_bc.write_bytes(b"a");
        a_bc.write_bytes(b"bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
        // bytes that are not UTF-8 digest like any others
        assert_ne!(
            bytes("saturn.body.v1", &[0xff, 0xfe]),
            bytes("saturn.body.v1", &[0xfe, 0xff])
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
