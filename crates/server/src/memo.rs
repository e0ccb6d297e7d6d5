//! The parse memo: "key first, parse on miss" for the trace-body endpoints.
//!
//! A report is cached under a key built from the *canonical* digest of the
//! parsed stream ([`fingerprint::stream_digest`]), so two bodies listing the
//! same events in different line orders share it. Computing that digest
//! means parsing the whole body into a [`LinkStream`] and sorting its
//! labels and events: on a 32 KB, 2,400-line trace, about 0.7 ms for the
//! parse and 0.14 ms for the digest on one core, most of a cache hit's
//! round trip. Digesting the raw bytes takes about 0.016 ms.
//!
//! This memo maps `(directedness, raw body digest)` → canonical stream
//! digest, so a repeated body finds its cache key without being parsed,
//! and `/v1/analyze`, `/v1/validate` and `/v1/stats` parse only when they
//! have a job to run (or on the first sight of a body). It is a memo of a
//! pure function: [`read_str`](saturn_linkstream::io::read_str) depends only
//! on the bytes and the directedness, and `stream_digest` only on the
//! parsed stream, so an entry can never give a key the canonical path would
//! not. Content addressing is unchanged: a reordered body misses the memo
//! once, is parsed, and reaches the same cache entry.
//!
//! The table is fixed-size and direct-mapped: [`SLOTS`] slots of two
//! `u128`s (128 KiB), indexed by the top bits of the body key and allocated
//! zeroed, so its pages cost nothing until a slot is written. A slot holds
//! one body; a colliding body overwrites it, and the overwritten body is
//! parsed again the next time it comes. A lookup compares the full 128-bit
//! body key, so a slot never answers for another body. Bodies that fail to
//! parse are never recorded: they are parsed, and rejected, every time.

use crate::ApiError;
use saturn_core::fingerprint::{self, Digest};
use saturn_linkstream::{io as stream_io, Directedness, LinkStream};
use std::sync::{Mutex, PoisonError};

/// Slot count of the memo: 4096 × 32 bytes = 128 KiB.
pub const SLOTS: usize = 4096;

/// `(directedness, raw body digest)` → canonical stream digest, direct
/// mapped over [`SLOTS`] slots.
pub struct ParseMemo {
    /// `[body key, stream digest]` per slot; a body key of 0 marks an
    /// empty slot (and a body whose key is 0 is never recorded). A poisoned
    /// lock is recovered: every write replaces one whole slot, so the table
    /// is valid at every step.
    slots: Mutex<Box<[[u128; 2]]>>,
}

/// A body's canonical stream digest, and the stream itself when finding
/// the digest took a parse.
pub struct Resolved {
    /// [`fingerprint::stream_digest`] of the parsed body.
    pub stream_digest: u128,
    /// The parsed stream on a memo miss; `None` on a memo hit.
    pub stream: Option<LinkStream>,
}

impl Default for ParseMemo {
    fn default() -> Self {
        ParseMemo::new()
    }
}

impl ParseMemo {
    /// An empty memo of [`SLOTS`] slots.
    pub fn new() -> Self {
        // `vec!` of zeros allocates zeroed memory: no page is touched here
        ParseMemo { slots: Mutex::new(vec![[0u128; 2]; SLOTS].into_boxed_slice()) }
    }

    /// The slot a body key maps to: its top bits, the best mixed ones of
    /// the multiplicative hash lanes.
    fn slot(body_key: u128) -> usize {
        (body_key >> (128 - SLOTS.trailing_zeros())) as usize
    }

    /// The memoized stream digest of `body_key`, if its slot holds it.
    pub fn get(&self, body_key: u128) -> Option<u128> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let [key, digest] = slots[Self::slot(body_key)];
        (body_key != 0 && key == body_key).then_some(digest)
    }

    /// Records `body_key → stream_digest`, overwriting whatever body held
    /// the slot.
    pub fn insert(&self, body_key: u128, stream_digest: u128) {
        if body_key != 0 {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            slots[Self::slot(body_key)] = [body_key, stream_digest];
        }
    }

    /// The canonical stream digest of `body` read under `directedness`:
    /// from the memo, or by parsing the body and recording the result. A
    /// body that does not parse is a `400` and is not recorded.
    pub fn resolve(
        &self,
        body: &[u8],
        directedness: Directedness,
    ) -> Result<Resolved, ApiError> {
        let key = body_key(body, directedness);
        if let Some(stream_digest) = self.get(key) {
            return Ok(Resolved { stream_digest, stream: None });
        }
        let stream = parse_body(body, directedness)?;
        let stream_digest = fingerprint::stream_digest(&stream);
        self.insert(key, stream_digest);
        Ok(Resolved { stream_digest, stream: Some(stream) })
    }
}

/// The memo key of a raw body: its bytes and the directedness it is read
/// under.
pub fn body_key(body: &[u8], directedness: Directedness) -> u128 {
    let mut digest = Digest::new("saturn.body.v1");
    digest.write_u64((directedness == Directedness::Directed) as u64);
    digest.write_bytes(body);
    digest.finish()
}

/// Parses a trace body under `directedness`; a body that is not UTF-8 or
/// not a trace is a `400`.
pub fn parse_body(body: &[u8], directedness: Directedness) -> Result<LinkStream, ApiError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ApiError::new(400, "trace body is not UTF-8"))?;
    stream_io::read_str(text, directedness)
        .map_err(|e| ApiError::new(400, format!("trace body: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &[u8] = b"a b 1\nb c 5\nc a 9\n";

    #[test]
    fn the_table_is_128_kib() {
        assert_eq!(SLOTS * std::mem::size_of::<[u128; 2]>(), 128 << 10);
        assert_eq!(ParseMemo::new().slots.lock().unwrap().len(), SLOTS);
    }

    /// Keys whose top bits agree share a slot: the later one overwrites
    /// the earlier, and neither is ever answered with the other's digest.
    #[test]
    fn colliding_slots_overwrite_and_never_answer_for_another_body() {
        let memo = ParseMemo::new();
        let (a, b) = (1u128, 2u128);
        assert_eq!(ParseMemo::slot(a), ParseMemo::slot(b));
        memo.insert(a, 11);
        assert_eq!(memo.get(a), Some(11));
        assert_eq!(memo.get(b), None);
        memo.insert(b, 22);
        assert_eq!(memo.get(b), Some(22));
        assert_eq!(memo.get(a), None, "overwritten, not answered with b's digest");
        // keys in other slots are untouched
        let c = 3u128 << 120;
        assert_ne!(ParseMemo::slot(c), ParseMemo::slot(a));
        memo.insert(c, 33);
        assert_eq!((memo.get(b), memo.get(c)), (Some(22), Some(33)));
        // the empty-slot marker is never a hit
        assert_eq!(memo.get(0), None);
        memo.insert(0, 44);
        assert_eq!(memo.get(0), None);
    }

    /// Real bodies that share a slot: each resolves to its own digest,
    /// and the one overwritten is parsed again.
    #[test]
    fn colliding_bodies_each_resolve_to_their_own_digest() {
        let memo = ParseMemo::new();
        let body = |i: u32| format!("a b {i}\nb c {}\n", i + 7).into_bytes();
        let mut first_in_slot = std::collections::HashMap::new();
        let (x, y) = (0..)
            .find_map(|i| {
                let slot = ParseMemo::slot(body_key(&body(i), Directedness::Undirected));
                first_in_slot.insert(slot, i).map(|j| (j, i))
            })
            .expect("some two bodies share a slot");
        let canonical = |i: u32| {
            let text = String::from_utf8(body(i)).unwrap();
            fingerprint::stream_digest(
                &stream_io::read_str(&text, Directedness::Undirected).unwrap(),
            )
        };
        assert_ne!(canonical(x), canonical(y));
        for i in [x, y, x, y] {
            let resolved = memo.resolve(&body(i), Directedness::Undirected).unwrap();
            assert_eq!(resolved.stream_digest, canonical(i));
            assert!(resolved.stream.is_some(), "each evicts the other, so each parses");
        }
        let resolved = memo.resolve(&body(y), Directedness::Undirected).unwrap();
        assert!(resolved.stream.is_none(), "the slot's last body is a memo hit");
    }

    #[test]
    fn an_entry_is_the_canonical_stream_digest() {
        let memo = ParseMemo::new();
        for directedness in [Directedness::Undirected, Directedness::Directed] {
            let text = std::str::from_utf8(TRACE).unwrap();
            let want =
                fingerprint::stream_digest(&stream_io::read_str(text, directedness).unwrap());
            let first = memo.resolve(TRACE, directedness).unwrap();
            assert!(first.stream.is_some(), "first sight parses");
            assert_eq!(first.stream_digest, want);
            assert_eq!(memo.get(body_key(TRACE, directedness)), Some(want));
            let again = memo.resolve(TRACE, directedness).unwrap();
            assert!(again.stream.is_none(), "a repeat is served from the memo");
            assert_eq!(again.stream_digest, want);
        }
        assert_ne!(
            body_key(TRACE, Directedness::Undirected),
            body_key(TRACE, Directedness::Directed)
        );
    }

    #[test]
    fn bodies_that_do_not_parse_are_never_recorded() {
        let memo = ParseMemo::new();
        for body in [&b"a b\n"[..], &[0xff, 0xfe, b' ', b'1', b'\n'][..]] {
            for _ in 0..2 {
                let e = memo.resolve(body, Directedness::Undirected).err().expect("400");
                assert_eq!((e.status, e.code), (400, "bad_request"));
            }
            assert_eq!(memo.get(body_key(body, Directedness::Undirected)), None);
        }
    }
}
