//! Durable disk spill tier under the in-memory report LRU: crash-safe,
//! content-addressed report persistence with corruption recovery.
//!
//! Each cached report body is spilled to `<cache-dir>/<key:032x>.rpt`, where
//! `key` is the same 128-bit request fingerprint that addresses the memory
//! tier — the hierarchy stays content-addressed end to end, so a disk entry
//! can never serve the wrong body for a fingerprint (a mismatched name is
//! treated as corruption and quarantined). The on-disk format is a fixed
//! 44-byte header (magic, key, body length, checksum) followed by the raw
//! body bytes; the checksum is the crate's dual-lane Fx digest over the key,
//! the length, and the body, so any single-byte flip anywhere in the file is
//! detected (each Fx absorb step is a bijection of hasher state, so one
//! differing word always yields a differing digest).
//!
//! # Durability
//!
//! Writes are crash-safe: body bytes are encoded into a `.tmp-*` file in the
//! cache directory, `fsync`ed, then atomically renamed into place (followed
//! by a best-effort directory fsync). A crash at any point leaves either the
//! complete old state or the complete new state, plus possibly a `.tmp-*`
//! file that the startup recovery scan deletes as torn.
//!
//! The tier's in-memory index of which keys are on disk is the same
//! byte-weighted `Lru` the [memory tier](crate::cache) uses, storing `()`
//! per key weighted by its file length (header included): a lookup hit
//! refreshes the key's recency, and whenever the index outgrows the disk
//! budget — after a write, or after the startup scan — the least recently
//! used entries are deleted until it fits.
//!
//! Spills are asynchronous: [`DiskTier::enqueue`] pushes onto a bounded
//! queue drained by one `saturn-spill` writer thread, so request and
//! executor threads never wait on disk I/O. The writer holds only a `Weak`
//! reference and exits on its own when the tier is dropped;
//! [`DiskTier::flush`] waits (bounded) for the queue to drain, which the
//! server's drain path calls so accepted work is durable before exit.
//!
//! # Degradation ladder
//!
//! *disk-ok → memory-only → recovery.* Any real I/O failure (ENOSPC, EIO,
//! permission) increments `saturn_cache_disk_errors_total` and trips a
//! circuit breaker: the tier goes **memory-only** — lookups miss and writes
//! drop, both without touching the disk — and a single probe is re-admitted
//! after a capped exponential backoff (100ms doubling to 5s). One probe
//! success closes the breaker. No request ever fails because of the disk
//! tier; it only loses durability until the disk recovers.
//!
//! Corruption is *not* an I/O error: a checksum, length, magic, or key
//! mismatch on read (or during the startup [recovery scan](DiskTier::open))
//! quarantines the entry — the file is deleted,
//! `saturn_cache_disk_corrupt_total` is incremented, and the lookup reports
//! a miss. Torn `.tmp-*` files found at startup count as corrupt too.

use crate::cache::Lru;
use crate::faults::FaultPlan;
use crate::metrics::Metrics;
use saturn_core::fingerprint::Digest;
use serde::Serialize;
use std::collections::VecDeque;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// File magic for spill entries ("Saturn Spill Persist v1").
const MAGIC: [u8; 4] = *b"SSP1";

/// Fixed header: 4 magic + 16 key + 8 body length + 16 checksum, all
/// little-endian.
pub const HEADER_LEN: usize = 44;

/// Domain string separating the spill checksum from every other fingerprint
/// use in the workspace.
const CHECKSUM_DOMAIN: &str = "saturn.spill.v1";

/// Extension of committed entries; anything else in the dir is foreign.
const ENTRY_EXT: &str = "rpt";

/// Bounded spill queue: beyond this, new spills are dropped (the entry
/// simply stays memory-only — losing a spill is always safe).
const MAX_QUEUE: usize = 1024;

/// Circuit-breaker backoff bounds.
const BREAKER_BASE: Duration = Duration::from_millis(100);
const BREAKER_MAX: Duration = Duration::from_secs(5);

/// Why a spill file failed to decode. Every variant is detected before any
/// byte of the body can be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Shorter than the fixed header.
    TooShort,
    /// Magic bytes are not `MAGIC` (`SSP1`).
    BadMagic,
    /// Header body length disagrees with the actual byte count.
    LengthMismatch,
    /// Stored checksum disagrees with the recomputed digest.
    ChecksumMismatch,
}

/// Digest over the logical entry content (key, length, body). The body is
/// absorbed in zero-padded 8-byte little-endian words so the padding cannot
/// alias across length boundaries (length is absorbed first).
fn checksum(key: u128, body: &[u8]) -> u128 {
    let mut digest = Digest::new(CHECKSUM_DOMAIN);
    digest.write_u128(key);
    digest.write_u64(body.len() as u64);
    for chunk in body.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        digest.write_u64(u64::from_le_bytes(word));
    }
    digest.finish()
}

/// Encodes one entry as header + body bytes.
pub fn encode_entry(key: u128, body: &[u8]) -> Vec<u8> {
    let mut blob = Vec::with_capacity(HEADER_LEN + body.len());
    blob.extend_from_slice(&MAGIC);
    blob.extend_from_slice(&key.to_le_bytes());
    blob.extend_from_slice(&(body.len() as u64).to_le_bytes());
    blob.extend_from_slice(&checksum(key, body).to_le_bytes());
    blob.extend_from_slice(body);
    blob
}

/// Decodes and verifies one entry, returning the key and a view of the body.
pub fn decode_entry(blob: &[u8]) -> Result<(u128, &[u8]), DecodeError> {
    if blob.len() < HEADER_LEN {
        return Err(DecodeError::TooShort);
    }
    if blob[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let key = u128::from_le_bytes(blob[4..20].try_into().unwrap());
    let body_len = u64::from_le_bytes(blob[20..28].try_into().unwrap());
    let stored = u128::from_le_bytes(blob[28..44].try_into().unwrap());
    let body = &blob[HEADER_LEN..];
    if body_len != body.len() as u64 {
        return Err(DecodeError::LengthMismatch);
    }
    if checksum(key, body) != stored {
        return Err(DecodeError::ChecksumMismatch);
    }
    Ok((key, body))
}

/// Snapshot of the disk tier for `/v1/health`, read from the same atomics
/// `/v1/metrics` exports.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DiskStats {
    /// Entries currently indexed on disk.
    pub entries: usize,
    /// Bytes resident on disk (headers included).
    pub bytes: usize,
    /// Configured disk budget in bytes.
    pub capacity_bytes: usize,
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that found nothing on disk.
    pub misses: u64,
    /// Entries durably written.
    pub writes: u64,
    /// Entries evicted for space.
    pub evictions: u64,
    /// Entries quarantined as torn/corrupt/oversize.
    pub corrupt: u64,
    /// I/O failures (each trips the breaker).
    pub errors: u64,
    /// Whether the breaker is currently open (memory-only mode).
    pub degraded: bool,
}

/// Circuit breaker guarding all disk I/O. `degraded` is the lock-free fast
/// path; the mutex holds the backoff schedule.
#[derive(Debug)]
struct Breaker {
    degraded: AtomicBool,
    state: Mutex<BreakerState>,
}

#[derive(Debug)]
struct BreakerState {
    retry_at: Option<Instant>,
    backoff: Duration,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            degraded: AtomicBool::new(false),
            state: Mutex::new(BreakerState { retry_at: None, backoff: BREAKER_BASE }),
        }
    }

    /// Whether this operation may touch the disk. While degraded, admits a
    /// single probe once the backoff deadline passes (and pushes the
    /// deadline forward so concurrent callers don't stampede).
    fn admit(&self) -> bool {
        if !self.degraded.load(Ordering::Relaxed) {
            return true;
        }
        let mut state = self.state.lock().unwrap();
        match state.retry_at {
            Some(at) if Instant::now() >= at => {
                // Admit one probe; the next is gated behind a fresh window.
                state.retry_at = Some(Instant::now() + state.backoff);
                true
            }
            _ => false,
        }
    }

    /// A disk operation succeeded: close the breaker and reset the backoff.
    fn success(&self) {
        if self.degraded.swap(false, Ordering::Relaxed) {
            let mut state = self.state.lock().unwrap();
            state.retry_at = None;
            state.backoff = BREAKER_BASE;
        }
    }

    /// A disk operation failed: open (or keep open) the breaker and double
    /// the capped backoff.
    fn failure(&self) {
        self.degraded.store(true, Ordering::Relaxed);
        let mut state = self.state.lock().unwrap();
        state.retry_at = Some(Instant::now() + state.backoff);
        state.backoff = (state.backoff * 2).min(BREAKER_MAX);
    }

    fn is_open(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }
}

/// State shared between the tier and its writer thread: the pending spill
/// queue plus an in-flight flag so `flush` can wait for the entry the
/// writer has already popped.
#[derive(Debug, Default)]
struct SpillQueue {
    pending: VecDeque<(u128, Arc<str>)>,
    in_flight: bool,
}

/// The disk spill tier. Owned by [`crate::cache::ReportCache`] behind an
/// `Arc`; the writer thread holds only a `Weak` and exits when the cache
/// drops the tier.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    capacity_bytes: usize,
    /// Which keys are on disk, weighted by file length, in recency order.
    index: Mutex<Lru<()>>,
    breaker: Breaker,
    queue: Mutex<SpillQueue>,
    queue_cv: Condvar,
    metrics: Arc<Metrics>,
    faults: Option<Arc<FaultPlan>>,
    nonce: AtomicU64,
}

impl DiskTier {
    /// Opens (creating if needed) the spill directory, verifies it is
    /// writable, replays the recovery scan, and starts the writer thread.
    ///
    /// Unwritable directories are a *startup* error (`serve` fails fast);
    /// I/O errors after this point only degrade the tier.
    pub fn open(
        dir: &Path,
        capacity_bytes: usize,
        metrics: Arc<Metrics>,
        faults: Option<Arc<FaultPlan>>,
    ) -> io::Result<Arc<DiskTier>> {
        fs::create_dir_all(dir).map_err(|e| {
            io::Error::new(e.kind(), format!("create cache dir {}: {e}", dir.display()))
        })?;
        let probe = dir.join(format!(".probe-{}", std::process::id()));
        fs::write(&probe, b"saturn").map_err(|e| {
            io::Error::new(e.kind(), format!("cache dir {} not writable: {e}", dir.display()))
        })?;
        let _ = fs::remove_file(&probe);
        let tier = Arc::new(DiskTier {
            dir: dir.to_path_buf(),
            capacity_bytes,
            index: Mutex::new(Lru::new()),
            breaker: Breaker::new(),
            queue: Mutex::new(SpillQueue::default()),
            queue_cv: Condvar::new(),
            metrics,
            faults,
            nonce: AtomicU64::new(0),
        });
        tier.recover();
        let weak: Weak<DiskTier> = Arc::downgrade(&tier);
        std::thread::Builder::new()
            .name("saturn-spill".into())
            .spawn(move || writer_loop(weak))
            .map_err(|e| io::Error::other(format!("spawn spill writer: {e}")))?;
        Ok(tier)
    }

    /// The committed path of `key`'s entry. Exposed for tests and tooling.
    pub fn entry_path(&self, key: u128) -> PathBuf {
        self.dir.join(format!("{key:032x}.{ENTRY_EXT}"))
    }

    /// Rebuilds the index from the directory: deletes torn `.tmp-*` files,
    /// verifies every `.rpt` entry end to end, quarantines anything
    /// corrupt/oversize/misnamed, then evicts down to budget. Never fails —
    /// unreadable state is counted and skipped.
    fn recover(&self) {
        let entries = match fs::read_dir(&self.dir) {
            Ok(iter) => iter,
            Err(_) => {
                self.metrics.cache_disk_errors.inc();
                self.breaker.failure();
                return;
            }
        };
        let mut index = self.index.lock().unwrap();
        for entry in entries.flatten() {
            let path = entry.path();
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(name) => name.to_owned(),
                None => continue,
            };
            if name.starts_with(".tmp-") {
                // A torn write from a previous crash: quarantine.
                let _ = fs::remove_file(&path);
                self.metrics.cache_disk_corrupt.inc();
                continue;
            }
            if name.starts_with(".probe-") {
                let _ = fs::remove_file(&path);
                continue;
            }
            let key = match name
                .strip_suffix(&format!(".{ENTRY_EXT}"))
                .filter(|stem| stem.len() == 32)
                .and_then(|stem| u128::from_str_radix(stem, 16).ok())
            {
                Some(key) => key,
                None => continue, // foreign file; leave it alone
            };
            let blob = match fs::read(&path) {
                Ok(blob) => blob,
                Err(_) => {
                    self.metrics.cache_disk_errors.inc();
                    continue;
                }
            };
            let valid = blob.len() <= self.capacity_bytes
                && matches!(decode_entry(&blob), Ok((k, body))
                    if k == key && std::str::from_utf8(body).is_ok());
            if valid {
                index.insert(key, (), blob.len());
            } else {
                let _ = fs::remove_file(&path);
                self.metrics.cache_disk_corrupt.inc();
            }
        }
        self.evict_to_budget(&mut index);
    }

    /// Evicts least-recently-used entries (index and file) until the index
    /// fits the byte budget, then syncs the bytes gauge.
    fn evict_to_budget(&self, index: &mut Lru<()>) {
        while index.bytes() > self.capacity_bytes {
            let Some((victim, ())) = index.pop_lru() else { break };
            let _ = fs::remove_file(self.entry_path(victim));
            self.metrics.cache_disk_evictions.inc();
        }
        self.metrics.cache_disk_bytes.set(index.bytes() as u64);
    }

    /// Queues `body` for asynchronous spill under `key`. Never blocks on
    /// disk I/O; oversize bodies and overflow beyond `MAX_QUEUE` (1024)
    /// pending spills are silently skipped (the entry stays memory-only).
    pub fn enqueue(&self, key: u128, body: Arc<str>) {
        if HEADER_LEN + body.len() > self.capacity_bytes {
            return;
        }
        let mut queue = self.queue.lock().unwrap();
        if queue.pending.len() >= MAX_QUEUE {
            return;
        }
        queue.pending.push_back((key, body));
        self.queue_cv.notify_all();
    }

    /// Blocks until every queued spill has been written (or dropped by the
    /// breaker), or `budget` elapses. Returns whether the queue drained.
    pub fn flush(&self, budget: Duration) -> bool {
        let deadline = Instant::now() + budget;
        let mut queue = self.queue.lock().unwrap();
        while !queue.pending.is_empty() || queue.in_flight {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self.queue_cv.wait_timeout(queue, deadline - now).unwrap();
            queue = next;
        }
        true
    }

    /// Looks `key` up on disk: verifies the checksum, refreshes recency,
    /// and returns the byte-identical body. Corrupt entries are quarantined
    /// (deleted + counted) and report a miss; I/O errors trip the breaker
    /// and report a miss. Never fails the caller.
    pub fn lookup(&self, key: u128) -> Option<Arc<str>> {
        if !self.index.lock().unwrap().contains(key) {
            self.metrics.cache_disk_misses.inc();
            return None;
        }
        if !self.breaker.admit() {
            self.metrics.cache_disk_misses.inc();
            return None;
        }
        if let Some(faults) = &self.faults {
            faults.maybe_disk_slow();
        }
        let path = self.entry_path(key);
        let blob = match fs::read(&path) {
            Ok(blob) => blob,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // Index raced a concurrent eviction; not a disk fault.
                self.drop_index_entry(key);
                self.metrics.cache_disk_misses.inc();
                return None;
            }
            Err(_) => {
                self.metrics.cache_disk_errors.inc();
                self.breaker.failure();
                self.metrics.cache_disk_misses.inc();
                return None;
            }
        };
        self.breaker.success();
        let body = match decode_entry(&blob) {
            Ok((k, body)) if k == key => match std::str::from_utf8(body) {
                Ok(text) => text,
                Err(_) => {
                    self.quarantine(key, &path);
                    return None;
                }
            },
            _ => {
                self.quarantine(key, &path);
                return None;
            }
        };
        let result: Arc<str> = Arc::from(body);
        self.index.lock().unwrap().get(key);
        self.metrics.cache_disk_hits.inc();
        Some(result)
    }

    /// Deletes a corrupt entry and counts it; the lookup reports a miss.
    fn quarantine(&self, key: u128, path: &Path) {
        let _ = fs::remove_file(path);
        self.drop_index_entry(key);
        self.metrics.cache_disk_corrupt.inc();
        self.metrics.cache_disk_misses.inc();
    }

    /// Removes `key` from the index (without touching eviction counters)
    /// and refreshes the bytes gauge.
    fn drop_index_entry(&self, key: u128) {
        let mut index = self.index.lock().unwrap();
        index.remove(key);
        self.metrics.cache_disk_bytes.set(index.bytes() as u64);
    }

    /// Writes one queued entry durably: encode, temp file, fsync, atomic
    /// rename, directory fsync; then index it and evict down to budget.
    /// Called only from the writer thread.
    fn write_entry(&self, key: u128, body: &str) {
        if self.index.lock().unwrap().contains(key) {
            // Content-addressed: same key ⇒ same bytes already on disk.
            return;
        }
        if !self.breaker.admit() {
            return; // memory-only mode: drop the spill silently
        }
        if let Some(faults) = &self.faults {
            faults.maybe_disk_slow();
        }
        match self.try_write(key, body) {
            Ok(file_len) => {
                self.breaker.success();
                self.metrics.cache_disk_writes.inc();
                let mut index = self.index.lock().unwrap();
                index.insert(key, (), file_len);
                self.evict_to_budget(&mut index);
            }
            Err(_) => {
                self.metrics.cache_disk_errors.inc();
                self.breaker.failure();
            }
        }
    }

    /// The fallible part of a spill write. Returns the committed file
    /// length.
    fn try_write(&self, key: u128, body: &str) -> io::Result<usize> {
        let mut blob = encode_entry(key, body.as_bytes());
        if let Some(faults) = &self.faults {
            if faults.disk_full() {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected disk_full fault",
                ));
            }
            if faults.disk_write_err() {
                return Err(io::Error::other("injected disk_write_err fault"));
            }
            if faults.disk_corrupt() {
                // The write "succeeds"; read-side verification catches it.
                let at = (key as usize) % blob.len();
                blob[at] ^= 0xff;
            }
        }
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(".tmp-{key:032x}-{nonce}"));
        let commit = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&blob)?;
            file.sync_all()?;
            drop(file);
            fs::rename(&tmp, self.entry_path(key))
        })();
        if let Err(e) = commit {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        // Best-effort directory fsync so the rename itself is durable.
        if let Ok(dir) = fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(blob.len())
    }

    /// Health/stats snapshot over the shared metric atomics.
    pub fn stats(&self) -> DiskStats {
        let (entries, bytes) = {
            let index = self.index.lock().unwrap();
            (index.len(), index.bytes())
        };
        DiskStats {
            entries,
            bytes,
            capacity_bytes: self.capacity_bytes,
            hits: self.metrics.cache_disk_hits.get(),
            misses: self.metrics.cache_disk_misses.get(),
            writes: self.metrics.cache_disk_writes.get(),
            evictions: self.metrics.cache_disk_evictions.get(),
            corrupt: self.metrics.cache_disk_corrupt.get(),
            errors: self.metrics.cache_disk_errors.get(),
            degraded: self.breaker.is_open(),
        }
    }
}

/// The writer thread body: pops queued spills and writes them durably.
/// Holds only a `Weak` so dropping the tier (cache teardown) ends the
/// thread within one wait timeout.
fn writer_loop(weak: Weak<DiskTier>) {
    loop {
        let Some(tier) = weak.upgrade() else { return };
        let popped = {
            let mut queue = tier.queue.lock().unwrap();
            match queue.pending.pop_front() {
                Some(item) => {
                    queue.in_flight = true;
                    Some(item)
                }
                None => {
                    // Bounded wait so the loop re-checks the Weak.
                    let _ =
                        tier.queue_cv.wait_timeout(queue, Duration::from_millis(100)).unwrap();
                    None
                }
            }
        };
        if let Some((key, body)) = popped {
            tier.write_entry(key, &body);
            let mut queue = tier.queue.lock().unwrap();
            queue.in_flight = false;
            drop(queue);
            tier.queue_cv.notify_all();
        }
        drop(tier); // release the Arc so teardown isn't held up
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("saturn-persist-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open_tier(dir: &Path, capacity: usize) -> (Arc<DiskTier>, Arc<Metrics>) {
        let metrics = Arc::new(Metrics::new());
        let tier = DiskTier::open(dir, capacity, Arc::clone(&metrics), None).unwrap();
        (tier, metrics)
    }

    fn spill_sync(tier: &DiskTier, key: u128, body: &str) {
        tier.enqueue(key, Arc::from(body));
        assert!(tier.flush(Duration::from_secs(5)));
    }

    #[test]
    fn codec_round_trips() {
        for body in [&b""[..], b"x", b"hello world", &[0u8; 1000][..]] {
            let blob = encode_entry(42, body);
            assert_eq!(blob.len(), HEADER_LEN + body.len());
            let (key, decoded) = decode_entry(&blob).unwrap();
            assert_eq!(key, 42);
            assert_eq!(decoded, body);
        }
    }

    #[test]
    fn decode_rejects_each_error_class() {
        let blob = encode_entry(7, b"report body");
        assert_eq!(decode_entry(&blob[..10]), Err(DecodeError::TooShort));
        let mut bad_magic = blob.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(decode_entry(&bad_magic), Err(DecodeError::BadMagic));
        let mut bad_len = blob.clone();
        bad_len[20] ^= 0xff;
        assert_eq!(decode_entry(&bad_len), Err(DecodeError::LengthMismatch));
        let mut bad_sum = blob.clone();
        bad_sum[30] ^= 0x01;
        assert_eq!(decode_entry(&bad_sum), Err(DecodeError::ChecksumMismatch));
        let mut bad_body = blob.clone();
        *bad_body.last_mut().unwrap() ^= 0x01;
        assert_eq!(decode_entry(&bad_body), Err(DecodeError::ChecksumMismatch));
        let truncated = &blob[..blob.len() - 1];
        assert_eq!(decode_entry(truncated), Err(DecodeError::LengthMismatch));
    }

    #[test]
    fn spill_then_lookup_is_byte_identical() {
        let dir = temp_dir("roundtrip");
        let (tier, _metrics) = open_tier(&dir, 1 << 20);
        spill_sync(&tier, 0xabcd, "the report body");
        assert_eq!(tier.lookup(0xabcd).as_deref(), Some("the report body"));
        assert_eq!(tier.lookup(0xffff), None);
        let stats = tier.stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!(!stats.degraded);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_spills_write_once() {
        let dir = temp_dir("dedupe");
        let (tier, _metrics) = open_tier(&dir, 1 << 20);
        spill_sync(&tier, 5, "same body");
        spill_sync(&tier, 5, "same body");
        assert_eq!(tier.stats().writes, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicts_least_recent_when_over_budget() {
        let dir = temp_dir("evict");
        let body = "b".repeat(100);
        // Budget fits two entries but not three.
        let (tier, _metrics) = open_tier(&dir, 2 * (HEADER_LEN + 100) + 10);
        spill_sync(&tier, 1, &body);
        spill_sync(&tier, 2, &body);
        assert!(tier.lookup(1).is_some()); // refresh 1 so 2 is the victim
        spill_sync(&tier, 3, &body);
        let stats = tier.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(tier.lookup(2).is_none());
        assert!(tier.lookup(1).is_some());
        assert!(tier.lookup(3).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversize_bodies_are_skipped() {
        let dir = temp_dir("oversize");
        let (tier, _metrics) = open_tier(&dir, 64);
        spill_sync(&tier, 9, &"x".repeat(1000));
        assert_eq!(tier.stats().writes, 0);
        assert!(tier.lookup(9).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_on_lookup() {
        let dir = temp_dir("quarantine");
        let (tier, _metrics) = open_tier(&dir, 1 << 20);
        spill_sync(&tier, 11, "pristine body");
        let path = tier.entry_path(11);
        let mut blob = fs::read(&path).unwrap();
        let at = blob.len() - 3;
        blob[at] ^= 0x40;
        fs::write(&path, &blob).unwrap();
        assert_eq!(tier.lookup(11), None);
        assert_eq!(tier.stats().corrupt, 1);
        assert!(!path.exists());
        // A second lookup is a plain miss, not another quarantine.
        assert_eq!(tier.lookup(11), None);
        assert_eq!(tier.stats().corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_scan_indexes_valid_and_quarantines_torn() {
        let dir = temp_dir("recover");
        {
            let (tier, _metrics) = open_tier(&dir, 1 << 20);
            spill_sync(&tier, 21, "survives restart");
            spill_sync(&tier, 22, "also survives");
        }
        // Simulate a torn temp file and a corrupt committed entry.
        fs::write(dir.join(".tmp-deadbeef-0"), b"torn").unwrap();
        let victim = dir.join(format!("{:032x}.rpt", 22u128));
        let mut blob = fs::read(&victim).unwrap();
        blob[HEADER_LEN] ^= 0x01;
        fs::write(&victim, &blob).unwrap();
        // Entry under a name that doesn't match its header key.
        let mismatched = encode_entry(99, b"wrong address");
        fs::write(dir.join(format!("{:032x}.rpt", 23u128)), &mismatched).unwrap();

        let (tier, _metrics) = open_tier(&dir, 1 << 20);
        let stats = tier.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.corrupt, 3); // torn tmp + corrupt body + key mismatch
        assert_eq!(tier.lookup(21).as_deref(), Some("survives restart"));
        assert_eq!(tier.lookup(22), None);
        assert_eq!(tier.lookup(23), None);
        assert!(!dir.join(".tmp-deadbeef-0").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_evicts_down_to_budget() {
        let dir = temp_dir("recover-budget");
        let body = "r".repeat(200);
        {
            let (tier, _metrics) = open_tier(&dir, 1 << 20);
            for key in 0..4u128 {
                spill_sync(&tier, key, &body);
            }
        }
        let (tier, _metrics) = open_tier(&dir, 2 * (HEADER_LEN + 200) + 10);
        let stats = tier.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
        assert!(stats.bytes <= 2 * (HEADER_LEN + 200) + 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_errors_trip_and_recover_the_breaker() {
        let dir = temp_dir("breaker");
        let metrics = Arc::new(Metrics::new());
        let faults = Arc::new(FaultPlan::parse("disk_write_err:1").unwrap());
        let tier = DiskTier::open(&dir, 1 << 20, Arc::clone(&metrics), Some(faults)).unwrap();
        tier.enqueue(31, Arc::from("doomed"));
        assert!(tier.flush(Duration::from_secs(5)));
        let stats = tier.stats();
        assert_eq!(stats.errors, 1);
        assert!(stats.degraded);
        assert_eq!(stats.writes, 0);
        drop(tier);

        // A clean tier over the same dir recovers after the backoff window.
        let healthy = DiskTier::open(&dir, 1 << 20, Arc::new(Metrics::new()), None).unwrap();
        healthy.breaker.failure();
        assert!(healthy.stats().degraded);
        std::thread::sleep(BREAKER_BASE + Duration::from_millis(150));
        spill_sync(&healthy, 32, "probe body");
        assert!(!healthy.stats().degraded);
        assert_eq!(healthy.lookup(32).as_deref(), Some("probe body"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_corruption_is_detected_on_read_not_write() {
        let dir = temp_dir("inject-corrupt");
        let metrics = Arc::new(Metrics::new());
        let faults = Arc::new(FaultPlan::parse("disk_corrupt:1").unwrap());
        let tier = DiskTier::open(&dir, 1 << 20, Arc::clone(&metrics), Some(faults)).unwrap();
        tier.enqueue(41, Arc::from("will be mangled"));
        assert!(tier.flush(Duration::from_secs(5)));
        let stats = tier.stats();
        assert_eq!(stats.writes, 1); // the write itself "succeeded"
        assert!(!stats.degraded); // corruption must not trip the breaker
        assert_eq!(tier.lookup(41), None);
        assert_eq!(tier.stats().corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_fails_on_unwritable_dir() {
        // A path under a regular *file* can never be a writable directory.
        let blocker = std::env::temp_dir()
            .join(format!("saturn-persist-test-{}-blocker", std::process::id()));
        fs::write(&blocker, b"not a dir").unwrap();
        let result =
            DiskTier::open(&blocker.join("cache"), 1 << 20, Arc::new(Metrics::new()), None);
        assert!(result.is_err());
        let _ = fs::remove_file(&blocker);
    }
}
