//! The content-addressed report cache: an in-memory LRU tier over an
//! optional durable disk spill tier.
//!
//! Keys are the 128-bit fingerprints of [`saturn_core::fingerprint`]:
//! canonical stream content plus every request parameter that influences the
//! result. Values are the fully serialized JSON response bodies, shared as
//! `Arc<str>` so a hit costs one pointer clone — a cached analysis is served
//! without touching the sweep engine or re-serializing the report, and two
//! clients of the same key observe byte-identical responses by construction.
//!
//! Eviction is least-recently-used, bounded by **total bytes** rather than
//! entry count (reports range from a few KiB to MiB depending on grid size
//! and `KeepPolicy`). Both tiers keep their recency in one structure,
//! `Lru`: a slab of entries threaded by an intrusive doubly-linked list
//! over slab indices, each entry weighted by its byte size. Every touch
//! unlinks the entry and pushes it to the head, eviction pops the tail — all
//! O(1), no allocation past the slab itself. The memory tier stores the
//! bodies weighted by their length; the disk tier's index
//! ([`crate::persist`]) stores `()` weighted by each spill file's length.
//! Each tier keeps its LRU behind its own lock.
//!
//! When a [`DiskTier`] is attached, inserts are written through to disk
//! asynchronously (completed reports spill even if they later fall out of
//! memory) and a memory miss falls through to a disk lookup, promoting the
//! verified body back into the memory LRU. Either tier can be disabled
//! independently: capacity 0 means **no structure is allocated at all** —
//! a `None` tier, not a degenerate LRU — and the cache becomes pass-through
//! for that tier. Disk I/O never happens under the memory lock, and a disk
//! tier failure can only lose durability, never a request (see
//! [`crate::persist`] for the degradation ladder).

use crate::metrics::Metrics;
use crate::persist::{DiskStats, DiskTier};
use rustc_hash::FxHashMap;
use serde::Serialize;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// "No slot" sentinel for slab links.
const NIL: usize = usize::MAX;

/// One slab slot: a resident entry's value, byte weight and recency-list
/// links, or a vacancy in the free list (`value == None`, `next` = next
/// free slot).
#[derive(Debug)]
struct Slot<V> {
    key: u128,
    value: Option<V>,
    weight: usize,
    prev: usize,
    next: usize,
}

/// A byte-weighted least-recently-used map from 128-bit keys to `V`: the
/// recency structure of both cache tiers. It does no eviction of its own —
/// callers compare [`Lru::bytes`] with their budget and [`Lru::pop_lru`]
/// until it holds — and no locking.
#[derive(Debug)]
pub(crate) struct Lru<V> {
    /// key → slab index of the resident entry.
    map: FxHashMap<u128, usize>,
    /// Slab of entries; vacancies are threaded through `free_head`.
    slab: Vec<Slot<V>>,
    free_head: usize,
    /// Most-recently-used entry (NIL when empty).
    head: usize,
    /// Least-recently-used entry (NIL when empty) — the eviction end.
    tail: usize,
    /// Sum of the resident entries' weights.
    bytes: usize,
}

impl<V> Lru<V> {
    pub(crate) fn new() -> Self {
        Lru {
            map: FxHashMap::default(),
            slab: Vec::new(),
            free_head: NIL,
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    /// Resident entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Total weight of the resident entries.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Whether `key` is resident; unlike [`Lru::get`], leaves recency alone.
    pub(crate) fn contains(&self, key: u128) -> bool {
        self.map.contains_key(&key)
    }

    /// The value under `key`, made most recently used.
    pub(crate) fn get(&mut self, key: u128) -> Option<&V> {
        let i = *self.map.get(&key)?;
        self.touch(i);
        self.slab[i].value.as_ref()
    }

    /// Stores `value` of `weight` bytes under `key` as the most recently
    /// used entry, returning the value it replaced.
    pub(crate) fn insert(&mut self, key: u128, value: V, weight: usize) -> Option<V> {
        self.bytes += weight;
        if let Some(&i) = self.map.get(&key) {
            let slot = &mut self.slab[i];
            self.bytes -= std::mem::replace(&mut slot.weight, weight);
            let old = slot.value.replace(value);
            self.touch(i);
            return old;
        }
        let slot = Slot { key, value: Some(value), weight, prev: NIL, next: NIL };
        let i = match self.free_head {
            NIL => {
                self.slab.push(slot);
                self.slab.len() - 1
            }
            i => {
                self.free_head = self.slab[i].next;
                self.slab[i] = slot;
                i
            }
        };
        self.push_front(i);
        self.map.insert(key, i);
        None
    }

    /// Removes `key`, returning its value.
    pub(crate) fn remove(&mut self, key: u128) -> Option<V> {
        let i = self.map.remove(&key)?;
        Some(self.release(i))
    }

    /// Removes and returns the least recently used entry.
    pub(crate) fn pop_lru(&mut self) -> Option<(u128, V)> {
        let i = self.tail;
        if i == NIL {
            return None;
        }
        let key = self.slab[i].key;
        self.map.remove(&key);
        Some((key, self.release(i)))
    }

    /// Unlinks slot `i` (it must be linked).
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    /// Links slot `i` at the head (most recently used).
    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slab[h].prev = i,
        }
        self.head = i;
    }

    /// Moves a linked slot to the head.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Unlinks slot `i` (already gone from `map`), subtracts its weight,
    /// threads it onto the free list and returns its value.
    fn release(&mut self, i: usize) -> V {
        self.unlink(i);
        let slot = &mut self.slab[i];
        self.bytes -= slot.weight;
        slot.next = self.free_head;
        self.free_head = i;
        slot.value.take().expect("resident slot has a value")
    }
}

/// The in-memory LRU tier: the bodies behind their lock plus the byte
/// budget. `None` in [`ReportCache`] when the memory tier is disabled.
struct MemTier {
    lru: Mutex<Lru<Arc<str>>>,
    capacity_bytes: usize,
}

/// Byte-bounded LRU of serialized reports, keyed by content fingerprint,
/// optionally backed by a durable disk spill tier. All methods take `&self`;
/// the cache is shared freely across connection threads.
pub struct ReportCache {
    /// The memory tier, or `None` when `--cache-mb 0` disabled it.
    mem: Option<MemTier>,
    /// The disk spill tier, or `None` when no `--cache-dir` is configured
    /// (or `--cache-disk-mb 0` disabled it).
    disk: Option<Arc<DiskTier>>,
    /// Hit/miss/eviction counters and occupancy gauges live in the shared
    /// registry, not in the `Lru`: `/v1/health` and `/v1/metrics` both
    /// read these same atomics, so the two surfaces cannot disagree. Counter
    /// bumps and gauge syncs happen while the LRU's lock is held, keeping
    /// them exact with respect to the structural accounting.
    metrics: Arc<Metrics>,
}

/// A point-in-time snapshot of cache occupancy and effectiveness, serialized
/// into `/v1/health`.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CacheStats {
    /// Resident entries.
    pub entries: usize,
    /// Total resident body bytes.
    pub bytes: usize,
    /// Configured byte budget.
    pub capacity_bytes: usize,
    /// Lookups that returned a body.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl ReportCache {
    /// Creates a memory-only cache bounded by `capacity_bytes` of report
    /// bodies (0 disables caching: every `get` misses, every `insert` is
    /// dropped, and no LRU structure is allocated), counting into a private
    /// registry.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_metrics(capacity_bytes, Arc::new(Metrics::new()))
    }

    /// [`ReportCache::new`] counting into a shared registry — the server
    /// wiring, where `/v1/metrics` and `/v1/health` must agree.
    pub fn with_metrics(capacity_bytes: usize, metrics: Arc<Metrics>) -> Self {
        Self::with_tiers(capacity_bytes, None, metrics)
    }

    /// The full two-tier constructor: a memory budget (0 ⇒ no memory tier)
    /// over an optional disk spill tier.
    pub fn with_tiers(
        capacity_bytes: usize,
        disk: Option<Arc<DiskTier>>,
        metrics: Arc<Metrics>,
    ) -> Self {
        ReportCache {
            mem: (capacity_bytes > 0)
                .then(|| MemTier { lru: Mutex::new(Lru::new()), capacity_bytes }),
            disk,
            metrics,
        }
    }

    /// Looks up `key`: memory first (refreshing recency on a hit, O(1)),
    /// then the disk tier, promoting a verified disk body into the memory
    /// LRU. Disk I/O happens outside the memory lock.
    pub fn get(&self, key: u128) -> Option<Arc<str>> {
        if let Some(mem) = &self.mem {
            if let Some(body) = mem.lru.lock().expect("cache poisoned").get(key) {
                self.metrics.cache_hits.inc();
                return Some(Arc::clone(body));
            }
        }
        self.metrics.cache_misses.inc();
        let disk = self.disk.as_ref()?;
        let body = disk.lookup(key)?;
        // Promote into memory; victims displaced by the promotion are
        // re-spilled (a dedupe no-op when already on disk).
        for (victim_key, victim_body) in self.mem_insert(key, Arc::clone(&body)) {
            disk.enqueue(victim_key, victim_body);
        }
        Some(body)
    }

    /// Inserts a body under `key`: written through to the disk tier (spill
    /// on complete — asynchronously, never blocking on I/O) and into the
    /// memory LRU, evicting from the recency list's tail until the byte
    /// budget holds — O(1) per eviction. Bodies larger than the memory
    /// budget still reach the disk tier; re-inserting an existing key
    /// refreshes body and recency.
    pub fn insert(&self, key: u128, body: Arc<str>) {
        if let Some(disk) = &self.disk {
            disk.enqueue(key, Arc::clone(&body));
        }
        for (victim_key, victim_body) in self.mem_insert(key, body) {
            // Spill on evict: with write-through this dedupes to a no-op,
            // but it keeps eviction safe even for entries whose original
            // spill was dropped (queue overflow, memory-only mode).
            if let Some(disk) = &self.disk {
                disk.enqueue(victim_key, victim_body);
            }
        }
    }

    /// Inserts into the memory tier only, returning the evicted victims
    /// (collected under the lock, handed back so disk spills happen after
    /// the lock is released). No-op when the tier is disabled or the body
    /// exceeds the whole budget.
    fn mem_insert(&self, key: u128, body: Arc<str>) -> Vec<(u128, Arc<str>)> {
        let Some(mem) = &self.mem else { return Vec::new() };
        if body.len() > mem.capacity_bytes {
            return Vec::new();
        }
        let mut lru = mem.lru.lock().expect("cache poisoned");
        let len = body.len();
        lru.insert(key, body, len);
        let mut victims = Vec::new();
        while lru.bytes() > mem.capacity_bytes {
            let victim = lru.pop_lru().expect("over budget implies a resident entry");
            self.metrics.cache_evictions.inc();
            victims.push(victim);
        }
        self.metrics.cache_bytes.set(lru.bytes() as u64);
        self.metrics.cache_entries.set(lru.len() as u64);
        victims
    }

    /// Blocks until pending disk spills are durable or `budget` elapses;
    /// trivially `true` without a disk tier. Called on the drain paths so
    /// accepted work survives a graceful exit.
    pub fn flush(&self, budget: Duration) -> bool {
        match &self.disk {
            Some(disk) => disk.flush(budget),
            None => true,
        }
    }

    /// Occupancy and hit/miss counters — the same atomics `/v1/metrics`
    /// exports, snapshotted under the cache lock.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes, capacity_bytes) = match &self.mem {
            Some(mem) => {
                let lru = mem.lru.lock().expect("cache poisoned");
                (lru.len(), lru.bytes(), mem.capacity_bytes)
            }
            None => (0, 0, 0),
        };
        CacheStats {
            entries,
            bytes,
            capacity_bytes,
            hits: self.metrics.cache_hits.get(),
            misses: self.metrics.cache_misses.get(),
            evictions: self.metrics.cache_evictions.get(),
        }
    }

    /// The disk tier's snapshot, when one is attached.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(|disk| disk.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::HEADER_LEN;
    use std::path::{Path, PathBuf};

    fn body(text: &str) -> Arc<str> {
        Arc::from(text)
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("saturn-cache-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn with_disk(mem_bytes: usize, disk_bytes: usize, dir: &Path) -> ReportCache {
        let metrics = Arc::new(Metrics::new());
        let disk =
            DiskTier::open(dir, disk_bytes, Arc::clone(&metrics), None).expect("open tier");
        ReportCache::with_tiers(mem_bytes, Some(disk), metrics)
    }

    #[test]
    fn hit_returns_the_same_bytes() {
        let cache = ReportCache::new(1024);
        cache.insert(1, body("{\"report\":1}"));
        let a = cache.get(1).unwrap();
        let b = cache.get(1).unwrap();
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert!(Arc::ptr_eq(&a, &b), "hits share one allocation");
        assert!(cache.get(2).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn lru_eviction_is_by_bytes_and_recency() {
        let cache = ReportCache::new(30);
        cache.insert(1, body("aaaaaaaaaa")); // 10 bytes
        cache.insert(2, body("bbbbbbbbbb"));
        cache.insert(3, body("cccccccccc"));
        assert_eq!(cache.stats().bytes, 30);
        cache.get(1); // 1 is now most recent; 2 is LRU
        cache.insert(4, body("dddddddddd"));
        assert!(cache.get(2).is_none(), "LRU entry evicted");
        assert!(cache.get(1).is_some() && cache.get(3).is_some() && cache.get(4).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().bytes <= 30);
    }

    #[test]
    fn oversized_bodies_and_zero_capacity_are_not_cached() {
        let cache = ReportCache::new(5);
        cache.insert(1, body("too big to fit"));
        assert!(cache.get(1).is_none());
        let disabled = ReportCache::new(0);
        disabled.insert(1, body("x"));
        assert!(disabled.get(1).is_none());
    }

    #[test]
    fn zero_capacity_allocates_no_tier() {
        let disabled = ReportCache::new(0);
        assert!(disabled.mem.is_none(), "capacity 0 must not allocate an LRU");
        assert!(disabled.disk.is_none());
        let stats = disabled.stats();
        assert_eq!((stats.entries, stats.bytes, stats.capacity_bytes), (0, 0, 0));
        assert!(disabled.flush(Duration::from_millis(1)), "no tier ⇒ flush is trivial");
        assert!(disabled.disk_stats().is_none());
    }

    #[test]
    fn reinsert_replaces_and_keeps_accounting_exact() {
        let cache = ReportCache::new(100);
        cache.insert(1, body("short"));
        cache.insert(1, body("a longer replacement body"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, "a longer replacement body".len());
        assert_eq!(&*cache.get(1).unwrap(), "a longer replacement body");
    }

    #[test]
    fn memory_miss_falls_through_to_disk_and_promotes() {
        let dir = temp_dir("fallthrough");
        let cache = with_disk(1024, 1 << 20, &dir);
        cache.insert(7, body("durable report"));
        assert!(cache.flush(Duration::from_secs(5)));
        // Rebuild over the same dir with a cold memory tier.
        drop(cache);
        let cache = with_disk(1024, 1 << 20, &dir);
        let served = cache.get(7).expect("served from disk");
        assert_eq!(&*served, "durable report");
        let disk = cache.disk_stats().unwrap();
        assert_eq!(disk.hits, 1);
        // Promotion: the next get is a pure memory hit.
        assert_eq!(&*cache.get(7).unwrap(), "durable report");
        assert_eq!(cache.disk_stats().unwrap().hits, 1, "second get never touched disk");
        assert_eq!(cache.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_only_mode_serves_without_a_memory_tier() {
        let dir = temp_dir("disk-only");
        let cache = with_disk(0, 1 << 20, &dir);
        cache.insert(3, body("mem tier is off"));
        assert!(cache.flush(Duration::from_secs(5)));
        assert_eq!(cache.get(3).as_deref(), Some("mem tier is off"));
        let disk = cache.disk_stats().unwrap();
        assert_eq!(disk.writes, 1);
        assert!(disk.hits >= 1);
        assert_eq!(cache.stats().entries, 0, "no memory tier to populate");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bodies_too_big_for_memory_still_spill_to_disk() {
        let dir = temp_dir("mem-oversize");
        let big = "z".repeat(200);
        let cache = with_disk(50, 1 << 20, &dir);
        cache.insert(8, body(&big));
        assert!(cache.flush(Duration::from_secs(5)));
        assert_eq!(cache.stats().entries, 0, "too big for the memory budget");
        assert_eq!(cache.get(8).as_deref(), Some(big.as_str()));
        assert_eq!(cache.disk_stats().unwrap().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicted_victims_remain_durable_on_disk() {
        let dir = temp_dir("evict-spill");
        let cache = with_disk(20, 1 << 20, &dir);
        cache.insert(1, body("aaaaaaaaaa")); // 10 bytes
        cache.insert(2, body("bbbbbbbbbb"));
        cache.insert(3, body("cccccccccc")); // evicts 1 from memory
        assert!(cache.flush(Duration::from_secs(5)));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(1).as_deref(), Some("aaaaaaaaaa"), "evictee served from disk");
        assert!(cache.disk_stats().unwrap().hits >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_byte_budget_counts_headers() {
        let dir = temp_dir("budget-headers");
        let cache = with_disk(1024, HEADER_LEN + 10, &dir);
        cache.insert(1, body("0123456789"));
        assert!(cache.flush(Duration::from_secs(5)));
        let disk = cache.disk_stats().unwrap();
        assert_eq!(disk.entries, 1);
        assert_eq!(disk.bytes, HEADER_LEN + 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Differential stress of the intrusive list against a naive model:
    /// thousands of interleaved inserts/gets/evictions (the per-tile-
    /// fragment population the list exists for) must match a reference LRU
    /// exactly — residency, byte accounting, and eviction count.
    #[test]
    fn linked_list_matches_reference_lru_under_stress() {
        use std::collections::VecDeque;
        let capacity = 64usize;
        let cache = ReportCache::new(capacity);
        // reference: recency-ordered deque of (key, len), most recent front
        let mut model: VecDeque<(u128, usize)> = VecDeque::new();
        let mut model_evictions = 0u64;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4000 {
            let key = (rng() % 48) as u128;
            if rng() % 3 == 0 {
                // get
                let hit = cache.get(key).is_some();
                let model_hit = model.iter().position(|&(k, _)| k == key);
                assert_eq!(hit, model_hit.is_some(), "residency diverged for {key}");
                if let Some(pos) = model_hit {
                    let entry = model.remove(pos).unwrap();
                    model.push_front(entry);
                }
            } else {
                // insert a body of 1..=9 bytes
                let len = 1 + (rng() % 9) as usize;
                cache.insert(key, Arc::from("x".repeat(len)));
                if let Some(pos) = model.iter().position(|&(k, _)| k == key) {
                    model.remove(pos);
                }
                model.push_front((key, len));
                while model.iter().map(|&(_, l)| l).sum::<usize>() > capacity {
                    model.pop_back();
                    model_evictions += 1;
                }
            }
            let stats = cache.stats();
            assert_eq!(stats.entries, model.len());
            assert_eq!(stats.bytes, model.iter().map(|&(_, l)| l).sum::<usize>());
            assert_eq!(stats.evictions, model_evictions);
        }
        // final residency set matches exactly
        for &(key, _) in &model {
            assert!(cache.get(key).is_some());
        }
    }
}
