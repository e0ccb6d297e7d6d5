//! The sweep's worker pool and the tiled work queue.
//!
//! Each aggregation scale is analyzed independently, so scales are the
//! sweep's parallel axis. A scale is split into *target tiles* only when
//! its DP arena would not fit the per-worker memory budget
//! ([`max_tile_cols`](saturn_trips::dp::max_tile_cols), tile locality in
//! the `trips::dp` module docs): the DP's columns are independent, so the
//! tiles' histograms merge exactly. Splitting a scale to feed idle workers
//! would repeat every edge traversal once per tile and lose more than it
//! gains, so a round with fewer scales than workers leaves some idle.
//! [`sweep_queue`] lays the `(scale, tile)` items out in size-aware order —
//! finest scales first, since step count drives cost (the paper: "the
//! most costly computations are the ones made for small values of Δ, as M
//! is then large") — and items are dispatched dynamically through a shared
//! atomic cursor rather than pre-partitioned, so the expensive head of the
//! queue spreads across workers while the cheap tail backfills.
//!
//! A [`WorkerPool`] is a thread count. Each [`map`](WorkerPool::map) call
//! is one round on [`std::thread::scope`]: it spawns one named worker per
//! extra unit of parallelism the round can use, the calling thread works
//! as the last worker, and the scope joins them all before `map` returns.
//! An analysis runs one round per pass (three with the default two
//! refinement passes) and a validation one per tile, so a round spawns a
//! handful of threads whose cost — tens of microseconds — is noise next
//! to the DP it feeds. Each worker keeps its `(index, result)` pairs and
//! the caller puts them back in input order. The worker id passed to the
//! callback is stable within a round and lies in `0..parallelism()`, so
//! callers key per-worker scratch state (the DP engine's
//! [`EngineArena`](saturn_trips::EngineArena)) by it.
//!
//! A panic in any worker, the caller included, reaches the caller only
//! after every other worker has finished the round; each result produced
//! before it is dropped exactly once. A worker that cannot be spawned is
//! left out: the cursor hands its items to the threads that exist.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A thread budget for parallel maps over sweep items. Create once per
/// analysis and reuse it for every round.
pub struct WorkerPool {
    /// Total parallelism: spawned workers + the calling thread.
    parallelism: usize,
}

impl WorkerPool {
    /// Creates a pool with `threads` total parallelism (0 = all available
    /// cores). The calling thread works in every round, so a round spawns
    /// at most `threads - 1` OS threads; `threads <= 1` spawns none and
    /// every map runs inline.
    pub fn new(threads: usize) -> Self {
        let parallelism = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads => threads,
        };
        WorkerPool { parallelism }
    }

    /// Total parallelism (spawned workers + calling thread); worker ids
    /// passed to `map` callbacks lie in `0..parallelism()`.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Applies `f` to every item, dispatching dynamically across the pool.
    /// Results land in input order. `f` receives `(worker_id, &item)`;
    /// `worker_id` is stable within a call and lies in `0..parallelism()`.
    /// Panics in `f` propagate to the caller after the round drains.
    /// (`&mut self` enforces one round in flight per pool.)
    pub fn map<T, R, F>(&mut self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.parallelism.min(items.len());
        if workers <= 1 {
            return items.iter().map(|item| f(0, item)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let work = |wid: usize| {
            let mut done = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { return done };
                done.push((i, f(wid, item)));
            }
        };
        let mut done = std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..workers - 1)
                .map_while(|wid| {
                    std::thread::Builder::new()
                        .name(format!("saturn-sweep-{wid}"))
                        .spawn_scoped(scope, move || work(wid))
                        .ok()
                })
                .collect();
            // the calling thread is the last worker
            let mut done = work(workers - 1);
            for handle in spawned {
                done.extend(handle.join().unwrap_or_else(|payload| resume_unwind(payload)));
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, result)| result).collect()
    }
}

/// One unit of tiled sweep work: a contiguous target-column range of one
/// aggregation scale. Produced by [`sweep_queue`]; the per-tile histograms
/// of one scale merge, exactly and in any order, into the untiled scale's
/// histogram bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepItem {
    /// Index of the scale in the caller's `ks` list.
    pub scale: usize,
    /// Window count of the scale (the cost proxy: more windows, more steps).
    pub k: u64,
    /// First target column of the tile.
    pub col_start: u32,
    /// Number of columns in the tile.
    pub col_len: u32,
}

/// Builds the tiled work queue over `ks` scales × the given column tiles
/// (`(col_start, col_len)` pairs, ascending — the single source of tiling
/// semantics is [`TargetSet::tile_ranges`](saturn_trips::TargetSet::tile_ranges)),
/// sorted size-aware: finest scale (largest `k`) first, tiles of one scale
/// in ascending column order.
pub fn sweep_queue(ks: &[u64], tile_ranges: &[(u32, u32)]) -> Vec<SweepItem> {
    let mut items = Vec::with_capacity(ks.len() * tile_ranges.len());
    for (scale, &k) in ks.iter().enumerate() {
        for &(col_start, col_len) in tile_ranges {
            items.push(SweepItem { scale, k, col_start, col_len });
        }
    }
    // finest first; stable so tiles of one scale keep ascending order, and
    // equal-k scales (possible across refinement bookkeeping) keep list
    // order
    items.sort_by_key(|item| std::cmp::Reverse(item.k));
    items
}

/// All `None`: only perfbench calls this; ROADMAP item 3 deletes it.
#[doc(hidden)]
pub fn merge_sources(ks: &[u64]) -> Vec<Option<usize>> {
    vec![None; ks.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::{Barrier, Mutex};
    use std::time::Duration;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = WorkerPool::new(8).map(&items, |_wid, &x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let items = vec![1, 2, 3];
        let out = WorkerPool::new(1).map(&items, |_wid, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn zero_means_auto() {
        let items: Vec<u32> = (0..100).collect();
        let mut pool = WorkerPool::new(0);
        let out = pool.map(&items, |_wid, &x| x);
        assert_eq!(out.len(), 100);
        assert!(pool.parallelism() >= 1);
        // a pool wider than the items still hands out in-range worker ids
        let mut wide = WorkerPool::new(16);
        let ids = wide.map(&[0u32; 4], |wid, _| wid);
        assert!(ids.iter().all(|&wid| wid < wide.parallelism()));
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        let out = WorkerPool::new(4).map(&items, |_wid, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_work_is_balanced() {
        // heavier work for early items; just checks completion & order
        let items: Vec<u64> = (0..64).collect();
        let out = WorkerPool::new(8).map(&items, |_wid, &x| {
            let mut acc = 0u64;
            for i in 0..(64 - x) * 1000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn pool_survives_many_rounds() {
        let mut pool = WorkerPool::new(4);
        for round in 0..50u64 {
            let items: Vec<u64> = (0..37).collect();
            let out = pool.map(&items, |_wid, &x| x + round);
            assert_eq!(out, (0..37).map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_ids_are_in_range_and_usable_as_scratch_keys() {
        let mut pool = WorkerPool::new(4);
        let scratch: Vec<Mutex<u64>> = (0..pool.parallelism()).map(|_| Mutex::new(0)).collect();
        let items: Vec<u64> = (0..500).collect();
        let out = pool.map(&items, |wid, &x| {
            let mut slot = scratch[wid].lock().unwrap();
            *slot += 1;
            x
        });
        assert_eq!(out.len(), 500);
        let total: u64 = scratch.iter().map(|m| *m.lock().unwrap()).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn worker_panic_propagates_and_pool_stays_usable() {
        let mut pool = WorkerPool::new(4);
        let items: Vec<u32> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |_wid, &x| {
                if x == 13 {
                    panic!("injected failure");
                }
                x
            })
        }));
        assert!(result.is_err(), "panic must propagate");
        // pool remains operational for subsequent rounds
        let out = pool.map(&items, |_wid, &x| x * 3);
        assert_eq!(out[21], 63);
    }

    #[test]
    fn sweep_queue_is_finest_first_and_covers_all_tiles() {
        // unsorted ks on purpose: the queue must order by cost, not input
        // (ranges = TargetSet::all(10).tile_ranges(4))
        let items = sweep_queue(&[10, 1000, 50], &[(0, 4), (4, 4), (8, 2)]);
        // 3 scales × 3 tiles (4 + 4 + 2)
        assert_eq!(items.len(), 9);
        // finest (largest k) first
        let ks: Vec<u64> = items.iter().map(|i| i.k).collect();
        assert_eq!(ks, vec![1000, 1000, 1000, 50, 50, 50, 10, 10, 10]);
        // tiles of one scale stay in ascending column order
        for scale_items in items.chunks(3) {
            assert_eq!(scale_items[0].col_start, 0);
            assert_eq!(scale_items[1].col_start, 4);
            assert_eq!(scale_items[2].col_start, 8);
            assert_eq!(scale_items[2].col_len, 2);
        }
        // scale indices refer to the ORIGINAL ks positions
        assert_eq!(items[0].scale, 1);
        assert_eq!(items[3].scale, 2);
        assert_eq!(items[6].scale, 0);
    }

    #[test]
    fn sweep_queue_untiled_layout() {
        let items = sweep_queue(&[7, 3], &[(0, 10)]);
        assert_eq!(items.len(), 2);
        assert!(items.iter().all(|i| i.col_start == 0 && i.col_len == 10));
    }

    #[test]
    fn results_drop_correctly_on_panic() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted(#[allow(dead_code)] u32);
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let mut pool = WorkerPool::new(2);
        let items: Vec<u32> = (0..16).collect();
        DROPS.store(0, Ordering::SeqCst);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |_wid, &x| {
                if x == 7 {
                    panic!("boom");
                }
                Counted(x)
            })
        }));
        assert!(result.is_err());
        // every successfully produced value was dropped exactly once (15
        // produced, one panicked before producing)
        assert_eq!(DROPS.load(Ordering::SeqCst), 15);
    }

    /// Counts its own drops.
    struct Counted<'a>(&'a AtomicUsize);
    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Both threads of a 2-wide pool take part in one round: each waits at
    /// a barrier in the first item it takes, then the calling thread (or
    /// the spawned worker) panics and the other one runs every remaining
    /// item. `map` must unwind only after that, drop each produced result
    /// once, and leave the pool usable.
    fn one_thread_panics_after_both_started(caller_panics: bool) {
        const ITEMS: usize = 8;
        let caller = std::thread::current().id();
        let mut pool = WorkerPool::new(2);
        let started: Vec<AtomicBool> =
            (0..pool.parallelism()).map(|_| AtomicBool::new(false)).collect();
        let barrier = Barrier::new(2);
        let (produced, dropped) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let items: Vec<u32> = (0..ITEMS as u32).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |wid, _| {
                if !started[wid].swap(true, Ordering::SeqCst) {
                    barrier.wait();
                    if (std::thread::current().id() == caller) == caller_panics {
                        panic!("injected failure");
                    }
                }
                // slow enough that an early unwind would see unfinished items
                std::thread::sleep(Duration::from_millis(2));
                produced.fetch_add(1, Ordering::SeqCst);
                Counted(&dropped)
            })
        }));
        let payload = result.err().expect("the panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"injected failure"));
        assert_eq!(produced.load(Ordering::SeqCst), ITEMS - 1, "survivor ran the rest");
        assert_eq!(dropped.load(Ordering::SeqCst), ITEMS - 1, "dropped once each");
        let out = pool.map(&items, |_wid, &x| x * 3);
        assert_eq!(out, (0..ITEMS as u32).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn caller_panic_unwinds_after_the_worker_drains() {
        one_thread_panics_after_both_started(true);
    }

    #[test]
    fn worker_panic_unwinds_after_the_caller_drains() {
        one_thread_panics_after_both_started(false);
    }
}
