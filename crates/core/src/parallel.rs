//! The sweep's persistent worker pool and the tiled work queue.
//!
//! Each aggregation scale is analyzed independently, so the sweep is
//! embarrassingly parallel along the scale axis; in addition the DP's
//! columns are independent (tile locality, `trips::dp` module docs), so
//! every scale can be split into *target tiles* that run concurrently and
//! whose histograms merge exactly. [`sweep_queue`] materializes that
//! two-axis decomposition as a flat list of `(scale, tile)` items in
//! size-aware order — finest scales first, since step count drives cost
//! (the paper: "the most costly computations are the ones made for small
//! values of Δ, as M is then large") — and items are dispatched dynamically
//! through a shared atomic cursor rather than pre-partitioned, so the
//! expensive head of the queue spreads across workers while the cheap tail
//! backfills.
//!
//! A [`WorkerPool`] spawns its OS threads **once** and reuses them for every
//! [`map`](WorkerPool::map) call: an analysis runs one round per refinement
//! pass and a validation one per tile, and per-round spawn/join would be
//! pure overhead. Results land in pre-sized slots by item index, and the
//! worker id passed to the callback pins per-worker scratch state (the DP
//! engine's [`EngineArena`](saturn_trips::EngineArena)) for the pool's life.
//!
//! # Safety model
//!
//! `map` publishes a pointer to a stack-local closure to the workers, then
//! blocks until every worker has finished the round — the closure therefore
//! never outlives the frame that owns it. Worker panics are caught, recorded,
//! and re-raised on the calling thread after the round completes; partially
//! initialized result slots are dropped correctly via per-slot written
//! flags.

use saturn_trips::dp::max_tile_cols;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The erased per-round work function: takes the worker id.
type Round = &'static (dyn Fn(usize) + Sync);

struct PoolState {
    /// The published round, if one is in flight.
    round: Option<Round>,
    /// Round counter; workers run each generation exactly once.
    generation: u64,
    /// Workers still executing the current generation.
    active: usize,
    /// A worker panicked during the current generation.
    panicked: bool,
    /// Pool is shutting down.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_available: Condvar,
    round_done: Condvar,
}

/// A persistent team of worker threads executing parallel maps over sweep
/// items. Create once per analysis, reuse for every round.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    /// Total parallelism: spawned workers + the calling thread.
    parallelism: usize,
}

impl WorkerPool {
    /// Creates a pool with `threads` total parallelism (0 = all available
    /// cores). The calling thread participates in every round, so
    /// `threads - 1` OS threads are spawned; `threads <= 1` spawns none and
    /// every map runs inline.
    pub fn new(threads: usize) -> Self {
        let parallelism = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads => threads,
        };
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                round: None,
                generation: 0,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work_available: Condvar::new(),
            round_done: Condvar::new(),
        });
        let workers = (0..parallelism.saturating_sub(1))
            .map(|wid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("saturn-sweep-{wid}"))
                    .spawn(move || worker_loop(&shared, wid))
                    .expect("cannot spawn sweep worker")
            })
            .collect();
        WorkerPool { shared, workers, parallelism }
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
        if items.is_empty() {
            return Vec::new();
        }
        if self.parallelism <= 1 || items.len() == 1 {
            return items.iter().map(|item| f(0, item)).collect();
        }

        let slots = Slots::new(items.len());
        let cursor = AtomicUsize::new(0);
        let work = |wid: usize| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            slots.write(i, f(wid, &items[i]));
        };

        // Publish the round. The transmute erases the stack lifetime; the
        // wait below guarantees no worker touches the pointer after this
        // frame ends.
        let round_ref: &(dyn Fn(usize) + Sync) = &work;
        let round: Round =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Round>(round_ref) };
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            debug_assert!(state.round.is_none(), "map is not reentrant");
            state.round = Some(round);
            state.generation += 1;
            state.active = self.workers.len();
            state.panicked = false;
            self.shared.work_available.notify_all();
        }

        // The calling thread is the last worker (id = parallelism - 1).
        let caller_outcome = catch_unwind(AssertUnwindSafe(|| work(self.parallelism - 1)));

        // Drain the round before looking at outcomes or returning.
        let panicked = {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            while state.active > 0 {
                state = self.shared.round_done.wait(state).expect("pool state poisoned");
            }
            state.round = None;
            state.panicked
        };
        if panicked || caller_outcome.is_err() {
            // `slots` drops its initialized entries
            match caller_outcome {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(()) => panic!("sweep worker panicked"),
            }
        }
        slots.into_results()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
            self.shared.work_available.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, wid: usize) {
    let mut last_generation = 0u64;
    loop {
        let round = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(round) = state.round {
                    if state.generation != last_generation {
                        last_generation = state.generation;
                        break round;
                    }
                }
                state = shared.work_available.wait(state).expect("pool state poisoned");
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| round(wid)));
        let mut state = shared.state.lock().expect("pool state poisoned");
        if outcome.is_err() {
            state.panicked = true;
        }
        state.active -= 1;
        if state.active == 0 {
            shared.round_done.notify_all();
        }
    }
}

/// Pre-sized, index-addressed result storage. Workers write disjoint slots;
/// the written flags make partially filled storage (panic paths) safe to
/// drop.
struct Slots<R> {
    data: Vec<UnsafeCell<MaybeUninit<R>>>,
    written: Vec<AtomicBool>,
}

// Safety: slot writes are disjoint by construction (each index is claimed by
// exactly one cursor fetch_add) and the written flags use release/acquire
// ordering.
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    fn new(len: usize) -> Self {
        Slots {
            data: (0..len).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect(),
            written: (0..len).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn write(&self, i: usize, value: R) {
        unsafe { (*self.data[i].get()).write(value) };
        self.written[i].store(true, Ordering::Release);
    }

    fn into_results(mut self) -> Vec<R> {
        let mut out = Vec::with_capacity(self.data.len());
        for (cell, flag) in self.data.iter().zip(&self.written) {
            assert!(
                flag.swap(false, Ordering::Acquire),
                "sweep round ended with an unwritten slot"
            );
            out.push(unsafe { (*cell.get()).assume_init_read() });
        }
        self.data.clear(); // flags already false: Drop has nothing left
        self.written.clear();
        out
    }
}

impl<R> Drop for Slots<R> {
    fn drop(&mut self) {
        for (cell, flag) in self.data.iter().zip(&self.written) {
            if flag.load(Ordering::Acquire) {
                unsafe { (*cell.get()).assume_init_drop() };
            }
        }
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

/// Picks a tile width for `ncols` target columns over `n` DP rows, swept
/// over `scales` scales on `parallelism` workers. Scale-level parallelism
/// is free (no duplicated per-edge work), so tiling for speed only kicks in
/// when the scale count alone cannot feed the pool — single scales, narrow
/// refinement rounds, wide machines — and then aims for a few items per
/// worker while keeping tiles wide enough that per-traversal fixed costs
/// stay amortized. The width never exceeds [`max_tile_cols`]`(n)`, so each
/// worker's DP arena fits its memory budget however wide the stream is.
pub fn auto_tile_cols(n: usize, ncols: usize, scales: usize, parallelism: usize) -> usize {
    /// Below this width, per-edge bookkeeping duplicated per tile stops
    /// being noise next to the per-column DP work.
    const MIN_TILE: usize = 16;
    if parallelism <= 1 || ncols <= MIN_TILE || scales >= 4 * parallelism {
        return ncols.min(max_tile_cols(n));
    }
    let want_items = 4 * parallelism;
    let tiles_per_scale = want_items.div_ceil(scales.max(1)).max(1);
    ncols.div_ceil(tiles_per_scale).max(MIN_TILE).min(ncols).min(max_tile_cols(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use saturn_trips::dp::{arena_bytes, ARENA_BUDGET_BYTES};

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
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
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
    fn auto_tile_prefers_scale_parallelism() {
        // plenty of scales: no tiling
        assert_eq!(auto_tile_cols(1000, 1000, 64, 8), 1000);
        // single thread: never tile
        assert_eq!(auto_tile_cols(1000, 1000, 1, 1), 1000);
        // single scale on a wide machine: tiles sized for ~4 items/worker
        let tile = auto_tile_cols(1000, 1000, 1, 8);
        assert!((16..1000).contains(&tile), "tile = {tile}");
        assert!(1000usize.div_ceil(tile) >= 8, "enough items to feed the pool");
        // tiny column counts stay untiled regardless of width
        assert_eq!(auto_tile_cols(12, 12, 1, 64), 12);
        // a wide stream is tiled to fit the arena budget even on one thread
        assert_eq!(auto_tile_cols(60_000, 60_000, 64, 1), max_tile_cols(60_000));
        assert!(max_tile_cols(60_000) < 60_000);
    }

    /// The heuristic `auto_tile_cols` applied before the memory cap existed.
    fn uncapped_auto_tile_cols(ncols: usize, scales: usize, parallelism: usize) -> usize {
        if parallelism <= 1 || ncols <= 16 || scales >= 4 * parallelism {
            return ncols;
        }
        let tiles_per_scale = (4 * parallelism).div_ceil(scales.max(1)).max(1);
        ncols.div_ceil(tiles_per_scale).max(16).min(ncols)
    }

    proptest! {
        /// The memory cap only ever narrows: every width is a valid tile,
        /// fits the arena budget whenever a single column does, and is the
        /// uncapped heuristic's choice whenever the untiled table fits.
        #[test]
        fn auto_tile_width_fits_the_budget_and_only_narrows(
            bits in 0u32..23,
            low in any::<u64>(),
            col_frac in 0.0f64..=1.0,
            scales in 0usize..200,
            parallelism in 1usize..65,
        ) {
            // log-uniform n, so small streams (untiled fits) and huge ones
            // (the cap binds) are both common
            let n = (1usize << bits) + (low as usize) % (1usize << bits);
            let ncols = 1 + ((n - 1) as f64 * col_frac) as usize;
            let width = auto_tile_cols(n, ncols, scales, parallelism);
            prop_assert!((1..=ncols).contains(&width), "width {} of {}", width, ncols);
            if arena_bytes(n, 1) <= ARENA_BUDGET_BYTES {
                prop_assert!(arena_bytes(n, width) <= ARENA_BUDGET_BYTES);
            }
            if arena_bytes(n, ncols) <= ARENA_BUDGET_BYTES {
                prop_assert_eq!(width, uncapped_auto_tile_cols(ncols, scales, parallelism));
            }
        }
    }

    #[test]
    fn results_drop_correctly_on_panic() {
        use std::sync::atomic::AtomicUsize;
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
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
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
}
