//! Selection of destination nodes for the dynamic program.
//!
//! The engine's memory footprint is `O(n × |targets|)`. For the exact method
//! of the paper the target set is all of `V`; for very large networks a
//! deterministic sample of destinations bounds memory and work while
//! approximating the occupancy-rate distribution (trips toward a uniform
//! sample of destinations are an unbiased sample of all trips).

/// The set of destination nodes for which minimal trips are computed.
#[derive(Clone, Debug)]
pub struct TargetSet {
    /// `node -> column` or `NONE_COL`.
    col_of: Vec<u32>,
    /// `column -> node`.
    node_of: Vec<u32>,
}

const NONE_COL: u32 = u32::MAX;

impl TargetSet {
    /// Every node of `0..n` is a destination (the paper's exact setting).
    pub fn all(n: u32) -> Self {
        TargetSet { col_of: (0..n).collect(), node_of: (0..n).collect() }
    }

    /// A caller-chosen subset of destinations; duplicates are ignored.
    ///
    /// # Panics
    /// Panics if any node is `>= n` or the subset is empty.
    pub fn from_nodes(n: u32, nodes: &[u32]) -> Self {
        assert!(!nodes.is_empty(), "target set must not be empty");
        let mut col_of = vec![NONE_COL; n as usize];
        let mut node_of = Vec::with_capacity(nodes.len());
        for &v in nodes {
            assert!(v < n, "target node {v} out of range (n = {n})");
            if col_of[v as usize] == NONE_COL {
                col_of[v as usize] = node_of.len() as u32;
                node_of.push(v);
            }
        }
        TargetSet { col_of, node_of }
    }

    /// A deterministic pseudo-random sample of `size` destinations out of
    /// `0..n` (seeded, dependency-free `splitmix64`-based Fisher–Yates).
    pub fn sample(n: u32, size: u32, seed: u64) -> Self {
        let size = size.min(n).max(1);
        let mut pool: Vec<u32> = (0..n).collect();
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in 0..size as usize {
            let j = i + (next() % (n as u64 - i as u64)) as usize;
            pool.swap(i, j);
        }
        pool.truncate(size as usize);
        pool.sort_unstable();
        Self::from_nodes(n, &pool)
    }

    /// Number of destination columns.
    pub fn len(&self) -> usize {
        self.node_of.len()
    }

    /// Whether the set is empty (never true for constructed sets).
    pub fn is_empty(&self) -> bool {
        self.node_of.is_empty()
    }

    /// Column of node `v`, if `v` is a destination.
    #[inline]
    pub fn col_of(&self, v: u32) -> Option<u32> {
        let c = self.col_of[v as usize];
        (c != NONE_COL).then_some(c)
    }

    /// Node of column `c`.
    #[inline]
    pub fn node_of(&self, c: u32) -> u32 {
        self.node_of[c as usize]
    }

    /// The destination nodes, ascending.
    pub fn nodes(&self) -> &[u32] {
        &self.node_of
    }

    /// Partitions the columns into contiguous tiles of at most `tile`
    /// columns, as `(col_start, col_len)` pairs in ascending column order —
    /// the unit of [`crate::DpRun::tile`]. All tiles carry
    /// exactly `tile` columns except possibly the last; `tile >= len()` (or
    /// `tile == 0`, treated as "untiled") yields one full-range tile.
    pub fn tile_ranges(&self, tile: usize) -> Vec<(u32, u32)> {
        let ncols = self.len();
        let tile = if tile == 0 { ncols } else { tile.min(ncols) };
        let mut ranges = Vec::with_capacity(ncols.div_ceil(tile));
        let mut start = 0usize;
        while start < ncols {
            let len = tile.min(ncols - start);
            ranges.push((start as u32, len as u32));
            start += len;
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_identity() {
        let t = TargetSet::all(5);
        assert_eq!(t.len(), 5);
        for v in 0..5 {
            assert_eq!(t.col_of(v), Some(v));
            assert_eq!(t.node_of(v), v);
        }
    }

    #[test]
    fn subset_maps_both_ways() {
        let t = TargetSet::from_nodes(10, &[7, 2, 7, 4]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.col_of(7), Some(0));
        assert_eq!(t.col_of(2), Some(1));
        assert_eq!(t.col_of(4), Some(2));
        assert_eq!(t.col_of(0), None);
        assert_eq!(t.node_of(1), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subset_checks_range() {
        TargetSet::from_nodes(3, &[3]);
    }

    #[test]
    fn sample_is_deterministic_and_in_range() {
        let a = TargetSet::sample(100, 10, 42);
        let b = TargetSet::sample(100, 10, 42);
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.len(), 10);
        assert!(a.nodes().iter().all(|&v| v < 100));
        let c = TargetSet::sample(100, 10, 43);
        assert_ne!(a.nodes(), c.nodes(), "different seeds should differ");
    }

    #[test]
    fn sample_larger_than_n_is_clamped() {
        let t = TargetSet::sample(5, 50, 1);
        assert_eq!(t.nodes(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn tile_ranges_cover_exactly_once() {
        let t = TargetSet::all(10);
        assert_eq!(t.tile_ranges(4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(t.tile_ranges(10), vec![(0, 10)]);
        assert_eq!(t.tile_ranges(0), vec![(0, 10)]);
        assert_eq!(t.tile_ranges(100), vec![(0, 10)]);
        let ones = t.tile_ranges(1);
        assert_eq!(ones.len(), 10);
        for (i, &(s, l)) in ones.iter().enumerate() {
            assert_eq!((s, l), (i as u32, 1));
        }
        // every partition covers [0, len) without gaps or overlaps
        for tile in 1..=11 {
            let r = t.tile_ranges(tile);
            assert_eq!(r[0].0, 0);
            assert_eq!(r.last().unwrap().0 + r.last().unwrap().1, 10);
            for w in r.windows(2) {
                assert_eq!(w[0].0 + w[0].1, w[1].0);
            }
        }
    }
}
