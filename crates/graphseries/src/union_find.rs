//! Versioned disjoint-set forest.
//!
//! The per-snapshot connectivity metrics need a union-find that is reset for
//! every window of the series. A plain reset costs `O(n)` per window, which
//! dominates everything else when the series has millions of mostly-empty
//! windows. This implementation instead stamps every cell with a *version*
//! and lazily reinitializes a cell the first time it is touched after
//! [`UnionFind::reset`], making a reset `O(1)`.

/// Disjoint-set forest over `0..n` with union by size, path halving, and
/// O(1) versioned reset.
///
/// ```
/// use saturn_graphseries::UnionFind;
/// let mut uf = UnionFind::new(5);
/// uf.union(0, 1);
/// uf.union(3, 4);
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(1, 3));
/// assert_eq!(uf.component_size(4), 2);
/// uf.reset();
/// assert!(!uf.connected(0, 1));
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    version: Vec<u32>,
    current: u32,
    touched: usize,
}

impl UnionFind {
    /// Creates a forest of `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "UnionFind supports at most u32::MAX elements");
        UnionFind {
            parent: vec![0; n],
            size: vec![0; n],
            version: vec![0; n],
            current: 1,
            touched: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest is over an empty universe.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of elements touched (by any query or union) since the last
    /// reset: after unioning a graph's edges, its non-isolated nodes.
    pub fn touched(&self) -> usize {
        self.touched
    }

    /// Forgets all unions in O(1).
    pub fn reset(&mut self) {
        self.touched = 0;
        self.current = self.current.checked_add(1).unwrap_or_else(|| {
            // Version counter wrapped (after 2^32 resets): do one eager clear.
            self.version.fill(0);
            1
        });
    }

    #[inline]
    fn touch(&mut self, x: u32) {
        if self.version[x as usize] != self.current {
            self.version[x as usize] = self.current;
            self.parent[x as usize] = x;
            self.size[x as usize] = 1;
            self.touched += 1;
        }
    }

    /// Returns the representative of `x`'s set.
    pub fn find(&mut self, x: u32) -> u32 {
        self.touch(x);
        let mut x = x;
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand; // path halving
            x = grand;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (big, small) =
            if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }

    /// Whether `a` and `b` are currently in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn component_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unions_merge_and_track_sizes() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2)); // already joined
        assert_eq!(uf.component_size(1), 3);
        assert_eq!(uf.touched(), 3);
        assert_eq!(uf.component_size(5), 1);
        assert_eq!(uf.touched(), 4);
    }

    #[test]
    fn reset_is_effective() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 3);
        uf.reset();
        assert_eq!(uf.touched(), 0);
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.component_size(0), 1);
        // and unions work again after reset
        uf.union(2, 3);
        assert!(uf.connected(2, 3));
    }

    #[test]
    fn many_resets_stay_consistent() {
        let mut uf = UnionFind::new(3);
        for round in 0..1000 {
            uf.reset();
            if round % 2 == 0 {
                uf.union(0, 1);
                assert!(uf.connected(0, 1));
                assert!(!uf.connected(1, 2));
            } else {
                uf.union(1, 2);
                assert!(uf.connected(1, 2));
                assert!(!uf.connected(0, 1));
            }
        }
    }

    #[test]
    fn transitive_connectivity_chain() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert!(uf.connected(0, 99));
        assert_eq!(uf.component_size(42), 100);
    }
}
