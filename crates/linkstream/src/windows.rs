//! Exact partition of a study period into `K` equal disjoint windows.
//!
//! Definition 1 of the paper chooses `Δ = T/K` for an integer `K >= 1` and
//! forms the windows `[(k-1)Δ, kΔ)`. With integer-tick timestamps, `Δ` is the
//! rational `span/K`; this module maps instants to window indices with exact
//! integer arithmetic so that no floating-point boundary artefact can move an
//! event across windows.

use crate::{Link, LinkStream, Time};
use serde::Serialize;
use std::fmt;

/// Errors raised when constructing a [`WindowPartition`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowError {
    /// `k` must be at least one.
    ZeroWindows,
    /// A zero-length study period can only form the single window `K = 1`.
    ZeroSpanNeedsSingleWindow {
        /// The requested number of windows.
        k: u64,
    },
}

impl fmt::Display for WindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowError::ZeroWindows => write!(f, "the number of windows K must be >= 1"),
            WindowError::ZeroSpanNeedsSingleWindow { k } => {
                write!(f, "study period has zero length; K must be 1 (got {k})")
            }
        }
    }
}

impl std::error::Error for WindowError {}

/// The partition of `[t_begin, t_end]` into `k` windows of equal length
/// `Δ = (t_end - t_begin)/k`.
///
/// Window `w` (0-based) covers the half-open real interval
/// `[t_begin + w·Δ, t_begin + (w+1)·Δ)`; the final instant `t_end` is
/// assigned to the last window.
///
/// ```
/// use saturn_linkstream::{Time, WindowPartition};
/// let p = WindowPartition::new(Time::new(0), Time::new(10), 4).unwrap();
/// assert_eq!(p.delta_ticks(), 2.5);
/// assert_eq!(p.index(Time::new(0)), 0);
/// assert_eq!(p.index(Time::new(2)), 0);  // 2 < 2.5
/// assert_eq!(p.index(Time::new(3)), 1);  // 2.5 <= 3 < 5
/// assert_eq!(p.index(Time::new(10)), 3); // t_end clamps into the last window
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct WindowPartition {
    t_begin: Time,
    span: i64,
    k: u64,
    /// Whether `span · k < 2^64`, so [`index`](Self::index) can divide in
    /// `u64` instead of `i128` (a function of `span` and `k`, decided once).
    narrow: bool,
}

impl WindowPartition {
    /// Creates the partition of `[t_begin, t_end]` into `k` equal windows.
    pub fn new(t_begin: Time, t_end: Time, k: u64) -> Result<Self, WindowError> {
        if k == 0 {
            return Err(WindowError::ZeroWindows);
        }
        let span = t_end - t_begin;
        assert!(span >= 0, "t_end must not precede t_begin");
        if span == 0 && k != 1 {
            return Err(WindowError::ZeroSpanNeedsSingleWindow { k });
        }
        let narrow = (span as u64).checked_mul(k).is_some();
        Ok(WindowPartition { t_begin, span, k, narrow })
    }

    /// Number of windows `K`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Start of the study period.
    pub fn t_begin(&self) -> Time {
        self.t_begin
    }

    /// Length of the study period in ticks.
    pub fn span(&self) -> i64 {
        self.span
    }

    /// Window length `Δ = span/K` in ticks, as a float (for reporting; all
    /// index computations are exact).
    pub fn delta_ticks(&self) -> f64 {
        self.span as f64 / self.k as f64
    }

    /// Maps an instant inside the study period to its 0-based window index:
    /// `⌊off · k / span⌋` for the offset `off = t − t_begin`, clamped into
    /// the last window. The product fits a `u64` whenever `span · k` does
    /// (decided once, by [`new`](Self::new)); wider partitions divide in
    /// `i128`.
    ///
    /// # Panics
    /// Panics in debug builds if `t` lies outside the study period.
    pub fn index(&self, t: Time) -> u64 {
        let off = t - self.t_begin;
        debug_assert!(off >= 0 && off <= self.span, "instant {t} outside study period");
        if self.span == 0 {
            return 0;
        }
        let idx = if self.narrow {
            off as u64 * self.k / self.span as u64
        } else {
            (off as i128 * self.k as i128 / self.span as i128) as u64
        };
        idx.min(self.k - 1)
    }

    /// Real-valued bounds `[lo, hi)` of window `w`, in ticks from the origin.
    pub fn window_bounds(&self, w: u64) -> (f64, f64) {
        let d = self.delta_ticks();
        let base = self.t_begin.ticks() as f64;
        (base + w as f64 * d, base + (w + 1) as f64 * d)
    }

    /// Iterates over the non-empty windows of `stream` in ascending order,
    /// yielding `(window_index, events_in_window)`.
    ///
    /// The events of one window form a contiguous slice of the stream because
    /// events are time-sorted; empty windows are skipped (they are no-ops for
    /// every consumer in this workspace, which all reason in terms of window
    /// indices).
    pub fn window_slices<'a>(&self, stream: &'a LinkStream) -> WindowSlices<'a> {
        WindowSlices { partition: *self, rest: stream.events() }
    }
}

/// Ascending iterator over non-empty windows; see
/// [`WindowPartition::window_slices`].
pub struct WindowSlices<'a> {
    partition: WindowPartition,
    rest: &'a [Link],
}

impl<'a> Iterator for WindowSlices<'a> {
    type Item = (u64, &'a [Link]);

    fn next(&mut self) -> Option<Self::Item> {
        let first = self.rest.first()?;
        let w = self.partition.index(first.t);
        let end = self.rest.partition_point(|l| self.partition.index(l.t) == w);
        let (head, tail) = self.rest.split_at(end);
        self.rest = tail;
        Some((w, head))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Directedness, LinkStreamBuilder};

    #[test]
    fn rejects_zero_k() {
        assert_eq!(
            WindowPartition::new(Time::new(0), Time::new(10), 0).unwrap_err(),
            WindowError::ZeroWindows
        );
    }

    #[test]
    fn zero_span_only_one_window() {
        assert!(WindowPartition::new(Time::new(5), Time::new(5), 1).is_ok());
        assert_eq!(
            WindowPartition::new(Time::new(5), Time::new(5), 3).unwrap_err(),
            WindowError::ZeroSpanNeedsSingleWindow { k: 3 }
        );
    }

    #[test]
    fn indices_partition_the_period_exactly() {
        // span 10, K = 3 => windows of length 10/3: [0,10/3), [10/3,20/3), [20/3,10]
        let p = WindowPartition::new(Time::new(0), Time::new(10), 3).unwrap();
        let idx: Vec<u64> = (0..=10).map(|t| p.index(Time::new(t))).collect();
        assert_eq!(idx, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn index_is_monotone_for_many_k() {
        let p0 = Time::new(-17);
        let p1 = Time::new(9_431);
        for k in [1u64, 2, 3, 7, 100, 9_448] {
            let p = WindowPartition::new(p0, p1, k).unwrap();
            let mut prev = 0;
            for t in p0.ticks()..=p1.ticks() {
                let w = p.index(Time::new(t));
                assert!(w >= prev && w < k, "k={k} t={t} w={w}");
                prev = w;
            }
            // every window receives at least... only when k <= span+1:
            if k <= (p1 - p0) as u64 {
                let last = p.index(p1);
                assert_eq!(last, k - 1);
            }
        }
    }

    /// The `i128` formula the `u64` path must reproduce.
    fn wide_index(t_begin: i64, span: i64, k: u64, t: i64) -> u64 {
        let off = t as i128 - t_begin as i128;
        ((off * k as i128 / span as i128) as u64).min(k - 1)
    }

    /// Both arithmetic paths agree with the `i128` formula around the
    /// `span · k = 2^64` boundary, at the largest engine window count,
    /// with a negative `t_begin`, and at `off == span` (the clamp).
    #[test]
    fn u64_and_i128_paths_agree_with_the_exact_formula() {
        let max_k = u32::MAX as u64 - 1;
        // span · k just below 2^64 (narrow) and just above (wide)
        let below = (u64::MAX / max_k) as i64;
        let cases = [
            (-1_000_000_007i64, below, max_k),
            (-5, below + 1, max_k),
            (i64::MIN / 2, 1i64 << 32, 1u64 << 32),
            (-3, (1i64 << 32) + 1, 1u64 << 32),
            (-17, 9_448, 9_448),
            (0, i64::MAX, 2),
            (i64::MIN, i64::MAX, max_k),
        ];
        for (t_begin, span, k) in cases {
            let p =
                WindowPartition::new(Time::new(t_begin), Time::new(t_begin + span), k).unwrap();
            let narrow = (span as u128) * (k as u128) < 1u128 << 64;
            assert_eq!(p.narrow, narrow, "span={span} k={k}");
            let mut offs = vec![0, 1, span / 3, span / 2, span - 1, span];
            offs.extend((1..64).map(|i| ((span as u128 * i / 64) as i64).max(0)));
            for off in offs {
                let t = t_begin + off;
                assert_eq!(
                    p.index(Time::new(t)),
                    wide_index(t_begin, span, k, t),
                    "t_begin={t_begin} span={span} k={k} off={off}"
                );
            }
            assert_eq!(p.index(Time::new(t_begin + span)), k - 1, "off == span clamps");
        }
    }

    #[test]
    fn k_equal_one_is_total_aggregation() {
        let p = WindowPartition::new(Time::new(3), Time::new(1000), 1).unwrap();
        assert_eq!(p.index(Time::new(3)), 0);
        assert_eq!(p.index(Time::new(700)), 0);
        assert_eq!(p.index(Time::new(1000)), 0);
    }

    fn sample_stream() -> LinkStream {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 0);
        b.add("b", "c", 1);
        b.add("a", "c", 5);
        b.add("c", "d", 9);
        b.add("a", "d", 10);
        b.build().unwrap()
    }

    #[test]
    fn window_slices_cover_all_events_in_order() {
        let s = sample_stream();
        let p = s.partition(5).unwrap(); // Δ = 2
        let got: Vec<(u64, usize)> = p.window_slices(&s).map(|(w, g)| (w, g.len())).collect();
        // windows: [0,2) -> t=0,1 ; [2,4) empty ; [4,6) -> 5 ; [6,8) empty ; [8,10] -> 9,10
        assert_eq!(got, vec![(0, 2), (2, 1), (4, 2)]);
        let total: usize = p.window_slices(&s).map(|(_, g)| g.len()).sum();
        assert_eq!(total, s.len());
    }

    #[test]
    fn bounds_are_consistent_with_index() {
        let p = WindowPartition::new(Time::new(0), Time::new(100), 7).unwrap();
        for w in 0..7 {
            let (lo, hi) = p.window_bounds(w);
            // a tick strictly inside [lo, hi) must map to w
            let t = lo.ceil() as i64;
            if (t as f64) < hi && t <= 100 {
                assert_eq!(p.index(Time::new(t)), w, "w={w} t={t}");
            }
        }
    }
}
