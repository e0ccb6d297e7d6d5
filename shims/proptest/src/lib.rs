//! Workspace-local stand-in for `proptest`.
//!
//! Implements the subset the workspace's property suites use — the
//! [`proptest!`] macro, [`Strategy`] with `prop_map` / `prop_filter` /
//! `prop_filter_map`, range and tuple strategies, [`collection::vec`] and
//! [`collection::btree_set`], `any::<bool>()`, and the `prop_assert*` /
//! `prop_assume` macros.
//!
//! Differences from the real crate, deliberate for an offline, reproducible
//! build: generation is seeded deterministically from the test name (every
//! run explores the identical case sequence, so CI failures always reproduce
//! locally), and there is no shrinking — failing inputs surface exactly as
//! generated. The per-test case counts here are small enough that unshrunk
//! inputs stay readable.

use std::ops::{Range, RangeInclusive};

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Per-suite configuration (`cases` is the only knob the workspace uses).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic generation source (xoshiro256++ seeded from the test name).
#[derive(Clone, Debug)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds deterministically from an arbitrary tag (the test's name).
    pub fn deterministic(tag: &str) -> Self {
        // FNV-1a over the tag, then splitmix64 expansion
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tag.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut sm = h;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        TestRng { s: [next(), next(), next(), next()] }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "cannot sample an empty range");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A recipe producing random values; `generate` returns `None` when a
/// filter rejects the draw (the driver then retries with fresh randomness).
pub trait Strategy {
    /// The produced type.
    type Value;

    /// Draws one value, or `None` on filter rejection.
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Keeps only values passing `pred`.
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        _why: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { base: self, pred }
    }

    /// Maps through a fallible `f`, rejecting `None` results.
    fn prop_filter_map<U, F: Fn(Self::Value) -> Option<U>>(
        self,
        _why: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap { base: self, f }
    }

    /// Type-erases the strategy (compatibility with `proptest` signatures).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// See [`Strategy::boxed`].
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> Option<T> {
        self.0.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> Option<U> {
        self.base.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    base: S,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        self.base.generate(rng).filter(|v| (self.pred)(v))
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> Option<U> {
        self.base.generate(rng).and_then(&self.f)
    }
}

/// A strategy always producing a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

/// Types with a canonical full-range strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draws a uniform value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The strategy behind [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> Option<T> {
        Some(T::arbitrary(rng))
    }
}

/// The canonical strategy for `T` (`any::<bool>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i128 - self.start as i128) as u64;
                Some((self.start as i128 + rng.below(width) as i128) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let width = (end as i128 - start as i128) as u128 + 1;
                if width > u64::MAX as u128 {
                    return Some(rng.next_u64() as $t);
                }
                Some((start as i128 + rng.below(width as u64) as i128) as $t)
            }
        }
    )*};
}
int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> Option<f64> {
        assert!(self.start < self.end, "empty range strategy");
        let x = self.start + rng.unit_f64() * (self.end - self.start);
        Some(x.min(self.end - (self.end - self.start) * f64::EPSILON))
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> Option<f64> {
        let (start, end) = (*self.start(), *self.end());
        Some(start + rng.unit_f64() * (end - start))
    }
}

macro_rules! tuple_strategies {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                Some(($(self.$n.generate(rng)?,)+))
            }
        }
    )+};
}
tuple_strategies! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// A `Vec` of `len ∈ size` elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// A `BTreeSet` with `len ∈ size` distinct elements from `element`.
    pub fn btree_set<S: Strategy>(element: S, size: Range<usize>) -> BTreeSetStrategy<S> {
        BTreeSetStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let width = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + rng.below(width) as usize;
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                // retry rejected elements a few times before giving up on
                // the whole draw
                let mut element = None;
                for _ in 0..16 {
                    if let Some(v) = self.element.generate(rng) {
                        element = Some(v);
                        break;
                    }
                }
                out.push(element?);
            }
            Some(out)
        }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<BTreeSet<S::Value>> {
            let width = (self.size.end - self.size.start).max(1) as u64;
            let target = self.size.start + rng.below(width) as usize;
            let mut out = BTreeSet::new();
            // duplicates shrink the draw; cap the attempts so tight domains
            // terminate
            for _ in 0..target.saturating_mul(20).max(20) {
                if out.len() >= target {
                    break;
                }
                if let Some(v) = self.element.generate(rng) {
                    out.insert(v);
                }
            }
            if out.len() >= self.size.start.max(1).min(target.max(1)) {
                Some(out)
            } else {
                None
            }
        }
    }
}

pub use collection::{BTreeSetStrategy, VecStrategy};

/// Asserts inside a property (plain `assert!` semantics in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Inequality assert inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skips the current case when `cond` is false (the case does not count
/// toward the accepted total in real proptest; here it does, which only
/// means slightly fewer effective cases — acceptable for these suites).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// The test-suite macro: expands each `fn name(arg in strategy, ...) {...}`
/// into a `#[test]` that draws `cases` accepted inputs deterministically and
/// runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                let mut accepted: u32 = 0;
                let mut attempts: u64 = 0;
                while accepted < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= (config.cases as u64) * 500 + 10_000,
                        "proptest shim: strategies rejected too many draws in `{}`",
                        stringify!($name)
                    );
                    $(
                        let $arg = match $crate::Strategy::generate(&($strat), &mut rng) {
                            Some(value) => value,
                            None => continue,
                        };
                    )*
                    accepted += 1;
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = super::TestRng::deterministic("t1");
        for _ in 0..1000 {
            let v = (0u32..6, 0u32..6, 0i64..31).generate(&mut rng).unwrap();
            assert!(v.0 < 6 && v.1 < 6 && (0..31).contains(&v.2));
        }
    }

    #[test]
    fn filter_map_rejects() {
        let strat = (0u32..10).prop_filter_map("even only", |x| (x % 2 == 0).then_some(x));
        let mut rng = super::TestRng::deterministic("t2");
        let mut seen = 0;
        for _ in 0..200 {
            if let Some(x) = strat.generate(&mut rng) {
                assert_eq!(x % 2, 0);
                seen += 1;
            }
        }
        assert!(seen > 50);
    }

    #[test]
    fn collections_honor_size() {
        let mut rng = super::TestRng::deterministic("t3");
        for _ in 0..100 {
            let v = super::collection::vec(0u32..100, 1..12).generate(&mut rng).unwrap();
            assert!((1..12).contains(&v.len()));
            let s = super::collection::btree_set(0u32..6, 1..4).generate(&mut rng);
            if let Some(s) = s {
                assert!(!s.is_empty() && s.len() < 4);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn the_macro_itself_works(x in 1u64..100, flip in any::<bool>()) {
            prop_assume!(x != 13);
            prop_assert!((1..100).contains(&x));
            prop_assert!(flip as u32 <= 1);
        }
    }
}
