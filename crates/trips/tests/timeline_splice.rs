//! Differential validation of the suffix splice (`Timeline::
//! spliced_from_view`), the primitive behind streaming re-analysis: on
//! random streams × random append splits × random scales, a timeline
//! spliced from its pre-append predecessor must equal the scratch rebuild
//! of the grown stream **field for field** — step indices, CSR offsets,
//! edge arrays, pair ids, distinct-pair count — including over chains of
//! repeated appends (each round splicing the previous round's result) and
//! for every conservative (earlier-than-necessary) dirty mark.
//!
//! Field equality is the whole contract: `Timeline` derives `PartialEq`,
//! the DP engine is a pure function of the timeline, and the sweep cache's
//! reuse test is exactly `==` — so these properties are what make an
//! incremental refresh byte-identical to a scratch analyze.

use proptest::prelude::*;
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder, Time};
use saturn_trips::{EventView, Timeline};

/// The pinned study period every stream in this file lives on.
const PERIOD_END: i64 = 60;

/// Field-for-field equality (panics with context for the proptest report).
fn assert_timelines_identical(a: &Timeline, b: &Timeline, what: &str) {
    assert_eq!(a.num_steps(), b.num_steps(), "{what}: num_steps");
    assert_eq!(a.nonempty_steps(), b.nonempty_steps(), "{what}: nonempty_steps");
    assert_eq!(a.distinct_pairs(), b.distinct_pairs(), "{what}: distinct_pairs");
    assert_eq!(a.total_edges(), b.total_edges(), "{what}: total_edges");
    for i in 0..a.nonempty_steps() {
        let (x, y) = (a.step(i), b.step(i));
        assert_eq!(x.index, y.index, "{what}: step {i} index");
        assert_eq!(x.src, y.src, "{what}: step {i} src");
        assert_eq!(x.dst, y.dst, "{what}: step {i} dst");
        assert_eq!(x.pair, y.pair, "{what}: step {i} pair ids");
    }
    assert_eq!(a, b, "{what}: PartialEq must agree with the field walk");
}

/// Adds `events` to `builder`, clamping each timestamp into
/// `[split, PERIOD_END]` (the append region) and dropping self-loops.
fn append_region(builder: &mut LinkStreamBuilder, events: &[(u32, u32, i64)], split: i64) {
    for &(u, v, t) in events {
        if u != v {
            builder.add_indexed(u, v, split + t % (PERIOD_END - split + 1));
        }
    }
}

/// The first window of scale `k` an event at `split` can land in — the
/// tightest correct dirty mark for appends at `t >= split`.
fn tight_dirty(stream: &LinkStream, k: u64, split: i64) -> u32 {
    stream.partition(k).expect("valid scale").index(Time::new(split)) as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// One append round: splice(old, grown view, first_dirty) == scratch
    /// for the tight dirty mark and for every conservative earlier one
    /// (halved, and the full-rebuild mark 0), directed and undirected.
    #[test]
    fn spliced_timeline_equals_scratch_on_random_append_splits(
        base in proptest::collection::vec((0u32..7, 0u32..7, 0i64..=PERIOD_END), 1..18),
        appends in proptest::collection::vec((0u32..7, 0u32..7, 0i64..=PERIOD_END), 0..12),
        split in 0i64..=PERIOD_END,
        k in 1u64..16,
        directed in any::<bool>(),
    ) {
        let d = if directed { Directedness::Directed } else { Directedness::Undirected };
        let mut builder = LinkStreamBuilder::indexed(d, 7);
        builder.period(0, PERIOD_END);
        for &(u, v, t) in &base {
            if u != v {
                builder.add_indexed(u, v, t);
            }
        }
        prop_assume!(!builder.is_empty());
        let base_stream = builder.snapshot().expect("non-empty base");
        append_region(&mut builder, &appends, split);
        let grown_stream = builder.build().expect("non-empty");

        let old = Timeline::aggregated_from_view(&EventView::new(&base_stream), k);
        let grown_view = EventView::new(&grown_stream);
        let scratch = Timeline::aggregated_from_view(&grown_view, k);
        let tight = tight_dirty(&grown_stream, k, split);
        for first_dirty in [tight, tight / 2, 0] {
            assert_timelines_identical(
                &old.spliced_from_view(&grown_view, first_dirty),
                &scratch,
                &format!("k={k} split={split} first_dirty={first_dirty}"),
            );
        }
    }

    /// The splice's edges: appends on the first tick of the dirty window
    /// (`⌈first_dirty · span / K⌉`, where the ceiling decides the window)
    /// and at `t_end` (clamped into window `K − 1`), a dirty mark of `K`
    /// (nothing can land there, so the splice is the identity), and new
    /// pairs on node 0, which sort before every base pair (base events
    /// avoid node 0) and so shift every old pair id.
    #[test]
    fn splice_edges_equal_scratch(
        base in proptest::collection::vec((1u32..7, 1u32..7, 0i64..=PERIOD_END), 1..18),
        appends in proptest::collection::vec((0u32..7, 0u32..7, any::<bool>()), 0..8),
        k in 1u64..16,
        dirty in 0u64..16,
        directed in any::<bool>(),
    ) {
        let first_dirty = (1 + dirty % k) as u32;
        let d = if directed { Directedness::Directed } else { Directedness::Undirected };
        let mut builder = LinkStreamBuilder::indexed(d, 7);
        builder.period(0, PERIOD_END);
        for &(u, v, t) in &base {
            if u != v {
                builder.add_indexed(u, v, t);
            }
        }
        prop_assume!(!builder.is_empty());
        let base_stream = builder.snapshot().expect("non-empty base");
        // the first tick of window `first_dirty`; none when it is `K`
        let first_tick = (i64::from(first_dirty) * PERIOD_END + k as i64 - 1) / k as i64;
        if u64::from(first_dirty) < k {
            for &(u, v, at_end) in &appends {
                if u != v {
                    builder.add_indexed(u, v, if at_end { PERIOD_END } else { first_tick });
                }
            }
        }
        let grown_stream = builder.build().expect("non-empty");
        if u64::from(first_dirty) < k {
            prop_assert_eq!(tight_dirty(&grown_stream, k, first_tick), first_dirty);
            prop_assert_eq!(tight_dirty(&grown_stream, k, first_tick - 1), first_dirty - 1);
        }

        let old = Timeline::aggregated_from_view(&EventView::new(&base_stream), k);
        let grown_view = EventView::new(&grown_stream);
        assert_timelines_identical(
            &old.spliced_from_view(&grown_view, first_dirty),
            &Timeline::aggregated_from_view(&grown_view, k),
            &format!("k={k} first_dirty={first_dirty}"),
        );
    }

    /// Repeated appends: three growth rounds, each round splicing the
    /// *previous round's spliced* timeline (never a scratch one), exactly
    /// as a session's sweep cache chains refreshes. Every round must equal
    /// the scratch rebuild of the stream-so-far.
    #[test]
    fn splice_chains_across_repeated_appends(
        base in proptest::collection::vec((0u32..7, 0u32..7, 0i64..=PERIOD_END), 1..14),
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u32..7, 0u32..7, 0i64..=PERIOD_END), 0..8),
             0i64..=PERIOD_END),
            1..4,
        ),
        k in 1u64..16,
    ) {
        let mut builder = LinkStreamBuilder::indexed(Directedness::Undirected, 7);
        builder.period(0, PERIOD_END);
        for &(u, v, t) in &base {
            if u != v {
                builder.add_indexed(u, v, t);
            }
        }
        prop_assume!(!builder.is_empty());
        let mut current = Timeline::aggregated_from_view(
            &EventView::new(&builder.snapshot().expect("non-empty base")),
            k,
        );
        for (round, (events, split)) in rounds.iter().enumerate() {
            append_region(&mut builder, events, *split);
            let grown = builder.snapshot().expect("non-empty");
            let view = EventView::new(&grown);
            current = current.spliced_from_view(&view, tight_dirty(&grown, k, *split));
            assert_timelines_identical(
                &current,
                &Timeline::aggregated_from_view(&view, k),
                &format!("k={k} round={round} split={split}"),
            );
        }
    }
}
