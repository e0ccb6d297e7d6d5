//! Property-based validation of the stream substrate: builder invariants,
//! I/O round-trips, window partitions, interval punctualization.

use proptest::prelude::*;
use saturn_linkstream::{
    io, Directedness, IntervalStreamBuilder, LinkStreamBuilder, Time, WindowPartition,
};

fn arb_events() -> impl Strategy<Value = Vec<(u32, u32, i64)>> {
    proptest::collection::vec((0u32..12, 0u32..12, -500i64..500), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Built streams are sorted, deduplicated, normalized, and loop-free.
    #[test]
    fn builder_invariants(events in arb_events(), directed in any::<bool>()) {
        let d = if directed { Directedness::Directed } else { Directedness::Undirected };
        let mut b = LinkStreamBuilder::indexed(d, 12);
        let mut usable = 0;
        for &(u, v, t) in &events {
            if u != v {
                usable += 1;
            }
            b.add_indexed(u, v, t);
        }
        prop_assume!(usable > 0);
        let s = b.build().unwrap();
        // sorted by (t, u, v), strictly (dedup)
        prop_assert!(s
            .events()
            .windows(2)
            .all(|w| (w[0].t, w[0].u, w[0].v) < (w[1].t, w[1].u, w[1].v)));
        prop_assert!(s.events().iter().all(|l| l.u != l.v));
        if !directed {
            prop_assert!(s.events().iter().all(|l| l.u.raw() <= l.v.raw()));
        }
        // period covers every event
        prop_assert!(s.events().iter().all(|l| l.t >= s.t_begin() && l.t <= s.t_end()));
        // conservation: usable events = kept + duplicate-drops
        prop_assert_eq!(usable, s.len() + s.dropped_duplicates());
    }

    /// Snapshots taken between random appends (self-loops, duplicates and
    /// out-of-order instants included) equal a one-shot build of the
    /// events so far, and so does the final build; the builder's `len()`
    /// matches a one-shot builder's after every batch.
    #[test]
    fn snapshots_between_appends_equal_one_shot_builds(
        events in proptest::collection::vec((0u32..6, 0u32..6, 0i64..40), 1..120),
        cuts in proptest::collection::vec(0usize..120, 0..6),
        directed in any::<bool>(),
    ) {
        let d = if directed { Directedness::Directed } else { Directedness::Undirected };
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % events.len()).collect();
        cuts.push(events.len());
        cuts.sort_unstable();
        let label = |u: u32| format!("n{u}");
        let mut session = LinkStreamBuilder::new(d);
        session.period(0, 40);
        let mut at = 0;
        for cut in cuts {
            for &(u, v, t) in &events[at..cut] {
                session.add(&label(u), &label(v), t);
            }
            at = cut;
            let mut oneshot = LinkStreamBuilder::new(d);
            oneshot.period(0, 40);
            for &(u, v, t) in &events[..cut] {
                oneshot.add(&label(u), &label(v), t);
            }
            prop_assert_eq!(session.len(), oneshot.len());
            prop_assert_eq!(session.is_empty(), oneshot.is_empty());
            match (session.snapshot(), oneshot.build()) {
                (Ok(snap), Ok(scratch)) => {
                    prop_assert_eq!(snap.events(), scratch.events());
                    prop_assert_eq!(snap.labels(), scratch.labels());
                    prop_assert_eq!(snap.len(), scratch.len());
                    prop_assert_eq!(snap.dropped_duplicates(), scratch.dropped_duplicates());
                    prop_assert_eq!(snap.dropped_self_loops(), scratch.dropped_self_loops());
                    prop_assert_eq!((snap.t_begin(), snap.t_end()), (scratch.t_begin(), scratch.t_end()));
                }
                (snap, scratch) => prop_assert_eq!(snap.err(), scratch.err()),
            }
        }
        let mut oneshot = LinkStreamBuilder::new(d);
        oneshot.period(0, 40);
        for &(u, v, t) in &events {
            oneshot.add(&label(u), &label(v), t);
        }
        match (session.build(), oneshot.build()) {
            (Ok(built), Ok(scratch)) => {
                prop_assert_eq!(built.events(), scratch.events());
                prop_assert_eq!(built.dropped_duplicates(), scratch.dropped_duplicates());
            }
            (built, scratch) => prop_assert_eq!(built.err(), scratch.err()),
        }
    }

    /// Text serialization round-trips exactly.
    #[test]
    fn io_round_trip(events in arb_events(), directed in any::<bool>()) {
        let d = if directed { Directedness::Directed } else { Directedness::Undirected };
        let mut b = LinkStreamBuilder::new(d);
        let mut any_usable = false;
        for &(u, v, t) in &events {
            if u != v {
                any_usable = true;
            }
            b.add(&format!("n{u}"), &format!("n{v}"), t);
        }
        prop_assume!(any_usable);
        let s = b.build().unwrap();
        let text = io::to_string(&s);
        let s2 = io::read_str(&text, d).unwrap();
        prop_assert_eq!(s.len(), s2.len());
        // labels may be re-interned in a different order (which flips the
        // stored orientation of undirected links), so compare label pairs,
        // unordered when undirected
        let canon = |s: &saturn_linkstream::LinkStream| {
            let mut v: Vec<(String, String, i64)> = s
                .events()
                .iter()
                .map(|l| {
                    let (a, b) = (s.label(l.u).to_string(), s.label(l.v).to_string());
                    let (a, b) = if directed || a <= b { (a, b) } else { (b, a) };
                    (a, b, l.t.ticks())
                })
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(canon(&s), canon(&s2));
    }

    /// Window index is monotone, within range, and consistent with bounds.
    #[test]
    fn window_index_properties(
        begin in -1000i64..1000,
        span in 1i64..5000,
        k in 1u64..300,
        probe in 0.0f64..=1.0,
    ) {
        let t0 = Time::new(begin);
        let t1 = Time::new(begin + span);
        let p = WindowPartition::new(t0, t1, k).unwrap();
        let t = Time::new(begin + (span as f64 * probe) as i64);
        let w = p.index(t);
        prop_assert!(w < k);
        // bounds agreement
        let (lo, hi) = p.window_bounds(w);
        let tf = t.ticks() as f64;
        prop_assert!(tf >= lo - 1e-9);
        prop_assert!(tf < hi + 1e-9 || w == k - 1);
        // monotonicity at the next tick
        if t < t1 {
            prop_assert!(p.index(t + 1) >= w);
        }
    }

    /// Periodic sampling of interval links: every sampled event lies inside
    /// its source interval, and finer periods never lose events.
    #[test]
    fn interval_sampling_properties(
        intervals in proptest::collection::vec((0u32..6, 0u32..6, 0i64..300, 0i64..100), 1..20),
        period in 1i64..40,
    ) {
        let mut b = IntervalStreamBuilder::new(Directedness::Undirected);
        b.period(0, 500);
        let mut usable = false;
        for &(u, v, start, len) in &intervals {
            if u != v {
                usable = true;
            }
            b.add(&format!("n{u}"), &format!("n{v}"), start, (start + len).min(500));
        }
        prop_assume!(usable);
        let s = b.build().unwrap();

        // a sampling grid can miss every interval entirely (zero-length
        // contacts between read instants): an Empty build is valid there
        let Ok(fine) = s.sample_periodic(period, 0) else { continue };
        // every sampled instant is covered by some interval of the pair
        for l in fine.events() {
            let covered = s.links().iter().any(|il| {
                il.u.raw() == l.u.raw()
                    && il.v.raw() == l.v.raw()
                    && il.start <= l.t
                    && l.t <= il.end
            });
            prop_assert!(covered, "sampled event outside every interval");
        }
        // doubling the period reads a subset of the instants, so it can
        // only lose events
        let coarse_len = s.sample_periodic(period * 2, 0).map(|c| c.len()).unwrap_or(0);
        prop_assert!(fine.len() >= coarse_len);
    }
}
