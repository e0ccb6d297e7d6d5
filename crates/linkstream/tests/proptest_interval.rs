//! Interval streams at the ends of the `i64` range: random interval links
//! whose endpoints are drawn from the same edge timestamps as the parser
//! fuzzer, sampled with extreme periods and phases. `sample_periodic` and
//! `endpoints` must either fail with a typed [`BuildError`] or return
//! exactly the events of an `i128` model, and `mean_duration` must be the
//! exact mean — never a panic, a wrapped instant or an endless loop.

use proptest::prelude::*;
use saturn_linkstream::{
    BuildError, Directedness, IntervalLink, IntervalStream, IntervalStreamBuilder,
};
use std::collections::BTreeSet;

/// Timestamps at and next to the ends of the `i64` range, plus the values
/// around zero (as in `proptest_parse.rs`); further draws take any `i64`
/// or a value a few ticks inside either end.
const EDGE_TIMES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];

fn time((pick, any, near): (usize, i64, i64)) -> i64 {
    match pick {
        0..=6 => EDGE_TIMES[pick],
        7 => any,
        8 => i64::MAX - near,
        _ => i64::MIN + near,
    }
}

fn arb_time() -> impl Strategy<Value = i64> {
    (0usize..10, any::<i64>(), 0i64..9).prop_map(time)
}

/// Periods and phases: small values, the extremes, and anything positive.
fn arb_step(min: i64) -> impl Strategy<Value = i64> {
    (0usize..7, min..=i64::MAX)
        .prop_map(move |(pick, any)| [min, min + 1, 3, 4, i64::MAX / 2, i64::MAX, any][pick])
}

type Events = BTreeSet<(u32, u32, i64)>;

/// The reads of `sample_periodic(period, phase)` in exact arithmetic, or
/// the typed error it must return.
fn model_sampling(s: &IntervalStream, period: i64, phase: i64) -> Result<Events, BuildError> {
    let (begin, end) = (s.t_begin().ticks(), s.t_end().ticks());
    if end.checked_sub(begin).is_none() {
        return Err(BuildError::SpanOverflow { begin, end });
    }
    let first = i128::from(begin) + i128::from(phase);
    if first > i128::from(i64::MAX) {
        return Err(BuildError::SamplingOverflow { begin, phase });
    }
    let mut events = Events::new();
    for l in s.links() {
        let (start, stop) = (i128::from(l.start.ticks()), i128::from(l.end.ticks()));
        let mut t = first;
        if start > first {
            t += (start - first + i128::from(period) - 1) / i128::from(period)
                * i128::from(period);
        }
        while t <= stop {
            events.insert((l.u.raw(), l.v.raw(), t as i64));
            t += i128::from(period);
        }
    }
    Ok(events)
}

/// The events of `endpoints()` in exact arithmetic, or its typed error.
fn model_endpoints(s: &IntervalStream) -> Result<Events, BuildError> {
    let (begin, end) = (s.t_begin().ticks(), s.t_end().ticks());
    if end.checked_sub(begin).is_none() {
        return Err(BuildError::SpanOverflow { begin, end });
    }
    let mut events = Events::new();
    for l in s.links() {
        events.insert((l.u.raw(), l.v.raw(), l.start.ticks()));
        events.insert((l.u.raw(), l.v.raw(), l.end.ticks()));
    }
    Ok(events)
}

fn check(
    got: Result<saturn_linkstream::LinkStream, BuildError>,
    want: Result<Events, BuildError>,
    s: &IntervalStream,
) {
    let want = match want {
        Ok(events) if events.is_empty() => Err(BuildError::Empty),
        other => other,
    };
    match (got, want) {
        (Ok(stream), Ok(events)) => {
            let got: Events =
                stream.events().iter().map(|l| (l.u.raw(), l.v.raw(), l.t.ticks())).collect();
            assert_eq!(got, events);
            assert_eq!(stream.len(), events.len());
            assert_eq!((stream.t_begin(), stream.t_end()), (s.t_begin(), s.t_end()));
        }
        (got, want) => assert_eq!(got.map(|s| s.len()).unwrap_err(), want.unwrap_err()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn extreme_intervals_sample_exactly_or_fail_typed(
        links in proptest::collection::vec(
            ((0u32..4, 0u32..4), (arb_time(), arb_time())),
            1..6,
        ),
        period in arb_step(1),
        phase in arb_step(0),
        directed in any::<bool>(),
    ) {
        let directedness =
            if directed { Directedness::Directed } else { Directedness::Undirected };
        let mut b = IntervalStreamBuilder::new(directedness);
        for &((u, v), (start, end)) in &links {
            b.add(&format!("n{u}"), &format!("n{v}"), start, end);
        }
        // self-loops and inverted intervals only: a typed error
        let Ok(s) = b.build() else { continue };

        // durations are exact, and mean_duration is their mean
        let exact = |l: &IntervalLink| i128::from(l.end.ticks()) - i128::from(l.start.ticks());
        prop_assert!(s.links().iter().all(|l| i128::from(l.duration()) == exact(l)));
        let mean = s.links().iter().map(|l| exact(l) as f64).sum::<f64>() / s.len() as f64;
        prop_assert_eq!(s.mean_duration().to_bits(), mean.to_bits());
        prop_assert!(s.mean_duration() >= 0.0);

        check(s.endpoints(), model_endpoints(&s), &s);

        // keep the number of reads small: at most ~64 per link
        let longest = s.links().iter().map(|l| l.duration()).max().unwrap_or(0);
        let period = period.max(i64::try_from(longest / 64).unwrap_or(i64::MAX)).max(1);
        check(s.sample_periodic(period, phase), model_sampling(&s, period, phase), &s);
    }
}

/// The reproduction from the bug report: a link ending at `i64::MAX`, read
/// every 4 ticks from its start, gets its two reads and nothing more.
#[test]
fn sampling_stops_at_the_last_representable_instant() {
    let mut b = IntervalStreamBuilder::new(Directedness::Undirected);
    b.add("a", "b", i64::MAX - 5, i64::MAX);
    let s = b.build().unwrap();
    let p = s.sample_periodic(4, 0).unwrap();
    let ts: Vec<i64> = p.events().iter().map(|l| l.t.ticks()).collect();
    assert_eq!(ts, vec![i64::MAX - 5, i64::MAX - 1]);
    assert_eq!(
        s.sample_periodic(1, 6).unwrap_err(),
        BuildError::SamplingOverflow { begin: i64::MAX - 5, phase: 6 }
    );
    assert!(matches!(s.sample_periodic(1, 5), Ok(p) if p.len() == 1));

    let mut b = IntervalStreamBuilder::new(Directedness::Directed);
    b.add("a", "b", i64::MIN, i64::MAX);
    let s = b.build().unwrap();
    assert_eq!(s.links()[0].duration(), u64::MAX);
    assert_eq!(s.mean_duration(), u64::MAX as f64);
    assert!(matches!(s.sample_periodic(4, 0), Err(BuildError::SpanOverflow { .. })));
}
