//! Link streams with *durations* — the paper's first stated perspective.
//!
//! The occupancy method handles punctual links only; Section 9 names the
//! extension to links lasting over an interval (phone calls, physical
//! contacts) as the main open direction, and the related work (refs 12 and 3 in
//! the paper) studies such data through *oversampling*: a sensor reads the
//! network every `p` seconds and reports each live link as a punctual event.
//!
//! This module provides the interval data model and the two standard
//! conversions to punctual streams, so duration data can be analyzed with
//! the existing machinery while a duration-native trip theory remains future
//! work (documented in DESIGN.md):
//!
//! * [`IntervalStream::sample_periodic`] — the sampling-process model of
//!   those references: one punctual event per sampling tick while a link is
//!   live;
//! * [`IntervalStream::endpoints`] — one event at each interval boundary
//!   (the minimal punctualization).

use crate::{
    check_span, BuildError, Directedness, LinkStream, LinkStreamBuilder, NodeId, NodeInterner,
    Time,
};
use serde::Serialize;

/// Most punctual events [`IntervalStream::sample_periodic`] reads: the trip
/// engine indexes steps and edges with `u32`, so a larger stream could not
/// be analyzed anyway.
pub const MAX_SAMPLED_EVENTS: u64 = u32::MAX as u64;

/// One link existing over the closed interval `[start, end]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub struct IntervalLink {
    /// First endpoint (source, if directed).
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// First instant of existence.
    pub start: Time,
    /// Last instant of existence (`start <= end`).
    pub end: Time,
}

impl IntervalLink {
    /// Duration `end - start` in ticks (0 for an instantaneous contact).
    /// Exact for every link: `end >= start`, so even `[i64::MIN, i64::MAX]`
    /// fits in a `u64`.
    pub fn duration(&self) -> u64 {
        self.end.ticks().abs_diff(self.start.ticks())
    }
}

/// A finite collection of interval links.
#[derive(Clone, Debug, Serialize)]
pub struct IntervalStream {
    directedness: Directedness,
    labels: Vec<String>,
    links: Vec<IntervalLink>,
    t_begin: Time,
    t_end: Time,
}

impl IntervalStream {
    /// Orientation of the links.
    pub fn directedness(&self) -> Directedness {
        self.directedness
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// The interval links, sorted by `(start, end, u, v)`.
    pub fn links(&self) -> &[IntervalLink] {
        &self.links
    }

    /// Number of interval links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the stream holds no link.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Start of the study period.
    pub fn t_begin(&self) -> Time {
        self.t_begin
    }

    /// End of the study period.
    pub fn t_end(&self) -> Time {
        self.t_end
    }

    /// Label of a node.
    pub fn label(&self, id: NodeId) -> &str {
        &self.labels[id.index()]
    }

    /// Mean link duration in ticks.
    pub fn mean_duration(&self) -> f64 {
        if self.links.is_empty() {
            return f64::NAN;
        }
        self.links.iter().map(|l| l.duration() as f64).sum::<f64>() / self.links.len() as f64
    }

    /// Oversamples into a punctual stream: the network is read at instants
    /// `t_begin + phase, t_begin + phase + period, ...` and every link live
    /// at a read instant produces one punctual event — the measurement model
    /// of distributed sensor deployments (refs 12 and 3 in the paper).
    ///
    /// Read instants past `i64::MAX` do not exist, so a link is read up to
    /// its end or the last representable instant, whichever comes first.
    /// Fails with [`BuildError::SamplingOverflow`] when the first read
    /// instant `t_begin + phase` is not representable, with
    /// [`BuildError::SpanOverflow`] (before sampling anything) when the
    /// study period is longer than `i64::MAX` ticks, and with
    /// [`BuildError::TooManySamples`] (also before sampling anything) when
    /// the reads would exceed [`MAX_SAMPLED_EVENTS`].
    ///
    /// # Panics
    /// Panics if `period < 1` or `phase < 0`.
    pub fn sample_periodic(&self, period: i64, phase: i64) -> Result<LinkStream, BuildError> {
        assert!(period >= 1, "sampling period must be at least one tick");
        assert!(phase >= 0, "phase must be non-negative");
        check_span(self.t_begin, self.t_end)?;
        let begin = self.t_begin.ticks();
        let first =
            begin.checked_add(phase).ok_or(BuildError::SamplingOverflow { begin, phase })?;
        // first sampling instant >= link.start, in i128 so that neither the
        // offset nor the rounded-up instant can wrap; past i64::MAX the link
        // is never read
        let first_read = |link: &IntervalLink| {
            let offset = i128::from(link.start.ticks()) - i128::from(first);
            let steps = if offset <= 0 { 0 } else { (offset - 1) / i128::from(period) + 1 };
            i64::try_from(i128::from(first) + steps * i128::from(period)).ok()
        };
        let reads: i128 = self
            .links
            .iter()
            .filter_map(|link| Some((first_read(link)?, link.end.ticks())))
            .filter(|&(t, end)| t <= end)
            .map(|(t, end)| (i128::from(end) - i128::from(t)) / i128::from(period) + 1)
            .sum();
        if reads > i128::from(MAX_SAMPLED_EVENTS) {
            return Err(BuildError::TooManySamples {
                reads: reads as u128,
                cap: MAX_SAMPLED_EVENTS,
            });
        }
        let mut b = self.punctual_builder();
        b.period(self.t_begin, self.t_end);
        for link in &self.links {
            let Some(mut t) = first_read(link) else { continue };
            while t <= link.end.ticks() {
                b.add_indexed(link.u.raw(), link.v.raw(), t);
                let Some(next) = t.checked_add(period) else { break };
                t = next;
            }
        }
        b.build()
    }

    /// Punctualizes each interval to its two boundary instants (one instant
    /// if the duration is zero).
    pub fn endpoints(&self) -> Result<LinkStream, BuildError> {
        let mut b = self.punctual_builder();
        b.period(self.t_begin, self.t_end);
        for link in &self.links {
            b.add_indexed(link.u.raw(), link.v.raw(), link.start);
            if link.end > link.start {
                b.add_indexed(link.u.raw(), link.v.raw(), link.end);
            }
        }
        b.build()
    }

    /// Node ids of the punctual stream align with this stream's ids; labels
    /// become decimal indices (look original labels up via
    /// [`IntervalStream::label`]).
    fn punctual_builder(&self) -> LinkStreamBuilder {
        LinkStreamBuilder::indexed(self.directedness, self.labels.len() as u32)
    }
}

/// Incremental constructor for [`IntervalStream`].
pub struct IntervalStreamBuilder {
    directedness: Directedness,
    interner: NodeInterner,
    links: Vec<IntervalLink>,
    period: Option<(Time, Time)>,
    dropped: usize,
}

impl IntervalStreamBuilder {
    /// Creates a builder.
    pub fn new(directedness: Directedness) -> Self {
        IntervalStreamBuilder {
            directedness,
            interner: NodeInterner::new(),
            links: Vec::new(),
            period: None,
            dropped: 0,
        }
    }

    /// Declares the study period explicitly.
    pub fn period(&mut self, begin: impl Into<Time>, end: impl Into<Time>) -> &mut Self {
        self.period = Some((begin.into(), end.into()));
        self
    }

    /// Records a link over `[start, end]`. Self-loops and inverted intervals
    /// are dropped (counted).
    pub fn add(
        &mut self,
        u: &str,
        v: &str,
        start: impl Into<Time>,
        end: impl Into<Time>,
    ) -> &mut Self {
        let (start, end) = (start.into(), end.into());
        let u = self.interner.intern(u);
        let v = self.interner.intern(v);
        if u == v || start > end {
            self.dropped += 1;
            return self;
        }
        let (u, v) = match self.directedness {
            Directedness::Directed => (u, v),
            Directedness::Undirected => {
                if u.raw() <= v.raw() {
                    (u, v)
                } else {
                    (v, u)
                }
            }
        };
        self.links.push(IntervalLink { u, v, start, end });
        self
    }

    /// Number of records rejected so far (self-loops, inverted intervals).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Validates and freezes the stream.
    pub fn build(self) -> Result<IntervalStream, BuildError> {
        let IntervalStreamBuilder { directedness, interner, mut links, period, .. } = self;
        if links.is_empty() {
            return Err(BuildError::Empty);
        }
        links.sort_unstable_by_key(|l| (l.start, l.end, l.u, l.v));
        links.dedup();
        let observed_begin = links.iter().map(|l| l.start).min().expect("non-empty");
        let observed_end = links.iter().map(|l| l.end).max().expect("non-empty");
        let (t_begin, t_end) = match period {
            None => (observed_begin, observed_end),
            Some((b, e)) => {
                if b > e {
                    return Err(BuildError::InvertedPeriod {
                        begin: b.ticks(),
                        end: e.ticks(),
                    });
                }
                if observed_begin < b || observed_end > e {
                    return Err(BuildError::PeriodTooShort {
                        event: if observed_begin < b {
                            observed_begin.ticks()
                        } else {
                            observed_end.ticks()
                        },
                        begin: b.ticks(),
                        end: e.ticks(),
                    });
                }
                (b, e)
            }
        };
        Ok(IntervalStream {
            directedness,
            labels: interner.into_labels(),
            links,
            t_begin,
            t_end,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IntervalStream {
        let mut b = IntervalStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 0, 10);
        b.add("b", "c", 5, 5); // instantaneous
        b.add("c", "d", 12, 20);
        b.build().unwrap()
    }

    #[test]
    fn build_sorts_and_validates() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.t_begin(), Time::new(0));
        assert_eq!(s.t_end(), Time::new(20));
        assert!((s.mean_duration() - (10.0 + 0.0 + 8.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_intervals_and_loops_dropped() {
        let mut b = IntervalStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 10, 5); // inverted
        b.add("a", "a", 0, 4); // loop
        b.add("a", "b", 0, 4);
        assert_eq!(b.dropped(), 2);
        let s = b.build().unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn periodic_sampling_reads_live_links() {
        let s = sample();
        // period 4, phase 0: reads at t = 0, 4, 8, 12, 16, 20
        let p = s.sample_periodic(4, 0).unwrap();
        let events: Vec<(u32, u32, i64)> =
            p.events().iter().map(|l| (l.u.raw(), l.v.raw(), l.t.ticks())).collect();
        // a-b live on [0,10]: reads 0, 4, 8; b-c on [5,5]: no read (5 not a multiple of 4)
        // c-d on [12,20]: reads 12, 16, 20
        assert_eq!(
            events,
            vec![(0, 1, 0), (0, 1, 4), (0, 1, 8), (2, 3, 12), (2, 3, 16), (2, 3, 20)]
        );
    }

    #[test]
    fn phase_shifts_the_reads() {
        let s = sample();
        let p = s.sample_periodic(4, 1).unwrap(); // reads at 1, 5, 9, 13, 17
        let ts: Vec<i64> = p.events().iter().map(|l| l.t.ticks()).collect();
        assert_eq!(ts, vec![1, 5, 5, 9, 13, 17]); // b-c captured at t=5 now
    }

    #[test]
    fn fine_sampling_approaches_continuous_presence() {
        let s = sample();
        let p = s.sample_periodic(1, 0).unwrap();
        // a-b: 11 reads; b-c: 1; c-d: 9
        assert_eq!(p.len(), 21);
    }

    /// A link spanning almost the whole `i64` range, read every tick, is
    /// refused at once instead of pushing ~2^63 events.
    #[test]
    fn sampling_refuses_more_reads_than_the_cap() {
        let mut b = IntervalStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", -1, i64::MAX - 1);
        let s = b.build().unwrap();
        let reads = i64::MAX as u128 + 1;
        let err = s.sample_periodic(1, 0).unwrap_err();
        assert_eq!(err, BuildError::TooManySamples { reads, cap: MAX_SAMPLED_EVENTS });
        assert!(err.to_string().contains(&format!("{reads} events")), "{err}");

        // the cap bounds the sum over links, not each link: two links of
        // 2^31 + 1 reads each are under it alone and over it together
        let mut b = IntervalStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 0, 1i64 << 31);
        b.add("b", "c", 0, 1i64 << 31);
        let reads = 2 * ((1u128 << 31) + 1);
        assert_eq!(
            b.build().unwrap().sample_periodic(1, 0).unwrap_err(),
            BuildError::TooManySamples { reads, cap: MAX_SAMPLED_EVENTS }
        );
    }

    #[test]
    fn endpoints_punctualization() {
        let s = sample();
        let p = s.endpoints().unwrap();
        let ts: Vec<i64> = p.events().iter().map(|l| l.t.ticks()).collect();
        assert_eq!(ts, vec![0, 5, 10, 12, 20]); // b-c contributes once (zero length)
    }

    #[test]
    fn sampling_preserves_study_period() {
        let s = sample();
        let p = s.sample_periodic(7, 0).unwrap();
        assert_eq!(p.t_begin(), Time::new(0));
        assert_eq!(p.t_end(), Time::new(20));
    }

    #[test]
    fn empty_builder_fails() {
        let b = IntervalStreamBuilder::new(Directedness::Directed);
        assert!(matches!(b.build(), Err(BuildError::Empty)));
    }
}
