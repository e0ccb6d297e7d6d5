//! Ablation called out in DESIGN.md §6: the engine snapshots pre-step rows
//! before applying a step's edges, which is what enforces the *strict*
//! inequality of Remark 1 (a temporal path cannot use two links of the same
//! snapshot). This test implements the naive in-place variant — the obvious
//! "optimization" of skipping the snapshot — and demonstrates that it
//! manufactures paths that do not exist, while the real engine agrees with
//! brute force.

use saturn_linkstream::{io, Directedness};
use saturn_trips::dp::baseline;
use saturn_trips::reference::minimal_trips_bruteforce;
use saturn_trips::{
    earliest_arrival_dp, earliest_arrival_dp_in, DpOptions, EngineArena, TargetSet, Timeline,
    TripSink,
};
use std::collections::HashMap;

#[derive(Default)]
struct Collect(Vec<(u32, u32, u32, u32, u32)>);

impl TripSink for Collect {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
        self.0.push((u, v, dep, arr, hops));
    }
}

/// The deliberately broken variant: per-step updates read the *current*
/// table, so an edge can chain onto another edge of the same step.
fn naive_in_place_reachability(timeline: &Timeline) -> HashMap<(u32, u32), u32> {
    let n = timeline.n() as usize;
    let mut ea: Vec<u32> = vec![u32::MAX; n * n];
    for step in timeline.steps_desc() {
        let k = step.index;
        for (eu, ew) in step.edges() {
            let dirs =
                if timeline.is_directed() { vec![(eu, ew)] } else { vec![(eu, ew), (ew, eu)] };
            for (u, w) in dirs {
                for v in 0..n as u32 {
                    if v == u {
                        continue;
                    }
                    let cand = if v == w {
                        k
                    } else {
                        // BUG: reads the possibly-already-updated row of w,
                        // allowing same-step chaining
                        ea[w as usize * n + v as usize]
                    };
                    let cell = &mut ea[u as usize * n + v as usize];
                    if cand < *cell {
                        *cell = cand;
                    }
                }
            }
        }
    }
    let mut out = HashMap::new();
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            let a = ea[u as usize * n + v as usize];
            if a != u32::MAX {
                out.insert((u, v), a);
            }
        }
    }
    out
}

/// A stream where the only a->c route requires chaining two links of the
/// same snapshot: the naive variant claims reachability, the real engine and
/// brute force must not.
///
/// The in-place bug only fires when the continuation row is updated *before*
/// the row that reads it, so the input is ordered to intern `b` and `c`
/// first: the step's sorted edge list is then `[(b,c), (b,a)]`, row `b`
/// learns about `c` first, and the subsequent `a`-via-`b` update chains two
/// same-window links.
#[test]
fn naive_in_place_violates_remark_1() {
    // both links inside window 0 of a K=1 aggregation; ids: b=0, c=1, a=2
    let s = io::read_str("b c 5\na b 0\n", Directedness::Undirected).unwrap();
    let (a, c) = (2u32, 1u32);
    let timeline = Timeline::aggregated(&s, 1);

    let naive = naive_in_place_reachability(&timeline);
    assert!(
        naive.contains_key(&(a, c)),
        "the buggy variant manufactures the forbidden a->c path: {naive:?}"
    );

    let mut sink = Collect::default();
    earliest_arrival_dp(&timeline, &TargetSet::all(3), &mut sink, DpOptions::default());
    assert!(
        !sink.0.iter().any(|&(u, v, ..)| (u, v) == (a, c)),
        "the real engine must respect Remark 1"
    );
    let brute = minimal_trips_bruteforce(&timeline, 10_000);
    assert!(!brute.iter().any(|&(u, v, ..)| (u, v) == (a, c)));
}

/// On a stream whose chains always span distinct steps, the two variants
/// coincide — the snapshotting only matters within a step (sanity check that
/// the ablation isolates the right mechanism).
#[test]
fn variants_agree_when_no_same_step_chaining_is_possible() {
    let s = io::read_str("a b 0\nb c 10\nc d 20\nd a 30\n", Directedness::Undirected).unwrap();
    let timeline = Timeline::aggregated(&s, 4); // one link per window
    let naive = naive_in_place_reachability(&timeline);

    let mut sink = Collect::default();
    earliest_arrival_dp(&timeline, &TargetSet::all(4), &mut sink, DpOptions::default());
    // earliest arrival per pair from the engine's trips (max dep's arr =
    // value at dep 0): take min arr per pair
    let mut engine: HashMap<(u32, u32), u32> = HashMap::new();
    for &(u, v, _dep, arr, _) in &sink.0 {
        engine.entry((u, v)).and_modify(|a| *a = (*a).min(arr)).or_insert(arr);
    }
    assert_eq!(naive, engine);
}

/// The degree-1 snapshot bypass must agree with the general snapshot path
/// on exactly the fixtures of this ablation suite — the streams engineered
/// to punish any Remark-1 ordering mistake. The general path here is
/// [`baseline`], which snapshots full rows on every step. The bypass reads
/// the continuation row live and pre-snapshots only the written row, which
/// is a different mechanism; this pins down that it is not a different
/// *semantics*, with one arena reused across fixtures and scales.
#[test]
fn degree1_fast_path_matches_general_path_on_fixtures() {
    let fixtures: [(&str, Directedness); 3] = [
        ("b c 5\na b 0\n", Directedness::Undirected),
        ("a b 0\nb c 10\nc d 20\nd a 30\n", Directedness::Undirected),
        ("a b 0\nb a 1\nb c 2\n", Directedness::Directed),
    ];
    let mut arena = EngineArena::new();
    for (text, directedness) in fixtures {
        let s = io::read_str(text, directedness).unwrap();
        let targets = TargetSet::all(s.node_count() as u32);
        for k in [1u64, 2, 4, s.span().max(1) as u64] {
            let timeline = Timeline::aggregated(&s, k);
            let mut fast = Collect::default();
            let fs = earliest_arrival_dp_in(
                &mut arena,
                &timeline,
                &targets,
                &mut fast,
                DpOptions::default(),
            );
            let mut general = Collect::default();
            let gs = baseline::earliest_arrival_dp(
                &timeline,
                &targets,
                &mut general,
                DpOptions::default(),
            );
            assert_eq!(fast.0, general.0, "{text:?} k={k}");
            assert_eq!(fs.trips, gs.trips, "{text:?} k={k}");
            assert_eq!(fs.traversals, gs.traversals, "{text:?} k={k}");
        }
    }
}

/// Directed same-step cycles are the nastiest case: a->b and b->a in one
/// window must not make a reach itself or chain further.
#[test]
fn directed_same_window_cycle() {
    let s = io::read_str("a b 0\nb a 1\nb c 2\n", Directedness::Directed).unwrap();
    let timeline = Timeline::aggregated(&s, 1);
    let mut sink = Collect::default();
    earliest_arrival_dp(&timeline, &TargetSet::all(3), &mut sink, DpOptions::default());
    let pairs: Vec<(u32, u32)> = sink.0.iter().map(|&(u, v, ..)| (u, v)).collect();
    // only the three direct links exist as trips
    assert_eq!(pairs.len(), 3);
    assert!(pairs.contains(&(0, 1)) && pairs.contains(&(1, 0)) && pairs.contains(&(1, 2)));
    assert!(!pairs.contains(&(0, 2)), "a->c would need two same-window hops");
}
