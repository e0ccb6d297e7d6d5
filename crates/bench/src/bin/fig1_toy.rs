//! Figure 1 — a toy link stream, its aggregation into a 3-snapshot series,
//! and the temporal paths that survive or die.
//!
//! The paper's figure shows a 5-node stream with two highlighted temporal
//! paths: one (dark blue, `e ~> b`) that survives aggregation, and one
//! (light pink) that exists in the stream but not in the series because its
//! two hops fall inside the same window (Remark 1: links of one snapshot
//! cannot be chained). The exact link placement of the figure is not fully
//! recoverable from the text, so this binary uses an equivalent 5-node
//! stream exhibiting both phenomena, and verifies them mechanically.

#![forbid(unsafe_code)]

use saturn_graphseries::GraphSeries;
use saturn_linkstream::{io, Directedness, NodeId};
use saturn_trips::{earliest_arrival_dp, DpOptions, TargetSet, Timeline, TripSink};

#[derive(Default)]
struct Collect(Vec<(u32, u32, u32, u32, u32)>);

impl TripSink for Collect {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
        self.0.push((u, v, dep, arr, hops));
    }
}

fn trips_of(timeline: &Timeline, n: u32) -> Vec<(u32, u32, u32, u32, u32)> {
    let mut sink = Collect::default();
    earliest_arrival_dp(timeline, &TargetSet::all(n), &mut sink, DpOptions::default());
    sink.0
}

fn main() {
    println!("Figure 1 — aggregation of a toy link stream (K = 3)\n");

    // Study period [0, 8]; K = 3 gives windows [0, 8/3), [8/3, 16/3), [16/3, 8].
    let text = "b e 2\na b 4\nd e 5\na c 7\nc d 7\nd b 8\n";
    let stream = io::read_str(text, Directedness::Undirected).unwrap();
    let n = stream.node_count() as u32;
    let series = GraphSeries::aggregate(&stream, 3);

    println!("link stream L:");
    for l in stream.events() {
        println!("  t={}  {} -- {}", l.t, stream.label(l.u), stream.label(l.v));
    }
    println!("\naggregated series G_Δ (Δ = {:.2}):", series.delta_ticks());
    for (w, snap) in series.snapshots() {
        let edges: Vec<String> = snap
            .edges()
            .iter()
            .map(|&(u, v)| format!("{}-{}", stream.label(NodeId(u)), stream.label(NodeId(v))))
            .collect();
        println!("  G_{}: {}", w + 1, edges.join(", "));
    }

    let label = |i: u32| stream.label(NodeId(i)).to_string();
    let series_trips = trips_of(&Timeline::aggregated(&stream, 3), n);
    let stream_trips = trips_of(&Timeline::exact(&stream), n);
    let has = |trips: &[(u32, u32, u32, u32, u32)], from: &str, to: &str| {
        trips.iter().any(|&(u, v, ..)| label(u) == from && label(v) == to)
    };

    // The surviving path: e -> d (d-e @ t5, window 2) -> b (d-b @ t8, window 3).
    let eb_series = has(&series_trips, "e", "b");
    let eb_stream = has(&stream_trips, "e", "b");
    println!("\ne ~> b  (the dark-blue path): stream {eb_stream}, series {eb_series}");
    assert!(eb_stream && eb_series, "the surviving path must exist in both");

    // The lost path: c -> d (c-d @ t7) -> b (d-b @ t8) — both hops in window 3.
    let cb_series = has(&series_trips, "c", "b");
    let cb_stream = has(&stream_trips, "c", "b");
    println!("c ~> b  (the light-pink path): stream {cb_stream}, series {cb_series}");
    assert!(cb_stream, "the pink path exists in the stream");
    assert!(!cb_series, "the pink path must be lost in the series (both hops share window 3)");

    println!(
        "\n==> aggregation erased the order of c-d and d-b inside window 3,\n    \
         destroying the only c ~> b propagation route — Remark 1 in action."
    );

    saturn_bench::append_summary(
        "Figure 1 (toy example)",
        &format!(
            "dark-blue path e~>b: stream {eb_stream}, series {eb_series} (survives); \
             light-pink path c~>b: stream {cb_stream}, series {cb_series} (lost)"
        ),
    );
}
