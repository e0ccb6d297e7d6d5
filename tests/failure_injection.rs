//! Failure-injection tests: malformed inputs and degenerate streams must
//! fail loudly and precisely, never silently corrupt an analysis.

use saturn::linkstream::{io, BuildError, Directedness, LinkStreamBuilder, ParseError};
use saturn::prelude::*;

#[test]
fn malformed_lines_report_position() {
    let cases = [
        ("a b\n", 1, "columns"),
        ("a b 1\nc d\n", 2, "columns"),
        ("a b 1\nc d x\n", 2, "integer"),
        ("a b c d e 1\n", 1, "columns"),
        ("a b 1.5e3\n", 1, "integer"),
    ];
    for (text, line, needle) in cases {
        match io::read_str(text, Directedness::Directed) {
            Err(ParseError::Malformed { line: l, reason }) => {
                assert_eq!(l, line, "case {text:?}");
                assert!(reason.contains(needle), "case {text:?}: {reason}");
            }
            other => panic!("case {text:?}: expected Malformed, got {other:?}"),
        }
    }
}

#[test]
fn empty_and_loop_only_inputs_fail() {
    for text in ["", "% only comments\n", "x x 1\nx x 2\n"] {
        match io::read_str(text, Directedness::Directed) {
            Err(ParseError::Build(BuildError::Empty)) => {}
            other => panic!("{text:?}: expected Empty, got {other:?}"),
        }
    }
}

#[test]
fn zero_span_stream_degenerates_gracefully() {
    // all events at one instant: only K = 1 is valid; γ is the whole period
    let mut b = LinkStreamBuilder::new(Directedness::Undirected);
    b.add("a", "b", 100);
    b.add("b", "c", 100);
    let stream = b.build().unwrap();
    assert_eq!(stream.span(), 0);
    assert!(stream.partition(2).is_err());

    let report = OccupancyMethod::new().threads(1).run(&stream);
    assert_eq!(report.results().len(), 1);
    let gamma = report.gamma().expect("single-scale gamma");
    assert_eq!(gamma.k, 1);
}

#[test]
fn single_event_stream_works() {
    let stream = io::read_str("a b 5\n", Directedness::Directed).unwrap();
    let report = OccupancyMethod::new().threads(1).run(&stream);
    // one link => every scale has exactly the two.. one directed trip at rate 1
    for r in report.results() {
        assert_eq!(r.trips, 1);
        assert_eq!(r.fraction_at_one, 1.0);
    }
}

#[test]
fn isolated_nodes_do_not_break_metrics() {
    let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 100);
    b.add_indexed(0, 1, 0);
    b.add_indexed(1, 2, 50);
    let stream = b.build().unwrap();
    assert_eq!(stream.node_count(), 100); // 97 isolated nodes

    let series = GraphSeries::aggregate(&stream, 2);
    let means = series.means();
    assert!(means.mean_non_isolated <= 3.0);
    assert_eq!(series.n(), 100);

    let report = OccupancyMethod::new().threads(1).run(&stream);
    assert!(report.gamma().is_some());
}

#[test]
fn disconnected_stream_has_no_cross_component_trips() {
    // two components that never interact
    let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 4);
    b.add_indexed(0, 1, 0);
    b.add_indexed(0, 1, 10);
    b.add_indexed(2, 3, 5);
    b.add_indexed(2, 3, 15);
    let stream = b.build().unwrap();
    let trips = ExactStream::new(&stream, false)
        .tile_trips(&mut saturn::trips::EngineArena::new(), &TargetSet::all(4), (0, 4), None)
        .unwrap();
    assert!(trips.pair(0, 2).is_none());
    assert!(trips.pair(1, 3).is_none());
    assert!(trips.pair(0, 1).is_some());
}

#[test]
fn duplicate_heavy_input_is_deduplicated_once() {
    let mut text = String::new();
    for _ in 0..50 {
        text.push_str("a b 7\n");
    }
    text.push_str("b c 9\n");
    let stream = io::read_str(&text, Directedness::Directed).unwrap();
    assert_eq!(stream.len(), 2);
    assert_eq!(stream.dropped_duplicates(), 49);
}

#[test]
fn explicit_period_longer_than_data_widens_gamma_search() {
    let mut b = LinkStreamBuilder::new(Directedness::Undirected);
    b.add("a", "b", 0);
    b.add("b", "c", 10);
    b.period(0, 1_000);
    let stream = b.build().unwrap();
    assert_eq!(stream.span(), 1_000);
    let report = OccupancyMethod::new().threads(1).run(&stream);
    // scales now range up to 1000 ticks even though data spans 10
    assert!(report.results().iter().any(|r| r.delta_ticks > 100.0));
}

#[test]
fn unreadable_file_is_an_io_error_not_a_panic() {
    let err = io::read_path("/definitely/not/here.txt", Directedness::Directed).unwrap_err();
    assert!(matches!(err, ParseError::Io(_)));
    let err_str = err.to_string();
    assert!(err_str.contains("i/o error"));
}
