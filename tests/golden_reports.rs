//! Golden report digests: a stable FNV-1a hash of the serialized bytes of
//! fixed analyses, pinned across commits. The knob matrix and the
//! differential tests compare two paths of one build; these digests catch an
//! engine change that moves report bytes for every path at once.
//!
//! When a change *intends* to move report bytes, the failure message prints
//! the new digest to pin.

use saturn::core::parallel::WorkerPool;
use saturn::core::{classic_sweep, validation_sweep, SweepControl, ValidationOptions};
use saturn::prelude::*;
use saturn::synth::DatasetProfile;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn assert_digest(what: &str, json: &str, pinned: u64) {
    let got = fnv1a(json.as_bytes());
    assert_eq!(
        got,
        pinned,
        "{what}: report digest moved to {got:#018x} ({} bytes)",
        json.len()
    );
}

/// `stream` with every event kept and the directedness replaced.
fn with_directedness(stream: &LinkStream, d: Directedness) -> LinkStream {
    let mut b = LinkStreamBuilder::indexed(d, stream.node_count() as u32);
    for e in stream.events() {
        b.add_indexed(e.u.0, e.v.0, e.t);
    }
    b.build().expect("non-empty stream")
}

/// The default method (grid, two refinement rounds of 8) on the directed
/// manufacturing stand-in.
#[test]
fn default_method_on_manufacturing_is_pinned() {
    let stream = DatasetProfile::manufacturing().scaled(0.05).generate(1);
    assert!(stream.is_directed());
    let report = OccupancyMethod::new().threads(2).run(&stream);
    assert_digest("manufacturing", &report.to_json(), 0x26112f6d3eac2c92);
}

/// The default method on the undirected Irvine stand-in: 75 nodes, so every
/// DP row spans two 64-column frontier words.
#[test]
fn default_method_on_two_word_irvine_is_pinned() {
    let directed = DatasetProfile::irvine().scaled(0.05).generate(1);
    let stream = with_directedness(&directed, Directedness::Undirected);
    assert_eq!(stream.node_count(), 75);
    let report = OccupancyMethod::new().threads(2).run(&stream);
    assert_digest("irvine", &report.to_json(), 0x1f6541e96c8c5bf6);
}

/// The Section 8 validation and the classical sweep (the engine's
/// distance-collecting path) on the two-word Irvine stand-in.
#[test]
fn validation_and_classic_sweeps_are_pinned() {
    let stream = DatasetProfile::irvine().scaled(0.05).generate(1);
    let grid = SweepGrid::Geometric { points: 8 };
    let mut pool = WorkerPool::new(2);
    let validation = validation_sweep(
        &stream,
        &grid,
        TargetSpec::All,
        &ValidationOptions::default(),
        &mut pool,
        &SweepControl::new(),
    )
    .expect("never cancelled");
    let json = serde_json::to_string_pretty(&validation).expect("serializable");
    assert_digest("validation", &json, 0x6d95c6e40203aaa8);
    let classic = classic_sweep(&stream, &grid, TargetSpec::All, 1, &mut pool);
    let json = serde_json::to_string_pretty(&classic).expect("serializable");
    assert_digest("classic", &json, 0xf3d687e63fb6fcf0);
}
