//! Figure 8 — validation of the occupancy method on the Irvine stand-in:
//! (left) the proportion of shortest transitions lost as a function of Δ;
//! (right) the mean elongation factor of minimal trips as a function of Δ.
//!
//! The paper's claims to reproduce: the loss stays negligible over several
//! orders of magnitude of Δ and concentrates in the ~2 decades straddling γ;
//! the elongation stays ≈ 1 for several orders of magnitude before rising
//! around γ.

#![forbid(unsafe_code)]

use saturn_bench::{dataset, grid_points, write_series, HOUR};
use saturn_core::{
    validation_sweep, OccupancyMethod, SweepControl, SweepGrid, TargetSpec, ValidationOptions,
    WorkerPool,
};
use saturn_synth::DatasetProfile;

fn main() {
    let profile = dataset(DatasetProfile::irvine());
    println!("Figure 8 — validation measures ({} stand-in)", profile.name);
    let stream = profile.generate(1);

    let gamma = OccupancyMethod::new()
        .grid(SweepGrid::Geometric { points: grid_points(40) })
        .run(&stream)
        .gamma()
        .expect("non-degenerate stream");

    let report = validation_sweep(
        &stream,
        &SweepGrid::Geometric { points: grid_points(40) },
        TargetSpec::All,
        &ValidationOptions::default(),
        &mut WorkerPool::new(0),
        &SweepControl::new(),
    )
    .expect("a sweep whose token never fires cannot be cancelled");

    let loss: Vec<(f64, f64)> =
        report.points.iter().map(|p| (p.delta_ticks / HOUR, p.lost_transitions)).collect();
    write_series("fig8_left_lost_transitions.dat", "delta_h lost_fraction", &loss);
    let elong: Vec<(f64, f64)> = report
        .points
        .iter()
        .filter(|p| p.elongation.count > 0)
        .map(|p| (p.delta_ticks / HOUR, p.elongation.mean))
        .collect();
    write_series("fig8_right_elongation.dat", "delta_h mean_elongation", &elong);

    println!("\n{:>12} {:>10} {:>12}", "Δ (h)", "lost", "elongation");
    for p in report.points.iter().step_by((report.points.len() / 16).max(1)) {
        println!(
            "{:>12.4} {:>10.4} {:>12.3}",
            p.delta_ticks / HOUR,
            p.lost_transitions,
            if p.elongation.count > 0 { p.elongation.mean } else { f64::NAN }
        );
    }

    // Claims. (1) loss negligible at fine scales, total at Δ = T;
    let first = report.points.first().unwrap();
    let last = report.points.last().unwrap();
    assert!(first.lost_transitions < 0.05, "fine-scale loss {}", first.lost_transitions);
    assert!((last.lost_transitions - 1.0).abs() < 1e-12);
    // (2) loss at γ is substantial but partial (the paper: 48%);
    let at_gamma = report
        .points
        .iter()
        .min_by(|a, b| {
            (a.delta_ticks - gamma.delta_ticks)
                .abs()
                .partial_cmp(&(b.delta_ticks - gamma.delta_ticks).abs())
                .unwrap()
        })
        .unwrap();
    println!(
        "\nloss at γ = {:.1} h: {:.0}% (the paper reports 48% on the real trace)",
        gamma.delta_ticks / HOUR,
        at_gamma.lost_transitions * 100.0
    );
    assert!(
        at_gamma.lost_transitions > 0.05 && at_gamma.lost_transitions < 0.95,
        "loss at γ should be partial, got {}",
        at_gamma.lost_transitions
    );
    // (3) elongation ≈ 1 at fine scales.
    if let Some(&(d, e)) = elong.first() {
        println!("elongation at Δ = {d:.4} h: {e:.3} (≈ 1 expected)");
        assert!(e < 1.5, "fine-scale elongation {e}");
    }

    saturn_bench::append_summary(
        "Figure 8 (validation, Irvine stand-in)",
        &format!(
            "loss: {:.3} (fine) -> {:.0}% (γ = {:.1} h) -> 100% (Δ=T); paper: 10% at 0.5h, \
             48% at γ=18h; elongation ≈ {:.2} at fine scales rising near γ",
            first.lost_transitions,
            at_gamma.lost_transitions * 100.0,
            gamma.delta_ticks / HOUR,
            elong.first().map(|&(_, e)| e).unwrap_or(f64::NAN)
        ),
    );
}
