//! Choosing a safe aggregation window for a study, the Section 8 way:
//! combine the saturation scale with the direct loss measures (lost shortest
//! transitions and trip elongation) to pick a window with a quantified
//! information budget.
//!
//! ```sh
//! cargo run --release --example choose_window [max_lost_fraction]
//! ```

use saturn::core::{validation_sweep, SweepControl, ValidationOptions, WorkerPool};
use saturn::prelude::*;

fn main() {
    let budget: f64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(0.10); // accept at most 10% lost shortest transitions

    // A mid-sized stand-in (scaled Manufacturing: office rhythm, high
    // activity) keeps this example snappy.
    let profile = DatasetProfile::manufacturing().scaled(0.35);
    let stream = profile.generate(3);
    println!(
        "stream: {} nodes, {} messages over {:.0} days; loss budget {:.0}%",
        stream.node_count(),
        stream.len(),
        stream.span() as f64 / 86_400.0,
        budget * 100.0
    );

    // 1. The saturation scale: upper bound for any propagation-based study.
    let report = OccupancyMethod::new().grid(SweepGrid::Geometric { points: 32 }).run(&stream);
    let gamma = report.gamma().expect("non-degenerate stream");
    println!("γ = {:.2} h — never aggregate beyond this", gamma.delta_ticks / 3_600.0);

    // 2. The loss curves on the range up to γ.
    let validation = validation_sweep(
        &stream,
        &SweepGrid::Geometric { points: 24 },
        TargetSpec::All,
        &ValidationOptions::default(),
        &mut WorkerPool::new(0),
        &SweepControl::new(),
    )
    .expect("a sweep whose token never fires cannot be cancelled");
    println!("\n{:>10} {:>12} {:>12} {:>12}", "Δ (h)", "lost trans.", "elongation", "verdict");
    let mut chosen: Option<f64> = None;
    for p in &validation.points {
        let delta_h = p.delta_ticks / 3_600.0;
        if p.delta_ticks > gamma.delta_ticks {
            continue; // beyond γ: out of the question
        }
        let ok = p.lost_transitions <= budget;
        if ok {
            chosen = Some(chosen.map_or(delta_h, |c: f64| c.max(delta_h)));
        }
        println!(
            "{:>10.3} {:>12.3} {:>12.3} {:>12}",
            delta_h,
            p.lost_transitions,
            p.elongation.mean,
            if ok { "within budget" } else { "too lossy" }
        );
    }

    match chosen {
        Some(delta_h) => println!(
            "\n==> choose Δ ≈ {delta_h:.2} h: the largest window within the loss budget \
             (γ = {:.2} h remains the hard ceiling)",
            gamma.delta_ticks / 3_600.0
        ),
        None => println!(
            "\n==> no window meets the {budget:.0}% budget; use the stream unaggregated \
             or relax the budget"
        ),
    }
}
