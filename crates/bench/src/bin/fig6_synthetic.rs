//! Figure 6 — the saturation scale on synthetic networks:
//! (left) γ vs mean inter-contact time for time-uniform networks (the paper:
//! perfectly proportional);
//! (right) γ vs the share of low-activity time for two-mode networks (the
//! paper: γ stays near the high-activity value until ~80%, then rises to the
//! low-activity value).

#![forbid(unsafe_code)]

use saturn_bench::{fast_mode, write_series};
use saturn_core::{OccupancyMethod, SweepGrid, TargetSpec};
use saturn_linkstream::LinkStream;
use saturn_synth::{TimeUniform, TwoMode};

fn gamma_of(stream: &LinkStream, points: usize) -> f64 {
    OccupancyMethod::new()
        .grid(SweepGrid::Geometric { points })
        .targets(TargetSpec::All)
        .refine(2, 8)
        .run(stream)
        .gamma()
        .expect("non-degenerate stream")
        .delta_ticks
}

fn main() {
    let (nodes, span, points) =
        if fast_mode() { (20u32, 20_000i64, 16) } else { (50, 100_000, 28) };

    // --- left panel: time-uniform networks --------------------------------
    println!("Figure 6 left — time-uniform networks (n = {nodes}, T = {span} s)");
    println!("{:>4} {:>16} {:>10} {:>8}", "N", "inter-contact", "γ (s)", "γ/ict");
    let sweep: &[u32] =
        if fast_mode() { &[5, 10, 20] } else { &[4, 6, 10, 16, 25, 40, 64, 100] };
    let mut left = Vec::new();
    let mut ratios = Vec::new();
    for &links_per_pair in sweep {
        let cfg = TimeUniform { nodes, links_per_pair, span, seed: 7 };
        let gamma = gamma_of(&cfg.generate(), points);
        let ict = cfg.mean_inter_contact();
        println!("{links_per_pair:>4} {ict:>16.1} {gamma:>10.1} {:>8.3}", gamma / ict);
        left.push((ict, gamma));
        ratios.push(gamma / ict);
    }
    write_series("fig6_left_time_uniform.dat", "mean_inter_contact_s gamma_s", &left);

    // Proportionality check (the paper: "perfectly proportional"): the
    // γ/ict ratio varies by < 35% around its mean across a 10× activity range.
    let mean_ratio: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let max_dev =
        ratios.iter().map(|r| (r - mean_ratio).abs() / mean_ratio).fold(0.0f64, f64::max);
    println!("γ/ict = {mean_ratio:.3} ± {:.0}% — proportionality holds\n", max_dev * 100.0);
    assert!(max_dev < 0.35, "proportionality violated: deviation {max_dev}");

    // --- right panel: two-mode networks ------------------------------------
    println!("Figure 6 right — two-mode networks (n = {nodes}, 10 alternations)");
    println!("{:>12} {:>10}", "low-share %", "γ (s)");
    let shares: &[f64] = if fast_mode() {
        &[0.0, 0.5, 1.0]
    } else {
        &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.98, 1.0]
    };
    let mut right = Vec::new();
    for &share in shares {
        let cfg = TwoMode {
            nodes,
            alternations: 10,
            span,
            links_high: 10,
            links_low: 2,
            low_share: share,
            seed: 13,
        };
        let gamma = gamma_of(&cfg.generate(), points);
        println!("{:>12.0} {gamma:>10.1}", share * 100.0);
        right.push((share * 100.0, gamma));
    }
    write_series("fig6_right_two_mode.dat", "low_share_pct gamma_s", &right);

    // The paper's qualitative claims: γ at moderate low-share stays close to
    // the high-activity value; γ at 100% (pure low activity) is much larger.
    let g0 = right.first().unwrap().1;
    let g_mid = right.iter().find(|&&(s, _)| (s - 50.0).abs() < 1.0).unwrap().1;
    let g100 = right.last().unwrap().1;
    println!(
        "\nγ(0%) = {g0:.1}, γ(50%) = {g_mid:.1}, γ(100%) = {g100:.1}: \
         mid-range stays within the high-activity regime ({})",
        g_mid < (g0 + g100) / 2.0
    );
    assert!(g100 > 3.0 * g0, "pure low activity must have a much larger γ");
    assert!(g_mid < (g0 + g100) / 2.0, "γ must favor the high-activity mode, not the average");

    saturn_bench::append_summary(
        "Figure 6 (synthetic networks)",
        &format!(
            "time-uniform: γ/ict = {mean_ratio:.3} ± {:.0}% (proportional, as in the paper); \
             two-mode: γ(0%)={g0:.1}s, γ(50%)={g_mid:.1}s, γ(100%)={g100:.1}s — \
             high-activity mode dominates until low activity takes over",
            max_dev * 100.0
        ),
    );
}
