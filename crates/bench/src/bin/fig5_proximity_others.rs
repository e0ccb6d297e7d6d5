//! Figure 5 — M-K proximity vs Δ for the Facebook, Enron and Manufacturing
//! stand-ins; each curve is unimodal with its maximum at the dataset's
//! saturation scale (paper: 46 h, 76 h, 12 h on the real traces).

#![forbid(unsafe_code)]

use saturn_bench::{ascii_curve, dataset, grid_points, write_series, HOUR};
use saturn_core::{OccupancyMethod, SweepGrid};
use saturn_synth::DatasetProfile;

fn main() {
    let mut lines = Vec::new();
    for profile in
        [DatasetProfile::facebook(), DatasetProfile::enron(), DatasetProfile::manufacturing()]
    {
        let profile = dataset(profile);
        println!("Figure 5 — M-K proximity ({} stand-in)", profile.name);
        let stream = profile.generate(1);
        let report = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: grid_points(40) })
            .run(&stream);
        let gamma = report.gamma().expect("non-degenerate stream");
        let curve: Vec<(f64, f64)> =
            report.score_curve().iter().map(|&(d, s)| (d / HOUR, s)).collect();
        write_series(
            &format!("fig5_{}_mk_proximity.dat", profile.name),
            "delta_h mk_proximity",
            &curve,
        );
        println!("{}", ascii_curve(&curve, 14));
        println!(
            "  γ({}) = {:.1} h  (paper: {:.0} h on the real trace)\n",
            profile.name,
            gamma.delta_ticks / HOUR,
            profile.paper_gamma_hours
        );
        lines.push(format!(
            "γ({}) = {:.1} h (paper {:.0} h)",
            profile.name,
            gamma.delta_ticks / HOUR,
            profile.paper_gamma_hours
        ));
    }
    saturn_bench::append_summary("Figure 5 (proximity curves)", &lines.join("; "));
}
