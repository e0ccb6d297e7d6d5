//! Figure 4 — inverse cumulative distributions of occupancy rates for the
//! Facebook, Enron and Manufacturing stand-ins, at several Δ spanning the
//! whole range: the same stretch-then-concentrate evolution as Irvine
//! (Figure 3 left), establishing the phenomenon across datasets.

#![forbid(unsafe_code)]

use saturn_bench::{dataset, downsample, grid_points, write_series, HOUR};
use saturn_core::{OccupancyMethod, SweepGrid};
use saturn_distrib::WeightedDist;
use saturn_synth::DatasetProfile;
use saturn_trips::{occupancy_histogram, TargetSet};

fn main() {
    for profile in
        [DatasetProfile::facebook(), DatasetProfile::enron(), DatasetProfile::manufacturing()]
    {
        let profile = dataset(profile);
        println!("Figure 4 — occupancy ICDs ({} stand-in)", profile.name);
        let stream = profile.generate(1);
        let report = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: grid_points(32) })
            .refine(0, 0)
            .run(&stream);

        let n = report.results().len();
        let mut picks: Vec<usize> = (0..7).map(|i| i * (n - 1) / 6).collect();
        picks.dedup();
        let targets = TargetSet::all(stream.node_count() as u32);
        for &i in &picks {
            let r = &report.results()[i];
            let hist = occupancy_histogram(&stream, r.k, &targets);
            let dist = WeightedDist::from_pairs(hist.sorted_rates());
            write_series(
                &format!("fig4_{}_icd_delta_{:.0}s.dat", profile.name, r.delta_ticks),
                &format!("occupancy_rate P(X>=x) at Δ = {:.1} h", r.delta_ticks / HOUR),
                &downsample(&dist.icd_points(), 2_000),
            );
        }

        // Stretch-then-concentrate check per dataset.
        let first = report.results().first().unwrap();
        let last = report.results().last().unwrap();
        assert!(first.mean_rate < last.mean_rate);
        assert!(last.fraction_at_one > 0.99);
        println!(
            "  {}: mean occupancy {:.4} (Δ=res) -> {:.4} (Δ=T); P[occ=1] at Δ=T: {:.3}\n",
            profile.name, first.mean_rate, last.mean_rate, last.fraction_at_one
        );
        saturn_bench::append_summary(
            &format!("Figure 4 ({} stand-in)", profile.name),
            &format!(
                "ICDs stretch then concentrate: mean rate {:.4} -> {:.4}, final P[occ=1] = {:.3}",
                first.mean_rate, last.mean_rate, last.fraction_at_one
            ),
        );
    }
}
