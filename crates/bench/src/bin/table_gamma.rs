//! The Section 5 results table: saturation scale γ and mean activity for all
//! four datasets, reproducing the paper's central quantitative claim —
//! higher activity ⇒ smaller saturation scale (Facebook 46 h > Enron 78 h?
//! no: the *two lowest-activity* networks get the two largest γ, and the two
//! highest-activity ones the two smallest).

#![forbid(unsafe_code)]

use saturn_bench::{dataset, grid_points, write_table, HOUR};
use saturn_core::{OccupancyMethod, SweepGrid};
use saturn_synth::DatasetProfile;

fn main() {
    println!("Section 5 table — saturation scales of the four dataset stand-ins\n");
    println!(
        "{:>15} {:>8} {:>9} {:>12} {:>12} {:>12}",
        "dataset", "nodes", "events", "msg/pers/day", "γ (h)", "paper γ (h)"
    );

    let mut rows = Vec::new();
    let mut activities = Vec::new();
    let mut gammas = Vec::new();
    for profile in DatasetProfile::all() {
        let profile = dataset(profile);
        let stream = profile.generate(1);
        let report = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: grid_points(48) })
            .run(&stream);
        let gamma = report.gamma().expect("non-degenerate stream");
        let activity = profile.activity_per_person_per_day();
        println!(
            "{:>15} {:>8} {:>9} {:>12.2} {:>12.1} {:>12.0}",
            profile.name,
            stream.node_count(),
            stream.len(),
            activity,
            gamma.delta_ticks / HOUR,
            profile.paper_gamma_hours
        );
        rows.push(vec![activity, gamma.delta_ticks / HOUR, profile.paper_gamma_hours]);
        activities.push((profile.name, activity));
        gammas.push((profile.name, gamma.delta_ticks / HOUR));
    }
    write_table("table_gamma.dat", &["activity_per_day", "gamma_h", "paper_gamma_h"], &rows);

    // The paper's claim: the two low-activity networks (facebook, enron)
    // have larger γ than the two high-activity ones (irvine, manufacturing).
    let g = |name: &str| gammas.iter().find(|(n, _)| *n == name).unwrap().1;
    let low_min = g("facebook").min(g("enron"));
    let high_max = g("irvine").max(g("manufacturing"));
    let ordering_holds = low_min > high_max;
    println!(
        "\nactivity/γ anti-correlation (min(fb,enron) = {low_min:.1} h > max(irvine,mfg) = \
         {high_max:.1} h): {ordering_holds}"
    );
    saturn_bench::append_summary(
        "Section 5 table (γ per dataset)",
        &format!(
            "{}; low-activity γ exceeds high-activity γ: {ordering_holds}",
            gammas.iter().map(|(n, g)| format!("{n} {g:.1}h")).collect::<Vec<_>>().join(", ")
        ),
    );
}
