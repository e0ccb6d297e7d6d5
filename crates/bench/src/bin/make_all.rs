//! Regenerates every exhibit of the paper in one run: Figures 1–8 and the
//! Section 5 γ table. Results land in `results/` (`.dat` series +
//! `summary.md`); each figure binary asserts its qualitative claims, so a
//! clean exit means the reproduction's shape checks all passed.
//!
//! ```sh
//! cargo run --release -p saturn-bench --bin make_all            # full (minutes)
//! SATURN_FAST=1 cargo run --release -p saturn-bench --bin make_all   # seconds
//! ```

#![forbid(unsafe_code)]

use std::process::Command;

const BINS: [&str; 10] = [
    "fig1_toy",
    "fig2_classic",
    "fig3_icd_proximity",
    "fig4_icd_others",
    "fig5_proximity_others",
    "table_gamma",
    "fig6_synthetic",
    "fig7_selection",
    "fig8_validation",
    "make_plots",
];

fn main() {
    // start a fresh summary
    let summary = saturn_bench::out_path("summary.md");
    std::fs::write(
        &summary,
        format!(
            "# saturn — reproduction summary\n\nfast mode: {}\n\n",
            saturn_bench::fast_mode()
        ),
    )
    .expect("cannot write summary.md");

    let exe_dir =
        std::env::current_exe().expect("own path").parent().expect("bin dir").to_path_buf();

    let mut failures = Vec::new();
    for bin in BINS {
        println!("\n=== {bin} ===");
        let t0 = std::time::Instant::now();
        let status = Command::new(exe_dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("cannot launch {bin}: {e} (build with --bins first)"));
        println!(
            "=== {bin}: {} in {:.1?} ===",
            if status.success() { "ok" } else { "FAILED" },
            t0.elapsed()
        );
        if !status.success() {
            failures.push(bin);
        }
    }

    saturn_bench::assert_written(&summary);
    if failures.is_empty() {
        println!("\nall exhibits regenerated — see {}", saturn_bench::out_dir().display());
    } else {
        eprintln!("\nfailed exhibits: {failures:?}");
        std::process::exit(1);
    }
}
