//! Shared infrastructure for the figure-regeneration binaries and the
//! `bench_sweep` engine trajectory.
//!
//! Every binary regenerates one exhibit of the paper (see DESIGN.md §5 for
//! the index), writing gnuplot-ready `.dat` series under `results/` (override
//! with `SATURN_OUT`) and printing a human-readable summary. Setting
//! `SATURN_FAST=1` shrinks the workloads (scaled-down dataset stand-ins,
//! coarser grids) so the whole suite runs in seconds — used by CI and the
//! integration tests.

#![forbid(unsafe_code)]

use saturn_synth::DatasetProfile;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Ticks per hour at 1-second resolution.
pub const HOUR: f64 = 3_600.0;

/// Whether fast mode is requested (`SATURN_FAST=1`).
pub fn fast_mode() -> bool {
    std::env::var("SATURN_FAST").map(|v| v == "1").unwrap_or(false)
}

/// Output directory for `.dat` series (default `results/`).
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("SATURN_OUT").unwrap_or_else(|_| "results".into());
    let path = PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("cannot create results directory");
    path
}

/// The dataset stand-in for `profile`, scaled down under fast mode.
pub fn dataset(profile: DatasetProfile) -> DatasetProfile {
    if fast_mode() {
        profile.scaled(0.06)
    } else {
        profile
    }
}

/// Grid size honoring fast mode.
pub fn grid_points(full: usize) -> usize {
    if fast_mode() {
        (full / 4).max(8)
    } else {
        full
    }
}

/// Writes an `(x, y)` series as a two-column `.dat` file with a comment
/// header; returns the path.
pub fn write_series(name: &str, header: &str, rows: &[(f64, f64)]) -> PathBuf {
    let path = out_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("cannot create .dat file");
    writeln!(f, "# {header}").unwrap();
    for (x, y) in rows {
        writeln!(f, "{x} {y}").unwrap();
    }
    println!("  wrote {}", path.display());
    path
}

/// Writes a multi-column `.dat` file; `columns` names the y-columns.
pub fn write_table(name: &str, columns: &[&str], rows: &[Vec<f64>]) -> PathBuf {
    let path = out_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("cannot create .dat file");
    writeln!(f, "# {}", columns.join(" ")).unwrap();
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        writeln!(f, "{}", line.join(" ")).unwrap();
    }
    println!("  wrote {}", path.display());
    path
}

/// Appends a summary block to `results/summary.md` (created on demand).
pub fn append_summary(title: &str, body: &str) {
    let path = out_dir().join("summary.md");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("cannot open summary.md");
    writeln!(f, "## {title}\n\n{body}\n").unwrap();
}

/// Renders a compact ASCII plot of an `(x, y)` series (log-x), `width`
/// buckets wide — a quick visual check in terminal output.
pub fn ascii_curve(rows: &[(f64, f64)], width: usize) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let ymax = rows.iter().map(|&(_, y)| y).filter(|y| y.is_finite()).fold(0.0f64, f64::max);
    let mut out = String::new();
    let step = rows.len().max(1).div_ceil(width);
    for chunk in rows.chunks(step.max(1)) {
        let (x, y) = chunk[chunk.len() / 2];
        let bar = if ymax > 0.0 { ((y / ymax) * 40.0) as usize } else { 0 };
        out.push_str(&format!("{:>12.3} {:6.3} {}\n", x, y, "#".repeat(bar)));
    }
    out
}

/// Downsamples a plot series to at most `max_points` rows, keeping the first
/// and last points (ICDs of fine-scale occupancy distributions can hold
/// millions of steps; plots need a few thousand at most).
pub fn downsample(rows: &[(f64, f64)], max_points: usize) -> Vec<(f64, f64)> {
    if rows.len() <= max_points.max(2) {
        return rows.to_vec();
    }
    let step = (rows.len() - 1) as f64 / (max_points - 1) as f64;
    let mut out: Vec<(f64, f64)> =
        (0..max_points).map(|i| rows[(i as f64 * step) as usize]).collect();
    *out.last_mut().expect("max_points >= 2") = *rows.last().expect("non-empty");
    out
}

/// Resolves a path inside the output dir (for tests).
pub fn out_path(name: &str) -> PathBuf {
    out_dir().join(name)
}

/// Checks a file exists and is non-trivial (for make_all verification).
pub fn assert_written(path: &Path) {
    let meta = std::fs::metadata(path).expect("expected output file missing");
    assert!(meta.len() > 10, "output file {} is empty", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_keeps_ends_and_bounds_size() {
        let rows: Vec<(f64, f64)> = (0..10_000).map(|i| (i as f64, (i * 2) as f64)).collect();
        let d = downsample(&rows, 100);
        assert_eq!(d.len(), 100);
        assert_eq!(d.first(), rows.first());
        assert_eq!(d.last(), rows.last());
        // strictly increasing x preserved
        assert!(d.windows(2).all(|w| w[0].0 < w[1].0));
        // short series pass through unchanged
        let short = vec![(0.0, 1.0), (1.0, 2.0)];
        assert_eq!(downsample(&short, 100), short);
    }

    #[test]
    fn ascii_curve_is_scaled_to_max() {
        let rows = vec![(1.0, 0.0), (2.0, 0.5), (3.0, 1.0)];
        let plot = ascii_curve(&rows, 3);
        let lines: Vec<&str> = plot.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].matches('#').count() > lines[1].matches('#').count());
        assert!(ascii_curve(&[], 5).is_empty());
    }

    #[test]
    fn series_files_round_trip() {
        std::env::set_var("SATURN_OUT", std::env::temp_dir().join("saturn-bench-test"));
        let p = write_series("test_series.dat", "x y", &[(1.0, 2.0), (3.0, 4.5)]);
        assert_written(&p);
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.starts_with("# x y"));
        assert!(text.contains("3 4.5"));
        let t = write_table(
            "test_table.dat",
            &["a", "b"],
            &[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
        );
        assert_written(&t);
        std::env::remove_var("SATURN_OUT");
    }

    #[test]
    fn grid_points_honors_fast_mode() {
        std::env::remove_var("SATURN_FAST");
        assert_eq!(grid_points(40), 40);
        assert!(!fast_mode());
    }
}
