//! Emits gnuplot scripts for every `.dat` series in `results/`, grouped by
//! figure, so `gnuplot results/plot_all.gp` renders the paper's panels as
//! PNG files. Pure file generation — run after `make_all`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::io::Write as _;

struct Panel {
    out: &'static str,
    title: &'static str,
    xlabel: &'static str,
    ylabel: &'static str,
    logx: bool,
    /// (file-prefix filter, plot style)
    series_prefix: &'static str,
    style: &'static str,
}

const PANELS: [Panel; 8] = [
    Panel {
        out: "fig2_classic.png",
        title: "Figure 2 — classical parameters vs Delta (Irvine stand-in)",
        xlabel: "Delta (h)",
        ylabel: "mean density",
        logx: true,
        series_prefix: "fig2_classic",
        style: "using 1:2 with linespoints",
    },
    Panel {
        out: "fig3_left_icds.png",
        title: "Figure 3 (left) — occupancy-rate ICDs, Irvine stand-in",
        xlabel: "occupancy rate",
        ylabel: "proportion of minimal trips",
        logx: false,
        series_prefix: "fig3_icd_",
        style: "using 1:2 with lines",
    },
    Panel {
        out: "fig3_right_proximity.png",
        title: "Figure 3 (right) — M-K proximity vs Delta, Irvine stand-in",
        xlabel: "Delta (h)",
        ylabel: "M-K proximity",
        logx: false,
        series_prefix: "fig3_mk_proximity",
        style: "using 1:2 with linespoints",
    },
    Panel {
        out: "fig4_icds.png",
        title: "Figure 4 — occupancy-rate ICDs, other stand-ins",
        xlabel: "occupancy rate",
        ylabel: "proportion of minimal trips",
        logx: false,
        series_prefix: "fig4_",
        style: "using 1:2 with lines",
    },
    Panel {
        out: "fig5_proximity.png",
        title: "Figure 5 — M-K proximity vs Delta",
        xlabel: "Delta (h)",
        ylabel: "M-K proximity",
        logx: false,
        series_prefix: "fig5_",
        style: "using 1:2 with linespoints",
    },
    Panel {
        out: "fig6_synthetic.png",
        title: "Figure 6 — synthetic networks",
        xlabel: "mean inter-contact (s) / low-share (%)",
        ylabel: "gamma (s)",
        logx: false,
        series_prefix: "fig6_",
        style: "using 1:2 with linespoints",
    },
    Panel {
        out: "fig7_curves.png",
        title: "Figure 7 — normalized selection-metric curves (Irvine stand-in)",
        xlabel: "Delta (h)",
        ylabel: "normalized score",
        logx: true,
        series_prefix: "fig7_curve_",
        style: "using 1:2 with lines",
    },
    Panel {
        out: "fig8_validation.png",
        title: "Figure 8 — information loss vs Delta (Irvine stand-in)",
        xlabel: "Delta (h)",
        ylabel: "lost fraction / elongation",
        logx: true,
        series_prefix: "fig8_",
        style: "using 1:2 with linespoints",
    },
];

fn main() {
    let dir = saturn_bench::out_dir();
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("results directory")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|f| f.ends_with(".dat"))
        .collect();
    files.sort();

    let mut script = String::from(
        "# generated by make_plots — render with: gnuplot plot_all.gp\n\
         set terminal pngcairo size 1000,700\n\
         set key outside right\n\n",
    );
    let mut panels_written = 0;
    for panel in PANELS {
        let matching: Vec<&String> =
            files.iter().filter(|f| f.starts_with(panel.series_prefix)).collect();
        if matching.is_empty() {
            continue;
        }
        writeln!(script, "set output '{}'", panel.out).unwrap();
        writeln!(script, "set title '{}'", panel.title).unwrap();
        writeln!(script, "set xlabel '{}'", panel.xlabel).unwrap();
        writeln!(script, "set ylabel '{}'", panel.ylabel).unwrap();
        writeln!(script, "{}", if panel.logx { "set logscale x" } else { "unset logscale x" })
            .unwrap();
        let plots: Vec<String> = matching
            .iter()
            .map(|f| format!("'{f}' {} title '{}'", panel.style, f.trim_end_matches(".dat")))
            .collect();
        writeln!(script, "plot {}\n", plots.join(", \\\n     ")).unwrap();
        panels_written += 1;
    }

    let path = dir.join("plot_all.gp");
    let mut f = std::fs::File::create(&path).expect("write plot script");
    f.write_all(script.as_bytes()).expect("write plot script");
    println!("wrote {} ({panels_written} panels over {} series)", path.display(), files.len());
    assert!(panels_written >= 1, "no .dat series found — run make_all first");
}
