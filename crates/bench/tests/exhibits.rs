//! Smoke tests for the exhibit binaries: the cheap ones run for real (their
//! built-in shape assertions are the test), and the plot-script generator is
//! exercised against a synthetic results directory.

use std::process::Command;

#[test]
fn fig1_toy_asserts_both_path_phenomena() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig1_toy")).output().expect("runs");
    assert!(out.status.success(), "fig1_toy failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stream true, series true"), "{text}");
    assert!(text.contains("stream true, series false"), "{text}");
}

#[test]
fn make_plots_generates_a_script() {
    let dir = std::env::temp_dir().join(format!("saturn-exhibit-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("fig5_demo_mk_proximity.dat"), "# delta y\n1 0.1\n2 0.3\n")
        .unwrap();
    std::fs::write(dir.join("fig8_left_lost.dat"), "# delta y\n1 0.0\n2 1.0\n").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_make_plots"))
        .env("SATURN_OUT", &dir)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "make_plots failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let script = std::fs::read_to_string(dir.join("plot_all.gp")).unwrap();
    assert!(script.contains("fig5_demo_mk_proximity.dat"), "{script}");
    assert!(script.contains("set output 'fig8_validation.png'"), "{script}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every paper exhibit in fast mode: each binary asserts the paper's claims
/// itself, so exiting 0 is the test.
#[test]
fn fast_mode_fig2_runs_with_assertions() {
    let exhibits = [
        ("fig2_classic", env!("CARGO_BIN_EXE_fig2_classic")),
        ("fig3_icd_proximity", env!("CARGO_BIN_EXE_fig3_icd_proximity")),
        ("fig4_icd_others", env!("CARGO_BIN_EXE_fig4_icd_others")),
        ("fig5_proximity_others", env!("CARGO_BIN_EXE_fig5_proximity_others")),
        ("fig6_synthetic", env!("CARGO_BIN_EXE_fig6_synthetic")),
        ("fig7_selection", env!("CARGO_BIN_EXE_fig7_selection")),
        ("fig8_validation", env!("CARGO_BIN_EXE_fig8_validation")),
        ("table_gamma", env!("CARGO_BIN_EXE_table_gamma")),
    ];
    let dir = std::env::temp_dir().join(format!("saturn-exhibits-test-{}", std::process::id()));
    for (name, exe) in exhibits {
        let out = Command::new(exe)
            .env("SATURN_FAST", "1")
            .env("SATURN_OUT", &dir)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{name} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        if name == "fig2_classic" {
            assert!(String::from_utf8_lossy(&out.stdout).contains("monotone drifts confirmed"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
