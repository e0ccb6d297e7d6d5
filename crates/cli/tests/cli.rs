//! End-to-end tests of the `saturn` binary.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn saturn(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_saturn")).args(args).output().expect("binary runs")
}

/// Writes `text` to a trace file of its own: tests run on parallel
/// threads, and rewriting a shared file would truncate it under another
/// test's running `saturn` child.
fn tmp_file(text: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("saturn-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("trace-{}-{n}.txt", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

/// The small test trace: 6 nodes, 300 events.
fn tmp_trace() -> std::path::PathBuf {
    let mut text = String::new();
    for i in 0..300i64 {
        text.push_str(&format!("n{} n{} {}\n", i % 6, (i + 1) % 6, i * 40));
    }
    tmp_file(&text)
}

#[test]
fn help_and_unknown_commands() {
    let out = saturn(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = saturn(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = saturn(&[]);
    assert!(!out.status.success());
}

#[test]
fn stats_reports_counts() {
    let path = tmp_trace();
    let out = saturn(&["stats", path.to_str().unwrap(), "--directed"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nodes                6"), "{text}");
    assert!(text.contains("links                300"), "{text}");
}

#[test]
fn analyze_finds_gamma_and_json_is_valid() {
    let path = tmp_trace();
    let out = saturn(&["analyze", path.to_str().unwrap(), "--points", "10", "--unit", "s"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("γ ="), "{text}");

    let out = saturn(&["analyze", path.to_str().unwrap(), "--points", "10", "--json"]);
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON report");
    assert!(v["results"].as_array().unwrap().len() >= 5);
}

#[test]
fn validate_prints_loss_table() {
    let path = tmp_trace();
    let out = saturn(&["validate", path.to_str().unwrap(), "--points", "8", "--unit", "s"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lost"), "{text}");
    assert!(text.contains("elongation"), "{text}");
}

/// A reader that goes away early (`saturn analyze … | head`) makes the
/// write fail: the CLI reports it as a one-line error and exits 1, and
/// never panics.
#[test]
fn closed_stdout_is_an_error_not_a_panic() {
    let path = tmp_trace();
    let mut child = Command::new(env!("CARGO_BIN_EXE_saturn"))
        .args(["analyze", path.to_str().unwrap(), "--json", "--points", "200"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    // close the read end before the report is written; the report is
    // larger than a pipe buffer, so the write cannot complete either way
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("child exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("saturn: stdout:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn synth_writes_parseable_stream() {
    let dir = std::env::temp_dir().join("saturn-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("synth-{}.txt", std::process::id()));
    let out = saturn(&[
        "synth",
        "manufacturing",
        "--scale",
        "0.05",
        "--seed",
        "3",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // the generated file round-trips through analyze
    let out = saturn(&["analyze", path.to_str().unwrap(), "--directed", "--points", "8"]);
    assert!(out.status.success());

    let out = saturn(&["synth", "atlantis"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown profile"));
}

#[test]
fn synth_analyze_json_end_to_end() {
    // generate a trace, analyze it, and assert on the parsed report
    let dir = std::env::temp_dir().join("saturn-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("e2e-{}.txt", std::process::id()));
    let out = saturn(&["synth", "irvine", "--scale", "0.04", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = saturn(&[
        "analyze",
        path.to_str().unwrap(),
        "--directed",
        "--points",
        "8",
        "--threads",
        "2",
        "--json",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let results = v["results"].as_array().unwrap();
    assert!(results.len() >= 8, "coarse grid plus refinement");
    for r in results {
        assert!(r["delta_ticks"].as_f64().unwrap() > 0.0);
        assert!(r["k"].as_u64().unwrap() >= 1);
        assert!(
            r["scores"]["mk_proximity"].is_null()
                || r["scores"]["mk_proximity"].as_f64().is_some()
        );
    }
    // deterministic across thread counts: --threads 1 gives the same bytes
    let again = saturn(&[
        "analyze",
        path.to_str().unwrap(),
        "--directed",
        "--points",
        "8",
        "--threads",
        "1",
        "--json",
    ]);
    assert_eq!(out.stdout, again.stdout, "thread count must not change the report");
}

/// Execution choices never move report bytes. A 3000-node path trace is
/// wide enough that the per-worker DP memory budget splits every scale
/// into tiles on any thread count; one thread and two threads (the latter
/// with tile tracing on, which is observation-only) must emit the same
/// JSON.
#[test]
fn execution_knobs_do_not_change_report_bytes() {
    let nodes = 3000;
    let text: String = (0..nodes).map(|i| format!("n{i} n{} {i}\n", i + 1)).collect();
    let path = tmp_file(&text);
    let path = path.to_str().unwrap();
    let args = ["analyze", path, "--points", "4", "--json", "--threads"];
    let one = saturn(&[&args[..], &["1"]].concat());
    assert!(one.status.success(), "{}", String::from_utf8_lossy(&one.stderr));
    let two = Command::new(env!("CARGO_BIN_EXE_saturn"))
        .args([&args[..], &["2"]].concat())
        .env("SATURN_TRACE", "json")
        .output()
        .expect("binary runs");
    assert!(two.status.success(), "{}", String::from_utf8_lossy(&two.stderr));
    assert_eq!(one.stdout, two.stdout, "thread count must not change the report bytes");
    // the memory cap really did tile: no span covers all `nodes + 1` columns
    let spans = String::from_utf8_lossy(&two.stderr);
    let widths: Vec<u64> = spans
        .lines()
        .filter_map(|l| l.split("\"col_len\":").nth(1)?.split(',').next()?.parse().ok())
        .collect();
    assert!(!widths.is_empty(), "no tile spans traced");
    assert!(widths.iter().all(|&w| w <= nodes), "{widths:?}");
}

#[test]
fn stats_json_is_machine_readable() {
    let path = tmp_trace();
    let out = saturn(&["stats", path.to_str().unwrap(), "--directed", "--json"]);
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v["nodes"].as_u64(), Some(6));
    assert_eq!(v["links"].as_u64(), Some(300));
    assert_eq!(v["dropped_self_loops"].as_u64(), Some(0));
    assert!(v["span"].as_i64().unwrap() > 0);
    assert!(v["mean_inter_contact"].as_f64().unwrap() > 0.0);
}

#[test]
fn threads_env_var_is_honored() {
    let path = tmp_trace();
    let out = Command::new(env!("CARGO_BIN_EXE_saturn"))
        .args(["analyze", path.to_str().unwrap(), "--points", "8", "--json"])
        .env("SATURN_THREADS", "1")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let baseline = saturn(&["analyze", path.to_str().unwrap(), "--points", "8", "--json"]);
    assert_eq!(out.stdout, baseline.stdout);
}

#[test]
fn serve_answers_an_analyze_request() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut child = Command::new(env!("CARGO_BIN_EXE_saturn"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2", "--cache-mb", "8"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    lines.read_line(&mut first).expect("banner line");
    let addr = first.trim().rsplit("http://").next().expect("address in banner").to_string();

    let trace = "a b 1\nb c 5\nc d 9\na c 13\nb d 17\na d 21\n".repeat(20);
    let body: String = trace
        .lines()
        .enumerate()
        .map(|(i, l)| {
            let mut parts = l.split_whitespace();
            let (u, v) = (parts.next().unwrap(), parts.next().unwrap());
            format!("{u}{} {v}{} {}\n", i % 3, i % 3, i * 4)
        })
        .collect();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect to served addr");
    write!(
        stream,
        "POST /v1/analyze?points=8 HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    child.kill().ok();
    child.wait().ok();

    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let json_start = response.find("\r\n\r\n").expect("header/body split") + 4;
    let v: serde_json::Value =
        serde_json::from_str(&response[json_start..]).expect("valid JSON report");
    assert!(!v["results"].as_array().unwrap().is_empty());
}

#[test]
fn missing_file_fails_cleanly() {
    let out = saturn(&["analyze", "/no/such/file.txt"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("/no/such/file.txt"), "{err}");
}

#[test]
fn overflowing_study_period_fails_cleanly() {
    let dir = std::env::temp_dir().join("saturn-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("extreme-{}.txt", std::process::id()));
    std::fs::write(&path, format!("a b {}\na c {}\n", i64::MIN, i64::MAX)).unwrap();
    for command in ["analyze", "validate", "stats"] {
        let out = saturn(&[command, path.to_str().unwrap()]);
        assert!(!out.status.success(), "{command}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("study period"), "{command}: {err}");
        assert!(!err.contains("panicked"), "{command}: {err}");
    }
    std::fs::remove_file(&path).ok();
}

/// A grid size past `SweepGrid::MAX_POINTS` is refused before any work:
/// materializing it would abort the process on the allocation.
#[test]
fn oversized_grids_fail_cleanly() {
    let trace = tmp_trace();
    for command in ["analyze", "validate"] {
        for points in ["1099511627776", "18446744073709551615", "4097"] {
            let out = saturn(&[command, trace.to_str().unwrap(), "--points", points]);
            assert_eq!(out.status.code(), Some(1), "{command} --points {points}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("at most 4096"), "{command} --points {points}: {err}");
            assert!(!err.contains("panicked"), "{command} --points {points}: {err}");
        }
    }
}
