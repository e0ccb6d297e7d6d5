//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_enron --seed 1 --seconds 12 --trace 0 [--smoke]
//! ```
//!
//! Runs one workload (see `README.md` in this directory) against the public
//! APIs of the repository's crates and an in-process `saturn_server::Server`,
//! checks every output, prints a human-readable summary and, as the last
//! line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set taken
//! from the benchmark's own spans and server scrapes.

mod batch;
mod http;
mod pipeline;
mod serve;
mod stream;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("analyze_s", "s"),
    ("analyze_1t_s", "s"),
    ("goodput_rps", "1/s"),
    ("request_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_s", "s"),
    ("io.events", "count"),
    ("timeline.view_s", "s"),
    ("timeline.build_s", "s"),
    ("timeline.steps", "count"),
    ("timeline.edges", "count"),
    ("timeline.splice_s", "s"),
    ("dp.s", "s"),
    ("dp.trips", "count"),
    ("dp.chain_offers", "count"),
    ("dp.traversals", "count"),
    ("dp.offer_yield", "ratio"),
    ("occupancy.sink_s", "s"),
    ("occupancy.distinct_rates", "count"),
    ("method.scales", "count"),
    ("method.rest_s", "s"),
    ("parallel.speedup", "ratio"),
    ("fingerprint.digest_s", "s"),
    ("report.to_json_s", "s"),
    ("http.hit_p50_ms", "ms"),
    ("cache.mem_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("persist.disk_writes", "count"),
    ("jobs.queue_wait_p50_ms", "ms"),
    ("jobs.queue_wait_p99_ms", "ms"),
    ("jobs.executed", "count"),
    ("jobs.rejected", "count"),
    ("jobs.busy_frac", "ratio"),
    ("streams.scales_reused", "count"),
    ("streams.scales_respliced", "count"),
    ("streams.scales_scratch", "count"),
    ("streams.reuse_ratio", "ratio"),
    ("streams.refresh_core_s", "s"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("stream.append_p50_ms", "ms"),
    ("stream.rounds_per_s", "1/s"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.requests", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

const WORKLOADS: &[&str] =
    &["batch_enron", "batch_manufacturing", "serve_mix", "stream_ingest"];

/// One run's settings.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Shrinks every input so each workload finishes in seconds (the
    /// benchmark's own smoke test); numbers from it are not comparable.
    pub smoke: bool,
    /// Scratch space inside the checkout for server cache directories;
    /// removed at exit.
    pub scratch: PathBuf,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = args.next().and_then(|s| s.parse::<u64>().ok()),
            "--seconds" => seconds = args.next().and_then(|s| s.parse::<f64>().ok()),
            "--trace" => traced = args.next().and_then(|s| s.parse::<u8>().ok()),
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) || traced > 1 || seconds <= 0.0 {
        usage();
    }
    let traced = traced == 1;
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let scratch =
        base.join("perfbench-run").join(format!("{workload}-{seed}-{}", std::process::id()));
    let cfg = Config { seed, seconds, smoke, scratch };
    let tracer = Tracer::new(traced);
    println!(
        "perfbench: workload={workload} seed={seed} seconds={seconds} trace={} smoke={smoke} nproc={} cpu=\"{}\"",
        u8::from(traced),
        util::nproc(),
        util::cpu_model()
    );

    let mut out = match workload.as_str() {
        "batch_enron" => batch::run(&cfg, &tracer, batch::Trace::Enron),
        "batch_manufacturing" => batch::run(&cfg, &tracer, batch::Trace::Manufacturing),
        "serve_mix" => serve::run(&cfg, &tracer),
        _ => stream::run(&cfg, &tracer),
    };
    if !out.metrics.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", util::peak_rss_mb());
    }
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    if traced {
        let dump = base.join("perfbench-run").join(format!("trace-{workload}-{seed}.jsonl"));
        match tracer.write_jsonl(&dump) {
            Ok(()) => println!("spans: {} written to {}", tracer.spans().len(), dump.display()),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", dump.display()),
        }
    }

    // the human-readable summary: everything measured, by name and unit
    let attempted = out.attempted.max(1);
    println!(
        "failed_frac = {:.6} ({} of {attempted} operations failed)",
        out.failed as f64 / attempted as f64,
        out.failed
    );
    for (name, value) in &out.metrics {
        let unit =
            END_TO_END.iter().chain(PER_LAYER).find(|m| m.0 == *name).map_or("", |m| m.1);
        println!("{name:<28} {value:>16.6} {unit}");
    }

    let wanted = if traced { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            // a layer this workload does not exercise
            None if traced => 0.0,
            _ => {
                eprintln!("perfbench: metric {name} was not measured");
                std::process::exit(1);
            }
        };
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the program emits is declared, with the same unit, in
    /// the repository's `BENCHMARK.json`, and vice versa by count.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing from BENCHMARK.json");
        }
        assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len() + PER_LAYER.len());
        for workload in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{workload}\"")), "{workload}");
        }
    }

    /// Every workload, plain and traced, at smoke size: all checks pass and
    /// every metric of its set is measured.
    #[test]
    fn every_workload_runs_at_smoke_size() {
        for workload in WORKLOADS {
            for traced in [false, true] {
                let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("target/perfbench-test")
                    .join(format!("{workload}-{traced}"));
                let cfg =
                    Config { seed: 3, seconds: 0.5, smoke: true, scratch: scratch.clone() };
                let tracer = Tracer::new(traced);
                let out = match *workload {
                    "batch_enron" => batch::run(&cfg, &tracer, batch::Trace::Enron),
                    "batch_manufacturing" => {
                        batch::run(&cfg, &tracer, batch::Trace::Manufacturing)
                    }
                    "serve_mix" => serve::run(&cfg, &tracer),
                    _ => stream::run(&cfg, &tracer),
                };
                let _ = std::fs::remove_dir_all(&scratch);
                assert!(
                    out.attempted > 0 && out.failed == 0,
                    "{workload} traced={traced}: {} failed",
                    out.failed
                );
                if !traced {
                    for (name, _) in END_TO_END.iter().filter(|m| m.0 != "peak_rss_mb") {
                        let v = out.metrics.get(name).copied().unwrap_or(f64::NAN);
                        assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
                    }
                }
            }
        }
    }
}
