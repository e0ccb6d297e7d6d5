//! `saturn` — command-line saturation-scale analyzer for link streams.
//!
//! The paper's closing claim: "our method is fully automatic and does not
//! require any parameter as input. Therefore, it can easily been
//! incorporated into any automatic tool for analyzing dynamic networks."
//! This binary is that tool.
//!
//! ```text
//! saturn analyze <file> [--directed] [--points N] [--sample N] [--threads N] [--json] [--unit s|m|h|d]
//! saturn synth <irvine|facebook|enron|manufacturing> [--seed S] [--scale F] [--out FILE]
//! saturn validate <file> [--directed] [--points N] [--threads N]
//! saturn stats <file> [--directed] [--json]
//! saturn serve [--addr A] [--threads N] [--cache-mb M] [--cache-dir DIR] [--cache-disk-mb M] [--queue N] [--executors N|auto] [--default-deadline-ms N] [--drain-secs N] [--stream-ttl-secs N] [--max-streams N]
//! saturn help
//! ```

#![forbid(unsafe_code)]

use saturn_core::{
    json_trace_from_env, validation_sweep, JsonTraceObserver, OccupancyMethod, SweepControl,
    SweepGrid, TargetSpec, ValidationOptions, WorkerPool,
};
use saturn_linkstream::{io, Directedness, LinkStream};
use saturn_server::{FaultPlan, Server, ServerConfig};
use saturn_synth::DatasetProfile;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "analyze" => cmd_analyze(rest),
        "synth" => cmd_synth(rest),
        "validate" => cmd_validate(rest),
        "stats" => cmd_stats(rest),
        "serve" => cmd_serve(rest),
        "help" | "--help" | "-h" => emit(&format!("{USAGE}\n")),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("saturn: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
saturn — saturation-scale analysis of link streams (CoNEXT 2015)

USAGE:
  saturn analyze <file>   detect the saturation scale γ of a trace
      --directed          treat links as directed (default: undirected)
      --points N          Δ-grid size (default 48, at most 4096)
      --sample N          sample N destination nodes (default: exact, all nodes)
      --threads N         worker threads (default: $SATURN_THREADS, else all cores)
      --unit s|m|h|d      display unit for Δ (ticks are seconds; default h)
      --json              emit the full report as JSON
                          ($SATURN_TRACE=json mirrors per-tile sweep spans
                          as JSON lines on stderr; output is unchanged)
  saturn validate <file>  information-loss curves (lost transitions, elongation)
      --directed, --points N, --threads N, --unit, --json as above
  saturn stats <file>     print stream statistics
      --directed, --json as above
  saturn serve            run the HTTP analysis service (POST /v1/analyze,
                          /v1/validate, /v1/stats, /v1/streams;
                          GET /v1/jobs/<id>, /v1/health, /v1/metrics)
      --addr A            bind address (default 127.0.0.1:7878; port 0 = ephemeral)
      --threads N         sweep worker pool size, shared across requests
      --cache-mb M        in-memory report cache budget in MiB (default 64;
                          0 disables the memory tier entirely)
      --cache-dir DIR     durable disk spill tier under the memory cache:
                          completed/evicted reports persist as checksummed
                          content-addressed files and survive restarts
                          (default: none; the dir is created if missing and
                          must be writable, else serve fails fast)
      --cache-disk-mb M   disk spill tier budget in MiB (default 64;
                          0 disables the tier even with --cache-dir)
      --queue N           job queue depth before 503 backpressure
                          (default 64)
      --stream-ttl-secs N idle TTL of streaming ingest sessions; sessions
                          untouched this long are evicted and answer 410
                          (default 300)
      --max-streams N     concurrently open ingest sessions before creation
                          gets 503 stream_limit (default 64)
      --executors N|auto  supervised executors draining the one job queue,
                          each with its own worker pool (default 1;
                          auto = min(cores/4, 4); never more than
                          --threads); execution knob only — report
                          bytes are identical at any count
      --default-deadline-ms N
                          deadline applied to requests that send no
                          ?deadline_ms= (default 0 = none); expired requests
                          get 504 with partial-progress counters
      --drain-secs N      graceful-drain budget after SIGTERM/SIGINT
                          (default 10): in-flight jobs get this long to
                          finish before cancellation
                          ($SATURN_FAULTS arms the fault-injection harness;
                          see the server crate docs for the spec grammar)
  saturn synth <name>     generate a dataset stand-in (irvine, facebook,
                          enron, manufacturing) to stdout or --out FILE
      --seed S            generation seed (default 1)
      --scale F           shrink nodes/events by factor F in (0,1]
  saturn help             this message

input format: one event per line, `u v t` or KONECT `u v w t`; integer
timestamps; lines starting with % or # are skipped.";

/// `$SATURN_THREADS`, or 0 ("all cores") when unset/unparseable.
fn env_threads() -> usize {
    std::env::var("SATURN_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

#[derive(Debug)]
struct Flags {
    file: Option<String>,
    directed: bool,
    points: usize,
    sample: Option<u32>,
    threads: usize,
    json: bool,
    unit: (f64, &'static str),
    seed: u64,
    scale: f64,
    out: Option<String>,
    addr: String,
    cache_mb: usize,
    cache_dir: Option<String>,
    cache_disk_mb: usize,
    queue: usize,
    executors: usize,
    default_deadline_ms: u64,
    drain_secs: u64,
    stream_ttl_secs: u64,
    max_streams: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        file: None,
        directed: false,
        points: 48,
        sample: None,
        threads: env_threads(),
        json: false,
        unit: (3600.0, "h"),
        seed: 1,
        scale: 1.0,
        out: None,
        addr: "127.0.0.1:7878".into(),
        cache_mb: 64,
        cache_dir: None,
        cache_disk_mb: 64,
        queue: 64,
        executors: 1,
        default_deadline_ms: 0,
        drain_secs: 10,
        stream_ttl_secs: 300,
        max_streams: 64,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().map(|s| s.to_string()).ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--directed" => f.directed = true,
            "--json" => f.json = true,
            "--points" => {
                f.points = value("--points")?.parse().map_err(|e| format!("--points: {e}"))?;
                if f.points > SweepGrid::MAX_POINTS {
                    let max = SweepGrid::MAX_POINTS;
                    return Err(format!("--points {}: at most {max}", f.points));
                }
            }
            "--sample" => {
                f.sample =
                    Some(value("--sample")?.parse().map_err(|e| format!("--sample: {e}"))?)
            }
            "--threads" => {
                f.threads =
                    value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--addr" => f.addr = value("--addr")?,
            "--cache-mb" => {
                f.cache_mb =
                    value("--cache-mb")?.parse().map_err(|e| format!("--cache-mb: {e}"))?
            }
            "--cache-dir" => f.cache_dir = Some(value("--cache-dir")?),
            "--cache-disk-mb" => {
                f.cache_disk_mb = value("--cache-disk-mb")?
                    .parse()
                    .map_err(|e| format!("--cache-disk-mb: {e}"))?
            }
            "--queue" => {
                f.queue = value("--queue")?.parse().map_err(|e| format!("--queue: {e}"))?
            }
            "--executors" => {
                // `auto` maps to 0, which the server resolves to
                // min(cores/4, 4) at bind time
                f.executors = match value("--executors")?.as_str() {
                    "auto" => 0,
                    n => n.parse().map_err(|e| format!("--executors: {e}"))?,
                }
            }
            "--default-deadline-ms" => {
                f.default_deadline_ms = value("--default-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--default-deadline-ms: {e}"))?
            }
            "--drain-secs" => {
                f.drain_secs =
                    value("--drain-secs")?.parse().map_err(|e| format!("--drain-secs: {e}"))?
            }
            "--stream-ttl-secs" => {
                f.stream_ttl_secs = value("--stream-ttl-secs")?
                    .parse()
                    .map_err(|e| format!("--stream-ttl-secs: {e}"))?
            }
            "--max-streams" => {
                f.max_streams = value("--max-streams")?
                    .parse()
                    .map_err(|e| format!("--max-streams: {e}"))?
            }
            "--seed" => {
                f.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--scale" => {
                f.scale = value("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?
            }
            "--out" => f.out = Some(value("--out")?),
            "--unit" => {
                f.unit = match value("--unit")?.as_str() {
                    "s" => (1.0, "s"),
                    "m" => (60.0, "min"),
                    "h" => (3600.0, "h"),
                    "d" => (86400.0, "d"),
                    u => return Err(format!("unknown unit `{u}` (use s|m|h|d)")),
                }
            }
            other if !other.starts_with('-') && f.file.is_none() => {
                f.file = Some(other.to_string())
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(f)
}

fn load(f: &Flags) -> Result<LinkStream, String> {
    let file = f.file.as_deref().ok_or("missing input file")?;
    let d = if f.directed { Directedness::Directed } else { Directedness::Undirected };
    io::read_path(file, d).map_err(|e| format!("{file}: {e}"))
}

fn targets(f: &Flags) -> TargetSpec {
    match f.sample {
        Some(size) => TargetSpec::Sample { size, seed: f.seed },
        None => TargetSpec::All,
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args)?;
    let stream = load(&f)?;
    let method = OccupancyMethod::new()
        .grid(SweepGrid::Geometric { points: f.points })
        .targets(targets(&f));
    // SATURN_TRACE=json: mirror every completed (scale, tile) span as a JSON
    // line on stderr, same format `saturn serve` emits. Observation only —
    // report bytes are identical with or without the observer.
    let observer = json_trace_from_env().then(|| Arc::new(JsonTraceObserver) as _);
    let ctl = SweepControl { observer, ..SweepControl::default() };
    let report = method
        .try_run_on(&stream, &mut WorkerPool::new(f.threads), &ctl)
        .expect("a sweep whose token never fires cannot be cancelled");
    if f.json {
        emit(&format!("{}\n", report.to_json()))
    } else {
        emit(&report.render_text(f.unit.0, f.unit.1))
    }
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args)?;
    let stream = load(&f)?;
    let report = validation_sweep(
        &stream,
        &SweepGrid::Geometric { points: f.points },
        targets(&f),
        &ValidationOptions::default(),
        &mut WorkerPool::new(f.threads),
        &SweepControl::new(),
    )
    .expect("a sweep whose token never fires cannot be cancelled");
    if f.json {
        return emit(&format!(
            "{}\n",
            serde_json::to_string_pretty(&report).expect("serializable")
        ));
    }
    let (per, unit) = f.unit;
    let mut out = format!(
        "{} shortest transitions, {} stream trips\n{:>14} {:>12} {:>12}\n",
        report.reference_transitions,
        report.reference_trips,
        format!("Δ ({unit})"),
        "lost",
        "elongation"
    );
    for p in &report.points {
        out += &format!(
            "{:>14.4} {:>12.4} {:>12.3}\n",
            p.delta_ticks / per,
            p.lost_transitions,
            p.elongation.mean
        );
    }
    emit(&out)
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args)?;
    let stream = load(&f)?;
    let s = stream.stats();
    if f.json {
        // the same shape `POST /v1/stats` serves
        return emit(&format!(
            "{}\n",
            serde_json::to_string_pretty(&s).expect("stats serialize")
        ));
    }
    emit(&format!(
        "nodes                {}\n\
         links                {}\n\
         distinct timestamps  {}\n\
         period               [{}, {}] ({} ticks)\n\
         links/node           {:.3}\n\
         mean inter-contact   {:.1} ticks\n\
         dropped self-loops   {}\n\
         dropped duplicates   {}\n",
        s.nodes,
        s.links,
        s.distinct_timestamps,
        s.t_begin,
        s.t_end,
        s.span,
        s.mean_links_per_node,
        s.mean_inter_contact,
        s.dropped_self_loops,
        s.dropped_duplicates
    ))
}

/// Writes a command's output to stdout. A stdout closed early (`saturn
/// analyze … | head`) is an error like any other, not a panic.
fn emit(output: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(output.as_bytes())
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("stdout: {e}"))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args)?;
    if let Some(file) = &f.file {
        return Err(format!(
            "serve takes no input file (got `{file}`); traces arrive in request bodies"
        ));
    }
    let faults = match FaultPlan::from_env() {
        None => None,
        Some(Ok(plan)) => {
            eprintln!("saturn-server: WARNING: fault injection armed via SATURN_FAULTS");
            Some(std::sync::Arc::new(plan))
        }
        Some(Err(e)) => return Err(format!("SATURN_FAULTS: {e}")),
    };
    let config = ServerConfig {
        addr: f.addr.clone(),
        threads: f.threads,
        cache_bytes: f.cache_mb << 20,
        cache_dir: f.cache_dir.as_ref().map(std::path::PathBuf::from),
        cache_disk_bytes: f.cache_disk_mb << 20,
        queue_depth: f.queue,
        executors: f.executors,
        default_deadline_ms: f.default_deadline_ms,
        drain_secs: f.drain_secs,
        stream_ttl: std::time::Duration::from_secs(f.stream_ttl_secs),
        max_streams: f.max_streams,
        faults,
        ..ServerConfig::default()
    };
    let server = Server::bind(&config).map_err(|e| format!("bind {}: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| format!("local addr: {e}"))?;
    // machine-readable first line: tests and scripts bind port 0 and read
    // the resolved address from here
    println!("saturn-server listening on http://{addr}");
    println!(
        "  threads={} executors={} cache={}MiB disk={} queue={} deadline={} drain={}s  (POST /v1/analyze | /v1/validate | /v1/stats | /v1/streams, GET /v1/jobs/<id> | /v1/health | /v1/metrics)",
        if f.threads == 0 { "auto".to_string() } else { f.threads.to_string() },
        saturn_server::executor_layout(f.threads, f.executors).0,
        f.cache_mb,
        match &f.cache_dir {
            Some(dir) if f.cache_disk_mb > 0 => format!("{}MiB@{dir}", f.cache_disk_mb),
            _ => "off".to_string(),
        },
        f.queue,
        if f.default_deadline_ms == 0 {
            "none".to_string()
        } else {
            format!("{}ms", f.default_deadline_ms)
        },
        f.drain_secs,
    );
    server.run().map_err(|e| format!("serve: {e}"))
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("synth needs a profile name")?.clone();
    let f = parse_flags(&args[1..])?;
    let profile = match name.as_str() {
        "irvine" => DatasetProfile::irvine(),
        "facebook" => DatasetProfile::facebook(),
        "enron" => DatasetProfile::enron(),
        "manufacturing" => DatasetProfile::manufacturing(),
        other => return Err(format!("unknown profile `{other}`")),
    };
    let profile = if f.scale < 1.0 { profile.scaled(f.scale) } else { profile };
    let stream = profile.generate(f.seed);
    match &f.out {
        Some(path) => {
            io::write_path(&stream, path).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {} events to {path}", stream.len());
        }
        None => {
            io::write_stream(&stream, std::io::stdout().lock())
                .map_err(|e| format!("stdout: {e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let f = flags(&["trace.txt"]).unwrap();
        assert_eq!(f.file.as_deref(), Some("trace.txt"));
        assert!(!f.directed && !f.json);
        assert_eq!(f.points, 48);
        assert_eq!(f.unit.1, "h");
        assert!(f.sample.is_none());
    }

    #[test]
    fn all_flags_parse() {
        let f = flags(&[
            "t.txt",
            "--directed",
            "--points",
            "12",
            "--sample",
            "30",
            "--json",
            "--unit",
            "m",
            "--seed",
            "9",
            "--scale",
            "0.5",
            "--out",
            "x.txt",
        ])
        .unwrap();
        assert!(f.directed && f.json);
        assert_eq!(f.points, 12);
        assert_eq!(f.sample, Some(30));
        assert_eq!(f.unit, (60.0, "min"));
        assert_eq!(f.seed, 9);
        assert_eq!(f.scale, 0.5);
        assert_eq!(f.out.as_deref(), Some("x.txt"));
    }

    #[test]
    fn server_and_thread_flags_parse() {
        let f = flags(&[
            "--addr",
            "0.0.0.0:9090",
            "--threads",
            "4",
            "--cache-mb",
            "16",
            "--queue",
            "8",
        ])
        .unwrap();
        assert_eq!(f.addr, "0.0.0.0:9090");
        assert_eq!(f.threads, 4);
        assert_eq!(f.cache_mb, 16);
        assert_eq!(f.queue, 8);
        assert!(flags(&["--threads", "many"]).unwrap_err().contains("--threads"));
        assert!(flags(&["--cache-mb"]).unwrap_err().contains("--cache-mb"));
    }

    #[test]
    fn disk_cache_flags_parse_and_default_off() {
        let f = flags(&[]).unwrap();
        assert!(f.cache_dir.is_none(), "disk tier is off unless --cache-dir is given");
        assert_eq!(f.cache_disk_mb, 64);
        let f = flags(&["--cache-dir", "/tmp/spill", "--cache-disk-mb", "128"]).unwrap();
        assert_eq!(f.cache_dir.as_deref(), Some("/tmp/spill"));
        assert_eq!(f.cache_disk_mb, 128);
        // 0 budgets disable a tier without error
        assert_eq!(flags(&["--cache-mb", "0"]).unwrap().cache_mb, 0);
        assert_eq!(flags(&["--cache-disk-mb", "0"]).unwrap().cache_disk_mb, 0);
        assert!(flags(&["--cache-dir"]).unwrap_err().contains("--cache-dir"));
        assert!(flags(&["--cache-disk-mb", "lots"]).unwrap_err().contains("--cache-disk-mb"));
    }

    #[test]
    fn executors_flag_parses_counts_and_auto() {
        assert_eq!(flags(&[]).unwrap().executors, 1);
        assert_eq!(flags(&["--executors", "4"]).unwrap().executors, 4);
        // `auto` becomes 0, resolved by the server to min(cores/4, 4)
        assert_eq!(flags(&["--executors", "auto"]).unwrap().executors, 0);
        assert!(flags(&["--executors", "lots"]).unwrap_err().contains("--executors"));
        assert!(flags(&["--executors"]).unwrap_err().contains("--executors"));
    }

    #[test]
    fn lifecycle_flags_parse_and_default_off() {
        let f = flags(&[]).unwrap();
        assert_eq!(f.default_deadline_ms, 0);
        assert_eq!(f.drain_secs, 10);
        let f = flags(&["--default-deadline-ms", "2500", "--drain-secs", "3"]).unwrap();
        assert_eq!(f.default_deadline_ms, 2500);
        assert_eq!(f.drain_secs, 3);
        assert!(flags(&["--default-deadline-ms", "soon"])
            .unwrap_err()
            .contains("--default-deadline-ms"));
        assert!(flags(&["--drain-secs"]).unwrap_err().contains("--drain-secs"));
    }

    #[test]
    fn stream_session_flags_parse_and_default() {
        let f = flags(&[]).unwrap();
        assert_eq!(f.stream_ttl_secs, 300);
        assert_eq!(f.max_streams, 64);
        let f = flags(&["--stream-ttl-secs", "5", "--max-streams", "2"]).unwrap();
        assert_eq!(f.stream_ttl_secs, 5);
        assert_eq!(f.max_streams, 2);
        assert!(flags(&["--stream-ttl-secs", "soon"])
            .unwrap_err()
            .contains("--stream-ttl-secs"));
        assert!(flags(&["--max-streams"]).unwrap_err().contains("--max-streams"));
    }

    /// The sweep sizes its own tiles; `--tile` is an unknown flag now.
    #[test]
    fn tile_flag_is_rejected() {
        for args in [&["t.txt", "--tile", "64"][..], &["--tile"], &["--tile", "0"]] {
            let e = flags(args).unwrap_err();
            assert_eq!(e, "unexpected argument `--tile`", "{args:?}");
        }
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(flags(&["--points"]).unwrap_err().contains("--points"));
        assert!(flags(&["--unit", "fortnights"]).unwrap_err().contains("fortnights"));
        assert!(flags(&["--points", "abc"]).unwrap_err().contains("--points"));
        assert_eq!(flags(&["--points", "4096"]).unwrap().points, 4096);
        assert_eq!(flags(&["--points", "4097"]).unwrap_err(), "--points 4097: at most 4096");
        assert!(flags(&["a.txt", "b.txt"]).unwrap_err().contains("unexpected"));
        assert!(flags(&["--bogus"]).unwrap_err().contains("--bogus"));
    }

    #[test]
    fn unit_table() {
        for (name, per, label) in
            [("s", 1.0, "s"), ("m", 60.0, "min"), ("h", 3600.0, "h"), ("d", 86400.0, "d")]
        {
            let f = flags(&["t", "--unit", name]).unwrap();
            assert_eq!(f.unit, (per, label));
        }
    }

    #[test]
    fn missing_file_reported_by_load() {
        let f = flags(&["--directed"]).unwrap();
        assert!(load(&f).unwrap_err().contains("missing input file"));
    }
}
