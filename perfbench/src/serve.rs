//! `serve_mix`: open-loop `POST /v1/analyze` traffic against an in-process
//! server with both cache tiers.
//!
//! Inputs (all from the seed, all rendered before the clock starts): a hot
//! set of small irvine-profile traces requested with Zipf-like popularity,
//! plus a stream of one-off traces that each cost a cold sweep. The memory
//! cache budget holds three quarters of the hot set's reports (smaller than
//! the distinct-report set) and a `--cache-dir` disk tier sits under it, so
//! requests split between memory hits, disk hits and cold sweeps. Arrivals
//! follow a seeded Poisson schedule at a fixed rate, and the cold share is
//! set so that the sweep executor is about half busy.
//!
//! Before and after the open-loop schedule, a closed loop on the
//! generator's `nproc` keep-alive connections replays hot-set requests back
//! to back: their median round trip
//! (`request_p50_ms`) is the server path of a cached report — http, params,
//! fingerprint, the cache tiers — without the engine and without the
//! open-loop schedule's queueing behind cold sweeps.
//!
//! Correctness: every served body must equal the in-process
//! `run_on(..).to_json()` of the same trace, computed at set-up (at `nproc`
//! threads for every trace and at one thread for every second one, which
//! must agree byte for byte).
//!
//! The load generator is one process with `nproc` sender threads, each with
//! one keep-alive connection. Latency is timed from each request's due time;
//! how late the generator sent is reported as `loadgen.lag_p99_ms`.

use crate::http::{bucket_quantile_ms, buckets, sample, Conn};
use crate::trace::Tracer;
use crate::util::{median, nproc, peak_rss_mb, quantile, reset_peak_rss, since, tail, timed, Rng};
use crate::{pipeline, Config, Outcome};
use saturn_core::parallel::WorkerPool;
use saturn_core::{fingerprint, SweepGrid};
use saturn_linkstream::{io, Directedness};
use saturn_server::{Server, ServerConfig, ServerHandle};
use saturn_synth::DatasetProfile;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Grid size of every request (`?points=`).
const POINTS: usize = 16;
/// Offered load, requests per second.
const RATE: f64 = 100.0;
/// Share of requests that carry a never-seen trace (a cold sweep each). A
/// cold sweep takes ~90–120 ms on two vCPUs, so 4 per second keep the
/// executor about half busy (45–60% measured).
const COLD_SHARE: f64 = 0.04;
/// Exponent of the hot set's Zipf-like popularity (request share of the
/// r-th most popular trace ∝ 1/r^a). Breslau et al., "Web caching and
/// Zipf-like distributions: evidence and implications" (INFOCOM 1999),
/// measured a = 0.64–0.83 on six web proxy traces.
const ZIPF_EXPONENT: f64 = 0.8;
/// Server set-ups timed per run, half before and half after the
/// open-loop schedule; `setup_s` is their median.
const SETUPS: usize = 32;
/// Back-to-back hot-set requests of the closed loop, half before and half
/// after the open-loop schedule, so that one brief stall of the host cannot
/// decide the median.
const CLOSED_LOOP: usize = 3_000;

struct Sizes {
    profile: DatasetProfile,
    hot: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes { profile: DatasetProfile::irvine().scaled(0.02), hot: 6 }
    } else {
        Sizes { profile: DatasetProfile::irvine().scaled(0.05), hot: 24 }
    }
}

/// Binds, spawns and waits for `/v1/health` to answer 200.
pub fn start_server(config: &ServerConfig) -> (ServerHandle, SocketAddr) {
    let server = Server::bind(config).expect("bind the benchmark server");
    let handle = server.spawn().expect("spawn the benchmark server");
    let addr = handle.addr();
    let mut conn = Conn::new(addr);
    while !matches!(conn.request("GET", "/v1/health", b""), Ok((200, _))) {
        std::thread::sleep(Duration::from_micros(200));
    }
    (handle, addr)
}

/// Times `n` set-ups of fresh servers, from bind to a 200 health answer,
/// each stopped right after; `config(i)` configures the `i`-th.
fn setup_times(n: usize, config: impl Fn(usize) -> ServerConfig) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let config = config(i);
            let ((handle, _), secs) = timed(|| start_server(&config));
            ServerHandle::stop(handle);
            secs
        })
        .collect()
}

/// Scrapes `/v1/metrics`.
pub fn scrape(addr: SocketAddr) -> String {
    let (status, body) = Conn::new(addr).request("GET", "/v1/metrics", b"").expect("scrape");
    assert_eq!(status, 200, "metrics scrape");
    String::from_utf8(body).expect("utf-8 exposition")
}

/// Records the server-side per-layer metrics from two scrapes.
pub fn record_scrape(out: &mut Outcome, before: &str, after: &str) {
    let d = |name: &str| sample(after, name) - sample(before, name);
    let (mem_hits, mem_misses, disk_hits) = (
        d("saturn_cache_hits_total"),
        d("saturn_cache_misses_total"),
        d("saturn_cache_disk_hits_total"),
    );
    out.set("cache.mem_hits", mem_hits);
    out.set("cache.disk_hits", disk_hits);
    out.set("cache.misses", mem_misses - disk_hits);
    let lookups = mem_hits + mem_misses;
    out.set(
        "cache.hit_ratio",
        if lookups > 0.0 { (mem_hits + disk_hits) / lookups } else { 0.0 },
    );
    out.set("cache.evictions", d("saturn_cache_evictions_total"));
    out.set("persist.disk_writes", d("saturn_cache_disk_writes_total"));
    out.set("jobs.executed", d("saturn_jobs_executed_total"));
    out.set("jobs.rejected", d("saturn_jobs_rejected_total"));
    let (b0, b1) = (
        buckets(before, "saturn_queue_wait_seconds"),
        buckets(after, "saturn_queue_wait_seconds"),
    );
    for (name, q) in [("jobs.queue_wait_p50_ms", 0.5), ("jobs.queue_wait_p99_ms", 0.99)] {
        let v = bucket_quantile_ms(&b0, &b1, q);
        out.set(name, if v.is_finite() { v } else { 0.0 });
    }
}

/// One finished request of the load generator.
struct Sent {
    latency_s: f64,
    lag_s: f64,
    ok: bool,
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let Sizes { profile, hot } = sizes(cfg.smoke);
    let mut rng = Rng::new(cfg.seed);
    let requests = (RATE * cfg.seconds).round().max(20.0) as usize;
    let cold = ((requests as f64 * COLD_SHARE).round() as usize).max(1);

    // inputs: hot traces first, then one-off traces, each from its own seed
    let texts: Vec<String> = (0..hot + cold)
        .map(|i| {
            io::to_string(
                &profile.generate(cfg.seed.wrapping_mul(1_000_003).wrapping_add(i as u64)),
            )
        })
        .collect();
    // the schedule: exactly `requests` Poisson arrivals stretched over the
    // run, `cold` of them at random positions carrying the one-off traces
    let mut gaps: Vec<f64> = (0..requests).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut due = 0.0;
    for g in &mut gaps {
        due += *g * cfg.seconds / total;
        *g = due;
    }
    let mut is_cold = vec![false; requests];
    let mut placed = 0;
    while placed < cold {
        let i = rng.below(requests as u64) as usize;
        if !is_cold[i] {
            is_cold[i] = true;
            placed += 1;
        }
    }
    let zipf: Vec<f64> = (1..=hot).map(|r| (r as f64).powf(-ZIPF_EXPONENT)).collect();
    let zipf_total: f64 = zipf.iter().sum();
    let mut popular = || {
        let mut x = rng.unit() * zipf_total;
        zipf.iter()
            .position(|w| {
                x -= w;
                x < 0.0
            })
            .unwrap_or(hot - 1)
    };
    let mut next_cold = hot;
    let schedule: Vec<(f64, usize)> = gaps
        .iter()
        .zip(&is_cold)
        .map(|(&at, &c)| {
            let trace = if c {
                next_cold += 1;
                next_cold - 1
            } else {
                popular()
            };
            (at, trace)
        })
        .collect();
    let closed_loop: Vec<usize> = (0..CLOSED_LOOP).map(|_| popular()).collect();

    // ground truth, in process: nproc for every trace, one thread for every
    // second (which must agree byte for byte)
    let method = pipeline::method(SweepGrid::Geometric { points: POINTS });
    let mut pool = WorkerPool::new(nproc());
    let mut pool_1t = WorkerPool::new(1);
    let (mut multi, mut single) = (Vec::new(), Vec::new());
    let mut truth = Vec::with_capacity(texts.len());
    let mut reports = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        let ((json, report), secs) =
            timed(|| pipeline::analyze(text, Directedness::Directed, &method, &mut pool));
        multi.push(secs);
        if i % 2 == 0 {
            let (json_1t, secs) = timed(|| {
                pipeline::analyze(text, Directedness::Directed, &method, &mut pool_1t).0
            });
            single.push(secs);
            out.check(json_1t == json);
            reports.push((i, report));
        }
        truth.push(json);
    }
    out.set("analyze_s", median(&multi));
    out.set("analyze_1t_s", median(&single));
    drop((pool, pool_1t));
    // `peak_rss_mb` is the peak from here on: the servers under the mix (the
    // rendered inputs and ground truths stay resident throughout)
    let reset = reset_peak_rss();

    // the server: memory budget for three quarters of the hot set, disk
    // tier under it; every set-up gets a fresh cache directory
    let mean_body = truth.iter().map(String::len).sum::<usize>() / truth.len();
    let scratch = cfg.scratch.clone();
    let config = |i: usize| ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: nproc(),
        executors: 1,
        cache_bytes: mean_body * hot * 3 / 4,
        cache_dir: Some(scratch.join(format!("serve-cache-{i}"))),
        ..ServerConfig::default()
    };
    let mut setups = setup_times(SETUPS / 2 - 1, config);
    let ((server, addr), secs) = timed(|| start_server(&config(SETUPS)));
    setups.push(secs);
    // warm the tiers with the hot set, so the run measures steady state
    let target = format!("/v1/analyze?points={POINTS}&directed=1");
    let mut conn = Conn::new(addr);
    for (i, text) in texts.iter().take(hot).enumerate() {
        let ok = matches!(conn.request("POST", &target, text.as_bytes()), Ok((200, ref b)) if b == truth[i].as_bytes());
        out.check(ok);
    }

    let (first_half, second_half) = closed_loop.split_at(CLOSED_LOOP / 2);
    let mut round_trips = closed(addr, &target, &texts, &truth, first_half);

    let before = scrape(addr);
    let sent = load(addr, &target, &texts, &truth, &schedule, tracer);
    let after = scrape(addr);

    let latencies: Vec<f64> = sent.iter().map(|s| s.latency_s * 1e3).collect();
    let lags: Vec<f64> = sent.iter().map(|s| s.lag_s * 1e3).collect();
    let good = sent.iter().filter(|s| s.ok).count();
    for s in &sent {
        out.check(s.ok);
    }
    let elapsed =
        schedule.iter().zip(&sent).map(|((at, _), s)| at + s.latency_s).fold(0.0, f64::max);
    let busy = (sample(&after, "saturn_sweep_seconds_sum")
        - sample(&before, "saturn_sweep_seconds_sum"))
        / elapsed;
    out.set("serve.latency_p50_ms", median(&latencies));
    out.set("goodput_rps", good as f64 / elapsed);
    let p99 = tail(&latencies, 0.99);
    println!(
        "{requests} requests ({cold} cold, {hot} hot traces, {} events each) over {:.2} s, executor {:.0}% busy: \
         p50 {:.3} ms, p99 {:.3} ms, lag p50 {:.3} ms, lag p99 {:.3} ms",
        texts[0].lines().count(),
        elapsed,
        busy * 100.0,
        median(&latencies),
        p99,
        median(&lags),
        quantile(&lags, 0.99)
    );

    // the closed loop: hot-set requests back to back on every connection
    round_trips.extend(closed(addr, &target, &texts, &truth, second_half));
    for (_, ok) in &round_trips {
        out.check(*ok);
    }
    let round_trips: Vec<f64> = round_trips.iter().map(|(ms, _)| *ms).collect();
    out.set("request_p50_ms", median(&round_trips));
    if reset {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    println!(
        "{CLOSED_LOOP} closed-loop hot-set requests on {} connections: p50 {:.3} ms, p90 {:.3} ms",
        nproc(),
        median(&round_trips),
        quantile(&round_trips, 0.9)
    );
    setups.extend(setup_times(SETUPS / 2, |i| config(SETUPS + 1 + i)));
    out.set("setup_s", median(&setups));

    if tracer.enabled() {
        record_scrape(&mut out, &before, &after);
        out.set("jobs.busy_frac", busy);
        if p99.is_finite() {
            out.set("serve.latency_p99_ms", p99);
        }
        out.set("loadgen.lag_p99_ms", quantile(&lags, 0.99));
        out.set("loadgen.requests", requests as f64);
        // a memory hit in isolation: the most popular trace, back to back
        let mut conn = Conn::new(addr);
        let hits: Vec<f64> = (0..200)
            .map(|_| {
                let (r, secs) = timed(|| conn.request("POST", &target, texts[0].as_bytes()));
                out.check(matches!(r, Ok((200, ref b)) if b == truth[0].as_bytes()));
                secs * 1e3
            })
            .collect();
        out.set("http.hit_p50_ms", median(&hits));
        // the engine layers of a few of the traces, replayed
        let grid = SweepGrid::Geometric { points: POINTS };
        let mut layers = pipeline::Layers::default();
        let mut untraced = 0.0;
        for (i, report) in reports.iter().take(4) {
            let (mut replayed, secs) = pipeline::replay_against_untraced(
                tracer,
                &texts[*i],
                Directedness::Directed,
                &grid,
                report,
            );
            let stream = io::read_str(&texts[*i], Directedness::Directed)
                .expect("generated traces parse");
            replayed.digest_s = timed(|| fingerprint::stream_digest(&stream)).1;
            layers.add(&replayed);
            untraced += secs;
        }
        crate::batch::record_layers(&mut out, &layers);
        crate::batch::check_attribution(&mut out, &layers, untraced);
        out.set("parallel.speedup", median(&single) / median(&multi));
    }
    ServerHandle::stop(server);
    out
}

/// Sends the hot-set requests `order` (trace indices) back to back on
/// `nproc` keep-alive connections; returns each request's round trip in
/// milliseconds and whether its body was right.
fn closed(
    addr: SocketAddr,
    target: &str,
    texts: &[String],
    truth: &[String],
    order: &[usize],
) -> Vec<(f64, bool)> {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(order.len()));
    std::thread::scope(|scope| {
        for _ in 0..nproc() {
            scope.spawn(|| {
                let mut conn = Conn::new(addr);
                let mut mine = Vec::new();
                while let Some(&trace) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let (r, secs) =
                        timed(|| conn.request("POST", target, texts[trace].as_bytes()));
                    let ok = matches!(r, Ok((200, ref b)) if b == truth[trace].as_bytes());
                    mine.push((secs * 1e3, ok));
                }
                results.lock().expect("a sender panicked").extend(mine);
            });
        }
    });
    results.into_inner().expect("a sender panicked")
}

/// Plays `schedule` (`(due seconds, trace index)`) open loop on `nproc`
/// sender threads, one keep-alive connection each.
fn load(
    addr: SocketAddr,
    target: &str,
    texts: &[String],
    truth: &[String],
    schedule: &[(f64, usize)],
    tracer: &Tracer,
) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Sent>>> =
        Mutex::new((0..schedule.len()).map(|_| None).collect());
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..nproc() {
            scope.spawn(|| {
                let mut conn = Conn::new(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(at, trace)) = schedule.get(i) else { break };
                    let due = start + Duration::from_secs_f64(at);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let lag_s = since(due);
                    let response = tracer.span("http.analyze", 0, tracer.request_id(), |_| {
                        conn.request("POST", target, texts[trace].as_bytes())
                    });
                    let latency_s = since(due);
                    let ok = matches!(response, Ok((200, ref body)) if body == truth[trace].as_bytes());
                    results.lock().expect("a sender panicked")[i] = Some(Sent { latency_s, lag_s, ok });
                }
            });
        }
    });
    results
        .into_inner()
        .expect("a sender panicked")
        .into_iter()
        .map(|s| s.expect("every request sent"))
        .collect()
}
