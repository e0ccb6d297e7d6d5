//! `stream_ingest`: an HTTP ingest session in a closed loop of append batch
//! → refresh, the only workload where the sweep reuses instead of
//! computing (suffix splice, the reuse gate, the session `SweepCache`).
//!
//! Inputs (from the seed, rendered before the clock starts): the comb
//! texture of the repository's `streaming` bench section — a ring whose
//! every pair fires on a per-pair comb across the pinned period — seeds the
//! session; each round appends a batch that re-fires random ring pairs one
//! to three ticks after one of their comb events, in a late-period window
//! (one window per slot of the last tenth of the period, in seeded order). The round count is fixed by the size and `--seconds`.
//!
//! `request_p50_ms` is the median refresh round trip (what a user waits for
//! after an append); `goodput_rps` is correct rounds per measured second.
//! Set-ups (a fresh server up to a seeded session) are timed in the
//! unmeasured gaps between rounds.
//!
//! Correctness: every refresh must equal a scratch analysis of the same
//! events, run in process through the same pipeline `/v1/analyze` runs
//! (`read_str` → `run_on` → `to_json`; in process because the server's
//! response cache would answer a repeated `/v1/analyze` with the refresh's
//! own bytes). Scratch checks alternate between `nproc` threads and one
//! thread and are not part of the measured time.

use crate::http::Conn;
use crate::serve::{record_scrape, scrape, start_server};
use crate::trace::Tracer;
use crate::util::{median, nproc, since, timed, Rng};
use crate::{batch, pipeline, Config, Outcome};
use saturn_core::parallel::WorkerPool;
use saturn_core::{OccupancyMethod, SweepCache, SweepControl, SweepGrid};
use saturn_linkstream::{io, Directedness, Time};
use saturn_server::{ServerConfig, ServerHandle};
use saturn_trips::{EventView, Timeline};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Sizes {
    nodes: u32,
    span: i64,
    comb: i64,
    batch: usize,
    points: usize,
    /// Append+refresh rounds per second of `--seconds`: the round count is
    /// fixed by the size and the run length, never by the host's speed, so
    /// every commit analyzes the same streams. Chosen so the measured
    /// rounds take about `--seconds` on two vCPUs.
    rounds_per_second: f64,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes { nodes: 40, span: 20_000, comb: 250, batch: 8, points: 8, rounds_per_second: 12.0 }
    } else {
        Sizes { nodes: 60, span: 40_000, comb: 250, batch: 12, points: 12, rounds_per_second: 3.0 }
    }
}

/// Server set-ups timed per run, spread over the rounds; `setup_s` is
/// their median.
const SETUPS: usize = 32;
/// Rounds replayed in process by the traced run.
const REPLAY_ROUNDS: usize = 8;

/// One rendered append batch and its earliest timestamp.
struct Batch {
    text: String,
    min_t: i64,
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let s = sizes(cfg.smoke);
    let mut rng = Rng::new(cfg.seed);
    assert_eq!(s.span % s.comb, 0, "the comb must reach both ends of the period");

    // base: the per-pair comb over [0, span]; pair 0 fires at both ends, so
    // a scratch analysis of the same events sees the pinned period
    let mut base = String::new();
    for u in 0..s.nodes {
        let mut t = (u as i64 * 37) % s.comb;
        while t <= s.span {
            let _ = writeln!(base, "n{u} n{} {t}", (u + 1) % s.nodes);
            t += s.comb;
        }
    }
    let append_from = s.span * 9 / 10;
    let rounds = ((cfg.seconds * s.rounds_per_second).round() as usize).max(6);
    // each round's window starts in its own slot of the late period, the
    // slots in seeded order: every seed dirties the same spread of suffixes
    let mut slots: Vec<usize> = (0..rounds).collect();
    for i in (1..rounds).rev() {
        slots.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let batches: Vec<Batch> = slots
        .iter()
        .map(|&slot| {
            let offset = (slot as f64 + rng.unit()) / rounds as f64;
            let lo = append_from + (offset * (s.span - append_from) as f64) as i64;
            let mut text = String::new();
            let mut min_t = i64::MAX;
            for _ in 0..s.batch {
                let u = rng.below(s.nodes as u64) as u32;
                let first = lo + ((u as i64 * 37) % s.comb - lo).rem_euclid(s.comb);
                let t = (first + 1 + rng.below(3) as i64).min(s.span);
                min_t = min_t.min(t);
                let _ = writeln!(text, "n{u} n{} {t}", (u + 1) % s.nodes);
            }
            Batch { text, min_t }
        })
        .collect();

    // set-up: a fresh server, up to a session seeded with the base events
    let create = format!("/v1/streams?t_begin=0&t_end={}", s.span);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: nproc(),
        executors: 1,
        ..ServerConfig::default()
    };
    let set_up = || {
        timed(|| {
            let (handle, addr) = start_server(&config);
            let (status, body) =
                Conn::new(addr).request("POST", &create, base.as_bytes()).expect("create");
            assert_eq!(status, 201, "session creation: {}", String::from_utf8_lossy(&body));
            (handle, addr, session_id(&body))
        })
    };
    let ((server, addr, id), secs) = set_up();
    let mut setups = vec![secs];

    let method = pipeline::method(SweepGrid::Geometric { points: s.points });
    let mut pool = WorkerPool::new(nproc());
    let mut pool_1t = WorkerPool::new(1);
    let (append, refresh) = (
        format!("/v1/streams/{id}/events"),
        format!("/v1/streams/{id}/analyze?points={}", s.points),
    );
    let mut conn = Conn::new(addr);
    // the cold first refresh builds the session cache; not measured
    let (status, _) = conn.request("POST", &refresh, b"").expect("first refresh");
    out.check(status == 200);

    let before = scrape(addr);
    let mut events = base.clone();
    let (mut appends, mut refreshes, mut multi, mut single) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bodies = Vec::new();
    let (mut measured, mut good) = (0.0, 0usize);
    for b in &batches {
        let request = tracer.request_id();
        let t0 = Instant::now();
        let appended = tracer.span("http.append", 0, request, |_| {
            conn.request("POST", &append, b.text.as_bytes())
        });
        let t1 = Instant::now();
        let refreshed =
            tracer.span("http.refresh", 0, request, |_| conn.request("POST", &refresh, b""));
        measured += since(t0);
        appends.push((t1 - t0).as_secs_f64());
        refreshes.push(since(t1));

        events.push_str(&b.text);
        let body = match (appended, refreshed) {
            (Ok((200, _)), Ok((200, body))) => body,
            _ => Vec::new(),
        };
        let one_thread = refreshes.len() % 2 == 0;
        let p = if one_thread { &mut pool_1t } else { &mut pool };
        let ((json, _), secs) =
            timed(|| pipeline::analyze(&events, Directedness::Undirected, &method, p));
        if one_thread {
            single.push(secs)
        } else {
            multi.push(secs)
        };
        let ok = json.as_bytes() == body.as_slice();
        out.check(ok);
        good += usize::from(ok);
        bodies.push(body);
        // the other set-ups, spread evenly over the rounds (not measured)
        while setups.len() < 1 + refreshes.len() * (SETUPS - 1) / rounds {
            let ((handle, _, _), secs) = set_up();
            ServerHandle::stop(handle);
            setups.push(secs);
        }
    }
    out.set("setup_s", median(&setups));
    let after = scrape(addr);
    out.set("analyze_s", median(&multi));
    out.set("analyze_1t_s", median(&single));
    out.set("goodput_rps", good as f64 / measured);
    out.set("request_p50_ms", median(&refreshes) * 1e3);
    out.set("stream.append_p50_ms", median(&appends) * 1e3);
    out.set("stream.rounds_per_s", refreshes.len() as f64 / measured);
    println!(
        "{} base events, {} rounds of {} appended events: refresh p50 {:.3} ms, append p50 {:.3} ms, \
         scratch p50 {:.3} ms",
        base.lines().count(),
        refreshes.len(),
        s.batch,
        median(&refreshes) * 1e3,
        median(&appends) * 1e3,
        median(&multi) * 1e3
    );

    if tracer.enabled() {
        record_scrape(&mut out, &before, &after);
        replay_session(
            tracer,
            &mut out,
            &method,
            &base,
            &batches[..bodies.len().min(REPLAY_ROUNDS)],
            &bodies,
            &mut pool,
        );
        let grid = SweepGrid::Geometric { points: s.points };
        let (_, report) =
            pipeline::analyze(&events, Directedness::Undirected, &method, &mut pool_1t);
        batch::attribute(
            tracer,
            &mut out,
            &events,
            Directedness::Undirected,
            &grid,
            &report,
        );
        out.set("parallel.speedup", median(&single) / median(&multi));
    }
    ServerHandle::stop(server);
    out
}

fn session_id(body: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(body);
    let rest = text.split_once("\"stream\"").map(|(_, r)| r).unwrap_or("");
    rest.trim_start_matches([':', ' '])
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// Replays the session's first rounds in process: the refresh core
/// (`try_refresh_on` against one `SweepCache`, whose stats give the
/// reused / respliced / scratch split) and the per-scale suffix splices
/// (`Timeline::spliced_from_view`) of each round's dirty window.
fn replay_session(
    tracer: &Tracer,
    out: &mut Outcome,
    method: &OccupancyMethod,
    base: &str,
    batches: &[Batch],
    bodies: &[Vec<u8>],
    pool: &mut WorkerPool,
) {
    let ctl = SweepControl::new();
    let mut cache = SweepCache::new();
    let mut text = base.to_string();
    let stream = io::read_str(&text, Directedness::Undirected).expect("comb parses");
    let report =
        method.try_refresh_on(&stream, pool, &ctl, &mut cache, None).expect("never cancelled");
    let view = EventView::new(&stream);
    let mut timelines: BTreeMap<u64, Timeline> = report
        .results()
        .iter()
        .map(|r| (r.k, Timeline::aggregated_from_view(&view, r.k)))
        .collect();
    let (mut reused, mut respliced, mut scratch, mut total) = (0u64, 0u64, 0u64, 0u64);
    let (mut core_s, mut splice_s) = (0.0, 0.0);
    for (b, body) in batches.iter().zip(bodies) {
        text.push_str(&b.text);
        let stream = io::read_str(&text, Directedness::Undirected).expect("comb parses");
        let request = tracer.request_id();
        let (report, secs) = timed(|| {
            tracer.span("streams.refresh_core", 0, request, |_| {
                method
                    .try_refresh_on(&stream, pool, &ctl, &mut cache, Some(b.min_t))
                    .expect("never cancelled")
            })
        });
        core_s += secs;
        out.check(report.to_json().as_bytes() == body.as_slice());
        let st = cache.stats;
        (reused, respliced, scratch, total) = (
            reused + st.scales_reused,
            respliced + st.scales_respliced,
            scratch + st.scales_scratch,
            total + st.scales_total,
        );

        let view = EventView::new(&stream);
        let mut next = BTreeMap::new();
        for r in report.results() {
            let timeline = match timelines.get(&r.k) {
                Some(old) => {
                    let w = stream.partition(r.k).expect("grid scale").index(Time::new(b.min_t))
                        as u32;
                    let (t, secs) = timed(|| {
                        tracer.span("timeline.splice", 0, request, |_| {
                            old.spliced_from_view(&view, w)
                        })
                    });
                    splice_s += secs;
                    t
                }
                None => Timeline::aggregated_from_view(&view, r.k),
            };
            next.insert(r.k, timeline);
        }
        timelines = next;
    }
    out.set("streams.scales_reused", reused as f64);
    out.set("streams.scales_respliced", respliced as f64);
    out.set("streams.scales_scratch", scratch as f64);
    out.set("streams.reuse_ratio", if total > 0 { reused as f64 / total as f64 } else { 0.0 });
    out.set("streams.refresh_core_s", core_s);
    out.set("timeline.splice_s", splice_s);
}
