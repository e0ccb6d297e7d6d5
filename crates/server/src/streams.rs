//! Streaming ingest sessions: long-lived append targets with incremental
//! re-analysis.
//!
//! A session is a pinned-period [`LinkStreamBuilder`] plus a
//! [`SweepCache`] living server-side between requests:
//!
//! * `POST /v1/streams?t_begin=A&t_end=B[&directed=1]` — creates a session
//!   over the study period `[A, B]` (`201` with its id). The body, when
//!   present, is an initial trace batch in the same layouts `/v1/analyze`
//!   accepts (plain `u v t` or KONECT `u v w t`).
//! * `POST /v1/streams/<id>/events` — appends one batch. The whole batch
//!   is parsed and period-checked *before* any of it is committed, so a
//!   `400` never leaves a half-applied batch behind.
//! * `POST /v1/streams/<id>/analyze` — re-analyzes the stream-so-far
//!   through [`OccupancyMethod::try_refresh_on`], reusing the session's
//!   cached per-scale timelines, histograms and DP checkpoints: clean
//!   scales are served without running any DP, dirty ones rebuild only the
//!   suffix windows the appended events touched and resume their DP from
//!   the latest checkpoint before the first of them, so a refresh's work
//!   follows the append rather than the stream
//!   (`saturn_stream_dp_steps_skipped_total` counts the steps saved).
//!
//! **The report is the artifact, the session is the accelerator.** A
//! refresh produces byte-for-byte the same JSON `/v1/analyze` returns for
//! the concatenated trace — the response is cached under the *plain
//! analyze* key, so scratch and incremental requests fill and hit the same
//! entries. Only the job key is session-scoped (domain
//! `saturn.stream-session.v1`): a refresh must run against *this*
//! session's sweep cache rather than coalesce with an in-flight scratch
//! analyze of the same bytes, which would leave the session cold.
//!
//! The study period is pinned at creation because the sweep cache requires
//! it: window boundaries may not move between refreshes (see the splice
//! invariants in `saturn-trips`). Appends outside the period are `400`s,
//! and so is a period whose length overflows an `i64` tick count.
//!
//! Sessions are in-memory only and TTL-evicted: every streams request
//! first sweeps expired sessions, so an idle server holds them at most
//! until its next streams request. Requests for an id that was once live
//! get `410 Gone`; ids never allocated get `404`. Creation past the
//! session limit gets `503` with code `stream_limit`.

use crate::http::Request;
use crate::jobs::{self, JobKind};
use crate::metrics::Metrics;
use crate::params::{self, RequestParams};
use crate::{
    analyze_key, cache_filler, submitted, ApiError, Handled, Reply, ServerContext, SweepJobSpec,
};
use saturn_core::fingerprint::{self, Digest};
use saturn_core::parallel::WorkerPool;
use saturn_core::{
    Cancelled, OccupancyMethod, OccupancyReport, RefreshStats, SweepCache, SweepControl,
    SweepGrid,
};
use saturn_linkstream::io::{self as stream_io, ParsedEvent};
use saturn_linkstream::{check_span, LinkStream, LinkStreamBuilder};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The session table: id allocation, TTL eviction, and the session limit.
/// One per server, owned by the context.
pub struct StreamSessions {
    /// Live sessions by id. The map lock is held only for table
    /// operations — never across a parse, a build, or a sweep.
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    /// Next id to allocate, starting at 1 (0 is never a valid id). Ids are
    /// never reused, which is what lets `410 Gone` be distinguished from
    /// `404`: an id below this watermark once existed.
    next_id: AtomicU64,
    /// Idle time-to-live; sessions untouched this long are evicted.
    ttl: Duration,
    /// Maximum concurrently open sessions.
    max_sessions: usize,
}

/// One live session. Ingest state and sweep state sit behind separate
/// locks — appends never wait on a running refresh — and the two are never
/// held together.
struct Session {
    id: u64,
    /// The pinned study period `[t_begin, t_end]`, inclusive.
    period: (i64, i64),
    ingest: Mutex<Ingest>,
    /// The refresh-side state. The lock serializes refreshes of one
    /// session: two concurrent analyzes run one after the other, ordered
    /// by the state's snapshot watermark (see [`run_refresh`]).
    sweep: Mutex<SweepState>,
    last_touch: Mutex<Instant>,
}

/// A session's append-side state.
struct Ingest {
    builder: LinkStreamBuilder,
    /// Earliest timestamp appended since the last successful refresh
    /// (`None` = clean). Conservative by construction: self-loops that the
    /// builder drops still lower it, which can only shrink the reused
    /// prefix, never corrupt it.
    dirty_min_t: Option<i64>,
    /// Monotone append counter, bumped on every committed batch. Refresh
    /// snapshots capture it to order themselves against [`SweepState`] and
    /// to detect appends racing a refresh (the dirty mark must survive
    /// those).
    version: u64,
}

/// A session's refresh-side state, behind `Session::sweep`.
struct SweepState {
    /// The per-scale timeline + histogram cache refreshes read and update.
    cache: SweepCache,
    /// [`Ingest::version`] of the snapshot whose *successful* refresh last
    /// advanced `cache` — the watermark [`run_refresh`] checks so that a
    /// snapshot outrun by a newer refresh never runs against the cache.
    version: u64,
}

impl Session {
    fn touch(&self) {
        *self.last_touch.lock().unwrap() = Instant::now();
    }
}

impl StreamSessions {
    /// An empty table with the given idle TTL and session limit.
    pub fn new(ttl: Duration, max_sessions: usize) -> StreamSessions {
        StreamSessions {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            ttl,
            max_sessions,
        }
    }

    /// Live session count (the `/v1/health` streams section).
    pub fn open(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// The configured idle TTL.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// Drops every session idle past the TTL, keeping the expiry counter
    /// and open-sessions gauge current. Called at the top of every streams
    /// request (lazy eviction — no background thread to supervise).
    fn evict_expired(&self, metrics: &Metrics) {
        let mut map = self.sessions.lock().unwrap();
        let before = map.len();
        map.retain(|_, s| s.last_touch.lock().unwrap().elapsed() <= self.ttl);
        let evicted = (before - map.len()) as u64;
        if evicted > 0 {
            metrics.stream_sessions_expired.add(evicted);
        }
        metrics.stream_sessions_open.set(map.len() as u64);
    }

    fn get(&self, id: u64) -> Option<Arc<Session>> {
        self.sessions.lock().unwrap().get(&id).cloned()
    }
}

/// A required integer query parameter (absence is a `400`, unlike the
/// defaulting [`params::numeric`]).
fn required_i64(request: &Request, key: &str) -> Result<i64, ApiError> {
    if request.param(key).is_none() {
        return Err(ApiError::new(400, format!("missing required query parameter `{key}`")));
    }
    params::numeric(request, key, 0i64)
}

/// Parses and period-checks one event batch without committing anything:
/// the all-or-nothing half of the append path.
fn parse_batch<'a>(
    body: &'a [u8],
    period: (i64, i64),
) -> Result<Vec<ParsedEvent<'a>>, ApiError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ApiError::new(400, "event body is not UTF-8"))?;
    let events = stream_io::parse_events(text)
        .map_err(|e| ApiError::new(400, format!("event batch: {e}")))?;
    for event in &events {
        if event.t < period.0 || event.t > period.1 {
            return Err(ApiError::new(
                400,
                format!(
                    "event at t={} falls outside the pinned study period [{}, {}]",
                    event.t, period.0, period.1
                ),
            ));
        }
    }
    Ok(events)
}

fn json_body(fields: Vec<(String, Value)>) -> Vec<u8> {
    Value::Object(fields).to_string_pretty().into_bytes()
}

/// `POST /v1/streams` — opens a session over a pinned study period.
pub(crate) fn endpoint_create(request: &Request, ctx: &ServerContext) -> Handled {
    ctx.streams.evict_expired(&ctx.metrics);
    let t_begin = required_i64(request, "t_begin")?;
    let t_end = required_i64(request, "t_end")?;
    if t_begin >= t_end {
        return Err(ApiError::new(
            400,
            format!("empty study period: t_begin={t_begin} must be < t_end={t_end}"),
        ));
    }
    check_span(t_begin.into(), t_end.into()).map_err(|e| ApiError::new(400, e.to_string()))?;
    let mut builder = LinkStreamBuilder::new(params::directedness(request));
    builder.period(t_begin, t_end);
    let mut dirty_min_t = None;
    if !request.body.is_empty() {
        let events = parse_batch(&request.body, (t_begin, t_end))?;
        dirty_min_t = events.iter().map(|e| e.t).min();
        for event in &events {
            builder.add(event.u, event.v, event.t);
        }
    }
    let events = builder.len() as u64;
    // the limit check and the insert share one critical section, so the
    // limit holds under concurrent creations
    let id = {
        let mut map = ctx.streams.sessions.lock().unwrap();
        if map.len() >= ctx.streams.max_sessions {
            return Ok(Reply::retry(
                503,
                ApiError::with_code(
                    503,
                    "stream_limit",
                    format!(
                        "session limit of {} reached, retry after an idle session expires",
                        ctx.streams.max_sessions
                    ),
                )
                .body(),
                ctx.streams.ttl.as_secs().clamp(1, 60) as u32,
            ));
        }
        let id = ctx.streams.next_id.fetch_add(1, Ordering::Relaxed);
        map.insert(
            id,
            Arc::new(Session {
                id,
                period: (t_begin, t_end),
                ingest: Mutex::new(Ingest { builder, dirty_min_t, version: 0 }),
                sweep: Mutex::new(SweepState { cache: SweepCache::new(), version: 0 }),
                last_touch: Mutex::new(Instant::now()),
            }),
        );
        ctx.metrics.stream_sessions_open.set(map.len() as u64);
        id
    };
    ctx.metrics.stream_sessions_opened.inc();
    ctx.metrics.stream_events_appended.add(events);
    Ok(Reply::new(
        201,
        json_body(vec![
            ("stream".to_string(), Value::Int(id as i128)),
            ("ttl_secs".to_string(), Value::Int(ctx.streams.ttl.as_secs() as i128)),
            ("events".to_string(), Value::Int(events as i128)),
        ]),
    ))
}

/// `POST /v1/streams/<id>/{events,analyze}` — dispatches to a live session.
pub(crate) fn endpoint_session(request: &Request, ctx: &ServerContext) -> Handled {
    ctx.streams.evict_expired(&ctx.metrics);
    let rest = request.path.strip_prefix("/v1/streams/").expect("routed by prefix");
    let (raw_id, action) = rest.split_once('/').unwrap_or((rest, ""));
    let id: u64 = raw_id
        .parse()
        .map_err(|_| ApiError::new(404, format!("malformed stream id `{raw_id}`")))?;
    let session = match ctx.streams.get(id) {
        Some(session) => session,
        // below the allocation watermark: this id existed and was evicted
        None if id != 0 && id < ctx.streams.next_id.load(Ordering::Relaxed) => {
            return Err(ApiError::new(410, format!("stream {id} has expired")));
        }
        None => return Err(ApiError::new(404, format!("unknown stream {id}"))),
    };
    session.touch();
    match action {
        "events" => append_events(request, ctx, &session),
        "analyze" => refresh_analysis(request, ctx, &session),
        _ => Err(ApiError::new(
            404,
            format!("no route for POST /v1/streams/{id}/{action} (events, analyze)"),
        )),
    }
}

/// The append path: validate the whole batch, then commit it atomically.
fn append_events(request: &Request, ctx: &ServerContext, session: &Arc<Session>) -> Handled {
    let events = parse_batch(&request.body, session.period)?;
    if events.is_empty() {
        return Err(ApiError::new(400, "event batch contains no events"));
    }
    let batch_min = events.iter().map(|e| e.t).min().expect("non-empty batch");
    let (appended, total) = {
        let mut ingest = session.ingest.lock().unwrap();
        let before = ingest.builder.len();
        for event in &events {
            ingest.builder.add(event.u, event.v, event.t);
        }
        // `appended` counts retained events — the builder drops self-loops
        let appended = (ingest.builder.len() - before) as u64;
        ingest.version += 1;
        ingest.dirty_min_t = Some(match ingest.dirty_min_t {
            Some(t0) => t0.min(batch_min),
            None => batch_min,
        });
        (appended, ingest.builder.len() as u64)
    };
    ctx.metrics.stream_events_appended.add(appended);
    Ok(Reply::new(
        200,
        json_body(vec![
            ("stream".to_string(), Value::Int(session.id as i128)),
            ("appended".to_string(), Value::Int(appended as i128)),
            ("events".to_string(), Value::Int(total as i128)),
        ]),
    ))
}

/// Executes one refresh job against `session`'s sweep state, given a
/// snapshot `(stream, dirty_from, snapshot_version)` cut under the ingest
/// lock.
///
/// Concurrent refreshes of one session hash to *different* job keys when
/// an append lands between their snapshots, so with several executors
/// they can execute out of submission order. The sweep state
/// therefore carries the ingest version of the snapshot that last advanced
/// it: a snapshot older than that watermark must not run against the cache
/// — the cache was built from a strict superset of its events, and reusing
/// or splicing cached timelines would serve the newer stream's bytes under
/// the older stream's content key (the core's own stream stamp on
/// [`SweepCache`] would catch this too, but by discarding the newer
/// entries). Such an outrun refresh recomputes from scratch — still
/// exactly the right bytes for *its* snapshot — and leaves all session
/// state alone.
///
/// Returns the report plus the sweep-cache stats, `None` for the stale
/// scratch path (which bypasses the cache entirely). On success the
/// watermark advances and the dirty mark clears unless an append raced the
/// sweep; on cancellation both survive for the retry.
fn run_refresh(
    method: &OccupancyMethod,
    stream: &LinkStream,
    pool: &mut WorkerPool,
    ctl: &SweepControl,
    session: &Session,
    dirty_from: Option<i64>,
    snapshot_version: u64,
) -> Result<(OccupancyReport, Option<RefreshStats>), Cancelled> {
    let mut sweep = session.sweep.lock().unwrap();
    if snapshot_version < sweep.version {
        drop(sweep);
        return Ok((method.try_run_on(stream, pool, ctl)?, None));
    }
    let report = method.try_refresh_on(stream, pool, ctl, &mut sweep.cache, dirty_from)?;
    sweep.version = snapshot_version;
    let stats = sweep.cache.stats;
    drop(sweep);
    // the dirty mark clears only if no append raced the sweep; a racing
    // append keeps its (conservative, still correct) mark for the next
    // refresh
    let mut ingest = session.ingest.lock().unwrap();
    if ingest.version == snapshot_version {
        ingest.dirty_min_t = None;
    }
    Ok((report, Some(stats)))
}

/// The refresh path: snapshot the stream-so-far, then run the sweep
/// incrementally against the session's cache. Produces (and caches) the
/// exact bytes `/v1/analyze` would for the same trace.
fn refresh_analysis(request: &Request, ctx: &ServerContext, session: &Arc<Session>) -> Handled {
    let p = RequestParams::parse(request, ctx.default_deadline_ms)?;
    if !request.body.is_empty() {
        return Err(ApiError::new(
            400,
            "analyze takes no body on a stream session (append via /events first)",
        ));
    }
    // snapshot under the ingest lock: the events, the dirty mark and the
    // version must be one consistent cut, or a racing append could be
    // marked clean
    let (stream, dirty_from, version_at_snapshot) = {
        let mut ingest = session.ingest.lock().unwrap();
        let stream = ingest
            .builder
            .snapshot()
            .map_err(|e| ApiError::new(400, format!("stream {}: {e}", session.id)))?;
        (stream, ingest.dirty_min_t, ingest.version)
    };
    let grid = SweepGrid::Geometric { points: p.points };
    let scales_hint = grid.k_values(&stream, 1).len() as u64;

    // response cache key: the plain analyze fingerprint, shared with
    // `/v1/analyze` — a refresh and a scratch run of the concatenated
    // trace are the same artifact. Session state (dirty mark, cache
    // contents) is an accelerator and MUST stay out: it never changes the
    // bytes, only how much work producing them takes.
    let cache_key = analyze_key(fingerprint::stream_digest(&stream), &grid, &p.targets);
    // job key: session-scoped, so a refresh coalesces with an identical
    // refresh of the same session but never with a plain analyze (which
    // would skip the sweep-cache update and leave the session cold)
    let mut job_digest = Digest::new("saturn.stream-session.v1");
    job_digest.write_u64(session.id);
    job_digest.write_u128(cache_key);
    let job_key = job_digest.finish();

    let cache_insert = cache_filler(Arc::clone(&ctx.cache), cache_key);
    let metrics = Arc::clone(&ctx.metrics);
    let session = Arc::clone(session);
    let targets = p.targets;
    let work: jobs::JobWork = Box::new(move |pool, jctx| {
        let method = OccupancyMethod::new().grid(grid).targets(targets);
        let run = run_refresh(
            &method,
            &stream,
            pool,
            &jctx.control,
            &session,
            dirty_from,
            version_at_snapshot,
        );
        match run {
            Ok((report, Some(stats))) => {
                metrics.stream_refreshes.inc();
                metrics.stream_scales_reused.add(stats.scales_reused);
                metrics.stream_suffix_windows_rebuilt.add(stats.suffix_windows_rebuilt);
                metrics.stream_dp_steps_skipped.add(stats.steps_skipped);
                cache_insert(report.to_json())
            }
            // outrun by a newer refresh: correct bytes for this snapshot,
            // computed from scratch, session state untouched
            Ok((report, None)) => {
                metrics.stream_stale_refreshes.inc();
                cache_insert(report.to_json())
            }
            // a cancelled refresh may leave entries from its completed
            // refine rounds in the sweep cache — safe, because each entry
            // pairs a timeline with its own histogram and the surviving
            // dirty mark keeps the next refresh's splices conservative;
            // the version watermark only advances on success
            Err(_cancelled) => jctx.cancelled_outcome(),
        }
    });
    if let Some(body) = ctx.cache.get(cache_key) {
        return Ok(Reply::new(200, body));
    }
    let spec =
        SweepJobSpec { job_key, kind: JobKind::Analyze, deadline: p.deadline, scales_hint };
    submitted(request, ctx, spec, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::Directedness;

    fn session(id: u64) -> Arc<Session> {
        let mut builder = LinkStreamBuilder::new(Directedness::Undirected);
        builder.period(0, 100);
        Arc::new(Session {
            id,
            period: (0, 100),
            ingest: Mutex::new(Ingest { builder, dirty_min_t: None, version: 0 }),
            sweep: Mutex::new(SweepState { cache: SweepCache::new(), version: 0 }),
            last_touch: Mutex::new(Instant::now()),
        })
    }

    /// A consistent `(stream, dirty mark, version)` cut, exactly as
    /// `refresh_analysis` takes it.
    fn snapshot(session: &Session) -> (LinkStream, Option<i64>, u64) {
        let mut ingest = session.ingest.lock().unwrap();
        (ingest.builder.snapshot().unwrap(), ingest.dirty_min_t, ingest.version)
    }

    /// Commits a batch the way `append_events` does: builder, version,
    /// dirty mark.
    fn append(session: &Session, batch: &[(&str, &str, i64)]) {
        let mut ingest = session.ingest.lock().unwrap();
        let batch_min = batch.iter().map(|&(.., t)| t).min().expect("non-empty");
        for &(u, v, t) in batch {
            ingest.builder.add(u, v, t);
        }
        ingest.version += 1;
        ingest.dirty_min_t = Some(match ingest.dirty_min_t {
            Some(t0) => t0.min(batch_min),
            None => batch_min,
        });
    }

    /// The executor race the job keys allow: two refreshes of one session
    /// separated by an append hash to different job keys, run on
    /// different executors, and the OLDER snapshot executes last. It must
    /// neither serve the newer stream's bytes under its own key nor
    /// regress the session state the newer refresh built.
    #[test]
    fn an_outrun_snapshot_refreshes_from_scratch_and_touches_no_session_state() {
        let session = session(1);
        let method = OccupancyMethod::new().grid(SweepGrid::Geometric { points: 8 });
        let mut pool = WorkerPool::new(1);
        let ctl = SweepControl::new();
        let batch: Vec<(String, String, i64)> = (0..40i64)
            .map(|i| (format!("n{}", i % 5), format!("n{}", (i + 1) % 5), (i * 2) % 80))
            .collect();
        let seed: Vec<(&str, &str, i64)> =
            batch.iter().map(|(u, v, t)| (u.as_str(), v.as_str(), *t)).collect();
        append(&session, &seed);
        let (stream_a, dirty_a, v_a) = snapshot(&session);
        // the racing append, then the newer snapshot
        append(&session, &[("m0", "n1", 80), ("m1", "n2", 85), ("m2", "n3", 97)]);
        let (stream_b, dirty_b, v_b) = snapshot(&session);
        assert!(v_a < v_b);

        // the newer refresh executes first and advances the session
        let (report_b, stats_b) =
            run_refresh(&method, &stream_b, &mut pool, &ctl, &session, dirty_b, v_b).unwrap();
        assert_eq!(report_b.to_json(), method.run_on(&stream_b, &mut pool).to_json());
        assert!(stats_b.is_some());
        assert_eq!(session.sweep.lock().unwrap().version, v_b);
        assert!(session.ingest.lock().unwrap().dirty_min_t.is_none(), "no append raced");

        // the stale snapshot still produces the right bytes for ITS
        // stream, from scratch, without the session cache
        let (report_a, stats_a) =
            run_refresh(&method, &stream_a, &mut pool, &ctl, &session, dirty_a, v_a).unwrap();
        assert_eq!(report_a.to_json(), method.run_on(&stream_a, &mut pool).to_json());
        assert!(stats_a.is_none(), "an outrun refresh must bypass the session cache");
        assert_ne!(report_a.to_json(), report_b.to_json());

        // the session state still belongs to the newer refresh: an
        // identical clean re-refresh of B reuses every scale
        assert_eq!(session.sweep.lock().unwrap().version, v_b);
        let (report_b2, stats_b2) =
            run_refresh(&method, &stream_b, &mut pool, &ctl, &session, None, v_b).unwrap();
        assert_eq!(report_b2.to_json(), report_b.to_json());
        let stats = stats_b2.expect("in-order refresh uses the cache");
        assert_eq!(stats.scales_reused, stats.scales_total, "{stats:?}");
    }

    #[test]
    fn batch_validation_is_all_or_nothing() {
        // both layouts parse; the KONECT weight column is ignored
        let ok = parse_batch(b"a b 10\nc d 1 99\n", (0, 100)).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[1], ParsedEvent { u: "c", v: "d", t: 99 });
        // the period check is inclusive on both ends
        assert!(parse_batch(b"a b 0\na b 100\n", (0, 100)).is_ok());
        // one bad line fails the whole batch with a 400
        for body in [&b"a b 10\na b 101\n"[..], b"a b 10\nnot a line\n", b"a b -1\n"] {
            let err = parse_batch(body, (0, 100)).unwrap_err();
            assert_eq!(err.status, 400, "body {:?}", String::from_utf8_lossy(body));
            assert!(!err.retryable);
        }
    }

    #[test]
    fn ttl_eviction_counts_sessions_and_updates_the_gauge() {
        let sessions = StreamSessions::new(Duration::ZERO, 4);
        let metrics = Metrics::new();
        sessions.sessions.lock().unwrap().insert(1, session(1));
        sessions.sessions.lock().unwrap().insert(2, session(2));
        std::thread::sleep(Duration::from_millis(2));
        sessions.evict_expired(&metrics);
        assert_eq!(sessions.open(), 0);
        assert_eq!(metrics.stream_sessions_expired.get(), 2);
        assert_eq!(metrics.stream_sessions_open.get(), 0);
        // a second sweep evicts (and counts) nothing
        sessions.evict_expired(&metrics);
        assert_eq!(metrics.stream_sessions_expired.get(), 2);
    }

    #[test]
    fn a_long_ttl_keeps_sessions_alive() {
        let sessions = StreamSessions::new(Duration::from_secs(3600), 4);
        let metrics = Metrics::new();
        sessions.sessions.lock().unwrap().insert(1, session(1));
        sessions.evict_expired(&metrics);
        assert_eq!(sessions.open(), 1);
        assert_eq!(metrics.stream_sessions_open.get(), 1);
        assert!(sessions.get(1).is_some());
        assert!(sessions.get(7).is_none());
    }
}
