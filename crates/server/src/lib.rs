//! `saturn-server` — the analysis surface of this workspace as a long-lived
//! concurrent HTTP service.
//!
//! The paper closes on the method being "fully automatic and does not
//! require any parameter as input. Therefore, it can easily been
//! incorporated into any automatic tool for analyzing dynamic networks"
//! (Léo, Crespelle & Fleury, CoNEXT 2015). This crate is that incorporation
//! point: instead of a one-shot CLI re-running the sweep from scratch per
//! invocation, a daemon that parses traces out of request bodies, serves
//! repeated analyses from a content-addressed report cache, and dispatches
//! cold sweeps through one job queue onto the executors'
//! [`WorkerPool`](saturn_core::parallel::WorkerPool)s.
//!
//! ```text
//! POST /v1/analyze?directed=1&points=48&sample=64&seed=1&deadline_ms=0[&async=1]   trace body → occupancy report
//! POST /v1/validate?points=32&weighted=1&delta_min=1&deadline_ms=0[&async=1]   trace body → loss curves
//! POST /v1/stats?directed=1                                          trace body → stream statistics
//! POST /v1/streams?t_begin=A&t_end=B[&directed=1]                    open a streaming ingest session (body may seed events)
//! POST /v1/streams/<id>/events                                       append a batch of events (all-or-nothing)
//! POST /v1/streams/<id>/analyze?points=48…[&async=1]                 incremental re-analysis of the session's stream
//! GET  /v1/jobs/<id>[?wait=1]                                        async job status / result
//! GET  /v1/health                                                    cache + queue + lifecycle counters
//! GET  /v1/metrics                                                   Prometheus text exposition
//! ```
//!
//! Bodies are plain or KONECT-layout traces — exactly what
//! [`saturn_linkstream::io`] accepts from files. Responses are JSON; an
//! analyze response is byte-for-byte
//! [`OccupancyReport::to_json`](saturn_core::OccupancyReport::to_json), so the
//! CLI's `--json` output and the service speak one shape.
//!
//! Built on `std::net::TcpListener` only: the deployment container is
//! offline and the workspace policy is zero external dependencies.
//!
//! **Key first, parse on miss.** A report's cache key is built from the
//! canonical digest of the parsed stream, so reordered uploads of one trace
//! share it. `/v1/analyze`, `/v1/validate` and `/v1/stats` find that digest
//! in a fixed-size [`memo`] first: 4096 direct-mapped slots (128 KiB) from
//! a digest of the raw body and its directedness to the stream digest. A
//! repeated body therefore makes one cache lookup without being parsed; the
//! body is parsed only when the memo does not know it (the entry is then
//! recorded) or when the lookup misses and a job has to run. The memo is a
//! pure-function memo, so it can never serve a key the canonical path would
//! not, and a memo hit counts as an ordinary cache hit or miss: the cache
//! counters still count exactly one lookup per request.
//!
//! # Request lifecycle & failure semantics
//!
//! Every request moves through admission → queue → sweep → response, and
//! each stage can refuse or abort it with a structured status:
//!
//! | status | meaning | body / headers |
//! |--------|---------|----------------|
//! | `408 Request Timeout` | the peer stalled *mid-request* (head or body arrived partially, then nothing within the read timeout); an *idle* keep-alive connection is closed silently instead | `{"error": …}`, connection closed |
//! | `503 Service Unavailable` | backpressure: job queue full, connection limit reached, admission control predicts the deadline cannot be met, or the server is draining | `Retry-After: <secs>` derived from the EWMA backlog estimate |
//! | `504 Gateway Timeout` | the request's deadline expired while its job was queued or running; the sweep was cancelled cooperatively | `{"error", "scales_done", "scales_total"}` partial-progress counters (validation counts `(tile, scale)` items) |
//! | `500 Internal Server Error` | the sweep panicked (caught; the executor survives), or the supervisor finalized the job after its executor died or stalled past the liveness budget | `{"error": …}` — supervisor-finalized bodies carry `scales_done` / `scales_total` partial progress |
//!
//! **Error envelope.** Every error body on every route, from every layer,
//! is the one shape built by [`error_envelope`]:
//!
//! ```json
//! {"error": {"code": "…", "message": "…", "retryable": bool,
//!            "scales_done"?: int, "scales_total"?: int}}
//! ```
//!
//! `code` is the machine-readable contract (`message` is human detail,
//! free to change). The registry:
//!
//! | code | status | raised when |
//! |------|--------|-------------|
//! | `bad_request` | 400 | malformed query parameter, trace body, or stream-session request |
//! | `not_found` | 404 | unknown route, unknown job id, or unknown stream-session id |
//! | `method_not_allowed` | 405 | wrong verb on a known route |
//! | `request_timeout` | 408 | peer stalled mid-request |
//! | `gone` | 410 | stream session evicted past its idle TTL (id was valid once, is gone now) |
//! | `payload_too_large` | 413 | body over the configured byte cap |
//! | `expectation_failed` | 417 | unsupported `Expect:` header |
//! | `headers_too_large` | 431 | request head over the line/size caps |
//! | `internal` | 500 | any other unexpected server failure (the default 500 code) |
//! | `panicked` | 500 | the sweep panicked; the executor caught it and survives |
//! | `executor_failed` | 500 | the supervisor finalized the job after its executor died or stalled past the liveness budget (body carries partial progress) |
//! | `job_expired` | 500 | job outcome evicted before this waiter read it |
//! | `not_implemented` | 501 | unsupported transfer encoding |
//! | `queue_full` | 503 | the bounded job queue is full |
//! | `would_expire` | 503 | admission control: estimated queue wait alone exceeds the deadline |
//! | `connection_limit` | 503 | concurrent-connection cap reached |
//! | `stream_limit` | 503 | `--max-streams` open ingest sessions already exist |
//! | `draining` | 503, 504 | 503: lame-duck refusal of new work after SIGTERM/SIGINT; 504: a running job cancelled because the drain budget expired |
//! | `deadline_exceeded` | 504 | deadline fired while the job was queued or running |
//! | `fault_injected` | 504 | an armed fault-injection directive cancelled the job |
//! | `stalled` | 504 | stall supervision cancelled a job making no sweep progress |
//! | `cancelled` | 504 | the job's cancel token fired without a recorded cause (fallback) |
//! | `http_version_unsupported` | 505 | non-HTTP/1.x request line |
//!
//! Every 503 carries `Retry-After`; `retryable` is `true` exactly for
//! statuses 408, 500, 503 and 504. [`params`] centralizes query parsing so
//! a typo'd knob is a structured `bad_request` naming the parameter, never
//! a silent default; so is a retired knob (`tile`, `no_delta`,
//! `no_incremental`), with the reason it is gone.
//!
//! **Deadlines.** `?deadline_ms=N` (or the `--default-deadline-ms` serve
//! flag; `0` = none) bounds a request end to end. The job supervisor
//! checks deadlines on every 10 ms tick: it finalizes queued jobs whose
//! deadline has passed without executing them, and fires the
//! [`CancelToken`](saturn_core::CancelToken) of a running job past its
//! deadline — the sweep stops at its next tile / DP-stride poll. The
//! waiting request answers on its own deadline, so a tick's lateness never
//! reaches the client. Admission control multiplies the EWMA of recent job
//! service times by the backlog length and refuses up front (`503`, not
//! `504`) when the wait alone already exceeds the deadline. Cancellation
//! is invisible in the output like tiling: a token that never fires leaves
//! report bytes and cache fingerprints untouched, and cancelled jobs never
//! populate the cache.
//!
//! **Executors & supervision.** `--executors N` starts N executor threads,
//! each with its own worker pool, that drain one bounded FIFO job queue:
//! a job waits only while every executor is busy. There are never more
//! executors than `--threads`, and the threads are split evenly among
//! them. In-flight coalescing keys on the fingerprint, not on an executor.
//! One supervisor thread, the job system's only monitor, enforces the
//! deadlines above, restarts dead executors with capped exponential
//! backoff (in-flight job finalized as a structured `500`, queue
//! untouched) and escalates stalled executors from token-cancel to
//! replacement. Admission control and `Retry-After` compute from the
//! pooled backlog (queued + running) × one EWMA of job service time / N.
//! The executor count is an execution knob: report bytes and cache
//! fingerprints are byte-identical for every `--executors` value. See
//! [`jobs`] for the full design.
//!
//! **Streaming ingest sessions.** `POST /v1/streams?t_begin=A&t_end=B`
//! opens a session that *pins* the analysis period and directedness up
//! front (a growing trace must not let the observed span drift between
//! refreshes, or scales would be incomparable). `POST
//! /v1/streams/<id>/events` appends a parsed batch all-or-nothing — a
//! malformed line or an out-of-period timestamp rejects the whole batch
//! with `bad_request` and the session is untouched. `POST
//! /v1/streams/<id>/analyze` re-analyzes the grown stream *incrementally*:
//! the session owns a [`SweepCache`](saturn_core::SweepCache) and the
//! refresh ([`OccupancyMethod::try_refresh_on`](saturn_core::OccupancyMethod::try_refresh_on))
//! splices only the dirty suffix of each scale's window timeline, reuses
//! every scale whose timeline is provably unchanged by the appends, and
//! recomputes the rest — with the hard invariant (held by a CI byte-compare
//! and the bench's `streaming` section) that the report is byte-identical
//! to a scratch `POST /v1/analyze` of the same events. Refresh results
//! enter the same content-addressed response cache as `/v1/analyze`
//! (same fingerprint: stream digest + grid + targets), so either surface
//! can serve the other's artifact. Sessions idle past `--stream-ttl-secs`
//! are evicted (`410 gone`); more than `--max-streams` concurrent sessions
//! refuse creation with `503 stream_limit` + `Retry-After`. Concurrent
//! refreshes of one session are ordered by a snapshot watermark on its
//! sweep state: a refresh outrun by a newer one (possible with several
//! executors) recomputes from scratch without touching session state — and
//! the [`SweepCache`](saturn_core::SweepCache) is itself stamped with the
//! stream identity it was built from, so the core layer independently
//! rejects inconsistent snapshots. See [`streams`] for the session table
//! and locking design.
//!
//! **Graceful drain.** On `SIGTERM`/`SIGINT`, `saturn serve` flips into
//! lame-duck mode: new connections get `503 + Retry-After`, queued jobs
//! and the running job of every executor get up to `--drain-secs` to finish,
//! stragglers are then cancelled via the same token path, and the process
//! exits `0`.
//!
//! **Durable cache & the disk degradation ladder.** `--cache-dir` (with a
//! `--cache-disk-mb` budget) attaches a crash-safe disk spill tier under
//! the in-memory report LRU: completed and evicted reports persist as
//! content-addressed, checksummed files written via temp-file + fsync +
//! atomic rename, a memory miss falls through to a verified disk read, and
//! graceful drain flushes pending spills before exit. The tier degrades
//! down a fixed ladder — **disk-ok → memory-only → recovery**:
//!
//! * *disk-ok* — spills persist asynchronously; memory misses are served
//!   byte-identically from disk and promoted back into memory.
//! * *memory-only* — any real I/O error (ENOSPC, EIO, permission) trips a
//!   circuit breaker: lookups miss and spills drop without touching the
//!   disk, and **no request ever fails** because of the tier. A probe is
//!   re-admitted on a capped exponential backoff (100ms → 5s); one success
//!   closes the breaker.
//! * *recovery* — at startup (including after SIGKILL) a scan rebuilds the
//!   disk index, deleting torn temp files and quarantining any entry whose
//!   checksum, length, magic, or name disagrees with its contents — counted
//!   in `saturn_cache_disk_corrupt_total`, never served, never a crash.
//!
//! Either tier disables cleanly: `--cache-mb 0` and `--cache-disk-mb 0`
//! allocate no structure at all for their tier. An unwritable `--cache-dir`
//! is a *startup* error (`serve` fails fast); see [`persist`] for the
//! format and [`cache`] for the tier composition.
//!
//! **Fault injection.** The `SATURN_FAULTS` environment variable (or
//! [`ServerConfig::faults`]) arms a [`FaultPlan`] — e.g.
//! `panic:analyze:0.1,slow:sweep:250ms,cancel_race:1` — that injects
//! panics, delays, and cancellation races at the job-execution,
//! HTTP-parse, and disk-persistence seams (`disk_write_err`, `disk_full`,
//! `disk_corrupt`, `disk_slow`). See [`faults`] for the grammar. Unset,
//! every hook is a no-op.
//!
//! # Telemetry
//!
//! One [`Metrics`] registry per server, shared by the cache, the job
//! manager, and every connection thread; `GET /v1/metrics` renders it as
//! Prometheus text (`text/plain; version=0.0.4`). The `/v1/health` cache
//! and job counters are *views over the same atomics*, so the two surfaces
//! can never disagree. Telemetry is observation only: nothing here enters
//! cache fingerprints or report bytes (the knob-matrix CI gate holds with
//! it active). Setting `SATURN_TRACE=json` at server start additionally
//! mirrors every completed sweep tile as a JSON line on stderr.
//!
//! Every exported metric:
//!
//! | metric | type | labels | meaning |
//! |--------|------|--------|---------|
//! | `saturn_requests_total` | counter | `route` ∈ analyze, validate, stats, health, jobs, metrics, other; `status` ∈ 2xx, 4xx, 5xx, other | finished HTTP requests |
//! | `saturn_queue_depth` | gauge | — | jobs waiting (not running) |
//! | `saturn_cache_bytes` | gauge | — | resident report-cache bytes |
//! | `saturn_cache_entries` | gauge | — | resident report-cache entries |
//! | `saturn_cache_hits_total` | counter | — | cache lookups that returned a body |
//! | `saturn_cache_misses_total` | counter | — | cache lookups that found nothing |
//! | `saturn_cache_evictions_total` | counter | — | entries evicted for the byte budget |
//! | `saturn_cache_disk_bytes` | gauge | — | bytes resident in the disk tier |
//! | `saturn_cache_disk_hits_total` | counter | — | disk lookups that served a verified body |
//! | `saturn_cache_disk_misses_total` | counter | — | disk lookups that found nothing |
//! | `saturn_cache_disk_writes_total` | counter | — | entries durably spilled to disk |
//! | `saturn_cache_disk_evictions_total` | counter | — | disk entries evicted for the byte budget |
//! | `saturn_cache_disk_corrupt_total` | counter | — | entries quarantined as torn/corrupt/oversize |
//! | `saturn_cache_disk_errors_total` | counter | — | disk I/O failures (each trips the breaker) |
//! | `saturn_jobs_executed_total` | counter | — | jobs run to any outcome |
//! | `saturn_jobs_completed_total` | counter | — | jobs finishing with their own outcome |
//! | `saturn_jobs_cancelled_total` | counter | — | deadline / drain / fault 504s |
//! | `saturn_jobs_panicked_total` | counter | — | jobs whose work panicked (500) |
//! | `saturn_jobs_coalesced_total` | counter | — | submissions attached to in-flight duplicates |
//! | `saturn_jobs_rejected_total` | counter | — | submissions refused with any 503 |
//! | `saturn_jobs_deadline_rejected_total` | counter | — | admission-control refusals |
//! | `saturn_executor_restarts_total` | counter | — | supervisor restarts of an executor (death or stall) |
//! | `saturn_stream_sessions_open` | gauge | — | streaming ingest sessions currently open |
//! | `saturn_stream_sessions_opened_total` | counter | — | sessions ever created |
//! | `saturn_stream_sessions_expired_total` | counter | — | sessions evicted past the idle TTL |
//! | `saturn_stream_events_appended_total` | counter | — | events accepted by append batches |
//! | `saturn_stream_refreshes_total` | counter | — | incremental re-analyses executed |
//! | `saturn_stream_scales_reused_total` | counter | — | scales served from the session cache without DP |
//! | `saturn_stream_suffix_windows_rebuilt_total` | counter | — | timeline windows respliced by refreshes |
//! | `saturn_stream_dp_steps_skipped_total` | counter | — | non-empty DP steps that refreshes resumed from a checkpoint did not re-run, summed over tiles |
//! | `saturn_stream_stale_refreshes_total` | counter | — | refreshes outrun by a newer refresh of their session, recomputed from scratch |
//! | `saturn_sweep_tiles_total` | counter | — | `(scale, tile)` DP items completed |
//! | `saturn_sweep_scales_total` | counter | — | scales fully analyzed |
//! | `saturn_dp_trips_total` | counter | — | minimal trips reported by the engines |
//! | `saturn_dp_traversals_total` | counter | — | edge traversals processed |
//! | `saturn_dp_chain_offers_total` | counter | — | source cells merged after delta filtering (every lane of a block-merged word, every live cell of a walked one) |
//! | `saturn_dp_snap_entries_total` | counter | — | snapshot cells copied after delta filtering |
//! | `saturn_dp_degree1_steps_total` | counter | — | degree-1 fast-path steps |
//! | `saturn_parse_seconds` | histogram | — | request read + parse (includes peer I/O) |
//! | `saturn_handle_seconds` | histogram | — | routing + synchronous job wait |
//! | `saturn_serialize_seconds` | histogram | — | response write to the socket |
//! | `saturn_request_seconds` | histogram | — | end-to-end request wall time |
//! | `saturn_queue_wait_seconds` | histogram | — | submit → executor pop latency |
//! | `saturn_sweep_seconds` | histogram | — | job execution wall time on the pool |
//! | `saturn_tile_seconds` | histogram | — | one `(scale, tile)` DP wall time |
//!
//! Histogram buckets are powers of two over microseconds (`le` rendered in
//! seconds), so p50/p90/p99 extracted from a scrape are upper bounds within
//! 2× — see [`metrics::Histogram`].

#![deny(unsafe_code)]

pub mod cache;
pub mod faults;
pub mod http;
pub mod jobs;
pub mod memo;
pub mod metrics;
pub mod params;
pub mod persist;
#[allow(unsafe_code)] // the self-pipe signal FFI
pub mod signals;
pub mod streams;

pub use cache::{CacheStats, ReportCache};
pub use faults::{FaultPlan, FaultSite};
pub use jobs::{
    executor_layout, JobCtx, JobKind, JobManager, JobOutcome, JobPhase, JobStats, JobsConfig,
    Reject, WaitOutcome,
};
pub use metrics::{Counter, Gauge, Histogram, Metrics, RequestTimings};
pub use params::RequestParams;
pub use persist::{DiskStats, DiskTier};

use http::{
    read_request, write_response, write_response_typed, write_response_with, ReadError,
    Request, CONTENT_TYPE_JSON, CONTENT_TYPE_PROMETHEUS,
};
use metrics::route_label;
use saturn_core::fingerprint::{self, Digest};
use saturn_core::{
    validation_sweep, OccupancyMethod, SweepGrid, TargetSpec, ValidationOptions,
};
use saturn_linkstream::{Directedness, LinkStream};
use serde_json::Value;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds the one error-body shape this service emits, on every route and
/// at every layer (parse errors, routing, backpressure, job outcomes):
///
/// ```json
/// {"error": {"code": "…", "message": "…", "retryable": bool,
///            "scales_done"?: int, "scales_total"?: int}}
/// ```
///
/// `code` is a stable machine-readable identifier from the registry in the
/// crate-docs status table; `message` is human-readable detail (not an API
/// contract); `retryable` says whether the identical request may succeed if
/// simply retried later; `progress` attaches the partial-sweep counters
/// that 504s and supervisor-finalized 500s carry.
pub fn error_envelope(
    code: &str,
    message: &str,
    retryable: bool,
    progress: Option<(u64, u64)>,
) -> String {
    let mut fields = vec![
        ("code".to_string(), Value::String(code.to_string())),
        ("message".to_string(), Value::String(message.to_string())),
        ("retryable".to_string(), Value::Bool(retryable)),
    ];
    if let Some((done, total)) = progress {
        fields.push(("scales_done".to_string(), Value::Int(done as i128)));
        fields.push(("scales_total".to_string(), Value::Int(total as i128)));
    }
    Value::Object(vec![("error".to_string(), Value::Object(fields))]).to_string_pretty()
}

/// One routed failure: an HTTP status plus its envelope fields. Every
/// error a handler can produce flows through this type (or through
/// [`jobs::timeout_body`] for outcomes carrying progress counters), so
/// every error body in the service is built by [`error_envelope`].
#[derive(Clone, Debug)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable code from the registry in the crate-docs status table.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Whether the identical request may succeed if retried later.
    pub retryable: bool,
}

impl ApiError {
    /// An error carrying the default code and retryability of its status.
    pub fn new(status: u16, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code: default_code(status),
            message: message.into(),
            retryable: status_is_retryable(status),
        }
    }

    /// An error with an explicit registry code (e.g. the three distinct
    /// 503 causes).
    pub fn with_code(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError { code, ..ApiError::new(status, message) }
    }

    /// The envelope body for this error.
    pub fn body(&self) -> Vec<u8> {
        error_envelope(self.code, &self.message, self.retryable, None).into_bytes()
    }
}

/// The default registry code of a status; statuses with several causes
/// (503) get explicit codes at their call sites via [`ApiError::with_code`].
fn default_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        408 => "request_timeout",
        410 => "gone",
        413 => "payload_too_large",
        417 => "expectation_failed",
        431 => "headers_too_large",
        500 => "internal",
        501 => "not_implemented",
        503 => "unavailable",
        504 => "deadline_exceeded",
        505 => "http_version_unsupported",
        _ => "error",
    }
}

/// Server-side (5xx) failures and timeouts are retryable; client errors
/// are not — resending the same malformed request cannot succeed.
fn status_is_retryable(status: u16) -> bool {
    matches!(status, 408 | 500 | 503 | 504)
}

/// Tunables of one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Total sweep worker parallelism (0 = all available cores), split
    /// evenly across the executors.
    pub threads: usize,
    /// Executor threads draining the one job queue, each with its own
    /// worker pool and supervised for panic/stall recovery (0 = one per
    /// four cores, clamped to [1, 4]). Capped at the resolved `threads`
    /// ([`jobs::executor_layout`]). Purely an execution knob — report
    /// bytes and cache keys are identical for every count.
    pub executors: usize,
    /// Liveness budget for stall supervision: a running job making no
    /// sweep progress for this long is token-cancelled, for twice this
    /// long its executor is replaced ([`jobs::DEFAULT_STALL_BUDGET`];
    /// `Duration::ZERO` disables stall supervision).
    pub stall_budget: Duration,
    /// Report cache budget in bytes (0 disables the memory tier — no LRU
    /// is allocated).
    pub cache_bytes: usize,
    /// Directory for the durable disk spill tier (`None` disables it).
    /// Created if missing; an unwritable directory fails [`Server::bind`].
    pub cache_dir: Option<PathBuf>,
    /// Disk spill tier budget in bytes (0 disables the tier even when
    /// [`ServerConfig::cache_dir`] is set).
    pub cache_disk_bytes: usize,
    /// Maximum jobs waiting in the one job queue (shared by every
    /// executor) before submissions get 503.
    pub queue_depth: usize,
    /// Maximum accepted request body, bytes.
    pub max_body_bytes: usize,
    /// Maximum concurrently served connections before new ones get 503.
    pub max_connections: usize,
    /// Default request deadline in milliseconds (0 = none). Overridable
    /// per request with `?deadline_ms=N`.
    pub default_deadline_ms: u64,
    /// Graceful-drain budget in seconds: how long a shutdown signal lets
    /// queued and running jobs finish before cancelling stragglers.
    pub drain_secs: u64,
    /// Socket read timeout: idle keep-alive connections are dropped after
    /// this long, a mid-request stall this long is answered with 408.
    pub read_timeout: Duration,
    /// Idle time-to-live of a streaming ingest session: a session untouched
    /// this long is evicted (subsequent requests get `410 Gone`).
    pub stream_ttl: Duration,
    /// Maximum concurrently open streaming sessions; creation beyond this
    /// gets `503` with code `stream_limit`.
    pub max_streams: usize,
    /// Fault-injection plan for chaos testing (see [`faults`]); `None` in
    /// production.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            threads: 0,
            executors: 1,
            stall_budget: jobs::DEFAULT_STALL_BUDGET,
            cache_bytes: 64 << 20,
            cache_dir: None,
            cache_disk_bytes: 64 << 20,
            queue_depth: 64,
            max_body_bytes: 64 << 20,
            max_connections: 256,
            default_deadline_ms: 0,
            drain_secs: 10,
            read_timeout: Duration::from_secs(10),
            stream_ttl: Duration::from_secs(300),
            max_streams: 64,
            faults: None,
        }
    }
}

/// How long a closing connection waits for more of its peer's leftover
/// input, and how much of it it reads at most ([`linger_close`]).
const LINGER: Duration = Duration::from_secs(1);
const LINGER_BYTES: u64 = 1 << 20;

/// State shared by every connection thread.
struct ServerContext {
    /// Behind its own `Arc` so job closures (which outlive the request)
    /// can own a handle and populate it on completion.
    cache: Arc<ReportCache>,
    /// Raw body → canonical stream digest, so a repeated body finds its
    /// cache key without being parsed ([`memo`]).
    memo: memo::ParseMemo,
    jobs: JobManager,
    /// The one registry `/v1/metrics` renders. The cache and job manager
    /// hold clones of this `Arc` and count into it directly.
    metrics: Arc<Metrics>,
    max_body_bytes: usize,
    max_connections: usize,
    default_deadline_ms: u64,
    drain_secs: u64,
    read_timeout: Duration,
    faults: Option<Arc<FaultPlan>>,
    /// Streaming ingest sessions (`/v1/streams`): in-memory only, TTL-
    /// evicted, gone on restart by design.
    streams: streams::StreamSessions,
    active_connections: AtomicUsize,
    stopping: AtomicBool,
    /// Lame-duck mode: still serving in-flight work, refusing new
    /// connections with `503 + Retry-After` while the backlog drains.
    lame_duck: AtomicBool,
}

/// A bound (but not yet running) server.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<ServerContext>,
}

impl Server {
    /// Binds the listener and starts the job executors (each spawns its
    /// own worker pool).
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let shared_metrics = Arc::new(Metrics::new());
        let mut jobs_config = JobsConfig::new(config.threads, config.queue_depth);
        jobs_config.executors = config.executors;
        jobs_config.stall_budget = config.stall_budget;
        jobs_config.faults = config.faults.clone();
        // The disk tier opens (probe write + recovery scan) before any
        // request is accepted: an unwritable --cache-dir is a bind error,
        // not a degraded runtime state.
        let disk = match &config.cache_dir {
            Some(dir) if config.cache_disk_bytes > 0 => Some(persist::DiskTier::open(
                dir,
                config.cache_disk_bytes,
                Arc::clone(&shared_metrics),
                config.faults.clone(),
            )?),
            _ => None,
        };
        Ok(Server {
            listener,
            ctx: Arc::new(ServerContext {
                cache: Arc::new(ReportCache::with_tiers(
                    config.cache_bytes,
                    disk,
                    Arc::clone(&shared_metrics),
                )),
                memo: memo::ParseMemo::new(),
                jobs: JobManager::with_config(jobs_config, Some(Arc::clone(&shared_metrics))),
                metrics: shared_metrics,
                max_body_bytes: config.max_body_bytes,
                max_connections: config.max_connections,
                default_deadline_ms: config.default_deadline_ms,
                drain_secs: config.drain_secs,
                read_timeout: config.read_timeout,
                faults: config.faults.clone(),
                streams: streams::StreamSessions::new(config.stream_ttl, config.max_streams),
                active_connections: AtomicUsize::new(0),
                stopping: AtomicBool::new(false),
                lame_duck: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever on the calling thread (the `saturn serve` entry
    /// point). Installs SIGTERM/SIGINT handlers: a shutdown signal flips
    /// the server into lame-duck mode, drains the job backlog within the
    /// configured budget, and exits 0.
    pub fn run(self) -> std::io::Result<()> {
        if let Some(fd) = signals::install() {
            let ctx = Arc::clone(&self.ctx);
            std::thread::Builder::new().name("saturn-signals".into()).spawn(move || {
                signals::wait(fd);
                // best-effort print: eprintln! panics if stderr is closed,
                // which would kill this thread before it can drain and exit
                let _ = writeln!(
                    std::io::stderr(),
                    "saturn-server: shutdown signal; draining ({}s budget)",
                    ctx.drain_secs
                );
                drain_and_exit(&ctx);
            })?;
        }
        accept_loop(self.listener, self.ctx);
        Ok(())
    }

    /// Serves on a background thread; the handle stops the accept loop on
    /// demand (tests, benches). No signal handlers are installed — tests
    /// drive the same drain path through [`ServerHandle::drain`].
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let ctx = Arc::clone(&self.ctx);
        let accept = std::thread::Builder::new()
            .name("saturn-accept".into())
            .spawn(move || accept_loop(self.listener, self.ctx))?;
        Ok(ServerHandle { addr, ctx, accept: Some(accept) })
    }
}

/// The SIGTERM/SIGINT path: refuse new connections, drain the backlog,
/// give connection threads a moment to flush final responses, exit 0.
fn drain_and_exit(ctx: &ServerContext) -> ! {
    ctx.lame_duck.store(true, Ordering::SeqCst);
    let stats = ctx.jobs.drain(Duration::from_secs(ctx.drain_secs));
    // make accepted work durable: pending disk spills land before exit
    ctx.cache.flush(Duration::from_secs(2));
    let flush_by = Instant::now() + Duration::from_secs(2);
    while ctx.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < flush_by {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = writeln!(
        std::io::stderr(),
        "saturn-server: drained (completed {}, cancelled {}); exiting",
        stats.completed,
        stats.cancelled
    );
    std::process::exit(0);
}

/// Controls a spawned server.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerContext>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The graceful-drain path, minus the process exit (for tests): flips
    /// lame-duck mode (new connections get `503 + Retry-After`), waits up
    /// to `budget` for queued and running jobs, cancels stragglers, and
    /// returns the final job stats. The accept loop stays up serving 503s
    /// until [`ServerHandle::stop`] or drop.
    pub fn drain(&self, budget: Duration) -> JobStats {
        self.ctx.lame_duck.store(true, Ordering::SeqCst);
        let stats = self.ctx.jobs.drain(budget);
        // same durability guarantee as the signal path: completed reports
        // reach the disk tier before the caller tears the server down
        self.ctx.cache.flush(Duration::from_secs(2));
        stats
    }

    /// Stops accepting and joins the accept thread. Connections already
    /// being served drain on their own threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.ctx.stopping.store(true, Ordering::SeqCst);
            // wake the blocking accept with a no-op connection
            let _ = TcpStream::connect(self.addr);
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, ctx: Arc<ServerContext>) {
    for stream in listener.incoming() {
        if ctx.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if ctx.lame_duck.load(Ordering::SeqCst) {
            let mut stream = stream;
            let retry = ctx.drain_secs.max(1).to_string();
            let _ = write_response_with(
                &mut stream,
                503,
                &[("Retry-After", retry)],
                &ApiError::with_code(503, "draining", "server is draining").body(),
                false,
            );
            refuse_close(stream);
            continue;
        }
        let active = ctx.active_connections.fetch_add(1, Ordering::SeqCst) + 1;
        if active > ctx.max_connections {
            let mut stream = stream;
            let _ = write_response_with(
                &mut stream,
                503,
                &[("Retry-After", "1".to_string())],
                &ApiError::with_code(503, "connection_limit", "connection limit reached")
                    .body(),
                false,
            );
            refuse_close(stream);
            ctx.active_connections.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let ctx = Arc::clone(&ctx);
        let _ = std::thread::Builder::new().name("saturn-conn".into()).spawn(move || {
            // decrement via a drop guard: a panicking handler must not leak
            // its connection slot (leaked slots would eventually turn every
            // accept into a 503)
            struct Slot<'a>(&'a ServerContext);
            impl Drop for Slot<'_> {
                fn drop(&mut self) {
                    self.0.active_connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            let _slot = Slot(&ctx);
            serve_connection(stream, &ctx);
        });
    }
}

fn serve_connection(stream: TcpStream, ctx: &ServerContext) {
    let _ = stream.set_read_timeout(Some(ctx.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(reader_stream) = stream.try_clone() else { return };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = stream;
    loop {
        let parse_started = Instant::now();
        let request = match read_request(&mut reader, &mut writer, ctx.max_body_bytes) {
            Ok(request) => request,
            Err(ReadError::Closed) => return,
            Err(ReadError::Bad(status, msg)) => {
                // includes the 408 mid-request stall: the client is told
                // why the connection is going away instead of a silent drop
                let timings =
                    RequestTimings { parse: parse_started.elapsed(), ..Default::default() };
                let _ = write_response(
                    &mut writer,
                    status,
                    &ApiError::new(status, msg).body(),
                    false,
                );
                ctx.metrics.observe_request("other", status, &timings);
                linger_close(reader, &writer);
                return;
            }
        };
        if let Some(plan) = &ctx.faults {
            plan.maybe_slow(FaultSite::Parse);
            plan.maybe_panic(FaultSite::Parse);
        }
        let mut timings =
            RequestTimings { parse: parse_started.elapsed(), ..Default::default() };
        // during a drain, finish this response but do not hold the
        // connection open for more requests
        let keep_alive = request.keep_alive && !ctx.lame_duck.load(Ordering::SeqCst);
        let handle_started = Instant::now();
        let reply = route(&request, ctx);
        timings.handle = handle_started.elapsed();
        let mut extra_headers: Vec<(&str, String)> = Vec::new();
        if let Some(secs) = reply.retry_after {
            extra_headers.push(("Retry-After", secs.to_string()));
        }
        let serialize_started = Instant::now();
        let sent = write_response_typed(
            &mut writer,
            reply.status,
            reply.content_type,
            &extra_headers,
            reply.body.as_bytes(),
            keep_alive,
        );
        timings.serialize = serialize_started.elapsed();
        ctx.metrics.observe_request(route_label(&request.path), reply.status, &timings);
        if sent.is_err() {
            return;
        }
        if !keep_alive {
            linger_close(reader, &writer);
            return;
        }
    }
}

/// Closes a connection after its final response without resetting it.
/// Closing a socket with unread input (a pipelined request that will not
/// be answered) makes the kernel send a reset and drop whatever of the
/// final response is still queued, so the write side is shut first (the
/// response goes out ahead of the FIN), then the input is discarded until
/// the peer closes, a read waits [`LINGER`], or [`LINGER_BYTES`] went by.
fn linger_close(reader: BufReader<TcpStream>, writer: &TcpStream) {
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let _ = writer.set_read_timeout(Some(LINGER));
    let _ = std::io::copy(&mut reader.into_inner().take(LINGER_BYTES), &mut std::io::sink());
}

/// Closes a connection the accept thread answered itself (the lame-duck
/// and connection-limit 503s) without resetting it, and without blocking
/// the accept loop: the write side is shut (the 503 goes out ahead of the
/// FIN), then the input already received is discarded with non-blocking
/// reads, at most [`LINGER_BYTES`] of it, before the socket closes.
fn refuse_close(stream: TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    if stream.set_nonblocking(true).is_ok() {
        // stops at the first read that would block
        let _ = std::io::copy(&mut (&stream).take(LINGER_BYTES), &mut std::io::sink());
    }
}

/// A response body: bytes built for this request, or a shared allocation
/// straight out of the report cache / job table — cache hits go to the
/// socket without copying the report.
enum Body {
    Built(Vec<u8>),
    Shared(Arc<str>),
}

impl Body {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Built(bytes) => bytes,
            Body::Shared(body) => body.as_bytes(),
        }
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Self {
        Body::Built(bytes)
    }
}

impl From<Arc<str>> for Body {
    fn from(body: Arc<str>) -> Self {
        Body::Shared(body)
    }
}

/// A routed response: status, body, content type (JSON everywhere except
/// the Prometheus exposition), and optionally a `Retry-After` hint (every
/// 503 carries one).
struct Reply {
    status: u16,
    body: Body,
    content_type: &'static str,
    retry_after: Option<u32>,
}

impl Reply {
    fn new(status: u16, body: impl Into<Body>) -> Reply {
        Reply { status, body: body.into(), content_type: CONTENT_TYPE_JSON, retry_after: None }
    }

    /// A Prometheus-text response (`GET /v1/metrics`).
    fn prometheus(body: impl Into<Body>) -> Reply {
        Reply {
            status: 200,
            body: body.into(),
            content_type: CONTENT_TYPE_PROMETHEUS,
            retry_after: None,
        }
    }

    fn retry(status: u16, body: impl Into<Body>, secs: u32) -> Reply {
        Reply {
            status,
            body: body.into(),
            content_type: CONTENT_TYPE_JSON,
            retry_after: Some(secs),
        }
    }
}

/// Dispatches one request.
fn route(request: &Request, ctx: &ServerContext) -> Reply {
    let outcome = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/analyze") => endpoint_analyze(request, ctx),
        ("POST", "/v1/validate") => endpoint_validate(request, ctx),
        ("POST", "/v1/stats") => endpoint_stats(request, ctx),
        ("POST", "/v1/streams") => streams::endpoint_create(request, ctx),
        ("POST", path) if path.starts_with("/v1/streams/") => {
            streams::endpoint_session(request, ctx)
        }
        ("GET", "/v1/health") => Ok(endpoint_health(ctx)),
        ("GET", "/v1/metrics") => Ok(endpoint_metrics(ctx)),
        ("GET", path) if path.starts_with("/v1/jobs/") => endpoint_job(request, ctx),
        ("GET", path) if path.starts_with("/v1/streams") => Err(ApiError::new(
            405,
            "wrong method for this endpoint (analysis endpoints take POST)",
        )),
        ("GET", "/v1/analyze" | "/v1/validate" | "/v1/stats")
        | ("POST", "/v1/health" | "/v1/metrics") => Err(ApiError::new(
            405,
            "wrong method for this endpoint (analysis endpoints take POST)",
        )),
        _ => {
            Err(ApiError::new(404, format!("no route for {} {}", request.method, request.path)))
        }
    };
    match outcome {
        Ok(reply) => reply,
        Err(e) => Reply::new(e.status, e.body()),
    }
}

/// The return type of every endpoint handler: a reply, or a structured
/// error the dispatcher renders through [`error_envelope`].
type Handled = Result<Reply, ApiError>;

/// Serves a trace-body request (analyze, validate, stats) "key first,
/// parse on miss": the canonical stream digest comes from the parse memo
/// when the same bytes were seen under the same `directedness`, the
/// request's cache key is `request_key` of it, and that key gets exactly
/// one cache lookup. Only a miss gets the parsed stream, handed to
/// `on_miss` with the key; a body the memo already knew is parsed only then.
fn keyed_trace(
    request: &Request,
    ctx: &ServerContext,
    directedness: Directedness,
    request_key: impl FnOnce(u128) -> u128,
    on_miss: impl FnOnce(LinkStream, u128) -> Handled,
) -> Handled {
    let resolved = ctx.memo.resolve(&request.body, directedness)?;
    let key = request_key(resolved.stream_digest);
    if let Some(body) = ctx.cache.get(key) {
        return Ok(Reply::new(200, body));
    }
    let stream = match resolved.stream {
        Some(stream) => stream,
        None => memo::parse_body(&request.body, directedness)?,
    };
    on_miss(stream, key)
}

/// The response-cache key of an occupancy analysis, shared by
/// `/v1/analyze` and stream-session refreshes: the same events, grid and
/// targets are the same report, whichever surface computes it.
pub(crate) fn analyze_key(stream_digest: u128, grid: &SweepGrid, targets: &TargetSpec) -> u128 {
    let mut digest = Digest::new("saturn.analyze.v1");
    digest.write_u128(stream_digest);
    fingerprint::write_grid(&mut digest, grid);
    fingerprint::write_targets(&mut digest, targets);
    digest.finish()
}

/// Everything that addresses one sweep submission: how in-flight
/// duplicates coalesce, and the deadline/size hints the job system
/// schedules by.
pub(crate) struct SweepJobSpec {
    /// Coalescing key — identical in-flight submissions share one job.
    pub job_key: u128,
    /// Which executor-side work class this is.
    pub kind: JobKind,
    /// The request's end-to-end budget, if it has one.
    pub deadline: Option<Duration>,
    /// Expected scale count, for admission control's progress estimates.
    pub scales_hint: u64,
}

/// Submits `work` as a job and (unless `async=1`) waits for it — within
/// the request's deadline, when it has one. The shared plumbing of every
/// sweep endpoint (analyze, validate, stream refresh), called once the
/// request's cache lookup missed.
fn submitted(
    request: &Request,
    ctx: &ServerContext,
    spec: SweepJobSpec,
    work: jobs::JobWork,
) -> Handled {
    let SweepJobSpec { job_key, kind, deadline, scales_hint } = spec;
    // fix the client's own wall-clock budget before queueing
    let wait_until = deadline.map(|budget| Instant::now() + budget);
    let id = match ctx.jobs.submit_with(Some(job_key), deadline, kind, scales_hint, work) {
        Ok(id) => id,
        Err(Reject::QueueFull { retry_after_secs }) => {
            return Ok(Reply::retry(
                503,
                ApiError::with_code(503, "queue_full", "job queue is full, retry later").body(),
                retry_after_secs,
            ));
        }
        Err(Reject::WouldExpire { estimated_wait_ms, retry_after_secs }) => {
            return Ok(Reply::retry(
                503,
                ApiError::with_code(
                    503,
                    "would_expire",
                    format!(
                        "estimated queue wait of {estimated_wait_ms} ms exceeds the deadline"
                    ),
                )
                .body(),
                retry_after_secs,
            ));
        }
        Err(Reject::Draining) => {
            return Ok(Reply::retry(
                503,
                ApiError::with_code(503, "draining", "server is draining").body(),
                1,
            ));
        }
    };
    if request.flag("async") {
        return Ok(Reply::new(
            202,
            job_status_body(id, ctx.jobs.phase(id).unwrap_or(JobPhase::Queued)),
        ));
    }
    match ctx.jobs.wait_until(id, wait_until) {
        WaitOutcome::Done(outcome) => Ok(Reply::new(outcome.status, outcome.body)),
        // this waiter's deadline fired while the (possibly coalesced,
        // possibly about-to-be-cancelled) job kept running: answer 504 with
        // the progress so far, without waiting for the job to notice
        WaitOutcome::DeadlineExpired { scales_done, scales_total } => Ok(Reply::new(
            504,
            jobs::timeout_body(
                "deadline_exceeded",
                "deadline exceeded",
                scales_done,
                scales_total,
            )
            .into_bytes(),
        )),
        WaitOutcome::Unknown => Err(ApiError::with_code(
            500,
            "job_expired",
            "job expired before its outcome was read",
        )),
    }
}

fn endpoint_analyze(request: &Request, ctx: &ServerContext) -> Handled {
    let p = RequestParams::parse(request, ctx.default_deadline_ms)?;
    // execution choices stay OUT of the fingerprint: the tile layout the
    // sweep picks (from the memory budget) never changes the
    // bytes, and a deadline either leaves the result untouched or prevents
    // there being one.
    let grid = SweepGrid::Geometric { points: p.points };
    let targets = p.targets;
    let key_of = |stream_digest| analyze_key(stream_digest, &grid, &targets);
    keyed_trace(request, ctx, p.directedness, key_of, |stream, key| {
        let scales_hint = grid.k_values(&stream, 1).len() as u64;
        let grid = grid.clone();
        let cache_insert = cache_filler(Arc::clone(&ctx.cache), key);
        let work: jobs::JobWork = Box::new(move |pool, jctx| {
            let method = OccupancyMethod::new().grid(grid).targets(targets);
            match method.try_run_on(&stream, pool, &jctx.control) {
                // cancelled sweeps never reach the cache: only complete
                // reports are content-addressed
                Ok(report) => cache_insert(report.to_json()),
                Err(_cancelled) => jctx.cancelled_outcome(),
            }
        });
        let spec = SweepJobSpec {
            job_key: key,
            kind: JobKind::Analyze,
            deadline: p.deadline,
            scales_hint,
        };
        submitted(request, ctx, spec, work)
    })
}

fn endpoint_validate(request: &Request, ctx: &ServerContext) -> Handled {
    let p = RequestParams::parse(request, ctx.default_deadline_ms)?;
    let grid = SweepGrid::Geometric { points: p.points };
    let targets = p.targets;
    let options =
        ValidationOptions { delta_min: p.delta_min, weighted_transitions: p.weighted };
    let key_of = |stream_digest| {
        let mut digest = Digest::new("saturn.validate.v1");
        digest.write_u128(stream_digest);
        fingerprint::write_grid(&mut digest, &grid);
        fingerprint::write_targets(&mut digest, &targets);
        digest.write_i64(options.delta_min);
        digest.write_u64(options.weighted_transitions as u64);
        digest.finish()
    };
    keyed_trace(request, ctx, p.directedness, key_of, |stream, key| {
        let scales_hint = grid.k_values(&stream, options.delta_min).len() as u64;
        let grid = grid.clone();
        let cache_insert = cache_filler(Arc::clone(&ctx.cache), key);
        let work: jobs::JobWork = Box::new(move |pool, jctx| {
            match validation_sweep(&stream, &grid, targets, &options, pool, &jctx.control) {
                Ok(report) => {
                    let json =
                        serde_json::to_string_pretty(&report).expect("report serializes");
                    cache_insert(json)
                }
                Err(_cancelled) => jctx.cancelled_outcome(),
            }
        });
        let spec = SweepJobSpec {
            job_key: key,
            kind: JobKind::Validate,
            deadline: p.deadline,
            scales_hint,
        };
        submitted(request, ctx, spec, work)
    })
}

fn endpoint_stats(request: &Request, ctx: &ServerContext) -> Handled {
    let key_of = |stream_digest| {
        let mut digest = Digest::new("saturn.stats.v1");
        digest.write_u128(stream_digest);
        digest.finish()
    };
    keyed_trace(request, ctx, params::directedness(request), key_of, |stream, key| {
        // stats are a single pass over the events — computed inline on the
        // connection thread, never queued behind sweeps
        let body: Arc<str> =
            Arc::from(serde_json::to_string_pretty(&stream.stats()).expect("stats serialize"));
        ctx.cache.insert(key, Arc::clone(&body));
        Ok(Reply::new(200, body))
    })
}

fn endpoint_job(request: &Request, ctx: &ServerContext) -> Handled {
    let raw_id = request.path.strip_prefix("/v1/jobs/").expect("routed by prefix");
    let id: u64 = raw_id
        .parse()
        .map_err(|_| ApiError::new(404, format!("malformed job id `{raw_id}`")))?;
    if request.flag("wait") {
        let outcome = ctx
            .jobs
            .wait(id)
            .ok_or_else(|| ApiError::new(404, format!("unknown or expired job {id}")))?;
        return Ok(Reply::new(outcome.status, outcome.body));
    }
    let phase = ctx
        .jobs
        .phase(id)
        .ok_or_else(|| ApiError::new(404, format!("unknown or expired job {id}")))?;
    match ctx.jobs.outcome(id) {
        Some(outcome) => Ok(Reply::new(outcome.status, outcome.body)),
        None => Ok(Reply::new(200, job_status_body(id, phase))),
    }
}

fn endpoint_health(ctx: &ServerContext) -> Reply {
    let mut fields = vec![
        ("status".to_string(), Value::String("ok".to_string())),
        ("draining".to_string(), Value::Bool(ctx.lame_duck.load(Ordering::SeqCst))),
        (
            "cache".to_string(),
            serde_json::to_value(&ctx.cache.stats()).expect("stats serialize"),
        ),
    ];
    if let Some(disk) = ctx.cache.disk_stats() {
        fields.push((
            "cache_disk".to_string(),
            serde_json::to_value(&disk).expect("stats serialize"),
        ));
    }
    fields.push((
        "jobs".to_string(),
        serde_json::to_value(&ctx.jobs.stats()).expect("stats serialize"),
    ));
    fields.push((
        "streams".to_string(),
        Value::Object(vec![
            ("open".to_string(), Value::Int(ctx.streams.open() as i128)),
            ("ttl_secs".to_string(), Value::Int(ctx.streams.ttl().as_secs() as i128)),
        ]),
    ));
    fields.push((
        "active_connections".to_string(),
        Value::Int(ctx.active_connections.load(Ordering::SeqCst) as i128),
    ));
    let body = Value::Object(fields);
    Reply::new(200, body.to_string_pretty().into_bytes())
}

fn endpoint_metrics(ctx: &ServerContext) -> Reply {
    Reply::prometheus(ctx.metrics.render_prometheus().into_bytes())
}

fn job_status_body(id: u64, phase: JobPhase) -> Vec<u8> {
    let phase = match phase {
        JobPhase::Queued => "queued",
        JobPhase::Running => "running",
        JobPhase::Done => "done",
    };
    Value::Object(vec![
        ("job".to_string(), Value::Int(id as i128)),
        ("status".to_string(), Value::String(phase.to_string())),
    ])
    .to_string_pretty()
    .into_bytes()
}

/// A closure for job bodies: takes the serialized report, populates the
/// cache, and builds the outcome from the *cached* allocation — cold and
/// hit responses are therefore the same bytes by construction.
fn cache_filler(
    cache: Arc<ReportCache>,
    key: u128,
) -> impl FnOnce(String) -> JobOutcome + Send {
    move |json: String| {
        let body: Arc<str> = Arc::from(json);
        cache.insert(key, Arc::clone(&body));
        JobOutcome { status: 200, body }
    }
}
