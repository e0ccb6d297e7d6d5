//! Dependency-free telemetry: atomic counters, gauges, and log-bucketed
//! latency histograms behind one statically-registered [`Metrics`] struct,
//! rendered as Prometheus text exposition for `GET /v1/metrics`.
//!
//! Design constraints, in order:
//!
//! * **Observation never changes results.** Every instrument here is fed
//!   from outside the sweep's data path (request framing, the job executor,
//!   [`SweepObserver`] tile callbacks). Nothing in this module enters cache
//!   fingerprints or report bytes — the knob-matrix CI job holds with
//!   telemetry active because telemetry *cannot* reach the output.
//! * **One registry, many views.** The server's [`ReportCache`] and
//!   [`JobManager`] share the context's `Arc<Metrics>`, and their
//!   `/v1/health` stats structs are read *from* these counters — health and
//!   `/v1/metrics` can never disagree because they are the same atomics.
//! * **Fixed cardinality.** Label sets are compile-time arrays
//!   ([`ROUTES`] × [`STATUS_CLASSES`]); unknown values collapse into
//!   `"other"`. A scrape allocates one `String` and reads atomics — no maps,
//!   no locks, no allocation per sample.
//!
//! Histograms bucket by powers of two over *microseconds*
//! (`le = 2^i µs`, `i = 0..`[`FINITE_BUCKETS`]`, plus `+Inf`), which spans
//! 1 µs to ~17.9 min in [`BUCKETS`]` = 32` buckets — relative error is
//! bounded by 2× everywhere, which is what a p99 over a log-normal-ish
//! latency distribution needs. Exposition follows the Prometheus histogram
//! convention: cumulative `_bucket{le=…}` counts with `le` in **seconds**,
//! plus `_sum` (seconds) and `_count`.
//!
//! [`ReportCache`]: crate::cache::ReportCache
//! [`JobManager`]: crate::jobs::JobManager
//! [`SweepObserver`]: saturn_core::SweepObserver

use saturn_core::{JsonTraceObserver, SweepObserver, TileSpan};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically increasing `u64`. Relaxed ordering throughout: counters
/// are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A non-negative instantaneous value (queue depth, resident bytes).
/// Updated by `set` under whatever lock already guards the source of truth,
/// so reads are consistent with the owning structure's own accounting.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of finite bucket bounds: `le = 2^i` µs for `i = 0..FINITE_BUCKETS`.
pub const FINITE_BUCKETS: usize = 31;

/// Total buckets, including the final `+Inf` overflow bucket.
pub const BUCKETS: usize = FINITE_BUCKETS + 1;

/// Lock-free log₂-bucketed latency histogram over microseconds.
///
/// `observe` is one relaxed `fetch_add` per sample plus two for count/sum;
/// concurrent recorders never contend on anything but cache lines. The
/// exposition renders the buckets; a reader's quantile is the upper bound
/// of the bucket holding its rank, an overestimate by at most 2×.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

/// The finite upper bound of bucket `i`, in microseconds.
pub fn bucket_bound_micros(i: usize) -> u64 {
    debug_assert!(i < FINITE_BUCKETS);
    1u64 << i
}

/// Index of the bucket whose bound is the smallest `2^i` µs ≥ `micros`
/// (values past the largest finite bound land in the `+Inf` bucket).
fn bucket_index(micros: u64) -> usize {
    if micros <= 1 {
        return 0;
    }
    let i = (64 - (micros - 1).leading_zeros()) as usize;
    i.min(FINITE_BUCKETS)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample of `micros` microseconds.
    pub fn observe_micros(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Records one duration sample.
    pub fn observe(&self, d: Duration) {
        self.observe_micros(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Non-cumulative per-bucket counts, for tests and custom reports.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// Route labels of `saturn_requests_total`, in exposition order. Paths the
/// server does not route (and malformed requests) count as `"other"`.
pub const ROUTES: [&str; 8] =
    ["analyze", "validate", "stats", "streams", "health", "jobs", "metrics", "other"];

/// Status-class labels of `saturn_requests_total`. Bounded on purpose:
/// per-code label cardinality grows without limit under fuzzing, classes
/// do not.
pub const STATUS_CLASSES: [&str; 4] = ["2xx", "4xx", "5xx", "other"];

/// The route label of a request path.
pub fn route_label(path: &str) -> &'static str {
    match path {
        "/v1/analyze" => "analyze",
        "/v1/validate" => "validate",
        "/v1/stats" => "stats",
        "/v1/health" => "health",
        "/v1/metrics" => "metrics",
        p if p.starts_with("/v1/jobs/") => "jobs",
        p if p.starts_with("/v1/streams") => "streams",
        _ => "other",
    }
}

fn route_index(route: &str) -> usize {
    ROUTES.iter().position(|&r| r == route).unwrap_or(ROUTES.len() - 1)
}

fn status_index(status: u16) -> usize {
    match status {
        200..=299 => 0,
        400..=499 => 1,
        500..=599 => 2,
        _ => 3,
    }
}

/// Wall-time breakdown of one HTTP request, measured on the connection
/// thread. `parse` runs from the first read to a complete parsed request,
/// so it includes the time the peer takes to *send* the request (and, on a
/// keep-alive connection, the idle wait for its first byte); `handle` is
/// routing plus the synchronous wait for the job outcome; `serialize` is
/// response emission to the socket. Queue wait and sweep execution are
/// recorded separately by the job executor ([`Metrics::queue_wait_seconds`],
/// [`Metrics::sweep_seconds`]) because a `202 Accepted` job outlives its
/// request.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestTimings {
    /// Read + parse of the request head and body.
    pub parse: Duration,
    /// Routing and (synchronous) job wait.
    pub handle: Duration,
    /// Response write to the socket.
    pub serialize: Duration,
}

impl RequestTimings {
    /// End-to-end wall time.
    pub fn total(&self) -> Duration {
        self.parse + self.handle + self.serialize
    }
}

/// The server's metric registry. One instance per [`crate::Server`], shared
/// by `Arc` with the cache, the job manager, and every connection thread.
/// See the crate docs of [`crate`] for the full exported-metric table.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `saturn_requests_total{route,status}`.
    requests: [[Counter; STATUS_CLASSES.len()]; ROUTES.len()],
    /// `saturn_queue_depth` — jobs waiting (not running).
    pub queue_depth: Gauge,
    /// `saturn_parse_seconds` — request read + parse (includes peer I/O).
    pub parse_seconds: Histogram,
    /// `saturn_handle_seconds` — routing + synchronous job wait.
    pub handle_seconds: Histogram,
    /// `saturn_serialize_seconds` — response write.
    pub serialize_seconds: Histogram,
    /// `saturn_request_seconds` — end-to-end request wall time.
    pub request_seconds: Histogram,
    /// `saturn_queue_wait_seconds` — job pop latency after submit.
    pub queue_wait_seconds: Histogram,
    /// `saturn_sweep_seconds` — job execution wall time on the pool.
    pub sweep_seconds: Histogram,
    /// `saturn_tile_seconds` — one `(scale, tile)` DP wall time.
    pub tile_seconds: Histogram,
    /// `saturn_cache_hits_total`.
    pub cache_hits: Counter,
    /// `saturn_cache_misses_total`.
    pub cache_misses: Counter,
    /// `saturn_cache_evictions_total`.
    pub cache_evictions: Counter,
    /// `saturn_cache_bytes` — resident report bytes.
    pub cache_bytes: Gauge,
    /// `saturn_cache_entries` — resident reports.
    pub cache_entries: Gauge,
    /// `saturn_cache_disk_hits_total` — disk lookups that served a body.
    pub cache_disk_hits: Counter,
    /// `saturn_cache_disk_misses_total` — disk lookups that found nothing.
    pub cache_disk_misses: Counter,
    /// `saturn_cache_disk_writes_total` — entries durably spilled to disk.
    pub cache_disk_writes: Counter,
    /// `saturn_cache_disk_evictions_total` — disk entries evicted for space.
    pub cache_disk_evictions: Counter,
    /// `saturn_cache_disk_corrupt_total` — entries quarantined as torn,
    /// corrupt, or oversize (checksum/length mismatch ⇒ delete, never serve).
    pub cache_disk_corrupt: Counter,
    /// `saturn_cache_disk_errors_total` — disk I/O failures (each trips the
    /// circuit breaker toward memory-only mode).
    pub cache_disk_errors: Counter,
    /// `saturn_cache_disk_bytes` — bytes resident in the disk tier.
    pub cache_disk_bytes: Gauge,
    /// `saturn_jobs_executed_total` — jobs run to any outcome.
    pub jobs_executed: Counter,
    /// `saturn_jobs_completed_total` — jobs with their own 2xx/4xx outcome.
    pub jobs_completed: Counter,
    /// `saturn_jobs_cancelled_total` — deadline / drain / fault 504s.
    pub jobs_cancelled: Counter,
    /// `saturn_jobs_panicked_total` — jobs whose work panicked (500s).
    pub jobs_panicked: Counter,
    /// `saturn_jobs_coalesced_total` — submissions attached to in-flight
    /// duplicates.
    pub jobs_coalesced: Counter,
    /// `saturn_jobs_rejected_total` — submissions refused with any 503.
    pub jobs_rejected: Counter,
    /// `saturn_jobs_deadline_rejected_total` — admission-control refusals.
    pub jobs_deadline_rejected: Counter,
    /// `saturn_executor_restarts_total` — supervisor restarts of an
    /// executor (death or stall escalation).
    pub executor_restarts: Counter,
    /// `saturn_sweep_tiles_total` — `(scale, tile)` items completed.
    pub sweep_tiles: Counter,
    /// `saturn_sweep_scales_total` — scales fully analyzed.
    pub sweep_scales: Counter,
    /// `saturn_dp_trips_total` — minimal trips reported by the engines.
    pub dp_trips: Counter,
    /// `saturn_dp_traversals_total` — edge traversals processed.
    pub dp_traversals: Counter,
    /// `saturn_dp_chain_offers_total` — source cells merged after delta
    /// filtering.
    pub dp_chain_offers: Counter,
    /// `saturn_dp_snap_entries_total` — snapshot cells copied after
    /// filtering.
    pub dp_snap_entries: Counter,
    /// `saturn_dp_degree1_steps_total` — degree-1 fast-path steps.
    pub dp_degree1_steps: Counter,
    /// `saturn_stream_sessions_open` — live streaming ingest sessions.
    pub stream_sessions_open: Gauge,
    /// `saturn_stream_sessions_opened_total` — sessions ever created.
    pub stream_sessions_opened: Counter,
    /// `saturn_stream_sessions_expired_total` — sessions evicted by TTL.
    pub stream_sessions_expired: Counter,
    /// `saturn_stream_events_appended_total` — events accepted into
    /// session builders (create bodies and `/events` batches).
    pub stream_events_appended: Counter,
    /// `saturn_stream_refreshes_total` — incremental re-analyses completed.
    pub stream_refreshes: Counter,
    /// `saturn_stream_scales_reused_total` — scales served verbatim from a
    /// session's sweep cache (histogram reused, DP skipped).
    pub stream_scales_reused: Counter,
    /// `saturn_stream_suffix_windows_rebuilt_total` — timeline windows
    /// rebuilt by suffix splices (the incremental work actually done).
    pub stream_suffix_windows_rebuilt: Counter,
    /// `saturn_stream_dp_steps_skipped_total` — non-empty DP steps that
    /// refreshes resumed from a checkpoint did not re-run, over tiles.
    pub stream_dp_steps_skipped: Counter,
    /// `saturn_stream_stale_refreshes_total` — refreshes whose snapshot
    /// was outrun by a newer refresh of the same session and therefore ran
    /// from scratch, leaving the session cache alone.
    pub stream_stale_refreshes: Counter,
}

impl Metrics {
    /// A registry with every instrument at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one finished request and records its stage timings.
    pub fn observe_request(&self, route: &str, status: u16, timings: &RequestTimings) {
        self.requests[route_index(route)][status_index(status)].inc();
        self.parse_seconds.observe(timings.parse);
        self.handle_seconds.observe(timings.handle);
        self.serialize_seconds.observe(timings.serialize);
        self.request_seconds.observe(timings.total());
    }

    /// Folds one completed sweep tile into the aggregates.
    pub fn observe_tile(&self, span: &TileSpan) {
        self.sweep_tiles.inc();
        if span.last_tile_of_scale {
            self.sweep_scales.inc();
        }
        self.tile_seconds.observe(Duration::from_secs_f64(span.seconds.max(0.0)));
        self.dp_trips.add(span.trips);
        self.dp_traversals.add(span.traversals);
        self.dp_chain_offers.add(span.chain_offers);
        self.dp_snap_entries.add(span.snap_entries);
        self.dp_degree1_steps.add(span.degree1_steps);
    }

    /// Renders the whole registry as Prometheus text exposition
    /// (`text/plain; version=0.0.4`). Every label combination is emitted,
    /// zeros included, so scrapes are shape-stable from the first request.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(8 * 1024);
        writeln!(out, "# HELP saturn_requests_total HTTP requests by route and status class.")
            .unwrap();
        writeln!(out, "# TYPE saturn_requests_total counter").unwrap();
        for (ri, route) in ROUTES.iter().enumerate() {
            for (si, class) in STATUS_CLASSES.iter().enumerate() {
                writeln!(
                    out,
                    "saturn_requests_total{{route=\"{route}\",status=\"{class}\"}} {}",
                    self.requests[ri][si].get()
                )
                .unwrap();
            }
        }
        for (name, help, gauge) in [
            ("saturn_queue_depth", "Jobs waiting in the queue.", &self.queue_depth),
            ("saturn_cache_bytes", "Resident report-cache bytes.", &self.cache_bytes),
            ("saturn_cache_entries", "Resident report-cache entries.", &self.cache_entries),
            (
                "saturn_cache_disk_bytes",
                "Bytes resident in the disk tier.",
                &self.cache_disk_bytes,
            ),
            (
                "saturn_stream_sessions_open",
                "Live streaming ingest sessions.",
                &self.stream_sessions_open,
            ),
        ] {
            writeln!(out, "# HELP {name} {help}").unwrap();
            writeln!(out, "# TYPE {name} gauge").unwrap();
            writeln!(out, "{name} {}", gauge.get()).unwrap();
        }
        for (name, help, counter) in [
            (
                "saturn_cache_hits_total",
                "Cache lookups that returned a body.",
                &self.cache_hits,
            ),
            (
                "saturn_cache_misses_total",
                "Cache lookups that found nothing.",
                &self.cache_misses,
            ),
            ("saturn_cache_evictions_total", "Cache entries evicted.", &self.cache_evictions),
            (
                "saturn_cache_disk_hits_total",
                "Disk-tier lookups that served a body.",
                &self.cache_disk_hits,
            ),
            (
                "saturn_cache_disk_misses_total",
                "Disk-tier lookups that found nothing.",
                &self.cache_disk_misses,
            ),
            (
                "saturn_cache_disk_writes_total",
                "Entries durably spilled to disk.",
                &self.cache_disk_writes,
            ),
            (
                "saturn_cache_disk_evictions_total",
                "Disk-tier entries evicted for space.",
                &self.cache_disk_evictions,
            ),
            (
                "saturn_cache_disk_corrupt_total",
                "Disk entries quarantined as torn or corrupt.",
                &self.cache_disk_corrupt,
            ),
            (
                "saturn_cache_disk_errors_total",
                "Disk I/O failures (trip the circuit breaker).",
                &self.cache_disk_errors,
            ),
            (
                "saturn_jobs_executed_total",
                "Jobs executed to any outcome.",
                &self.jobs_executed,
            ),
            (
                "saturn_jobs_completed_total",
                "Jobs with their own outcome.",
                &self.jobs_completed,
            ),
            ("saturn_jobs_cancelled_total", "Jobs cancelled (504).", &self.jobs_cancelled),
            (
                "saturn_jobs_panicked_total",
                "Jobs whose work panicked (500).",
                &self.jobs_panicked,
            ),
            (
                "saturn_jobs_coalesced_total",
                "Submissions attached to in-flight duplicates.",
                &self.jobs_coalesced,
            ),
            ("saturn_jobs_rejected_total", "Submissions refused (503).", &self.jobs_rejected),
            (
                "saturn_jobs_deadline_rejected_total",
                "Admission-control refusals.",
                &self.jobs_deadline_rejected,
            ),
            (
                "saturn_executor_restarts_total",
                "Supervisor restarts of an executor (death or stall).",
                &self.executor_restarts,
            ),
            (
                "saturn_sweep_tiles_total",
                "Sweep (scale, tile) items completed.",
                &self.sweep_tiles,
            ),
            ("saturn_sweep_scales_total", "Sweep scales fully analyzed.", &self.sweep_scales),
            ("saturn_dp_trips_total", "Minimal trips reported.", &self.dp_trips),
            ("saturn_dp_traversals_total", "Edge traversals processed.", &self.dp_traversals),
            (
                "saturn_dp_chain_offers_total",
                "Source cells merged after delta filtering.",
                &self.dp_chain_offers,
            ),
            (
                "saturn_dp_snap_entries_total",
                "Snapshot cells copied after delta filtering.",
                &self.dp_snap_entries,
            ),
            (
                "saturn_dp_degree1_steps_total",
                "Degree-1 fast-path steps.",
                &self.dp_degree1_steps,
            ),
            (
                "saturn_stream_sessions_opened_total",
                "Streaming sessions ever created.",
                &self.stream_sessions_opened,
            ),
            (
                "saturn_stream_sessions_expired_total",
                "Streaming sessions evicted by TTL.",
                &self.stream_sessions_expired,
            ),
            (
                "saturn_stream_events_appended_total",
                "Events accepted into session builders.",
                &self.stream_events_appended,
            ),
            (
                "saturn_stream_refreshes_total",
                "Incremental re-analyses completed.",
                &self.stream_refreshes,
            ),
            (
                "saturn_stream_scales_reused_total",
                "Scales served verbatim from a session sweep cache.",
                &self.stream_scales_reused,
            ),
            (
                "saturn_stream_suffix_windows_rebuilt_total",
                "Timeline windows rebuilt by suffix splices.",
                &self.stream_suffix_windows_rebuilt,
            ),
            (
                "saturn_stream_dp_steps_skipped_total",
                "Non-empty DP steps not re-run by refreshes resumed from a checkpoint.",
                &self.stream_dp_steps_skipped,
            ),
            (
                "saturn_stream_stale_refreshes_total",
                "Refreshes outrun by a newer refresh of the session (ran from scratch).",
                &self.stream_stale_refreshes,
            ),
        ] {
            writeln!(out, "# HELP {name} {help}").unwrap();
            writeln!(out, "# TYPE {name} counter").unwrap();
            writeln!(out, "{name} {}", counter.get()).unwrap();
        }
        for (name, help, histogram) in [
            (
                "saturn_parse_seconds",
                "Request read + parse wall time (includes peer I/O).",
                &self.parse_seconds,
            ),
            ("saturn_handle_seconds", "Routing + synchronous job wait.", &self.handle_seconds),
            ("saturn_serialize_seconds", "Response write wall time.", &self.serialize_seconds),
            ("saturn_request_seconds", "End-to-end request wall time.", &self.request_seconds),
            (
                "saturn_queue_wait_seconds",
                "Job queue wait before execution.",
                &self.queue_wait_seconds,
            ),
            ("saturn_sweep_seconds", "Job execution wall time.", &self.sweep_seconds),
            ("saturn_tile_seconds", "One (scale, tile) DP wall time.", &self.tile_seconds),
        ] {
            render_histogram(&mut out, name, help, histogram);
        }
        out
    }
}

/// Emits one histogram family: cumulative buckets with `le` in seconds,
/// then `_sum` (seconds) and `_count`.
fn render_histogram(out: &mut String, name: &str, help: &str, histogram: &Histogram) {
    writeln!(out, "# HELP {name} {help}").unwrap();
    writeln!(out, "# TYPE {name} histogram").unwrap();
    let counts = histogram.bucket_counts();
    let mut cumulative: u64 = 0;
    for (i, &c) in counts.iter().take(FINITE_BUCKETS).enumerate() {
        cumulative = cumulative.saturating_add(c);
        let le = bucket_bound_micros(i) as f64 / 1e6;
        writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}").unwrap();
    }
    writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", histogram.count()).unwrap();
    writeln!(out, "{name}_sum {}", histogram.sum_micros() as f64 / 1e6).unwrap();
    writeln!(out, "{name}_count {}", histogram.count()).unwrap();
}

/// The [`SweepObserver`] the job manager threads into every sweep: folds
/// tile spans into the registry, optionally mirroring each span to stderr
/// through [`JsonTraceObserver`] when `SATURN_TRACE=json` was set at server
/// start.
#[derive(Debug)]
pub struct MetricsSweepObserver {
    metrics: Arc<Metrics>,
    trace_json: bool,
}

impl MetricsSweepObserver {
    /// An observer over `metrics`; `trace_json` mirrors spans to stderr.
    pub fn new(metrics: Arc<Metrics>, trace_json: bool) -> Self {
        MetricsSweepObserver { metrics, trace_json }
    }
}

impl SweepObserver for MetricsSweepObserver {
    fn tile_done(&self, span: &TileSpan) {
        self.metrics.observe_tile(span);
        if self.trace_json {
            JsonTraceObserver.tile_done(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // 0 and 1 µs share the first bucket (le = 1 µs)
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        // exact powers land in their own bucket, one past goes up, and the
        // first value above the previous bound opens the bucket
        for i in 1..FINITE_BUCKETS {
            let bound = bucket_bound_micros(i);
            assert_eq!(bucket_index(bound), i, "bound {bound}");
            assert_eq!(bucket_index(bound / 2 + 1), i, "bound {bound}");
            assert_eq!(bucket_index(bound + 1), (i + 1).min(FINITE_BUCKETS), "bound {bound}");
        }
        // far past the largest finite bound: overflow bucket
        assert_eq!(bucket_index(u64::MAX), FINITE_BUCKETS);
    }

    #[test]
    fn overflow_bucket_reports_the_largest_finite_bound() {
        let h = Histogram::new();
        h.observe_micros(bucket_bound_micros(FINITE_BUCKETS - 1));
        h.observe_micros(u64::MAX);
        let counts = h.bucket_counts();
        assert_eq!(counts[FINITE_BUCKETS - 1], 1, "the largest finite bound is its own bucket");
        assert_eq!(counts[FINITE_BUCKETS], 1, "anything past it lands in +Inf");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn saturating_cumulative_counts_stay_ordered() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.observe_micros(5);
        }
        // every sample lands in the le = 8 µs bucket and nowhere else
        let mut expected = [0u64; BUCKETS];
        expected[3] = 1000;
        assert_eq!(h.bucket_counts(), expected);
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let m = Metrics::new();
        m.observe_request(
            "analyze",
            200,
            &RequestTimings {
                parse: Duration::from_micros(40),
                handle: Duration::from_millis(3),
                serialize: Duration::from_micros(90),
            },
        );
        m.cache_hits.inc();
        m.queue_depth.set(2);
        m.stream_sessions_open.set(1);
        m.stream_scales_reused.add(7);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE saturn_requests_total counter"));
        assert!(text.contains("saturn_stream_sessions_open 1"));
        assert!(text.contains("saturn_stream_scales_reused_total 7"));
        assert!(text.contains("saturn_requests_total{route=\"streams\",status=\"2xx\"} 0"));
        assert!(text.contains("saturn_requests_total{route=\"analyze\",status=\"2xx\"} 1"));
        assert!(text.contains("saturn_requests_total{route=\"other\",status=\"other\"} 0"));
        assert!(text.contains("saturn_queue_depth 2"));
        assert!(text.contains("saturn_cache_hits_total 1"));
        assert!(text.contains("saturn_executor_restarts_total 0"));
        assert!(text.contains("# TYPE saturn_request_seconds histogram"));
        assert!(text.contains("saturn_request_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("saturn_request_seconds_count 1"));
        // every line is a comment or `name[{labels}] value`
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                continue;
            }
            let (_name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "unparsable value in `{line}`");
        }
    }

    #[test]
    fn route_labels_cover_the_service_surface() {
        assert_eq!(route_label("/v1/analyze"), "analyze");
        assert_eq!(route_label("/v1/jobs/17"), "jobs");
        assert_eq!(route_label("/v1/metrics"), "metrics");
        assert_eq!(route_label("/v1/streams"), "streams");
        assert_eq!(route_label("/v1/streams/3/events"), "streams");
        assert_eq!(route_label("/v1/streams/3/analyze"), "streams");
        assert_eq!(route_label("/nope"), "other");
    }

    #[test]
    fn observe_tile_aggregates_spans() {
        let m = Metrics::new();
        let span = TileSpan {
            k: 12,
            col_start: 0,
            col_len: 8,
            seconds: 0.002,
            trips: 5,
            traversals: 100,
            chain_offers: 40,
            snap_entries: 30,
            degree1_steps: 7,
            last_tile_of_scale: true,
        };
        m.observe_tile(&span);
        m.observe_tile(&TileSpan { last_tile_of_scale: false, ..span });
        assert_eq!(m.sweep_tiles.get(), 2);
        assert_eq!(m.sweep_scales.get(), 1);
        assert_eq!(m.dp_trips.get(), 10);
        assert_eq!(m.dp_degree1_steps.get(), 14);
        assert_eq!(m.tile_seconds.count(), 2);
    }
}
