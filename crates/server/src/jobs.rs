//! The deadline-aware job system: one bounded FIFO queue drained by N
//! executor threads, each owning its own [`WorkerPool`], and one supervisor
//! thread that enforces deadlines, restarts dead executors and unwedges
//! stalled ones.
//!
//! Design points:
//!
//! * **One queue, N executors.** `--executors N` starts N executor
//!   threads that pop from the same queue in submission order, so the
//!   queue is work-conserving: a job waits only while every executor is
//!   busy. The executor count never enters fingerprints or report bytes:
//!   which executor runs a sweep affects only *where* it runs, never *what*
//!   it computes.
//! * **One pool per executor, many connections.** `WorkerPool::map` takes
//!   `&mut self` (one round in flight per pool), so each executor thread
//!   owns its pool, and each sweep round runs on scoped workers that the
//!   executor spawns and joins. Connection threads never spawn workers;
//!   they enqueue and wait. The `--threads` total is split evenly across
//!   executors, and there are never more executors than threads
//!   ([`executor_layout`]).
//! * **Supervised recovery.** The supervisor watches every executor
//!   slot. An executor that dies (a panic escaping `catch_unwind`, e.g. a
//!   poisoned job-state lock, or the `executor_die` fault) is restarted
//!   with capped exponential backoff; its in-flight job is finalized as a
//!   structured `500` carrying partial progress, and the queue is
//!   untouched. An executor making no sweep progress past the stall budget
//!   first gets its running job token-cancelled
//!   ([`CancelCause::Stalled`]); if it ignores the token for another
//!   budget, the wedged thread is abandoned and a fresh executor takes its
//!   slot — one hostile request cannot freeze unrelated traffic.
//! * **Bounded queue, 503 backpressure.** [`JobManager::submit_with`]
//!   refuses work beyond the configured depth, while the server is
//!   draining, and — admission control — when the EWMA-based wait
//!   estimate already exceeds the request's deadline. The estimate is the
//!   pooled backlog (queued + running) × the EWMA of job service seconds /
//!   N. Every [`Reject`] maps to `503` with a `Retry-After` hint of that
//!   estimate plus one service time.
//! * **Deadlines are enforced, not advisory.** Every tick (10 ms) the
//!   supervisor finalizes queued jobs past their deadline as structured
//!   `504`s without executing them, and fires the [`CancelToken`] of a
//!   running job past its deadline; the sweep stops cooperatively at its
//!   next tile / DP stride poll and reports partial progress
//!   (`scales_done` / `scales_total`). Cancelled jobs never populate the
//!   response cache. A deadline may fire a tick late, which no client
//!   sees: [`JobManager::wait_until`] answers each waiter on its own
//!   deadline, and admission treats a job past its deadline as doomed. A
//!   zero stall budget turns off only the stall checks, never deadlines.
//! * **In-flight coalescing.** Jobs carry the request's content
//!   fingerprint; a submission whose fingerprint matches a queued or
//!   running job attaches to it instead of recomputing, so N concurrent
//!   clients posting the same trace cost one sweep and observe
//!   byte-identical bodies (they share the completed job's `Arc<str>`). An
//!   impatient coalesced waiter times out alone via
//!   [`JobManager::wait_until`]; the shared job keeps running.
//! * **Async retrieval.** Every submission gets a job id; `POST …?async=1`
//!   returns it immediately and `GET /v1/jobs/<id>` polls (or blocks with
//!   `?wait=1`) for the outcome. Finished jobs are retained up to
//!   [`RETAINED_JOBS`] before the oldest are dropped.
//! * **Drain joins every executor.** Lame-duck drain stops admission,
//!   waits for the queue to empty and every executor to go idle within the
//!   budget, then cuts the queue and cancels every running job.
//! * **Spill-on-complete ordering.** A completing job populates the cache
//!   from inside its work closure on the executor thread, which *enqueues*
//!   the disk spill (see [`crate::persist`]) before the outcome publishes
//!   to waiters — a report is never observable without also being on its
//!   way to durability. The disk write itself is asynchronous; the
//!   server's drain paths call `cache.flush` after [`JobManager::drain`]
//!   so every accepted job's spill is durable before exit.
//!
//! [`CancelToken`]: saturn_core::CancelToken

use crate::faults::FaultPlan;
use crate::metrics::{Metrics, MetricsSweepObserver};
use saturn_core::parallel::WorkerPool;
use saturn_core::{json_trace_from_env, SweepControl, SweepObserver};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Completed jobs kept for `GET /v1/jobs/<id>` before the oldest are
/// forgotten.
pub const RETAINED_JOBS: usize = 512;

/// Default liveness budget: a running job making no sweep progress for
/// this long is token-cancelled; for twice this long, its executor is
/// abandoned and replaced.
pub const DEFAULT_STALL_BUDGET: Duration = Duration::from_secs(300);

/// Smoothing factor for the EWMA of job service seconds (weight of the
/// newest sample).
const EWMA_ALPHA: f64 = 0.3;

/// How long a drain waits for a cancelled straggler to observe its token
/// after the drain budget itself is spent.
const DRAIN_GRACE: Duration = Duration::from_secs(30);

/// Supervisor polling cadence for deadlines and executor liveness.
const SUPERVISOR_TICK: Duration = Duration::from_millis(10);

/// First restart delay after an executor death; doubles per consecutive
/// death up to [`RESTART_BACKOFF_CAP`].
const RESTART_BACKOFF_BASE: Duration = Duration::from_millis(100);

/// Ceiling on the exponential restart backoff.
const RESTART_BACKOFF_CAP: Duration = Duration::from_secs(5);

/// An executor slot healthy for this long after a restart has its backoff
/// streak forgiven.
const RESTART_STREAK_RESET: Duration = Duration::from_secs(30);

/// The work of one job: runs on an executor thread against that
/// executor's pool and its own [`JobCtx`], returns the HTTP status and
/// serialized body of the outcome.
pub type JobWork = Box<dyn FnOnce(&mut WorkerPool, &JobCtx) -> JobOutcome + Send>;

/// Terminal result of a job, served verbatim to every attached client.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// HTTP status of the response (200, or a 4xx/5xx the job produced).
    pub status: u16,
    /// Serialized JSON body.
    pub body: Arc<str>,
}

/// Why a job's cancel token fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelCause {
    /// The request's deadline expired while queued or running.
    Deadline,
    /// The server is draining for shutdown.
    Drain,
    /// A fault-injection directive fired the token.
    Injected,
    /// The supervisor saw no sweep progress past the stall budget.
    Stalled,
}

/// Per-job cancellation and progress context, shared between the executor,
/// the supervisor, and waiting request handlers.
#[derive(Debug)]
pub struct JobCtx {
    /// Cancel token + progress counters threaded into the sweep.
    pub control: SweepControl,
    /// First cause to fire the token (0 = none); later causes lose the race.
    cause: AtomicU8,
}

impl JobCtx {
    fn new(observer: Arc<dyn SweepObserver>) -> Arc<JobCtx> {
        Arc::new(JobCtx {
            control: SweepControl::with_observer(observer),
            cause: AtomicU8::new(0),
        })
    }

    /// True once any cancel cause has been recorded.
    pub fn is_cancelled(&self) -> bool {
        self.cause.load(Ordering::Acquire) != 0
    }

    /// Fires the job's token, recording `cause` if none was recorded yet.
    pub fn cancel(&self, cause: CancelCause) {
        let code = match cause {
            CancelCause::Deadline => 1,
            CancelCause::Drain => 2,
            CancelCause::Injected => 3,
            CancelCause::Stalled => 4,
        };
        let _ = self.cause.compare_exchange(0, code, Ordering::AcqRel, Ordering::Acquire);
        self.control.cancel.cancel();
    }

    fn cause_text(&self) -> &'static str {
        match self.cause.load(Ordering::Acquire) {
            1 => "deadline exceeded",
            2 => "cancelled: server draining",
            3 => "cancelled: injected fault",
            4 => "cancelled: executor stalled",
            _ => "cancelled",
        }
    }

    fn cause_code(&self) -> &'static str {
        match self.cause.load(Ordering::Acquire) {
            1 => "deadline_exceeded",
            2 => "draining",
            3 => "fault_injected",
            4 => "stalled",
            _ => "cancelled",
        }
    }

    /// The structured 504 outcome of a cancelled job, carrying how far the
    /// sweep got.
    pub fn cancelled_outcome(&self) -> JobOutcome {
        let (done, total) = self.control.progress.snapshot();
        JobOutcome {
            status: 504,
            body: Arc::from(timeout_body(self.cause_code(), self.cause_text(), done, total)),
        }
    }
}

/// The JSON body of a `504` (or of a client-side deadline expiry, or of a
/// supervisor-finalized `500`): the standard [`crate::error_envelope`]
/// carrying partial progress in whole scales, or in `(tile, scale)` items
/// for validation. Cancellations are retryable by definition — the request
/// itself was fine.
pub fn timeout_body(code: &str, error: &str, scales_done: u64, scales_total: u64) -> String {
    crate::error_envelope(code, error, true, Some((scales_done, scales_total)))
}

/// What kind of sweep a job runs — selects the fault-injection site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Occupancy sweep (`POST /v1/analyze`).
    Analyze,
    /// Validation sweep (`POST /v1/validate`).
    Validate,
    /// Anything else (tests).
    Other,
}

impl JobKind {
    fn site(self) -> crate::faults::FaultSite {
        match self {
            JobKind::Analyze => crate::faults::FaultSite::Analyze,
            JobKind::Validate => crate::faults::FaultSite::Validate,
            JobKind::Other => crate::faults::FaultSite::Job,
        }
    }
}

/// Lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum JobPhase {
    /// Waiting in the queue.
    Queued,
    /// Executing on an executor's pool.
    Running,
    /// Finished; the outcome is available.
    Done,
}

/// `submit` refusal. Every variant maps to `503` with a `Retry-After`
/// hint computed from the pooled backlog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The bounded queue is at capacity.
    QueueFull {
        /// Suggested client backoff, from the EWMA backlog estimate.
        retry_after_secs: u32,
    },
    /// Admission control: the estimated queue wait already exceeds the
    /// request's deadline, so executing it would only waste a pool.
    WouldExpire {
        /// The wait estimate that exceeded the deadline.
        estimated_wait_ms: u64,
        /// Suggested client backoff.
        retry_after_secs: u32,
    },
    /// The server is draining for shutdown and admits no new work.
    Draining,
}

struct JobRecord {
    phase: JobPhase,
    outcome: Option<JobOutcome>,
    fingerprint: Option<u128>,
    ctx: Arc<JobCtx>,
    deadline: Option<Instant>,
    kind: JobKind,
    /// When the job entered the queue — the executor turns this into the
    /// `saturn_queue_wait_seconds` sample when it pops the job.
    queued_at: Instant,
}

/// One executor's slot: its running job and the liveness and restart
/// bookkeeping the supervisor reads.
#[derive(Default)]
struct ExecutorSlot {
    running: Option<u64>,
    /// `(scales_done, observed_at)` of the running job the last time the
    /// supervisor saw its progress move — no movement past the stall
    /// budget means the executor is wedged.
    progress_mark: Option<(u64, Instant)>,
    /// Whether the stall escalation already fired the running job's token.
    stall_fired: bool,
    /// Bumped by the supervisor on every restart; an executor whose spawn
    /// generation no longer matches is a zombie and must discard its work.
    generation: u64,
    /// Live (or just-finished) executor thread; `None` while waiting out a
    /// restart backoff, or after a wedged thread was abandoned.
    handle: Option<JoinHandle<()>>,
    /// Consecutive restarts without [`RESTART_STREAK_RESET`] of health.
    restart_streak: u32,
    last_restart: Option<Instant>,
    /// When the backoff expires and a replacement may spawn.
    respawn_at: Option<Instant>,
}

struct State {
    queue: VecDeque<(u64, JobWork)>,
    executors: Vec<ExecutorSlot>,
    /// EWMA of job service seconds over every executor (0 until the first
    /// job finishes).
    ewma_secs: f64,
    jobs: HashMap<u64, JobRecord>,
    /// fingerprint → id of the queued/running job computing it.
    inflight: HashMap<u128, u64>,
    /// Completion order, for bounding retention.
    finished: VecDeque<u64>,
    next_id: u64,
    draining: bool,
    shutdown: bool,
}

impl State {
    fn running(&self) -> usize {
        self.executors.iter().filter(|e| e.running.is_some()).count()
    }

    fn idle(&self) -> bool {
        self.queue.is_empty() && self.running() == 0
    }
}

struct Shared {
    state: Mutex<State>,
    /// Pokes an idle executor when the queue grows.
    work_available: Condvar,
    job_done: Condvar,
    /// Pokes the supervisor out of its tick sleep at shutdown.
    supervisor_wake: Condvar,
    /// Lifecycle counters (executed / completed / cancelled / panicked /
    /// coalesced / rejected / deadline_rejected / executor restarts), the
    /// queue-depth gauge, and the queue-wait and sweep histograms.
    /// `/v1/health`'s [`JobStats`] is a view over these same atomics,
    /// mutated only while `state`'s lock is held.
    metrics: Arc<Metrics>,
    /// Fault-injection plan consulted at the executor seams.
    faults: Option<Arc<FaultPlan>>,
    /// Pool parallelism per executor.
    pool_threads: usize,
    /// Liveness budget for stall supervision (zero disables it).
    stall_budget: Duration,
}

/// Queue counters, serialized into `/v1/health`.
#[derive(Clone, Debug, Serialize)]
pub struct JobStats {
    /// Jobs currently queued (not yet running).
    pub queued: usize,
    /// Configured queue bound.
    pub queue_depth: usize,
    /// Jobs currently executing (0 ..= executors).
    pub running: usize,
    /// Jobs executed to completion (any outcome).
    pub executed: u64,
    /// Jobs that finished with their own outcome (not cancelled, did not
    /// panic).
    pub completed: u64,
    /// Jobs cancelled by deadline, drain, stall, or injected fault
    /// (`504`s).
    pub cancelled: u64,
    /// Jobs whose work panicked, including executor deaths (`500`s).
    pub panicked: u64,
    /// Submissions attached to an in-flight duplicate.
    pub coalesced: u64,
    /// Submissions refused with any [`Reject`].
    pub rejected: u64,
    /// Refusals by deadline admission control specifically.
    pub deadline_rejected: u64,
    /// EWMA of job service seconds (0 until the first job finishes).
    pub ewma_job_secs: f64,
    /// Executor threads draining the queue ([`executor_layout`]).
    pub executors: usize,
    /// Supervisor restarts of any executor.
    pub executor_restarts: u64,
}

/// Outcome of [`JobManager::wait_until`].
#[derive(Clone, Debug)]
pub enum WaitOutcome {
    /// The job finished; here is its outcome.
    Done(JobOutcome),
    /// The caller's own deadline expired first; the job keeps running for
    /// any more patient (coalesced) waiters. Carries the job's progress at
    /// expiry.
    DeadlineExpired {
        /// Scales finished when the wait gave up.
        scales_done: u64,
        /// Scales planned in total.
        scales_total: u64,
    },
    /// No such job (expired from retention or never existed).
    Unknown,
}

/// Everything [`JobManager::with_config`] needs to lay out the executors.
#[derive(Clone, Debug)]
pub struct JobsConfig {
    /// Total pool parallelism across all executors (0 = all cores), split
    /// evenly per executor.
    pub threads: usize,
    /// Queue bound.
    pub queue_depth: usize,
    /// Executor count (0 = one per four cores, clamped to [1, 4]); capped
    /// at the resolved `threads` ([`executor_layout`]).
    pub executors: usize,
    /// Liveness budget for stall supervision
    /// ([`DEFAULT_STALL_BUDGET`]; zero disables stall supervision).
    pub stall_budget: Duration,
    /// Fault-injection plan consulted at the executor seams.
    pub faults: Option<Arc<FaultPlan>>,
}

impl JobsConfig {
    /// Defaults: one executor, the default stall budget, no faults.
    pub fn new(threads: usize, queue_depth: usize) -> JobsConfig {
        JobsConfig {
            threads,
            queue_depth,
            executors: 1,
            stall_budget: DEFAULT_STALL_BUDGET,
            faults: None,
        }
    }
}

/// Resolves a `--threads` / `--executors` request into `(executors, pool
/// threads per executor)`. `threads` 0 means every core; `executors` 0 is
/// the auto policy, one executor per four cores clamped to [1, 4]. The
/// executor count is capped at the thread count and the threads are split
/// evenly, so total pool parallelism never exceeds the resolved `threads`.
pub fn executor_layout(threads: usize, executors: usize) -> (usize, usize) {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = if threads == 0 { cores } else { threads };
    let executors = if executors == 0 { (cores / 4).clamp(1, 4) } else { executors };
    let executors = executors.min(threads);
    (executors, threads / executors)
}

/// Owner of the job table, the executor threads and the one supervisor
/// thread that spawns and monitors them.
pub struct JobManager {
    shared: Arc<Shared>,
    queue_depth: usize,
    /// Threaded into every job's [`SweepControl`]: folds tile spans into
    /// the registry and mirrors them to stderr under `SATURN_TRACE=json`.
    observer: Arc<dyn SweepObserver>,
    supervisor: Option<JoinHandle<()>>,
}

impl JobManager {
    /// Lays out the executors ([`executor_layout`]) and starts the
    /// supervisor, which spawns them and enforces deadlines. `metrics`
    /// is the shared registry where `/v1/metrics` and `/v1/health` must
    /// agree; `None` builds a private one.
    pub fn with_config(config: JobsConfig, metrics: Option<Arc<Metrics>>) -> Self {
        let (executors, pool_threads) = executor_layout(config.threads, config.executors);
        let metrics = metrics.unwrap_or_default();
        let observer: Arc<dyn SweepObserver> =
            Arc::new(MetricsSweepObserver::new(Arc::clone(&metrics), json_trace_from_env()));
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                executors: (0..executors).map(|_| ExecutorSlot::default()).collect(),
                ewma_secs: 0.0,
                jobs: HashMap::new(),
                inflight: HashMap::new(),
                finished: VecDeque::new(),
                next_id: 1,
                draining: false,
                shutdown: false,
            }),
            work_available: Condvar::new(),
            job_done: Condvar::new(),
            supervisor_wake: Condvar::new(),
            metrics,
            faults: config.faults,
            pool_threads,
            stall_budget: config.stall_budget,
        });
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("saturn-supervisor".into())
                .spawn(move || supervisor_loop(&shared))
                .expect("cannot spawn job supervisor")
        };
        JobManager {
            shared,
            queue_depth: config.queue_depth,
            observer,
            supervisor: Some(supervisor),
        }
    }

    /// Enqueues `work` with no deadline; see [`JobManager::submit_with`].
    pub fn submit(&self, fingerprint: Option<u128>, work: JobWork) -> Result<u64, Reject> {
        self.submit_with(fingerprint, None, JobKind::Other, 0, work)
    }

    /// Enqueues `work`, or attaches to an in-flight job computing the same
    /// `fingerprint`. Returns the job id to wait on, or a [`Reject`] when
    /// the server is draining, the queue is full, or — with a `deadline` —
    /// the EWMA wait estimate already exceeds it. The supervisor cancels
    /// the job once a `deadline` passes; `scales_hint` pre-seeds the
    /// progress total so even a job cancelled before its sweep starts
    /// reports a meaningful `scales_total`.
    pub fn submit_with(
        &self,
        fingerprint: Option<u128>,
        deadline: Option<Duration>,
        kind: JobKind,
        scales_hint: u64,
        work: JobWork,
    ) -> Result<u64, Reject> {
        let metrics = &self.shared.metrics;
        let mut state = self.shared.state.lock().expect("job state poisoned");
        if state.draining || state.shutdown {
            metrics.jobs_rejected.inc();
            return Err(Reject::Draining);
        }
        if let Some(key) = fingerprint {
            if let Some(&id) = state.inflight.get(&key) {
                // a cancelled job is doomed to a 504 and will never fill the
                // cache, and so is one past its deadline whose token the
                // supervisor has yet to fire; queue a fresh run instead of
                // chaining new waiters onto it (the insert below repoints
                // `inflight` at the new job, so the doomed one retires
                // without touching the map)
                let now = Instant::now();
                let doomed = state.jobs.get(&id).is_some_and(|r| {
                    r.ctx.is_cancelled() || r.deadline.is_some_and(|at| at <= now)
                });
                if !doomed {
                    metrics.jobs_coalesced.inc();
                    return Ok(id);
                }
            }
        }
        if state.queue.len() >= self.queue_depth {
            metrics.jobs_rejected.inc();
            return Err(Reject::QueueFull { retry_after_secs: retry_secs(&state) });
        }
        if let Some(budget) = deadline {
            let estimated = estimated_wait(&state);
            if estimated > budget {
                metrics.jobs_rejected.inc();
                metrics.jobs_deadline_rejected.inc();
                return Err(Reject::WouldExpire {
                    estimated_wait_ms: estimated.as_millis() as u64,
                    retry_after_secs: retry_secs(&state),
                });
            }
        }
        let id = state.next_id;
        state.next_id += 1;
        let ctx = JobCtx::new(Arc::clone(&self.observer));
        ctx.control.progress.set_total(scales_hint);
        let deadline_at = deadline.map(|budget| Instant::now() + budget);
        state.jobs.insert(
            id,
            JobRecord {
                phase: JobPhase::Queued,
                outcome: None,
                fingerprint,
                ctx,
                deadline: deadline_at,
                kind,
                queued_at: Instant::now(),
            },
        );
        if let Some(key) = fingerprint {
            state.inflight.insert(key, id);
        }
        state.queue.push_back((id, work));
        metrics.queue_depth.set(state.queue.len() as u64);
        drop(state);
        self.shared.work_available.notify_one();
        Ok(id)
    }

    /// Current phase of a job (`None` for unknown/expired ids).
    pub fn phase(&self, id: u64) -> Option<JobPhase> {
        let state = self.shared.state.lock().expect("job state poisoned");
        state.jobs.get(&id).map(|j| j.phase)
    }

    /// The outcome of a finished job, without blocking.
    pub fn outcome(&self, id: u64) -> Option<JobOutcome> {
        let state = self.shared.state.lock().expect("job state poisoned");
        state.jobs.get(&id).and_then(|j| j.outcome.clone())
    }

    /// Blocks until job `id` finishes and returns its outcome (`None` for
    /// unknown/expired ids).
    pub fn wait(&self, id: u64) -> Option<JobOutcome> {
        match self.wait_until(id, None) {
            WaitOutcome::Done(outcome) => Some(outcome),
            _ => None,
        }
    }

    /// Blocks until job `id` finishes or `deadline` passes, whichever
    /// comes first. A caller whose deadline fires while the job continues
    /// (the job may be shared with more patient coalesced waiters, or
    /// about to be cancelled by the supervisor) gets the job's progress
    /// snapshot back instead of an outcome.
    pub fn wait_until(&self, id: u64, deadline: Option<Instant>) -> WaitOutcome {
        let mut state = self.shared.state.lock().expect("job state poisoned");
        loop {
            let Some(job) = state.jobs.get(&id) else { return WaitOutcome::Unknown };
            if let Some(outcome) = &job.outcome {
                return WaitOutcome::Done(outcome.clone());
            }
            match deadline {
                None => state = self.shared.job_done.wait(state).expect("job state poisoned"),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        let (scales_done, scales_total) = job.ctx.control.progress.snapshot();
                        return WaitOutcome::DeadlineExpired { scales_done, scales_total };
                    }
                    state = self
                        .shared
                        .job_done
                        .wait_timeout(state, at - now)
                        .expect("job state poisoned")
                        .0;
                }
            }
        }
    }

    /// Stops admitting work and waits up to `budget` for the backlog to
    /// finish (the supervisor keeps restarting dead executors during the
    /// drain, so queued work still makes progress). Whatever is still
    /// queued when the budget runs out is finalized as a drain `504`
    /// without executing; still-running jobs have their tokens fired and
    /// get a short grace period to stop at their next cancellation poll.
    /// Returns the final stats.
    pub fn drain(&self, budget: Duration) -> JobStats {
        let give_up = Instant::now() + budget;
        let mut state = self.shared.state.lock().expect("job state poisoned");
        state.draining = true;
        while !state.idle() {
            let now = Instant::now();
            if now >= give_up {
                break;
            }
            state = self
                .shared
                .job_done
                .wait_timeout(state, give_up - now)
                .expect("job state poisoned")
                .0;
        }
        if !state.idle() {
            let cut: Vec<u64> = state.queue.drain(..).map(|(id, _)| id).collect();
            for id in cut {
                finalize_cancelled(&mut state, &self.shared.metrics, id, CancelCause::Drain);
            }
            for id in state.executors.iter().filter_map(|e| e.running) {
                if let Some(job) = state.jobs.get(&id) {
                    job.ctx.cancel(CancelCause::Drain);
                }
            }
            self.shared.metrics.queue_depth.set(0);
            self.shared.job_done.notify_all();
            let grace = Instant::now() + DRAIN_GRACE;
            while state.running() > 0 && Instant::now() < grace {
                state = self
                    .shared
                    .job_done
                    .wait_timeout(state, Duration::from_millis(50))
                    .expect("job state poisoned")
                    .0;
            }
        }
        stats_of(&state, &self.shared.metrics, self.queue_depth)
    }

    /// Queue counters.
    pub fn stats(&self) -> JobStats {
        let state = self.shared.state.lock().expect("job state poisoned");
        stats_of(&state, &self.shared.metrics, self.queue_depth)
    }
}

/// [`JobStats`] as a view over the registry counters — the `/v1/health`
/// numbers ARE the `/v1/metrics` numbers, snapshotted under the state
/// lock.
fn stats_of(state: &State, metrics: &Metrics, queue_depth: usize) -> JobStats {
    JobStats {
        queued: state.queue.len(),
        queue_depth,
        running: state.running(),
        executed: metrics.jobs_executed.get(),
        completed: metrics.jobs_completed.get(),
        cancelled: metrics.jobs_cancelled.get(),
        panicked: metrics.jobs_panicked.get(),
        coalesced: metrics.jobs_coalesced.get(),
        rejected: metrics.jobs_rejected.get(),
        deadline_rejected: metrics.jobs_deadline_rejected.get(),
        ewma_job_secs: state.ewma_secs,
        executors: state.executors.len(),
        executor_restarts: metrics.executor_restarts.get(),
    }
}

/// EWMA estimate of how long a newly queued job waits before it starts:
/// one service time per job ahead of it (queued + running), shared among
/// the N executors. Zero until the first job finishes — an idle new
/// server admits everything.
fn estimated_wait(state: &State) -> Duration {
    let backlog = state.queue.len() + state.running();
    Duration::from_secs_f64(state.ewma_secs * backlog as f64 / state.executors.len() as f64)
}

/// `Retry-After` hint: the backlog estimate plus one service time (the
/// retry joins behind the current backlog), clamped to [1s, 1h].
fn retry_secs(state: &State) -> u32 {
    let secs = (estimated_wait(state).as_secs_f64() + state.ewma_secs).ceil();
    secs.clamp(1.0, 3600.0) as u32
}

/// Finalizes a job that will never execute (deadline expired in queue, or
/// drain cut the queue) as a cancelled `504`.
fn finalize_cancelled(state: &mut State, metrics: &Metrics, id: u64, cause: CancelCause) {
    let Some(job) = state.jobs.get_mut(&id) else { return };
    if job.outcome.is_some() {
        return;
    }
    job.ctx.cancel(cause);
    job.phase = JobPhase::Done;
    job.outcome = Some(job.ctx.cancelled_outcome());
    let fingerprint = job.fingerprint;
    metrics.jobs_cancelled.inc();
    retire(state, id, fingerprint);
}

/// Moves a finished job into the retention window and unregisters its
/// fingerprint (only while the coalescing map still points at this job).
fn retire(state: &mut State, id: u64, fingerprint: Option<u128>) {
    if let Some(key) = fingerprint {
        if state.inflight.get(&key) == Some(&id) {
            state.inflight.remove(&key);
        }
    }
    state.finished.push_back(id);
    while state.finished.len() > RETAINED_JOBS {
        let expired = state.finished.pop_front().expect("nonempty");
        state.jobs.remove(&expired);
    }
}

fn spawn_executor(shared: &Arc<Shared>, slot: usize, generation: u64) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("saturn-executor-{slot}"))
        .spawn(move || executor_loop(&shared, slot, generation))
        .expect("cannot spawn job executor")
}

fn executor_loop(shared: &Shared, slot: usize, generation: u64) {
    // This incarnation's thread budget: each sweep round spawns its
    // workers on a scope and joins them before `map` returns, so nothing
    // outlives the round.
    let mut pool = WorkerPool::new(shared.pool_threads);
    loop {
        let (id, work, ctx, kind) = {
            let mut state = shared.state.lock().expect("job state poisoned");
            loop {
                if state.shutdown || state.executors[slot].generation != generation {
                    return;
                }
                if let Some((id, work)) = state.queue.pop_front() {
                    let job = state.jobs.get_mut(&id).expect("queued job recorded");
                    job.phase = JobPhase::Running;
                    let ctx = Arc::clone(&job.ctx);
                    let kind = job.kind;
                    shared.metrics.queue_wait_seconds.observe(job.queued_at.elapsed());
                    let done = ctx.control.progress.snapshot().0;
                    shared.metrics.queue_depth.set(state.queue.len() as u64);
                    let e = &mut state.executors[slot];
                    e.running = Some(id);
                    e.progress_mark = Some((done, Instant::now()));
                    e.stall_fired = false;
                    break (id, work, ctx, kind);
                }
                state = shared.work_available.wait(state).expect("job state poisoned");
            }
        };
        if let Some(plan) = &shared.faults {
            if plan.executor_die() {
                // deliberately OUTSIDE catch_unwind: this kills the
                // executor thread itself, exercising supervisor restart
                panic!("injected executor death (executor {slot})");
            }
            if let Some(pause) = plan.executor_stall(kind.site()) {
                // an uncancellable wedge: ignores tokens entirely,
                // exercising stall supervision
                std::thread::sleep(pause);
                let state = shared.state.lock().expect("job state poisoned");
                if state.executors[slot].generation != generation {
                    // the supervisor gave up on us mid-stall and already
                    // finalized the job; a zombie must not touch it
                    return;
                }
            }
            if plan.cancel_race() {
                // adversarial schedule: the token fires before the sweep
                // even starts; the job must still finalize cleanly
                ctx.cancel(CancelCause::Injected);
            }
        }
        let started = Instant::now();
        // Worker panics propagate out of `pool.map`; catch them so one
        // poisoned trace cannot take the executor down.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &shared.faults {
                plan.maybe_slow(kind.site());
                plan.maybe_panic(kind.site());
            }
            work(&mut pool, &ctx)
        }));
        let elapsed = started.elapsed().as_secs_f64();
        let panicked = caught.is_err();
        let outcome = caught.unwrap_or_else(|_| JobOutcome {
            status: 500,
            body: Arc::from(crate::error_envelope("panicked", "analysis panicked", true, None)),
        });
        shared.metrics.sweep_seconds.observe(Duration::from_secs_f64(elapsed));
        let mut state = shared.state.lock().expect("job state poisoned");
        if state.executors[slot].generation != generation {
            // abandoned as stalled while the work ran: the supervisor
            // already finalized this job as a 500 and a replacement
            // executor owns the slot — discard the late result and exit
            return;
        }
        state.ewma_secs = if state.ewma_secs == 0.0 {
            elapsed
        } else {
            EWMA_ALPHA * elapsed + (1.0 - EWMA_ALPHA) * state.ewma_secs
        };
        let e = &mut state.executors[slot];
        e.running = None;
        e.progress_mark = None;
        e.stall_fired = false;
        shared.metrics.jobs_executed.inc();
        if panicked {
            shared.metrics.jobs_panicked.inc();
        } else if outcome.status == 504 {
            shared.metrics.jobs_cancelled.inc();
        } else {
            shared.metrics.jobs_completed.inc();
        }
        let job = state.jobs.get_mut(&id).expect("running job recorded");
        job.phase = JobPhase::Done;
        job.outcome = Some(outcome);
        let fingerprint = job.fingerprint;
        retire(&mut state, id, fingerprint);
        drop(state);
        shared.job_done.notify_all();
    }
}

/// Capped exponential backoff: 100ms, 200ms, 400ms, … up to 5s.
fn backoff_for(streak: u32) -> Duration {
    let doublings = streak.saturating_sub(1).min(16);
    RESTART_BACKOFF_BASE.saturating_mul(1 << doublings).min(RESTART_BACKOFF_CAP)
}

/// Hands executor `slot` to a fresh generation: bumps the generation (so
/// the old incarnation, if still somehow alive, becomes a zombie and
/// discards its work), finalizes the in-flight job as a structured `500`
/// carrying partial progress, counts the restart, and schedules the
/// respawn after the backoff. The queue is untouched. Returns whether a
/// job was finalized (the caller then notifies waiters).
fn restart_executor(
    state: &mut State,
    metrics: &Metrics,
    slot: usize,
    now: Instant,
    error: &str,
) -> bool {
    let e = &mut state.executors[slot];
    e.generation += 1;
    let running = e.running.take();
    e.progress_mark = None;
    e.stall_fired = false;
    e.restart_streak += 1;
    e.last_restart = Some(now);
    e.respawn_at = Some(now + backoff_for(e.restart_streak));
    metrics.executor_restarts.inc();
    let Some(id) = running else { return false };
    let Some(job) = state.jobs.get_mut(&id) else { return false };
    if job.outcome.is_some() {
        return false;
    }
    // fire the token too: a wedged-but-alive zombie thread should stop at
    // its next poll instead of burning its abandoned pool forever
    job.ctx.cancel(CancelCause::Stalled);
    let (done, total) = job.ctx.control.progress.snapshot();
    job.phase = JobPhase::Done;
    job.outcome = Some(JobOutcome {
        status: 500,
        body: Arc::from(timeout_body("executor_failed", error, done, total)),
    });
    let fingerprint = job.fingerprint;
    metrics.jobs_executed.inc();
    metrics.jobs_panicked.inc();
    retire(state, id, fingerprint);
    true
}

/// Spawns every executor, then monitors the job system once per
/// [`SUPERVISOR_TICK`]: deadlines first ([`enforce_deadlines`]), then the
/// executor slots. A dead executor (panic escaped `catch_unwind`)
/// is reaped and restarted with capped exponential backoff; an executor
/// whose running job makes no sweep progress for the stall budget has the
/// job token-cancelled, and for twice the budget has its wedged thread
/// abandoned and replaced. Keeps supervising during drain so queued work
/// still makes progress behind a crash.
fn supervisor_loop(shared: &Arc<Shared>) {
    let mut state = shared.state.lock().expect("job state poisoned");
    for (slot, e) in state.executors.iter_mut().enumerate() {
        e.handle = Some(spawn_executor(shared, slot, 0));
    }
    while !state.shutdown {
        let now = Instant::now();
        let mut finalized = enforce_deadlines(&mut state, &shared.metrics, now);
        for slot in 0..state.executors.len() {
            let st = &mut *state;
            let e = &mut st.executors[slot];
            if e.last_restart.is_some_and(|at| now.duration_since(at) >= RESTART_STREAK_RESET) {
                e.restart_streak = 0;
                e.last_restart = None;
            }
            let mut failure = None;
            if e.handle.as_ref().is_some_and(|h| h.is_finished()) {
                // executor death: reap the corpse, salvage the slot
                let _ = e.handle.take().expect("checked above").join();
                failure = Some("executor died; replacing it");
            } else if e.handle.is_some() && shared.stall_budget > Duration::ZERO {
                if let Some(job) = e.running.and_then(|id| st.jobs.get(&id)) {
                    let done = job.ctx.control.progress.snapshot().0;
                    let idle = match e.progress_mark {
                        Some((mark, since)) if mark == done => now.duration_since(since),
                        _ => {
                            e.progress_mark = Some((done, now));
                            Duration::ZERO
                        }
                    };
                    if idle >= shared.stall_budget.saturating_mul(2) {
                        // the job ignored its token for a whole extra
                        // budget: abandon the wedged thread (never joined;
                        // it exits as a zombie on its own) and hand the
                        // slot to a fresh executor + pool
                        e.handle = None;
                        failure = Some("executor stalled; replacing it");
                    } else if idle >= shared.stall_budget && !e.stall_fired {
                        job.ctx.cancel(CancelCause::Stalled);
                        e.stall_fired = true;
                    }
                }
            }
            if let Some(error) = failure {
                finalized |= restart_executor(st, &shared.metrics, slot, now, error);
            }
            let e = &mut st.executors[slot];
            if e.handle.is_none() && e.respawn_at.is_some_and(|at| now >= at) {
                e.handle = Some(spawn_executor(shared, slot, e.generation));
                e.respawn_at = None;
                shared.work_available.notify_all();
            }
        }
        if finalized {
            shared.job_done.notify_all();
        }
        state = shared
            .supervisor_wake
            .wait_timeout(state, SUPERVISOR_TICK)
            .expect("job state poisoned")
            .0;
    }
    // shutdown: executors observe the flag at their next pop and return
    let handles: Vec<_> = state.executors.iter_mut().filter_map(|e| e.handle.take()).collect();
    drop(state);
    for handle in handles {
        let _ = handle.join();
    }
}

/// The supervisor's deadline pass: finalizes every queued job whose
/// deadline has passed as a `504` without executing it, and fires the token
/// of every running job past its own (its executor then finalizes the
/// cancelled outcome). Returns whether a job was finalized (the caller then
/// notifies waiters).
fn enforce_deadlines(state: &mut State, metrics: &Metrics, now: Instant) -> bool {
    let past = |job: &JobRecord| job.deadline.is_some_and(|at| at <= now);
    let expired: Vec<u64> = state
        .queue
        .iter()
        .map(|&(id, _)| id)
        .filter(|id| state.jobs.get(id).is_some_and(past))
        .collect();
    if !expired.is_empty() {
        state.queue.retain(|(id, _)| !expired.contains(id));
        metrics.queue_depth.set(state.queue.len() as u64);
        for &id in &expired {
            finalize_cancelled(state, metrics, id, CancelCause::Deadline);
        }
    }
    for id in state.executors.iter().filter_map(|e| e.running) {
        if let Some(job) = state.jobs.get(&id).filter(|job| past(job)) {
            job.ctx.cancel(CancelCause::Deadline);
        }
    }
    !expired.is_empty()
}

impl Drop for JobManager {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("job state poisoned");
            state.shutdown = true;
            self.shared.work_available.notify_all();
            self.shared.supervisor_wake.notify_all();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    fn ok(body: &str) -> JobOutcome {
        JobOutcome { status: 200, body: Arc::from(body) }
    }

    /// One executor with a pool of `threads` parallelism and a queue
    /// bounded at `queue_depth` waiting jobs, counting into a private
    /// registry.
    fn manager(threads: usize, queue_depth: usize) -> JobManager {
        JobManager::with_config(JobsConfig::new(threads, queue_depth), None)
    }

    /// A reusable gate: jobs block in `hold` until the test `release`s.
    struct Gate {
        open: Mutex<bool>,
        cv: Condvar,
        entered: AtomicUsize,
    }

    impl Gate {
        fn new() -> Arc<Gate> {
            Arc::new(Gate {
                open: Mutex::new(false),
                cv: Condvar::new(),
                entered: AtomicUsize::new(0),
            })
        }

        fn hold(&self) {
            self.entered.fetch_add(1, AtomicOrdering::SeqCst);
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
        }

        fn release(&self) {
            *self.open.lock().unwrap() = true;
            self.cv.notify_all();
        }

        fn wait_entered(&self) {
            while self.entered.load(AtomicOrdering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn submit_wait_roundtrip() {
        let jobs = manager(1, 8);
        let id = jobs.submit(None, Box::new(|_pool, _ctx| ok("{\"x\":1}"))).unwrap();
        let outcome = jobs.wait(id).unwrap();
        assert_eq!(outcome.status, 200);
        assert_eq!(&*outcome.body, "{\"x\":1}");
        assert_eq!(jobs.phase(id), Some(JobPhase::Done));
        let stats = jobs.stats();
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.executors, 1);
        assert_eq!(stats.executor_restarts, 0);
        assert!(stats.ewma_job_secs >= 0.0);
    }

    #[test]
    fn coalescing_shares_one_execution() {
        let jobs = manager(1, 8);
        // a blocker job keeps the executor busy so both submissions queue
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        jobs.submit(
            None,
            Box::new(move |_pool, _ctx| {
                g.hold();
                ok("gate")
            }),
        )
        .unwrap();
        let a = jobs.submit(Some(42), Box::new(|_pool, _ctx| ok("first"))).unwrap();
        let b = jobs.submit(Some(42), Box::new(|_pool, _ctx| ok("second"))).unwrap();
        assert_eq!(a, b, "identical fingerprints coalesce");
        gate.release();
        let out_a = jobs.wait(a).unwrap();
        let out_b = jobs.wait(b).unwrap();
        assert!(Arc::ptr_eq(&out_a.body, &out_b.body), "one body serves both");
        assert_eq!(&*out_a.body, "first");
        assert_eq!(jobs.stats().coalesced, 1);
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let jobs = manager(1, 1);
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        jobs.submit(
            None,
            Box::new(move |_pool, _ctx| {
                g.hold();
                ok("gate")
            }),
        )
        .unwrap();
        // wait until the gate job leaves the queue and occupies the executor
        gate.wait_entered();
        let queued = jobs.submit(None, Box::new(|_pool, _ctx| ok("fits"))).unwrap();
        let refused = jobs.submit(None, Box::new(|_pool, _ctx| ok("rejected")));
        assert!(
            matches!(refused, Err(Reject::QueueFull { retry_after_secs }) if retry_after_secs >= 1)
        );
        assert_eq!(jobs.stats().rejected, 1);
        gate.release();
        assert_eq!(&*jobs.wait(queued).unwrap().body, "fits");
    }

    #[test]
    fn panicking_job_becomes_500_and_executor_survives() {
        let jobs = manager(1, 8);
        let id = jobs.submit(None, Box::new(|_pool, _ctx| panic!("boom"))).unwrap();
        let outcome = jobs.wait(id).unwrap();
        assert_eq!(outcome.status, 500);
        assert!(outcome.body.contains("panicked"));
        let next = jobs.submit(None, Box::new(|_pool, _ctx| ok("alive"))).unwrap();
        assert_eq!(&*jobs.wait(next).unwrap().body, "alive");
        let stats = jobs.stats();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.executor_restarts, 0, "a caught panic needs no restart");
    }

    /// Clients key on `error.code`: every code the cancellation and
    /// supervisor paths emit must be exactly one from the crate-docs
    /// registry table, carried in the standard envelope with partial
    /// progress.
    #[test]
    fn emitted_error_codes_match_the_documented_registry() {
        for (cause, code) in [
            (Some(CancelCause::Deadline), "deadline_exceeded"),
            (Some(CancelCause::Drain), "draining"),
            (Some(CancelCause::Injected), "fault_injected"),
            (Some(CancelCause::Stalled), "stalled"),
            (None, "cancelled"),
        ] {
            let jctx = JobCtx { control: SweepControl::new(), cause: AtomicU8::new(0) };
            match cause {
                Some(cause) => jctx.cancel(cause),
                // the token fired without a recorded cause: the fallback
                None => jctx.control.cancel.cancel(),
            }
            let outcome = jctx.cancelled_outcome();
            assert_eq!(outcome.status, 504);
            let v: serde_json::Value = serde_json::from_str(&outcome.body).unwrap();
            assert_eq!(v["error"]["code"].as_str(), Some(code));
            assert_eq!(v["error"]["retryable"].as_bool(), Some(true));
            assert!(v["error"]["scales_done"].as_u64().is_some(), "body: {}", outcome.body);
            assert!(v["error"]["scales_total"].as_u64().is_some());
        }
        // a caught panic emits the registered `panicked` code
        let jobs = manager(1, 4);
        let id = jobs.submit(None, Box::new(|_pool, _ctx| panic!("boom"))).unwrap();
        let outcome = jobs.wait(id).unwrap();
        let v: serde_json::Value = serde_json::from_str(&outcome.body).unwrap();
        assert_eq!((outcome.status, v["error"]["code"].as_str()), (500, Some("panicked")));
    }

    #[test]
    fn unknown_ids_are_none() {
        let jobs = manager(1, 2);
        assert!(jobs.phase(999).is_none());
        assert!(jobs.wait(999).is_none());
        assert!(jobs.outcome(999).is_none());
        assert!(matches!(jobs.wait_until(999, None), WaitOutcome::Unknown));
    }

    #[test]
    fn jobs_actually_use_the_pool() {
        let jobs = manager(3, 4);
        let id = jobs
            .submit(
                None,
                Box::new(|pool, _ctx| {
                    let items: Vec<u64> = (0..100).collect();
                    let sum: u64 = pool.map(&items, |_wid, &x| x * 2).into_iter().sum();
                    JobOutcome { status: 200, body: Arc::from(format!("{{\"sum\":{sum}}}")) }
                }),
            )
            .unwrap();
        assert_eq!(&*jobs.wait(id).unwrap().body, "{\"sum\":9900}");
    }

    #[test]
    fn queued_job_past_deadline_expires_without_executing() {
        let jobs = manager(1, 8);
        // a deadline pass that never runs fails at `give_up`, not by hanging
        let give_up = Instant::now() + Duration::from_secs(5);
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        let blocker = jobs
            .submit(
                None,
                Box::new(move |_pool, _ctx| {
                    g.hold();
                    ok("gate")
                }),
            )
            .unwrap();
        gate.wait_entered();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let doomed = jobs
            .submit_with(
                None,
                Some(Duration::from_millis(30)),
                JobKind::Other,
                7,
                Box::new(move |_pool, _ctx| {
                    r.fetch_add(1, AtomicOrdering::SeqCst);
                    ok("never")
                }),
            )
            .unwrap();
        // the supervisor must 504 the queued job while the blocker still runs
        let outcome = jobs.wait_until(doomed, Some(give_up));
        gate.release();
        let WaitOutcome::Done(outcome) = outcome else {
            panic!("the queued job outlived its deadline: {outcome:?}");
        };
        assert_eq!(outcome.status, 504);
        assert!(outcome.body.contains("deadline exceeded"), "body: {}", outcome.body);
        assert!(outcome.body.contains("\"scales_done\": 0"), "body: {}", outcome.body);
        assert!(outcome.body.contains("\"scales_total\": 7"), "body: {}", outcome.body);
        assert_eq!(ran.load(AtomicOrdering::SeqCst), 0, "expired job must never execute");
        assert_eq!(jobs.wait(blocker).unwrap().status, 200);
        assert_eq!(jobs.stats().cancelled, 1);
    }

    #[test]
    fn running_job_past_deadline_gets_its_token_fired() {
        let jobs = manager(1, 8);
        let give_up = Instant::now() + Duration::from_secs(5);
        let id = jobs
            .submit_with(
                None,
                Some(Duration::from_millis(40)),
                JobKind::Other,
                3,
                Box::new(move |_pool, ctx| {
                    // a cooperative sweep: spin until the token fires, as
                    // try_run_on would at its next poll point
                    while !ctx.control.cancel.is_cancelled() && Instant::now() < give_up {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    ctx.cancelled_outcome()
                }),
            )
            .unwrap();
        let WaitOutcome::Done(outcome) = jobs.wait_until(id, Some(give_up)) else {
            panic!("the running job outlived its deadline");
        };
        assert_eq!(outcome.status, 504);
        assert!(outcome.body.contains("deadline exceeded"), "body: {}", outcome.body);
        let stats = jobs.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.executed, 1);
    }

    /// Deadlines share the supervisor's tick with stall supervision but must
    /// not depend on it: with a zero stall budget, a queued job past its
    /// deadline still 504s without running, and a running one still has its
    /// token fired.
    #[test]
    fn deadlines_are_enforced_with_stall_supervision_off() {
        let mut config = JobsConfig::new(1, 8);
        config.stall_budget = Duration::ZERO;
        let jobs = JobManager::with_config(config, None);
        // the running job keeps its executor until the gate opens, even
        // after its token fires, so the queued job can only expire; a
        // deadline pass that never runs fails at `give_up`, not by hanging
        let give_up = Instant::now() + Duration::from_secs(5);
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        let running = jobs
            .submit_with(
                None,
                Some(Duration::from_millis(60)),
                JobKind::Other,
                2,
                Box::new(move |_pool, ctx| {
                    g.entered.fetch_add(1, AtomicOrdering::SeqCst);
                    while !ctx.control.cancel.is_cancelled() && Instant::now() < give_up {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    g.hold();
                    ctx.cancelled_outcome()
                }),
            )
            .unwrap();
        gate.wait_entered();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let queued = jobs
            .submit_with(
                None,
                Some(Duration::from_millis(20)),
                JobKind::Other,
                5,
                Box::new(move |_pool, _ctx| {
                    r.fetch_add(1, AtomicOrdering::SeqCst);
                    ok("never")
                }),
            )
            .unwrap();
        let queued_outcome = jobs.wait_until(queued, Some(give_up));
        gate.release();
        let WaitOutcome::Done(queued_outcome) = queued_outcome else {
            panic!("the queued job outlived its deadline: {queued_outcome:?}");
        };
        assert_eq!(queued_outcome.status, 504);
        assert!(queued_outcome.body.contains("deadline exceeded"), "{}", queued_outcome.body);
        assert!(queued_outcome.body.contains("\"scales_total\": 5"), "{}", queued_outcome.body);
        let running_outcome = jobs.wait(running).expect("cancelled job still reports");
        assert_eq!(running_outcome.status, 504);
        assert!(running_outcome.body.contains("deadline exceeded"), "{}", running_outcome.body);
        assert_eq!(ran.load(AtomicOrdering::SeqCst), 0, "expired job must never execute");
        let stats = jobs.stats();
        assert_eq!((stats.cancelled, stats.executed), (2, 1));
        assert_eq!(stats.executor_restarts, 0);
    }

    #[test]
    fn admission_control_rejects_wait_that_exceeds_deadline() {
        let jobs = manager(1, 8);
        // seed the EWMA with a measured ~50ms job
        let seed = jobs
            .submit(
                None,
                Box::new(|_pool, _ctx| {
                    std::thread::sleep(Duration::from_millis(50));
                    ok("seed")
                }),
            )
            .unwrap();
        jobs.wait(seed).unwrap();
        assert!(jobs.stats().ewma_job_secs >= 0.045);
        // occupy the executor and put one job in the queue
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        let blocker = jobs
            .submit(
                None,
                Box::new(move |_pool, _ctx| {
                    g.hold();
                    ok("gate")
                }),
            )
            .unwrap();
        gate.wait_entered();
        let queued = jobs.submit(None, Box::new(|_pool, _ctx| ok("queued"))).unwrap();
        // estimated wait is ~2 service times (~100ms) >> a 1ms deadline
        let refused = jobs.submit_with(
            None,
            Some(Duration::from_millis(1)),
            JobKind::Other,
            0,
            Box::new(|_pool, _ctx| ok("doomed")),
        );
        match refused {
            Err(Reject::WouldExpire { estimated_wait_ms, retry_after_secs }) => {
                assert!(estimated_wait_ms >= 50, "estimate {estimated_wait_ms}ms");
                assert!(retry_after_secs >= 1);
            }
            other => panic!("expected WouldExpire, got {other:?}"),
        }
        // a generous deadline sails through the same backlog
        let admitted = jobs
            .submit_with(
                None,
                Some(Duration::from_secs(60)),
                JobKind::Other,
                0,
                Box::new(|_pool, _ctx| ok("patient")),
            )
            .expect("generous deadline is admitted");
        gate.release();
        assert!(jobs.wait(blocker).is_some());
        assert!(jobs.wait(queued).is_some());
        assert!(jobs.wait(admitted).is_some());
        assert_eq!(jobs.stats().deadline_rejected, 1);
    }

    #[test]
    fn drain_finishes_backlog_then_refuses_new_work() {
        let jobs = manager(1, 8);
        let first = jobs
            .submit(
                None,
                Box::new(|_pool, _ctx| {
                    std::thread::sleep(Duration::from_millis(20));
                    ok("first")
                }),
            )
            .unwrap();
        let second = jobs.submit(None, Box::new(|_pool, _ctx| ok("second"))).unwrap();
        let stats = jobs.drain(Duration::from_secs(30));
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.running, 0);
        assert_eq!(stats.completed, 2);
        assert_eq!(jobs.wait(first).unwrap().status, 200);
        assert_eq!(jobs.wait(second).unwrap().status, 200);
        assert!(matches!(
            jobs.submit(None, Box::new(|_pool, _ctx| ok("late"))),
            Err(Reject::Draining)
        ));
    }

    #[test]
    fn drain_budget_cancels_stragglers() {
        let jobs = manager(1, 8);
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        let stubborn = jobs
            .submit(
                None,
                Box::new(move |_pool, ctx| {
                    g.entered.fetch_add(1, AtomicOrdering::SeqCst);
                    while !ctx.control.cancel.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    ctx.cancelled_outcome()
                }),
            )
            .unwrap();
        let queued = jobs.submit(None, Box::new(|_pool, _ctx| ok("never runs"))).unwrap();
        gate.wait_entered();
        let stats = jobs.drain(Duration::from_millis(50));
        assert_eq!(stats.running, 0, "straggler must stop within the grace period");
        let running_outcome = jobs.wait(stubborn).expect("cancelled job reports");
        assert_eq!(running_outcome.status, 504);
        assert!(running_outcome.body.contains("draining"), "body: {}", running_outcome.body);
        let queued_outcome = jobs.wait(queued).expect("cut queued job reports");
        assert_eq!(queued_outcome.status, 504);
        assert!(queued_outcome.body.contains("draining"), "body: {}", queued_outcome.body);
        assert_eq!(stats.cancelled, 2);
    }

    #[test]
    fn coalesced_waiter_with_short_deadline_times_out_alone() {
        let jobs = manager(1, 8);
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        let id = jobs
            .submit(
                Some(0xc0a1),
                Box::new(move |_pool, ctx| {
                    ctx.control.progress.set_total(5);
                    ctx.control.progress.add_done(2);
                    g.hold();
                    ok("shared")
                }),
            )
            .unwrap();
        gate.wait_entered();
        // an impatient coalesced waiter gives up; the job itself continues
        let expired = jobs.wait_until(id, Some(Instant::now() + Duration::from_millis(20)));
        match expired {
            WaitOutcome::DeadlineExpired { scales_done, scales_total } => {
                assert_eq!(scales_done, 2);
                assert_eq!(scales_total, 5);
            }
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        gate.release();
        assert_eq!(jobs.wait(id).unwrap().status, 200, "job outlives the impatient waiter");
    }

    #[test]
    fn injected_cancel_race_still_finalizes_cleanly() {
        let mut config = JobsConfig::new(1, 8);
        config.faults = Some(Arc::new(FaultPlan::parse("cancel_race:1").unwrap()));
        let jobs = JobManager::with_config(config, None);
        let id = jobs
            .submit(
                None,
                Box::new(|_pool, ctx| {
                    if ctx.control.cancel.is_cancelled() {
                        ctx.cancelled_outcome()
                    } else {
                        ok("unraced")
                    }
                }),
            )
            .unwrap();
        let outcome = jobs.wait(id).expect("raced job reports");
        assert_eq!(outcome.status, 504);
        assert!(outcome.body.contains("injected"), "body: {}", outcome.body);
        assert_eq!(jobs.stats().cancelled, 1);
    }

    #[test]
    fn executor_death_finalizes_inflight_as_500_and_preserves_queue() {
        let mut config = JobsConfig::new(1, 8);
        config.faults = Some(Arc::new(FaultPlan::parse("executor_die:1").unwrap()));
        let jobs = JobManager::with_config(config, None);
        let first = jobs.submit(None, Box::new(|_pool, _ctx| ok("first"))).unwrap();
        let second = jobs.submit(None, Box::new(|_pool, _ctx| ok("second"))).unwrap();
        // every pop kills the executor, so BOTH jobs are finalized by the
        // supervisor: the first as the in-flight casualty, the second after
        // surviving the restart in the preserved queue (then killing the
        // replacement too)
        let out_first = jobs.wait(first).expect("in-flight job is finalized by the supervisor");
        assert_eq!(out_first.status, 500);
        assert!(out_first.body.contains("executor died"), "body: {}", out_first.body);
        // supervisor finalizations carry the registered code + progress
        let v: serde_json::Value = serde_json::from_str(&out_first.body).unwrap();
        assert_eq!(v["error"]["code"].as_str(), Some("executor_failed"));
        assert!(v["error"]["scales_total"].as_u64().is_some());
        let out_second =
            jobs.wait(second).expect("queued job survives the restart and reports");
        assert_eq!(out_second.status, 500);
        assert!(out_second.body.contains("executor died"), "body: {}", out_second.body);
        let stats = jobs.stats();
        assert_eq!(stats.executor_restarts, 2);
        assert_eq!(stats.panicked, 2);
        assert_eq!(stats.executed, 2);
    }

    #[test]
    fn stalled_executor_is_cancelled_then_replaced() {
        let mut config = JobsConfig::new(1, 8);
        config.stall_budget = Duration::from_millis(40);
        let jobs = JobManager::with_config(config, None);
        let id = jobs
            .submit(
                None,
                Box::new(|_pool, _ctx| {
                    // hostile: ignores its token entirely and reports no
                    // progress — the supervisor must escalate past the
                    // cancel to replacing the executor
                    std::thread::sleep(Duration::from_millis(1500));
                    ok("ignored")
                }),
            )
            .unwrap();
        let outcome = jobs.wait(id).expect("stalled job is finalized by the supervisor");
        assert_eq!(outcome.status, 500);
        assert!(outcome.body.contains("stalled"), "body: {}", outcome.body);
        // the replacement executor serves fresh work while the zombie is
        // still wedged in its sleep
        let next = jobs.submit(None, Box::new(|_pool, _ctx| ok("alive"))).unwrap();
        assert_eq!(&*jobs.wait(next).unwrap().body, "alive");
        let stats = jobs.stats();
        assert!(stats.executor_restarts >= 1, "stats: {stats:?}");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.panicked, 1);
    }

    /// A manager with `executors` executors of one pool thread each.
    fn with_executors(executors: usize) -> JobManager {
        let mut config = JobsConfig::new(executors, 8);
        config.executors = executors;
        JobManager::with_config(config, None)
    }

    /// Waits up to five seconds for `n` jobs to enter `gate`. The caller
    /// releases the gate before asserting on the answer, so a failure
    /// cannot leave an executor held and hang the manager's drop.
    fn entered_within(gate: &Gate, n: usize) -> bool {
        let give_up = Instant::now() + Duration::from_secs(5);
        while gate.entered.load(AtomicOrdering::SeqCst) < n && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.entered.load(AtomicOrdering::SeqCst) >= n
    }

    #[test]
    fn the_queue_is_work_conserving() {
        let jobs = with_executors(2);
        let gate = Gate::new();
        // fingerprints equal mod 2: routed by fingerprint, these would
        // queue behind each other while the second executor idled
        let ids: Vec<u64> = [2u128, 4]
            .into_iter()
            .map(|fp| {
                let g = Arc::clone(&gate);
                jobs.submit(
                    Some(fp),
                    Box::new(move |_pool, _ctx| {
                        g.hold();
                        ok("held")
                    }),
                )
                .unwrap()
            })
            .collect();
        let both_started = entered_within(&gate, 2);
        gate.release();
        assert!(both_started, "the second job waited while an executor idled");
        for id in ids {
            assert_eq!(jobs.wait(id).unwrap().status, 200);
        }
    }

    #[test]
    fn admission_estimate_divides_the_pooled_backlog_by_executors() {
        let jobs = with_executors(2);
        // seed the one EWMA with a measured ~50ms job
        let seed = jobs
            .submit(
                None,
                Box::new(|_pool, _ctx| {
                    std::thread::sleep(Duration::from_millis(50));
                    ok("seed")
                }),
            )
            .unwrap();
        jobs.wait(seed).unwrap();
        let ewma = jobs.stats().ewma_job_secs;
        assert!(ewma >= 0.045, "ewma {ewma}");
        // two jobs in the backlog, one on each executor
        let gate = Gate::new();
        let held: Vec<u64> = (0..2)
            .map(|_| {
                let g = Arc::clone(&gate);
                jobs.submit(
                    None,
                    Box::new(move |_pool, _ctx| {
                        g.hold();
                        ok("gate")
                    }),
                )
                .unwrap()
            })
            .collect();
        let both_started = entered_within(&gate, 2);
        // 2 jobs × one EWMA / 2 executors: about one service time, not two
        let refused = jobs.submit_with(
            None,
            Some(Duration::from_millis(1)),
            JobKind::Other,
            0,
            Box::new(|_pool, _ctx| ok("doomed")),
        );
        gate.release();
        assert!(both_started);
        match refused {
            Err(Reject::WouldExpire { estimated_wait_ms, retry_after_secs }) => {
                let expected = Duration::from_secs_f64(ewma).as_millis() as u64;
                assert!(
                    estimated_wait_ms.abs_diff(expected) <= 1,
                    "estimate {estimated_wait_ms}ms, EWMA {expected}ms"
                );
                assert_eq!(retry_after_secs, (2.0 * ewma).ceil().clamp(1.0, 3600.0) as u32);
            }
            other => panic!("expected WouldExpire, got {other:?}"),
        }
        for id in held {
            assert!(jobs.wait(id).is_some());
        }
        assert_eq!(jobs.stats().deadline_rejected, 1);
    }

    #[test]
    fn pool_parallelism_never_exceeds_threads() {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap();
        for threads in 0..=9 {
            for executors in 0..=6 {
                let (n, per) = executor_layout(threads, executors);
                let resolved = if threads == 0 { cores } else { threads };
                assert!(n >= 1 && per >= 1, "({threads}, {executors}) -> ({n}, {per})");
                assert!(n * per <= resolved, "({threads}, {executors}) -> ({n}, {per})");
                if executors > 0 {
                    assert_eq!(n, executors.min(resolved));
                }
            }
        }
        // the knob-matrix leg `--threads 2 --executors 4`: two executors
        // of one worker each
        let mut config = JobsConfig::new(2, 8);
        config.executors = 4;
        let jobs = JobManager::with_config(config, None);
        assert_eq!(jobs.stats().executors, 2);
        let id = jobs
            .submit(
                None,
                Box::new(|pool, _ctx| JobOutcome {
                    status: 200,
                    body: Arc::from(pool.parallelism().to_string()),
                }),
            )
            .unwrap();
        assert_eq!(&*jobs.wait(id).unwrap().body, "1");
    }

    #[test]
    fn coalescing_works_across_executors() {
        let jobs = with_executors(4);
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        let a = jobs
            .submit(
                Some(42),
                Box::new(move |_pool, _ctx| {
                    g.hold();
                    ok("first")
                }),
            )
            .unwrap();
        let b = jobs.submit(Some(42), Box::new(|_pool, _ctx| ok("second"))).unwrap();
        assert_eq!(a, b, "identical fingerprints coalesce onto the in-flight job");
        gate.release();
        let out_a = jobs.wait(a).unwrap();
        let out_b = jobs.wait(b).unwrap();
        assert!(Arc::ptr_eq(&out_a.body, &out_b.body), "one body serves both");
        assert_eq!(&*out_a.body, "first");
        let stats = jobs.stats();
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.executed, 1);
    }

    #[test]
    fn drain_joins_every_executor_within_the_shared_budget() {
        let jobs = with_executors(3);
        let ids: Vec<u64> = (0..3u128)
            .map(|fp| {
                jobs.submit(
                    Some(fp),
                    Box::new(|_pool, _ctx| {
                        std::thread::sleep(Duration::from_millis(20));
                        ok("swept")
                    }),
                )
                .unwrap()
            })
            .collect();
        let stats = jobs.drain(Duration::from_secs(30));
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.running, 0);
        assert_eq!(stats.completed, 3);
        for id in ids {
            assert_eq!(jobs.wait(id).unwrap().status, 200);
        }
        assert!(matches!(
            jobs.submit(None, Box::new(|_pool, _ctx| ok("late"))),
            Err(Reject::Draining)
        ));
    }
}
