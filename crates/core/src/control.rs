//! Out-of-band control surface of a running sweep: cooperative cancellation
//! plus coarse progress accounting, shared between the party that launched
//! the sweep (an analysis service, a CLI signal handler) and the workers
//! executing it.
//!
//! A [`SweepControl`] is handed to [`OccupancyMethod::try_run_on`] or
//! [`validation_sweep`]; firing its [`CancelToken`] makes the sweep
//! stop at the next `(scale, tile)` item boundary — and, inside a running
//! DP, within one [`CANCEL_STRIDE`](saturn_trips::CANCEL_STRIDE) of steps —
//! after which the entry point returns [`Cancelled`](crate::Cancelled) and every partial
//! result is discarded. A control whose token never fires is pure overhead
//! of a few relaxed atomic reads per work item: it cannot change results,
//! which is what keeps execution knobs out of report bytes and cache
//! fingerprints (the knob-matrix invariant).
//!
//! [`OccupancyMethod::try_run_on`]: crate::OccupancyMethod::try_run_on
//! [`validation_sweep`]: crate::validation_sweep

use saturn_trips::CancelToken;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Progress of a sweep in whole *scales* (grid points fully analyzed over
/// all their tiles). Coarse on purpose: scales are the unit a client can
/// reason about (`scales_done/scales_total` in timeout error bodies), and
/// the counters are only touched once per scale, not per tile. Validation,
/// tile-major, counts `(tile, scale)` items instead, out of scales × tiles.
///
/// `total` is set when the sweep starts from the initial grid size and grows
/// as refinement rounds append scales, so `done == total` only at the very
/// end — a snapshot mid-run can show a total that later increases.
#[derive(Debug, Default)]
pub struct SweepProgress {
    done: AtomicU64,
    total: AtomicU64,
}

impl SweepProgress {
    /// `(done, total)` at this instant.
    pub fn snapshot(&self) -> (u64, u64) {
        (self.done.load(Ordering::Acquire), self.total.load(Ordering::Acquire))
    }

    /// Sets the expected scale count (used by submitters that know the grid
    /// size before the sweep starts; overwritten with the authoritative
    /// value when the sweep itself begins).
    pub fn set_total(&self, scales: u64) {
        self.total.store(scales, Ordering::Release);
    }

    /// Grows the expected scale count (refinement rounds).
    pub fn add_total(&self, scales: u64) {
        self.total.fetch_add(scales, Ordering::AcqRel);
    }

    /// Records `scales` more scales as fully analyzed.
    pub fn add_done(&self, scales: u64) {
        self.done.fetch_add(scales, Ordering::AcqRel);
    }
}

/// One completed `(scale, tile)` work item of a sweep, reported to a
/// [`SweepObserver`] the moment its DP finishes. Purely observational: every
/// field is measured *after* the tile's histogram is sealed, so an observer
/// — however slow — can delay the sweep but never change its output.
#[derive(Clone, Copy, Debug)]
pub struct TileSpan {
    /// The scale (number of aggregation windows `k`) this tile belongs to.
    pub k: u64,
    /// First destination column of the tile.
    pub col_start: u32,
    /// Number of destination columns.
    pub col_len: u32,
    /// Wall time of the tile's DP and of sealing its histogram, in seconds.
    pub seconds: f64,
    /// Minimal trips reported by the tile ([`saturn_trips::DpStats`]).
    pub trips: u64,
    /// Edge traversals processed (repeated per tile, not partitioned).
    pub traversals: u64,
    /// Source cells merged after delta filtering ([`saturn_trips::DpStats`]).
    pub chain_offers: u64,
    /// Snapshot cells copied after delta filtering.
    pub snap_entries: u64,
    /// Steps taken through the degree-1 fast path.
    pub degree1_steps: u64,
    /// Whether this tile completed its scale (all sibling tiles done).
    pub last_tile_of_scale: bool,
}

impl TileSpan {
    /// The span as one JSON line (no trailing newline) — the
    /// `SATURN_TRACE=json` wire format. Hand-rolled: every field is a
    /// number or bool, and keeping core free of serializer dependencies
    /// matters more than generality here.
    pub fn to_json_line(&self) -> String {
        format!(
            concat!(
                "{{\"span\":\"tile\",\"k\":{},\"col_start\":{},\"col_len\":{},",
                "\"seconds\":{:.6},\"trips\":{},\"traversals\":{},\"chain_offers\":{},",
                "\"snap_entries\":{},\"degree1_steps\":{},\"last_tile_of_scale\":{}}}"
            ),
            self.k,
            self.col_start,
            self.col_len,
            self.seconds,
            self.trips,
            self.traversals,
            self.chain_offers,
            self.snap_entries,
            self.degree1_steps,
            self.last_tile_of_scale,
        )
    }
}

/// Callback surface for per-tile sweep telemetry, attached to a
/// [`SweepControl`]. Called from worker threads, possibly concurrently —
/// implementations must be cheap and internally synchronized. Cancelled
/// tiles are never reported (their stats are garbage by contract).
///
/// Like the cancel token and progress counters, an observer is an
/// *execution* knob: attaching one cannot change report bytes or cache
/// fingerprints (see the module docs and the knob-matrix CI job).
pub trait SweepObserver: Send + Sync {
    /// One `(scale, tile)` item finished; `span` is its measurement.
    fn tile_done(&self, span: &TileSpan);
}

/// A [`SweepObserver`] that writes each span as a JSON line to stderr — the
/// `SATURN_TRACE=json` sink, shared by the CLI and the server. Lines go
/// through a single locked write each, so concurrent workers interleave at
/// line granularity only.
#[derive(Debug, Default)]
pub struct JsonTraceObserver;

impl SweepObserver for JsonTraceObserver {
    fn tile_done(&self, span: &TileSpan) {
        let mut line = span.to_json_line();
        line.push('\n');
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
}

/// Whether `SATURN_TRACE=json` is set in the environment — the CLI and
/// server both consult this to decide if a [`JsonTraceObserver`] should be
/// attached.
pub fn json_trace_from_env() -> bool {
    std::env::var("SATURN_TRACE").is_ok_and(|v| v == "json")
}

/// Cancellation token + progress counters of one sweep, shared by handle.
#[derive(Default)]
pub struct SweepControl {
    /// Fire to stop the sweep at its next safe point.
    pub cancel: CancelToken,
    /// Scale-granular progress, readable while the sweep runs.
    pub progress: SweepProgress,
    /// Optional per-tile telemetry callback; `None` costs nothing.
    pub observer: Option<Arc<dyn SweepObserver>>,
}

impl fmt::Debug for SweepControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepControl")
            .field("cancel", &self.cancel)
            .field("progress", &self.progress)
            .field("observer", &self.observer.as_ref().map(|_| "Arc<dyn SweepObserver>"))
            .finish()
    }
}

impl SweepControl {
    /// A control in the initial state: token unfired, no progress.
    pub fn new() -> Self {
        Self::default()
    }

    /// A control with a telemetry observer attached from the start.
    pub fn with_observer(observer: Arc<dyn SweepObserver>) -> Self {
        Self { observer: Some(observer), ..Self::default() }
    }
}
