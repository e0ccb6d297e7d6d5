//! The batch workloads: one long-span or one dense trace, analyzed in
//! process through the public library API at `nproc` threads and at one
//! thread, alternately, until the run's time is spent.
//!
//! Inputs: each workload is one fixed stand-in dataset (generated from a
//! fixed dataset seed, as a real trace would be one fixed file); the run
//! seed relabels its nodes and jitters every timestamp by up to
//! [`JITTER_TICKS`]. Different seeds therefore give different traces of the
//! same size and texture, so run-to-run spread measures the system rather
//! than the luck of the generator.
//!
//! Correctness: every report must be byte-identical to the first one-thread
//! report of the run (reports are deterministic across thread counts).
//!
//! The traced run adds the per-layer attribution of [`pipeline::replay`]
//! and checks its traced wall time against untraced one-thread analyses
//! of the same trace.

use crate::pipeline::{self, ATTRIBUTION_TOLERANCE, OVERHEAD_TOLERANCE};
use crate::trace::Tracer;
use crate::util::{median, nproc, peak_rss_mb, reset_peak_rss, since, timed, Rng};
use crate::{Config, Outcome};
use saturn_core::parallel::WorkerPool;
use saturn_core::{fingerprint, SweepGrid};
use saturn_linkstream::{io, Directedness};
use saturn_synth::DatasetProfile;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Trace {
    /// The enron stand-in: 365 days, so fine scales reach ~10^7 windows
    /// and timeline building and scoring are a large share.
    Enron,
    /// The manufacturing stand-in: dense and trip-heavy, so the DP and the
    /// trip sink do nearly all the work.
    Manufacturing,
}

impl Trace {
    fn profile(self, smoke: bool) -> DatasetProfile {
        // node and event counts scaled so one analysis takes well under a
        // second on two cores; the span (and with it the window counts of
        // the fine scales) stays the published one
        match (self, smoke) {
            (Trace::Enron, false) => DatasetProfile::enron().scaled(0.3),
            (Trace::Enron, true) => DatasetProfile::enron().scaled(0.1),
            (Trace::Manufacturing, false) => DatasetProfile::manufacturing().scaled(0.2),
            (Trace::Manufacturing, true) => DatasetProfile::manufacturing().scaled(0.04),
        }
    }
}

/// Pool set-ups timed before each analysis pair; `setup_s` is the median
/// over the run.
const SETUPS_PER_ROUND: usize = 5;
/// The dataset seed of both stand-ins.
const DATASET_SEED: u64 = 1;
/// Largest timestamp jitter the run seed applies, in ticks (seconds).
const JITTER_TICKS: i64 = 60;

/// The stand-in dataset as trace text, perturbed by `seed`: nodes relabeled
/// by a seeded permutation, timestamps jittered by up to ±`JITTER_TICKS`.
fn perturbed(profile: &DatasetProfile, seed: u64) -> String {
    let stream = profile.generate(DATASET_SEED);
    let mut rng = Rng::new(seed);
    let mut perm: Vec<usize> = (0..stream.node_count()).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut events: Vec<(i64, usize, usize)> = stream
        .events()
        .iter()
        .map(|l| {
            let jitter = rng.below(2 * JITTER_TICKS as u64 + 1) as i64 - JITTER_TICKS;
            (l.t.ticks() + jitter, perm[l.u.0 as usize], perm[l.v.0 as usize])
        })
        .collect();
    events.sort_unstable();
    let mut text = String::with_capacity(events.len() * 16);
    for (t, u, v) in events {
        let _ = writeln!(text, "v{u} v{v} {t}");
    }
    text
}

pub fn run(cfg: &Config, tracer: &Tracer, which: Trace) -> Outcome {
    let mut out = Outcome::default();
    let text = perturbed(&which.profile(cfg.smoke), cfg.seed);
    let directedness = Directedness::Directed;
    let grid = SweepGrid::default();
    let method = pipeline::method(grid.clone());

    let mut pool = WorkerPool::new(nproc());
    let mut pool_1t = WorkerPool::new(1);

    // the reference report (also lets lazy allocation settle before timing)
    let (reference, report) = pipeline::analyze(&text, directedness, &method, &mut pool_1t);

    let (mut multi, mut single, mut setups, mut peaks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while multi.len() < 5 || since(started) < cfg.seconds {
        // set-up: the worker pool every analysis runs on, sampled across
        // the whole run rather than in one burst
        setups.extend((0..SETUPS_PER_ROUND).map(|_| timed(|| WorkerPool::new(nproc())).1));
        for (threads, samples) in [(nproc(), &mut multi), (1, &mut single)] {
            let p = if threads == 1 { &mut pool_1t } else { &mut pool };
            let reset = threads > 1 && reset_peak_rss();
            let ((json, _), secs) =
                timed(|| pipeline::analyze(&text, directedness, &method, p));
            if reset {
                peaks.push(peak_rss_mb());
            }
            out.check(json == reference);
            samples.push(secs);
        }
    }
    let analyze_s = median(&multi);
    out.set("setup_s", median(&setups));
    out.set("analyze_s", analyze_s);
    out.set("analyze_1t_s", median(&single));
    // one analysis at a time: goodput is the median analysis rate
    out.set("goodput_rps", 1.0 / analyze_s);
    // the user's request here is one analysis
    out.set("request_p50_ms", analyze_s * 1e3);
    // the median peak of one nproc analysis (whole-process peak where the
    // kernel does not allow resetting it)
    if !peaks.is_empty() {
        out.set("peak_rss_mb", median(&peaks));
    }
    println!(
        "{} events, {} scales, {} nproc + {} one-thread analyses",
        text.lines().count(),
        report.results().len(),
        multi.len(),
        single.len()
    );

    if tracer.enabled() {
        attribute(tracer, &mut out, &text, directedness, &grid, &report);
        out.set("parallel.speedup", median(&single) / analyze_s);
    }
    out
}

/// Runs the traced replays and records the per-layer metrics; fails the
/// run as [`check_attribution`] says.
pub fn attribute(
    tracer: &Tracer,
    out: &mut Outcome,
    text: &str,
    directedness: Directedness,
    grid: &SweepGrid,
    report: &saturn_core::OccupancyReport,
) {
    let (mut layers, untraced_1t_s) =
        pipeline::replay_against_untraced(tracer, text, directedness, grid, report);
    let stream = io::read_str(text, directedness).expect("generated traces parse");
    let request = tracer.request_id();
    layers.digest_s = timed(|| {
        tracer.span("fingerprint.digest", 0, request, |_| fingerprint::stream_digest(&stream))
    })
    .1;
    record_layers(out, &layers);
    check_attribution(out, &layers, untraced_1t_s);
}

/// Records `trace.overhead_frac` and counts one check that fails when the
/// replay disagrees with the report, leaves more than
/// [`ATTRIBUTION_TOLERANCE`] of its wall time unattributed, or differs from
/// the untraced one-thread time by more than [`OVERHEAD_TOLERANCE`].
pub fn check_attribution(out: &mut Outcome, layers: &pipeline::Layers, untraced_1t_s: f64) {
    let unattributed = layers.unattributed_s / layers.wall_s;
    let overhead = layers.wall_s / untraced_1t_s - 1.0;
    out.set("trace.overhead_frac", overhead);
    let ok = layers.mismatches == 0
        && unattributed <= ATTRIBUTION_TOLERANCE
        && overhead.abs() <= OVERHEAD_TOLERANCE;
    out.check(ok);
    println!(
        "attribution: traced wall {:.4} s vs untraced one-thread {:.4} s ({:+.1}%, tolerance {:.0}%); \
         unattributed {:.2}% (tolerance {:.0}%), {} scale mismatches",
        layers.wall_s,
        untraced_1t_s,
        overhead * 100.0,
        OVERHEAD_TOLERANCE * 100.0,
        unattributed * 100.0,
        ATTRIBUTION_TOLERANCE * 100.0,
        layers.mismatches
    );
}

/// Copies replayed layer figures into the per-layer metrics.
pub fn record_layers(out: &mut Outcome, l: &pipeline::Layers) {
    out.set("io.parse_s", l.parse_s);
    out.set("io.events", l.events);
    out.set("timeline.view_s", l.view_s);
    out.set("timeline.build_s", l.build_s);
    out.set("timeline.steps", l.steps);
    out.set("timeline.edges", l.edges);
    out.set("dp.s", l.dp_s);
    out.set("dp.trips", l.trips);
    out.set("dp.chain_offers", l.chain_offers);
    out.set("dp.traversals", l.traversals);
    out.set(
        "dp.offer_yield",
        if l.chain_offers > 0.0 { l.trips / l.chain_offers } else { 0.0 },
    );
    out.set("occupancy.sink_s", l.sink_s());
    out.set("occupancy.distinct_rates", l.distinct_rates);
    out.set("method.scales", l.scales);
    out.set("method.rest_s", l.merge_s + l.score_s);
    out.set("report.to_json_s", l.to_json_s);
    out.set("fingerprint.digest_s", l.digest_s);
    out.set(
        "trace.unattributed_frac",
        if l.wall_s > 0.0 { l.unattributed_s / l.wall_s } else { 0.0 },
    );
}
