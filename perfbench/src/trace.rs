//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public API: a span has
//! a name, a start, an end, a parent span and a request id shared by every
//! span of one request. Spans are kept in memory and written out as JSON
//! lines when the run ends. A layer's self time is its spans' durations
//! minus the parts covered by their child spans.
//!
//! A disabled tracer records nothing (one branch per call site), which is
//! how end-to-end runs keep tracing off.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `parent` (0 = root) for
    /// `request`; `f` receives the new span's id to parent its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("a traced thread panicked").push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// A fresh request id.
    pub fn request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a traced thread panicked").clone()
    }

    /// Self time per span name: each span's duration minus the durations of
    /// its direct children, summed over every span of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_time.entry(s.parent).or_default() += s.seconds();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &spans {
            let own = s.seconds() - child_time.get(&s.id).copied().unwrap_or(0.0);
            *out.entry(s.name).or_default() += own;
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut text = String::new();
        for s in self.spans() {
            let _ = writeln!(
                text,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
