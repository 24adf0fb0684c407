//! The harness's own span recorder: one span per call into a layer, held
//! in memory and written out as JSON lines when the run ends.
//!
//! Spans are recorded from the harness around `pub` calls only; spans
//! inside `run_machine`, `CommEndpoint` and `WireServer` are a later change
//! (ROADMAP's `DNE_TRACE` item). A disabled tracer records nothing, so the
//! untraced pass pays one branch per layer call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::quote;

/// One recorded span. Times are microseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.partition`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// Counts measured at this boundary (rounds, frames, bytes, …).
    pub counts: Vec<(&'static str, f64)>,
}

/// In-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Switch recording on or off between spans (the traced pass alternates
    /// traced and untraced cycles to measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "cannot toggle tracing inside a span");
        self.enabled = enabled;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let (true, Some(&id)) = (self.enabled, self.open.last()) {
            self.spans[id].counts.push((key, value));
        }
    }

    /// Record a span that ran elsewhere (another thread) between two
    /// instants, as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_us: us(start),
                end_us: us(end),
                counts: Vec::new(),
            });
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover. Children may overlap (the server thread runs beside
    /// the client phases), so the covered part is the union of their spans.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, covered)| {
                covered.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
                let (mut own, mut reached) = (s.end_us - s.start_us, s.start_us);
                for &(start, end) in covered.iter() {
                    own -= (end.min(s.end_us) - start.max(reached)).max(0.0);
                    reached = reached.max(end);
                }
                own
            })
            .collect()
    }

    /// Write one JSON object per span to `path`; `workload` is the
    /// identifier every span of the run shares.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((id, s), self_us) in self.spans.iter().enumerate().zip(self.self_times_us()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> =
                s.counts.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"workload\": {}, \"name\": {}, \
                 \"start_us\": {}, \"end_us\": {}, \"self_us\": {self_us}, \"counts\": {{{}}}}}",
                quote(workload),
                quote(s.name),
                s.start_us,
                s.end_us,
                counts.join(", ")
            )?;
        }
        out.flush()
    }
}
