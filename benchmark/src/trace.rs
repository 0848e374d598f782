//! Outside-in spans: recorded here, around the calls into each layer,
//! kept in memory and written out once the run ends.

use crate::json::Json;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u64;

#[derive(Debug, Clone)]
pub struct Span {
    pub span_id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (bytes, lane nanoseconds, ...).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Span sink of one benchmark run. With tracing off every call is a no-op
/// returning span id 0, so the end-to-end pass pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    trace_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, trace_id: u64) -> Self {
        Self {
            enabled,
            trace_id,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        counts: Vec<(&'static str, f64)>,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let span_id = self.spans.len() as SpanId + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            span_id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            counts,
        });
        span_id
    }

    /// Open a span whose end is not known yet; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now, Vec::new())
    }

    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            let now = self.ns(Instant::now());
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Time `f` as a child span of `parent`.
    pub fn scope<T>(&mut self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now(), Vec::new());
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of `parent`'s direct children, in seconds. A span's self
    /// time is its own duration minus their sum.
    pub fn children_seconds(&self, parent: SpanId) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::seconds)
            .collect()
    }

    /// One JSON object per line, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj([
                ("trace_id", Json::Num(self.trace_id as f64)),
                ("span_id", Json::Num(s.span_id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(s.name.clone())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "counts",
                    Json::obj(s.counts.iter().map(|(k, v)| (*k, Json::Num(*v)))),
                ),
            ]);
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true, 7);
        let root = t.begin("root", None);
        t.scope("child", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let root_span = &t.spans()[0];
        let children: f64 = t.children_seconds(root).iter().sum();
        assert!(children >= 0.002 && children <= root_span.seconds());
        // Disabled tracers record nothing.
        let mut off = Tracer::new(false, 7);
        let id = off.begin("x", None);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
