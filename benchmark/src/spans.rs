//! Benchmark-side spans: one per call the benchmark makes into a layer,
//! recorded around the call from outside the program. Kept in memory and
//! written out as JSON lines when the traced pass ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Spans kept per log; a 2 s trace of null calls would otherwise write
/// tens of megabytes nobody reads past the first few thousand lines.
const MAX_SPANS: usize = 50_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Identifier shared by the spans of one operation.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
    skipped: u64,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            skipped: 0,
        }
    }

    /// Reserve the id of a span whose children are recorded before it ends.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a finished span under an id from [`reserve`](SpanLog::reserve).
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() >= MAX_SPANS {
            self.skipped += 1;
            return;
        }
        let nanos = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: nanos(start),
            end_ns: nanos(end),
        });
    }

    /// Record a finished span that has no children.
    pub fn leaf(&mut self, parent: u64, op: u64, name: &'static str, start: Instant, end: Instant) {
        let id = self.reserve();
        self.record(id, parent, op, name, start, end);
    }

    /// Write one JSON object per span, then a trailer with the skip count.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj()
                .with("id", s.id)
                .with("parent", s.parent)
                .with("op", s.op)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns);
            writeln!(out, "{line}")?;
        }
        writeln!(out, "{}", Json::obj().with("skipped_spans", self.skipped))?;
        out.flush()
    }
}
